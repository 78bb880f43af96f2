"""The nested set data model (Section 2 of the paper).

A *nested set* is a finite set whose elements are atomic values (strings or
integers) or, recursively, nested sets.  Equivalently it is an unordered
node-labeled rooted tree in which internal nodes denote sets and leaves
denote atoms (Figure 1 of the paper).  No restriction is placed on
cardinality or nesting depth, and there is no ordering among elements.

:class:`NestedSet` is an immutable, hashable value type, so nested sets can
themselves be members of Python sets and dict keys, and structural equality
is exactly set equality of the modeled sets.

A small text syntax is provided::

    {London, UK, {UK, {A, B, C, car, motorbike}}, {UK, {A, motorbike}}}

Atoms are bare tokens (letters, digits, ``_``, ``-``, ``.``, ``:``, ``=``,
``/``, ``@``, ``#``), quoted strings (``"has, comma"``), or integers (bare
digit tokens parse as ``int``).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterable, Iterator, Union

#: Atomic values: strings or integers (the paper's "universe of atomic
#: objects (e.g., strings or integers)").
Atom = Union[str, int]

_BARE_EXTRA = set("_-.:=/@#+")


class NestedSetError(ValueError):
    """Raised for malformed nested set construction or parse input."""


def _is_atom(obj: object) -> bool:
    return isinstance(obj, (str, int)) and not isinstance(obj, bool)


class NestedSet:
    """An immutable nested set.

    ``atoms`` holds the atomic members, ``children`` the set-valued members.
    Duplicates collapse by construction, matching set semantics.
    """

    __slots__ = ("_atoms", "_children", "_hash")

    def __init__(self, atoms: Iterable[Atom] = (),
                 children: Iterable["NestedSet"] = ()) -> None:
        atom_set = frozenset(atoms)
        for atom in atom_set:
            if not _is_atom(atom):
                raise NestedSetError(
                    f"atoms must be str or int, got {type(atom).__name__}")
        child_set = frozenset(children)
        for child in child_set:
            if not isinstance(child, NestedSet):
                raise NestedSetError(
                    f"children must be NestedSet, got {type(child).__name__}")
        self._atoms = atom_set
        self._children = child_set
        self._hash = hash((self._atoms, self._children))

    @classmethod
    def _from_trusted(cls, atom_set: frozenset,
                      child_set: frozenset) -> "NestedSet":
        """Construction fast path skipping membership validation.

        Only for decoders whose inputs are already frozensets of
        checked types (the binary wire codec tags every atom) -- the
        per-member isinstance sweep in ``__init__`` is measurable on
        the server's request hot path.
        """
        self = object.__new__(cls)
        self._atoms = atom_set
        self._children = child_set
        self._hash = hash((atom_set, child_set))
        return self

    # -- accessors -----------------------------------------------------------

    @property
    def atoms(self) -> frozenset:
        """The atomic members (leaf children in tree form)."""
        return self._atoms

    @property
    def children(self) -> frozenset:
        """The set-valued members (internal children in tree form)."""
        return self._children

    @property
    def is_empty(self) -> bool:
        """True for the empty set ``{}``."""
        return not self._atoms and not self._children

    @property
    def cardinality(self) -> int:
        """Number of direct members (atoms plus sets)."""
        return len(self._atoms) + len(self._children)

    @property
    def depth(self) -> int:
        """Nesting depth: 1 for a flat set, 1 + max child depth otherwise."""
        depth, level = 0, [self]
        while level:
            depth += 1
            level = [child for node in level for child in node._children]
        return depth

    @property
    def internal_count(self) -> int:
        """Number of internal nodes (sets) in the tree encoding."""
        return sum(1 for _node in self.iter_sets())

    @property
    def leaf_count(self) -> int:
        """Total number of leaves (atom occurrences) in the tree encoding."""
        return sum(len(node._atoms) for node in self.iter_sets())

    @property
    def size(self) -> int:
        """Total node count |q| = internal nodes + leaves (analysis of §3)."""
        return self.internal_count + self.leaf_count

    def iter_sets(self) -> Iterator["NestedSet"]:
        """Preorder iteration over this set and every nested set inside it."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node._children)

    def all_atoms(self) -> frozenset:
        """Every atom occurring at any nesting level."""
        out: set = set()
        for node in self.iter_sets():
            out |= node._atoms
        return frozenset(out)

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_obj(cls, obj: object) -> "NestedSet":
        """Build from nested Python containers.

        ``set``/``frozenset``/``list``/``tuple`` become nested sets; strings
        and ints become atoms.  Lists and tuples are treated as sets (order
        and duplicates are discarded), matching the paper's data model.
        The walk keeps its own stack, so any depth builds; a container
        that holds itself is refused.
        """
        if isinstance(obj, NestedSet):
            return obj
        # One frame per open container: the container, its members
        # still to visit, the finished atoms and children.
        on_path: set[int] = set()
        stack = [_open_container(obj, on_path)]
        while True:
            container, pending, atoms, children = stack[-1]
            for member in pending:
                if _is_atom(member):
                    atoms.append(member)
                elif isinstance(member, NestedSet):
                    children.append(member)
                else:
                    stack.append(_open_container(member, on_path))
                    break
            else:
                stack.pop()
                on_path.discard(id(container))
                node = cls(atoms, children)
                if not stack:
                    return node
                stack[-1][3].append(node)

    def to_obj(self) -> frozenset:
        """Inverse of :meth:`from_obj`: nested frozensets and atoms.

        Post-order over the distinct subtrees on an explicit stack, so
        any depth converts."""
        done: dict[NestedSet, frozenset] = {}
        work: list[tuple[NestedSet, bool]] = [(self, False)]
        while work:
            node, expanded = work.pop()
            if expanded:
                done[node] = node._atoms | frozenset(
                    done[child] for child in node._children)
            elif node not in done:
                work.append((node, True))
                work.extend((child, False) for child in node._children)
        return done[self]

    # -- updates (return new sets; the type is immutable) -------------------------

    def with_atom(self, atom: Atom) -> "NestedSet":
        """Return a copy with ``atom`` added as a direct member."""
        return NestedSet(self._atoms | {atom}, self._children)

    def with_child(self, child: "NestedSet") -> "NestedSet":
        """Return a copy with ``child`` added as a set-valued member."""
        return NestedSet(self._atoms, self._children | {child})

    def without_atom(self, atom: Atom) -> "NestedSet":
        """Return a copy with ``atom`` removed (no error when absent)."""
        return NestedSet(self._atoms - {atom}, self._children)

    # -- text syntax ------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "NestedSet":
        """Parse the ``{a, b, {c}}`` text syntax."""
        parser = _Parser(text)
        result = parser.parse_set()
        parser.skip_ws()
        if not parser.at_end():
            raise NestedSetError(
                f"trailing input at position {parser.pos}: "
                f"{text[parser.pos:parser.pos + 20]!r}")
        return result

    def canonical(self) -> tuple[str, "NestedSet", list, list]:
        """``(text, self, members, atoms)``: the canonical text form with
        the same quadruple of every set-valued member, in canonical
        (text) order, and this set's atoms in canonical order.  Built
        bottom-up, so a whole tree is serialised once -- what the index
        writers walk, instead of sorting each level on a ``to_text()``
        that re-serialises the subtree below it."""
        return _canonical(self, self.canonical_members())

    def canonical_members(self) -> list:
        """The members of :meth:`canonical` alone: every set-valued
        member's quadruple in canonical order, without this set's own text
        (the top-down algorithm orders siblings by it and never needs
        the root's).  The walk keeps its own stack, so any depth the
        parser accepts is serialised."""
        # One frame per open set: the node, the members still to visit,
        # the finished members' quadruples.
        stack = [(self, iter(self._children), [])]
        while True:
            node, pending, members = stack[-1]
            for child in pending:
                stack.append((child, iter(child._children), []))
                break
            else:
                stack.pop()
                members.sort(key=itemgetter(0))
                if not stack:
                    return members
                stack[-1][2].append(_canonical(node, members))

    def to_text(self) -> str:
        """Canonical text form (members sorted, deterministic)."""
        return self.canonical()[0]

    # -- dunder -------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NestedSet):
            return NotImplemented
        if not (self._children or other._children):
            return self._atoms == other._atoms
        # Pairs to compare on an explicit stack (any depth).  Equal sets
        # hash alike, so a member's twin is the one member of equal hash.
        pending = [(self, other)]
        while pending:
            mine, theirs = pending.pop()
            if theirs is None or mine._hash != theirs._hash \
                    or mine._atoms != theirs._atoms \
                    or len(mine._children) != len(theirs._children):
                return False
            if mine._children is theirs._children:  # both empty, or shared
                continue
            twins = {child._hash: child for child in theirs._children}
            if len(twins) < len(theirs._children):  # siblings' hashes collide
                if mine._children != theirs._children:
                    return False
            else:
                for child in mine._children:
                    pending.append((child, twins.get(child._hash)))
        return True

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return self.cardinality

    def __repr__(self) -> str:
        text = self.to_text()
        if len(text) > 60:
            text = text[:57] + "..."
        return f"NestedSet({text})"


def as_nested_set(query: object) -> NestedSet:
    """Coerce a query given as text, Python nest, or NestedSet."""
    if isinstance(query, NestedSet):
        return query
    if isinstance(query, str):
        return NestedSet.parse(query)
    return NestedSet.from_obj(query)


def _open_container(obj: object, on_path: set[int]) -> tuple:
    """A :meth:`NestedSet.from_obj` frame for ``obj``; ``on_path`` holds
    the ids of the containers open around it."""
    if not isinstance(obj, (set, frozenset, list, tuple)):
        raise NestedSetError(
            f"cannot build a nested set from {type(obj).__name__}")
    if id(obj) in on_path:
        raise NestedSetError("a container cannot hold itself")
    on_path.add(id(obj))
    return obj, iter(obj), [], []


def _canonical(node: NestedSet, members: list) -> tuple:
    """``(text, node, members, atoms)`` of ``node`` over its members'
    canonical quadruples; ``atoms`` are in the order the text lists them."""
    atoms = sorted(node._atoms, key=_sort_key)
    parts = [_atom_text(atom) for atom in atoms]
    parts.extend(member[0] for member in members)
    return "{" + ", ".join(parts) + "}", node, members, atoms


def _sort_key(atom: Atom) -> tuple[int, str]:
    return (0, f"{atom:020d}") if isinstance(atom, int) else (1, atom)


def _atom_text(atom: Atom) -> str:
    if isinstance(atom, int):
        return str(atom)
    looks_numeric = _parses_as_int(atom)
    if atom and not looks_numeric and all(
            ch.isalnum() or ch in _BARE_EXTRA for ch in atom):
        return atom
    escaped = atom.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _parses_as_int(token: str) -> bool:
    """True when a bare token would be read back as an integer atom."""
    stripped = token.lstrip("+-")
    return bool(stripped) and stripped.isdigit() \
        and token[:1] != "+" and "-" not in token[1:]


class _Parser:
    """Parser for the nested set text syntax.

    ``builder(atoms, children)`` turns the member lists into the final
    value; :class:`NestedSet` uses its own constructor (collapsing
    duplicates), the bag model of :mod:`repro.core.bags` keeps them.
    """

    #: Container delimiters; the sequence model subclasses with brackets.
    OPEN = "{"
    CLOSE = "}"

    def __init__(self, text: str, builder=None) -> None:
        self.text = text
        self.pos = 0
        self.builder = builder if builder is not None else NestedSet

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def skip_ws(self) -> None:
        while not self.at_end() and self.text[self.pos].isspace():
            self.pos += 1

    def _expect(self, char: str) -> None:
        if self.at_end() or self.text[self.pos] != char:
            found = "end of input" if self.at_end() else repr(self.text[self.pos])
            raise NestedSetError(
                f"expected {char!r} at position {self.pos}, found {found}")
        self.pos += 1

    def parse_set(self):
        """Parse one container; nested ones open on an explicit stack
        (any depth)."""
        self.skip_ws()
        self._expect(self.OPEN)
        # Per open container its atoms and sub-containers, in source order.
        stack: list[list] = [[]]
        while True:
            self.skip_ws()
            ahead = self.text[self.pos] if not self.at_end() else ""
            if ahead == self.OPEN:
                self.pos += 1
                stack.append([])
                continue
            if ahead != self.CLOSE or stack[-1]:
                stack[-1].append(self._parse_atom())
            # After a member, or at the close of an empty container.
            while True:
                self.skip_ws()
                if self.at_end():
                    raise NestedSetError(
                        f"unterminated container (missing {self.CLOSE!r})")
                if self.text[self.pos] == ",":
                    self.pos += 1
                    break
                self._expect(self.CLOSE)
                value = self._finish(stack.pop())
                if not stack:
                    return value
                stack[-1].append(value)

    def _finish(self, members: list):
        """Build the container value; set/bag builders split by kind
        (dropping order), the sequence parser overrides to keep it."""
        atoms = [m for m in members if _is_atom(m)]
        children = [m for m in members if not _is_atom(m)]
        return self.builder(atoms, children)

    def _parse_atom(self) -> Atom:
        self.skip_ws()
        if self.at_end():
            raise NestedSetError("expected an atom, found end of input")
        if self.text[self.pos] == '"':
            return self._parse_quoted()
        start = self.pos
        while not self.at_end():
            ch = self.text[self.pos]
            if ch.isalnum() or ch in _BARE_EXTRA:
                self.pos += 1
            else:
                break
        token = self.text[start:self.pos]
        if not token:
            raise NestedSetError(
                f"expected an atom at position {start}, found "
                f"{self.text[start:start + 10]!r}")
        if _parses_as_int(token):
            return int(token)
        return token

    def _parse_quoted(self) -> str:
        self._expect('"')
        out: list[str] = []
        while True:
            if self.at_end():
                raise NestedSetError("unterminated quoted atom")
            ch = self.text[self.pos]
            self.pos += 1
            if ch == "\\":
                if self.at_end():
                    raise NestedSetError("dangling escape in quoted atom")
                out.append(self.text[self.pos])
                self.pos += 1
            elif ch == '"':
                return "".join(out)
            else:
                out.append(ch)


#: The paper's running example (Table 1) in text syntax, used by tests and
#: the ``driving_licenses`` example.
EXAMPLE_SUE = ("{London, UK, {UK, {A, B, C, car, motorbike}}, "
               "{UK, {A, motorbike}}}")
EXAMPLE_TIM = ("{Boston, USA, {USA, VA, {A, B, car}}, {UK, {A, motorbike}}}")
EXAMPLE_QUERY = "{USA, {UK, {A, motorbike}}}"
