"""Index integrity checking: verify every structural invariant.

A disk-resident index accumulates state through builds, inserts, deletes
and compactions; ``check_index`` audits all of it against the record
table (the ground truth) and returns a list of human-readable problems --
empty means healthy.  Invariants audited:

1.  configuration counters match the record/metadata tables;
2.  node ids are preorder ranks: every record owns a contiguous id
    interval; ``max_desc`` intervals are properly nested (laminar);
3.  node metadata (leaf counts, record ordinals, root flags) agrees with
    a re-walk of the stored record trees;
4.  every posting list is readable, sorted, references valid nodes, and
    contains exactly the (atom, node) pairs of the record trees;
5.  the ALL / ZERO lists cover exactly the internal / leaf-less nodes;
6.  the key map is a bijection onto live records;
7.  the frequency table dominates true document frequencies (equality
    required when no tombstones exist -- deletes legitimately leave the
    table stale until compaction).

Used by ``nestcontain check`` and the crash-consistency tests.
"""

from __future__ import annotations

from .invfile import InvertedFile
from .model import NestedSet


def check_index(ifile: InvertedFile, *, max_atoms: int | None = None
                ) -> list[str]:
    """Audit the index; returns a list of problems (empty = healthy).

    ``max_atoms`` bounds the posting-list audit to the hottest atoms
    (None = all) for quick checks on large indexes.
    """
    problems: list[str] = []
    report = problems.append

    # -- ground truth: re-walk every stored record -------------------------
    expected_meta: dict[int, tuple[int, int, int, bool]] = {}
    expected_postings: dict[object, set[int]] = {}
    expected_children: dict[int, tuple[int, ...]] = {}
    live_keys: dict[str, int] = {}
    n_nodes_seen = 0

    for ordinal in range(ifile.n_records):
        try:
            key, root_id, tree = ifile.record(ordinal)
        except Exception as exc:  # noqa: BLE001 -- auditing, report & go on
            report(f"record {ordinal}: unreadable ({exc})")
            continue
        if ordinal not in ifile.deleted:
            if key in live_keys:
                report(f"duplicate live key {key!r} "
                       f"(ordinals {live_keys[key]} and {ordinal})")
            live_keys[key] = ordinal
        next_id = root_id

        def walk(node: NestedSet, is_root: bool) -> int:
            nonlocal next_id
            node_id = next_id
            next_id += 1
            child_ids = tuple(
                walk(child, False)
                for child in sorted(node.children,
                                    key=lambda c: c.to_text()))
            expected_meta[node_id] = (ordinal, len(node.atoms),
                                      next_id - 1, is_root)
            expected_children[node_id] = child_ids
            for atom in node.atoms:
                expected_postings.setdefault(atom, set()).add(node_id)
            return node_id

        walk(tree, True)
        n_nodes_seen += tree.internal_count

    # -- 1. configuration ------------------------------------------------------
    if n_nodes_seen != ifile.n_nodes:
        report(f"config says {ifile.n_nodes} nodes, record trees have "
               f"{n_nodes_seen}")
    for ordinal in ifile.deleted:
        if not 0 <= ordinal < ifile.n_records:
            report(f"deleted set references unknown ordinal {ordinal}")

    # -- 2/3. node metadata --------------------------------------------------------
    for node_id, (record, leaf_count, max_desc,
                  is_root) in expected_meta.items():
        try:
            meta = ifile.meta(node_id)
        except Exception as exc:  # noqa: BLE001
            report(f"node {node_id}: metadata unreadable ({exc})")
            continue
        if (meta.record, meta.leaf_count, meta.max_desc, meta.is_root) != \
                (record, leaf_count, max_desc, is_root):
            report(f"node {node_id}: metadata {tuple(meta)} != expected "
                   f"{(record, leaf_count, max_desc, is_root)}")

    # -- 4. posting lists -------------------------------------------------------------
    frequencies = dict(ifile.frequencies())
    audit_atoms = list(expected_postings)
    if max_atoms is not None:
        audit_atoms = sorted(
            audit_atoms, key=lambda a: -len(expected_postings[a]))[:max_atoms]
    for atom in audit_atoms:
        try:
            plist = ifile.postings(atom)
            heads = [p for p, _c in plist]
        except Exception as exc:  # noqa: BLE001
            report(f"atom {atom!r}: posting list unreadable ({exc})")
            continue
        if heads != sorted(heads):
            report(f"atom {atom!r}: posting list not sorted")
        if len(set(heads)) != len(heads):
            report(f"atom {atom!r}: duplicate heads in posting list")
        actual = set(heads)
        expected_live = {node_id for node_id in expected_postings[atom]}
        if not actual >= expected_live:
            missing = sorted(expected_live - actual)[:5]
            report(f"atom {atom!r}: posting list misses nodes {missing}")
        extra = actual - expected_live
        if extra:
            report(f"atom {atom!r}: posting list has alien nodes "
                   f"{sorted(extra)[:5]}")
        for p, children in plist:
            if expected_children.get(p) != children:
                report(f"atom {atom!r}: node {p} children {children} != "
                       f"expected {expected_children.get(p)}")
                break
        df = frequencies.get(atom, 0)
        if df < len(expected_postings[atom]):
            report(f"atom {atom!r}: frequency {df} below true df "
                   f"{len(expected_postings[atom])}")
        if not ifile.deleted and df != len(expected_postings[atom]):
            report(f"atom {atom!r}: frequency {df} != df "
                   f"{len(expected_postings[atom])} with no tombstones")

    # -- 5. ALL / ZERO lists -------------------------------------------------------------
    all_heads = [p for p, _c in ifile.all_nodes()]
    if all_heads != sorted(set(all_heads)):
        report("ALL list is not sorted-unique")
    if set(all_heads) != set(expected_meta):
        report(f"ALL list covers {len(all_heads)} nodes, expected "
               f"{len(expected_meta)}")
    zero_heads = {p for p, _c in ifile.zero_leaf_nodes()}
    expected_zero = {node_id for node_id, (_r, leaf_count, _m, _f)
                     in expected_meta.items() if leaf_count == 0}
    if zero_heads != expected_zero:
        report(f"ZERO list has {len(zero_heads)} nodes, expected "
               f"{len(expected_zero)}")

    # -- 6. key map ------------------------------------------------------------------------
    for key, ordinal in live_keys.items():
        mapped = ifile.ordinal_of_key(key)
        if mapped != ordinal:
            report(f"key map: {key!r} -> {mapped}, expected {ordinal}")

    return problems


def assert_healthy(ifile: InvertedFile, **options: object) -> None:
    """Raise AssertionError listing every invariant violation found."""
    problems = check_index(ifile, **options)  # type: ignore[arg-type]
    if problems:
        summary = "\n  ".join(problems[:20])
        raise AssertionError(
            f"index integrity check found {len(problems)} problem(s):\n"
            f"  {summary}")
