"""Batch query evaluation with shared-subquery memoization.

The paper's future-work item (6) asks for "a deeper study of nested set
caching mechanisms ... e.g., caching with respect to an evolving query
workload".  The block cache and its frequency pins (Section 3.3) operate
at the *posting-list* level; this module caches one level higher: the **match
set of a whole subquery**.  Nested sets are hashable values, so when a
workload's queries share subtrees (common when queries are sampled from
the collection, or generated from templates), every shared subtree is
evaluated once per batch.

:func:`memoized_match_ids` is the core: a bottom-up evaluation over
the *distinct* subtrees of a query, reusing any match set already in
the memo (:func:`memoized_match_nodes` is the same as a frozen set).
It is exact: results equal the plain algorithms' results (tested
property).  The execution layer taps into it whenever an
:class:`~repro.core.exec.context.ExecutionContext` carries a shared
memo dict (``NestedSetIndex.query_batch``, the batched join strategy);
:class:`BatchEvaluator` remains the standalone convenience wrapper.

:class:`QueryFold` is the memo's whole-query level, lifted out of the
evaluation: a batch that asks for sharing folds its repeated queries
before anything is compiled, dispatched or evaluated, so each distinct
query costs one evaluation and one key lookup per partition.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .invfile import InvertedFile
from .matchspec import QuerySpec
from .model import NestedSet
from .postings import MatchIds, id_set
from .structural import evaluate_node


def memoized_match_nodes(query: NestedSet, ifile: InvertedFile,
                         spec: QuerySpec,
                         memo: dict[NestedSet, MatchIds],
                         counters: object | None = None) -> frozenset[int]:
    """Node ids at which ``query`` embeds (memoized bottom-up)."""
    return frozenset(id_set(memoized_match_ids(query, ifile, spec, memo,
                                               counters)))


def memoized_match_ids(query: NestedSet, ifile: InvertedFile,
                       spec: QuerySpec,
                       memo: dict[NestedSet, MatchIds],
                       counters: object | None = None) -> MatchIds:
    """:func:`memoized_match_nodes` with the match set as the memo holds it.

    ``memo`` maps subquery values to match sets and may be shared across
    any number of queries evaluated against the same (unmutated) index.
    Its values are what :func:`~repro.core.structural.evaluate_node`
    produced -- a set, or the sorted id array of a long list, which the
    next level's ``H(·)`` takes as it is -- and must not be mutated.
    ``counters``, if given, must expose ``subqueries_evaluated`` and
    ``subqueries_reused`` int attributes (e.g.
    :class:`~repro.core.exec.context.ExecCounters`).
    """
    # Post-order over the distinct subtrees on an explicit stack (any
    # depth the parser accepts): a node is looked up when first met and
    # evaluated, children first, only on a miss.
    work: list[tuple[NestedSet, bool]] = [(query, False)]
    while work:
        node, expanded = work.pop()
        if expanded:
            child_sets = [memo[child] for child in node.children]
            memo[node] = evaluate_node(node, child_sets, ifile, spec)
            if counters is not None:
                counters.subqueries_evaluated += 1
        elif node in memo:
            if counters is not None:
                counters.subqueries_reused += 1
        else:
            work.append((node, True))
            work.extend((child, False) for child in node.children)
    return memo[query]


class QueryFold:
    """A batch's repeated queries folded onto one evaluation each.

    ``distinct`` holds every distinct query once, in first-seen order
    (nested sets cache their hash, so folding is one dict pass).  The
    caller evaluates ``distinct``, charges each partition's counters
    with :meth:`charge`, and :meth:`unfold`\\ s the answers back onto the
    input positions.
    """

    __slots__ = ("distinct", "copies", "_slots")

    def __init__(self, queries: Iterable[NestedSet]) -> None:
        slot_of: dict[NestedSet, int] = {}
        self._slots = [slot_of.setdefault(query, len(slot_of))
                       for query in queries]
        self.distinct: list[NestedSet] = list(slot_of)
        #: Inputs answered by another position's evaluation.
        self.copies = len(self._slots) - len(self.distinct)

    def charge(self, counters: object) -> None:
        """Count the folded copies as the unfolded loop counted them
        with the whole-query memo: one query and one reuse each."""
        counters.queries += self.copies
        counters.subqueries_reused += self.copies

    def unfold(self, answers: list[list[str]]) -> list[list[str]]:
        """One answer per input position, in input order.

        Every position gets its own list: a repeat receives a copy, so
        a caller mutating one answer never changes another.
        """
        if not self.copies:
            return answers
        taken = [False] * len(answers)
        out = []
        for slot in self._slots:
            if taken[slot]:
                out.append(list(answers[slot]))
            else:
                taken[slot] = True
                out.append(answers[slot])
        return out


class BatchEvaluator:
    """Evaluates a workload against one index, memoizing subquery results."""

    def __init__(self, ifile: InvertedFile,
                 spec: QuerySpec = QuerySpec()) -> None:
        self._ifile = ifile
        self.spec = spec
        self._memo: dict[NestedSet, MatchIds] = {}
        self.subqueries_evaluated = 0
        self.subqueries_reused = 0

    def match_nodes(self, query: NestedSet) -> frozenset[int]:
        """Node ids at which ``query`` embeds (memoized bottom-up)."""
        return memoized_match_nodes(query, self._ifile, self.spec,
                                    self._memo, counters=self)

    def query(self, query: NestedSet) -> list[str]:
        """Record keys matching one query (under the batch's spec)."""
        heads = memoized_match_ids(query, self._ifile, self.spec,
                                   self._memo, counters=self)
        return self._ifile.heads_to_keys(heads, mode=self.spec.mode)

    def query_all(self, queries: Iterable[NestedSet]) -> list[list[str]]:
        """Evaluate the whole workload, sharing subquery results."""
        return [self.query(query) for query in queries]

    @property
    def memo_size(self) -> int:
        return len(self._memo)

    def clear(self) -> None:
        """Drop the memo (e.g. after index updates)."""
        self._memo.clear()


def batch_query(ifile: InvertedFile, queries: Sequence[NestedSet],
                spec: QuerySpec = QuerySpec()) -> list[list[str]]:
    """One-shot convenience wrapper around :class:`BatchEvaluator`."""
    return BatchEvaluator(ifile, spec).query_all(queries)
