"""Batch query evaluation with shared-subquery memoization.

The paper's future-work item (6) asks for "a deeper study of nested set
caching mechanisms ... e.g., caching with respect to an evolving query
workload".  The block cache and its frequency pins (Section 3.3) operate
at the *posting-list* level; this module caches one level higher: the **match
set of a whole subquery**.  Nested sets are hashable values, so when a
workload's queries share subtrees (common when queries are sampled from
the collection, or generated from templates), every shared subtree is
evaluated once per batch.

:func:`memoized_match_ids` is the one post-order memo walk: a bottom-up
evaluation over the *distinct* subtrees of a query, reusing any match
set already in the memo.  It is exact: results equal the plain
algorithms' results (tested property).  The execution layer taps into
it whenever an :class:`~repro.core.exec.context.ExecutionContext`
carries a shared memo dict (``NestedSetIndex.query_batch`` under
bottom-up, the batched join strategy), and the prefix join runs it with
the trie as its candidate source
(:func:`~repro.core.prefixjoin.prefix_join_lists`).

:class:`QueryFold` is the memo's whole-query level, lifted out of the
evaluation: a batch that asks for sharing folds its repeated queries
before anything is compiled, dispatched or evaluated, so each distinct
query costs one evaluation and one key lookup per partition.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .invfile import InvertedFile
from .matchspec import QuerySpec
from .model import NestedSet
from .postings import MatchIds, PostingList
from .structural import evaluate_node


def memoized_match_ids(query: NestedSet, ifile: InvertedFile,
                       spec: QuerySpec,
                       memo: dict[NestedSet, MatchIds],
                       counters: object | None = None,
                       candidates: Callable[[NestedSet], PostingList]
                       | None = None) -> MatchIds:
    """Node ids at which ``query`` embeds (memoized bottom-up).

    ``memo`` maps subquery values to match sets and may be shared across
    any number of queries evaluated against the same (unmutated) index.
    Its values are what :func:`~repro.core.structural.evaluate_node`
    produced -- a set, or the sorted id array of a long list, which the
    next level's ``H(·)`` takes as it is -- and must not be mutated.
    ``counters``, if given, must expose ``subqueries_evaluated`` and
    ``subqueries_reused`` int attributes (e.g.
    :class:`~repro.core.exec.context.ExecCounters`).  ``candidates``
    maps a query node to its candidate postings; unset, each node's
    come from :func:`~repro.core.candidates.node_candidates`.
    """
    # Post-order over the distinct subtrees on an explicit stack (any
    # depth the parser accepts): a node is looked up when first met and
    # evaluated, children first, only on a miss.
    work: list[tuple[NestedSet, bool]] = [(query, False)]
    while work:
        node, expanded = work.pop()
        if expanded:
            child_sets = [memo[child] for child in node.children]
            memo[node] = evaluate_node(node, child_sets, ifile, spec,
                                       candidates=candidates)
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
    (nested sets cache their hash, so folding is one dict pass),
    ``counts`` how often each occurs, and ``slots`` per input position
    the index of its query in ``distinct``.  The caller evaluates
    ``distinct``, charges each partition's counters with
    :meth:`charge`, and :meth:`unfold`\\ s the answers back onto the
    input positions or reads them through ``slots``.
    """

    __slots__ = ("distinct", "counts", "copies", "slots")

    def __init__(self, queries: Iterable[NestedSet]) -> None:
        slot_of: dict[NestedSet, int] = {}
        self.slots = [slot_of.setdefault(query, len(slot_of))
                      for query in queries]
        self.distinct: list[NestedSet] = list(slot_of)
        self.counts = [0] * len(self.distinct)
        for slot in self.slots:
            self.counts[slot] += 1
        #: Inputs answered by another position's evaluation.
        self.copies = len(self.slots) - len(self.distinct)

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
        for slot in self.slots:
            if taken[slot]:
                out.append(list(answers[slot]))
            else:
                taken[slot] = True
                out.append(answers[slot])
        return out
