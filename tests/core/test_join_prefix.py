"""The prefix-tree join strategy: equivalence, dispatch, counters.

``strategy="prefix"`` must return byte-identical pairs to the
per-query loop for every valid semantics x join combination, every
per-query algorithm, and both monolithic and sharded layouts --
including workloads with duplicate query keys and queries with zero
matches.  The adaptive dispatcher's decisions and the prefix counters
are covered alongside the join-path bugfixes (use_bloom no longer
silently dropped, ``self_join`` threading its knobs,
``JoinResult.grouped`` keeping empty queries).  ``TestFold`` pins the
sharing strategies' fold of repeated queries: answers per input
position, counters and dispatch evidence equal to an unfolded walk.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import QueryFold
from repro.core.engine import NestedSetIndex
from repro.core.exec import compile_query
from repro.core.exec.context import ExecCounters
from repro.core.invfile import atom_token
from repro.core.join import STRATEGIES, containment_join, self_join
from repro.core.matchspec import QuerySpec
from repro.core.model import NestedSet
from repro.core.prefixjoin import PrefixTree, choose_strategy, \
    prefix_join_lists

from ..conftest import random_tree

#: Every semantics x join combination QuerySpec accepts.
VALID_COMBOS = [
    ("hom", "subset"),
    ("hom", "equality"),
    ("hom", "superset"),
    ("hom", "overlap"),
    ("iso", "subset"),
    ("homeo", "subset"),
]


def _corpus(seed: int, n: int = 50) -> list[tuple[str, NestedSet]]:
    rng = random.Random(seed)
    atoms = [f"a{i}" for i in range(10)]
    return [(f"r{i:02d}", random_tree(rng, atoms)) for i in range(n)]


def _workload(seed: int, corpus) -> list[tuple[str, NestedSet]]:
    """Queries sampled from the corpus plus edge cases: duplicate keys,
    duplicate trees, and a query matching nothing."""
    rng = random.Random(seed)
    atoms = [f"a{i}" for i in range(10)]
    queries = [(f"q{i}", tree) for i, (_key, tree)
               in enumerate(corpus[:12])]
    queries += [(f"g{i}", random_tree(rng, atoms, allow_empty=False))
                for i in range(8)]
    queries += [("dup", corpus[0][1]), ("dup", corpus[1][1])]
    queries.append(("empty", NestedSet(atoms)))  # needs all 10 atoms
    return queries


def _build(corpus, shards: int):
    return NestedSetIndex.build(corpus, shards=shards)


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("semantics,join", VALID_COMBOS)
class TestPrefixEquivalence:
    def test_matches_per_query(self, shards, semantics, join) -> None:
        corpus = _corpus(11)
        index = _build(corpus, shards)
        queries = _workload(12, corpus)
        spec = QuerySpec(semantics=semantics, join=join,
                         epsilon=2 if join == "overlap" else 1)
        expect = containment_join(index, queries, strategy="per-query",
                                  spec=spec)
        got = containment_join(index, queries, strategy="prefix",
                               spec=spec)
        assert got.pairs == expect.pairs
        assert got.strategy == "prefix"
        assert got.query_keys == expect.query_keys

    def test_anywhere_mode(self, shards, semantics, join) -> None:
        corpus = _corpus(21)
        index = _build(corpus, shards)
        queries = _workload(22, corpus)
        spec = QuerySpec(semantics=semantics, join=join, mode="anywhere")
        expect = containment_join(index, queries, strategy="per-query",
                                  spec=spec)
        got = containment_join(index, queries, strategy="prefix",
                               spec=spec)
        assert got.pairs == expect.pairs


@pytest.mark.parametrize("shards", [1, 4])
@pytest.mark.parametrize("algorithm",
                         ["bottomup", "topdown", "naive"])
def test_prefix_matches_every_algorithm(shards, algorithm) -> None:
    corpus = _corpus(31)
    index = _build(corpus, shards)
    queries = _workload(32, corpus)
    expect = containment_join(index, queries, strategy="per-query",
                              algorithm=algorithm)
    got = containment_join(index, queries, strategy="prefix")
    assert got.pairs == expect.pairs


class TestCounters:
    def test_extra_reports_prefix_counters(self) -> None:
        corpus = _corpus(41)
        index = NestedSetIndex.build(corpus)
        queries = _workload(42, corpus)
        # Duplicate the workload so reuse is guaranteed.
        result = containment_join(index, queries + queries,
                                  strategy="prefix")
        assert result.extra["prefix_nodes"] > 0
        assert result.extra["prefix_streams"] > 0
        assert result.extra["prefix_reused"] > 0
        assert result.extra["subqueries_reused"] > 0

    def test_counters_surface_in_sharded_stats(self) -> None:
        corpus = _corpus(43)
        index = NestedSetIndex.build(corpus, shards=2)
        queries = _workload(44, corpus)
        containment_join(index, queries, strategy="prefix")
        exec_stats = index.stats()["shards"]["exec"]
        assert exec_stats["prefix_nodes"] > 0
        assert exec_stats["prefix_streams"] > 0

    def test_counters_merge(self) -> None:
        a = ExecCounters(prefix_nodes=2, prefix_streams=3, prefix_reused=1)
        b = ExecCounters(prefix_nodes=5, prefix_streams=1, prefix_reused=4)
        total = ExecCounters.merged([a, b])
        snap = total.snapshot()
        assert snap["prefix_nodes"] == 7
        assert snap["prefix_streams"] == 4
        assert snap["prefix_reused"] == 5


class TestPrefixTree:
    def test_shared_prefix_streamed_once(self) -> None:
        corpus = [(f"r{i}", NestedSet([f"a{j}" for j in range(i + 1)]))
                  for i in range(6)]
        index = NestedSetIndex.build(corpus)
        counters = ExecCounters()
        tree = PrefixTree(index.inverted_file, counters)
        # Rare-first order: df(a5)=1 < df(a4)=2 < ... < df(a0)=6, so
        # both sets share the trie prefix a5 -> a4.
        first = tree.candidates(frozenset(["a5", "a4", "a0"]))
        streams_after_first = counters.prefix_streams
        # Same 2-atom prefix: exactly one additional list streamed.
        tree.candidates(frozenset(["a5", "a4", "a1"]))
        assert counters.prefix_streams == streams_after_first + 1
        # Identical set: no stream at all, one reuse.
        tree.candidates(frozenset(["a5", "a4", "a0"]))
        assert counters.prefix_streams == streams_after_first + 1
        assert counters.prefix_reused == 1
        assert {p for p, _ in first} \
            == index.inverted_file.intersect_atoms(
                ["a5", "a4", "a0"]).heads()

    def test_empty_prefix_prunes_without_streaming(self) -> None:
        corpus = [("r0", NestedSet(["m", "x"])), ("r1", NestedSet(["m", "y"]))]
        index = NestedSetIndex.build(corpus)
        counters = ExecCounters()
        tree = PrefixTree(index.inverted_file, counters)
        # Rare-first order puts x and y (df 1) before m (df 2); they
        # never co-occur, so the partial intersection is empty after two
        # streams and m's longer list is never fetched.
        assert len(tree.candidates(frozenset(["m", "x", "y"]))) == 0
        assert counters.prefix_streams == 2


class TestAdaptiveDispatch:
    def test_small_workload_goes_per_query(self) -> None:
        corpus = _corpus(51)
        index = NestedSetIndex.build(corpus)
        queries = [(f"q{i}", tree) for i, (_k, tree)
                   in enumerate(corpus[:4])]
        result = containment_join(index, queries, strategy="adaptive")
        assert result.extra["dispatch"]["chosen"] == "per-query"
        expect = containment_join(index, queries, strategy="per-query")
        assert result.pairs == expect.pairs

    def test_shared_workload_goes_prefix(self) -> None:
        corpus = _corpus(52)
        index = NestedSetIndex.build(corpus)
        queries = [(f"q{i}", corpus[i % 5][1]) for i in range(40)]
        result = containment_join(index, queries, strategy="adaptive")
        assert result.extra["dispatch"]["chosen"] == "prefix"
        assert result.extra["prefix_reused"] > 0
        expect = containment_join(index, queries, strategy="per-query")
        assert result.pairs == expect.pairs

    def test_disjoint_workload_goes_per_query(self) -> None:
        rng = random.Random(53)
        atoms = [f"b{i}" for i in range(400)]
        corpus = [(f"r{i}", NestedSet(rng.sample(atoms, 4)))
                  for i in range(60)]
        index = NestedSetIndex.build(corpus)
        # Disjoint alphabets per query: no shared prefixes anywhere.
        queries = [(f"q{i}", NestedSet(atoms[4 * i:4 * i + 4]))
                   for i in range(40)]
        result = containment_join(index, queries, strategy="adaptive")
        assert result.extra["dispatch"]["chosen"] == "per-query"

    def test_choose_strategy_evidence(self) -> None:
        corpus = _corpus(54)
        index = NestedSetIndex.build(corpus)
        stats = index.collection_stats()
        trees = [tree for _k, tree in corpus[:2]] * 20
        chosen, info = choose_strategy(trees, stats)
        assert chosen == "prefix"
        assert info["n_queries"] == 40
        assert 0.0 <= info["sharing"] <= 1.0
        assert info["trie_volume"] <= info["loop_volume"]
        assert choose_strategy(QueryFold(trees), stats) == (chosen, info)

    def test_adaptive_folds_its_queries_once(self, monkeypatch) -> None:
        """The dispatcher and the prefix tree share one fold, and every
        copy of a repeated query gets its distinct query's pairs."""
        import repro.core.join as join_module

        folds = []

        class Counted(QueryFold):
            def __init__(self, queries) -> None:
                folds.append(self)
                super().__init__(queries)

        dispatched = []

        def spy(queries, stats):
            dispatched.append(queries)
            return choose_strategy(queries, stats)

        monkeypatch.setattr(join_module, "QueryFold", Counted)
        monkeypatch.setattr(join_module, "choose_strategy", spy)
        corpus = _corpus(55)
        index = NestedSetIndex.build(corpus)
        queries = [(f"q{i}", tree) for i, (_key, tree)
                   in enumerate(corpus[:2] * 20)]
        result = containment_join(index, queries, strategy="adaptive")
        assert result.extra["dispatch"]["chosen"] == "prefix"
        assert len(folds) == 1 and dispatched == folds
        assert result.extra["dispatch"] == choose_strategy(
            [tree for _key, tree in queries], index.collection_stats())[1]
        assert result.pairs == containment_join(
            index, queries, strategy="per-query").pairs


class TestJoinPathBugfixes:
    def test_use_bloom_rejected_not_dropped(self) -> None:
        """Non-naive strategies raise instead of silently ignoring."""
        corpus = _corpus(61)
        index = NestedSetIndex.build(corpus, bloom="flat")
        queries = _workload(62, corpus)
        for strategy in ("per-query", "batched", "prefix"):
            with pytest.raises(ValueError):
                containment_join(index, queries, strategy=strategy,
                                 use_bloom=True)
        ok = containment_join(index, queries, strategy="naive",
                              use_bloom=True)
        expect = containment_join(index, queries, strategy="per-query")
        assert ok.pairs == expect.pairs

    def test_self_join_threads_algorithm(self) -> None:
        corpus = _corpus(63, n=20)
        index = NestedSetIndex.build(corpus, bloom="flat")
        expect = set(self_join(index).pairs)
        for strategy, algorithm in (("per-query", "topdown"),
                                    ("per-query", "naive"),
                                    ("prefix", "bottomup")):
            result = self_join(index, strategy=strategy,
                               algorithm=algorithm)
            assert set(result.pairs) == expect
        # The naive algorithm's record counters prove the knob arrived.
        naive = self_join(index, strategy="per-query", algorithm="naive")
        assert set(naive.pairs) == expect
        # use_bloom threads through too (and still errors for others).
        bloomed = self_join(index, strategy="naive", use_bloom=True)
        assert set(bloomed.pairs) == expect
        with pytest.raises(ValueError):
            self_join(index, strategy="batched", use_bloom=True)

    def test_grouped_keeps_empty_queries(self) -> None:
        corpus = _corpus(64)
        index = NestedSetIndex.build(corpus)
        unmatchable = NestedSet([f"a{i}" for i in range(10)])
        queries = [("hit", corpus[0][1]), ("miss", unmatchable)]
        for strategy in ("per-query", "prefix", "batched", "naive"):
            grouped = containment_join(index, queries,
                                       strategy=strategy).grouped()
            assert grouped["miss"] == []
            assert "hit" in grouped and grouped["hit"]
            assert list(grouped) == ["hit", "miss"]


def test_strategies_tuple_lists_new_entries() -> None:
    assert "prefix" in STRATEGIES
    assert "adaptive" in STRATEGIES


#: The joins a fold must hold for, with the overlap threshold.
FOLD_SPECS = [QuerySpec(join="subset"), QuerySpec(join="equality"),
              QuerySpec(join="superset"),
              QuerySpec(join="overlap", epsilon=2)]


def _repeated(seed: int, corpus) -> list[tuple[str, NestedSet]]:
    """The workload three times over in shuffled positions, one key per
    position: every query repeats, no copy is next to its original."""
    queries = [(f"{key}.{copy}", tree) for copy in range(3)
               for key, tree in _workload(seed, corpus)]
    random.Random(seed).shuffle(queries)
    return queries


def _unfolded(index: NestedSetIndex, evaluate) -> ExecCounters:
    """What the loop over every copy counts: ``evaluate`` on a
    memo-carrying context of each partition, counters merged."""
    with index.snapshot() as snap:
        contexts = [view.execution_context(memo={}) for view in snap.views]
        for ctx in contexts:
            evaluate(ctx)
    return ExecCounters.merged([ctx.counters for ctx in contexts])


def _dispatch_reference(queries, stats) -> dict[str, object]:
    """choose_strategy's evidence by walking every copy of every query."""
    loop_volume = 0
    edge_volume: dict[tuple, int] = {}
    for query in queries:
        for qnode in query.iter_sets():
            prefix: tuple = ()
            for atom in sorted(qnode.atoms, key=lambda a: (
                    stats.document_frequency(a), atom_token(a))):
                loop_volume += stats.document_frequency(atom)
                prefix += (atom,)
                edge_volume[prefix] = stats.document_frequency(atom)
    trie_volume = sum(edge_volume.values())
    return {"n_queries": len(queries), "loop_volume": loop_volume,
            "trie_volume": trie_volume,
            "sharing": round(1.0 - trie_volume / loop_volume, 4)
            if loop_volume else 0.0}


class TestFold:
    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("spec", FOLD_SPECS, ids=lambda s: s.join)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_each_position_gets_its_own_answer(self, shards, spec,
                                               strategy) -> None:
        corpus = _corpus(71)
        index = _build(corpus, shards)
        queries = _repeated(72, corpus)
        result = containment_join(index, queries, strategy=strategy,
                                  spec=spec)
        expect = [(qkey, skey) for qkey, tree in queries
                  for skey in index.query(tree, join=spec.join,
                                          epsilon=spec.epsilon)]
        assert result.pairs == expect
        assert result.query_keys == [qkey for qkey, _tree in queries]
        assert result.n_queries == len(queries)

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("spec", FOLD_SPECS, ids=lambda s: s.join)
    def test_counters_equal_the_unfolded_walk(self, shards, spec) -> None:
        corpus = _corpus(73)
        index = _build(corpus, shards)
        queries = _repeated(74, corpus)
        trees = [tree for _key, tree in queries]

        index.reset_stats()
        prefix = containment_join(index, queries, strategy="prefix",
                                  spec=spec)
        assert index.counters.queries == len(trees) * shards
        walked = _unfolded(
            index, lambda ctx: prefix_join_lists(trees, ctx, spec))
        assert walked.queries == len(trees) * shards
        for name in ("prefix_nodes", "prefix_streams", "prefix_reused",
                     "subqueries_evaluated", "subqueries_reused"):
            assert prefix.extra[name] == getattr(walked, name), name

        index.reset_stats()
        batched = containment_join(index, queries, strategy="batched",
                                   spec=spec)
        assert index.counters.queries == len(trees) * shards
        plans = [compile_query(tree, spec, algorithm="bottomup")
                 for tree in trees]
        walked = _unfolded(
            index, lambda ctx: [plan.run(ctx) for plan in plans])
        assert batched.extra == {
            "subqueries_evaluated": walked.subqueries_evaluated,
            "subqueries_reused": walked.subqueries_reused}

    def test_dispatch_evidence_equals_the_unfolded_walk(self) -> None:
        corpus = _corpus(75)
        index = NestedSetIndex.build(corpus)
        queries = _repeated(76, corpus)
        result = containment_join(index, queries, strategy="adaptive")
        evidence = result.extra["dispatch"]
        reference = _dispatch_reference(
            [tree for _key, tree in queries], index.collection_stats())
        assert {key: evidence[key] for key in reference} == reference

    @settings(max_examples=40, deadline=None)
    @given(picks=st.lists(st.integers(0, 19), min_size=1, max_size=40),
           repeats=st.lists(st.integers(0, 39), max_size=40),
           seed=st.integers(0, 2**16))
    def test_choose_strategy_sees_every_copy(self, picks, repeats,
                                             seed) -> None:
        corpus = _corpus(77, n=20)
        stats = NestedSetIndex.build(corpus).collection_stats()
        queries = [corpus[pick][1] for pick in picks]
        grown = queries + [queries[i % len(queries)] for i in repeats]
        random.Random(seed).shuffle(grown)
        for workload in (queries, grown):
            _chosen, evidence = choose_strategy(workload, stats)
            reference = _dispatch_reference(workload, stats)
            assert {key: evidence[key] for key in reference} == reference
        assert choose_strategy(grown, stats) \
            == choose_strategy(sorted(grown, key=NestedSet.to_text), stats)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_loop_strategies_evaluate_every_copy(self, shards) -> None:
        corpus = _corpus(78)
        index = _build(corpus, shards)
        query = corpus[3][1]
        requests = {}
        for copies in (1, 3):
            for strategy in ("per-query", "naive", "batched", "prefix"):
                index.reset_stats()
                result = containment_join(
                    index, [(f"q{i}", query) for i in range(copies)],
                    strategy=strategy)
                requests[strategy, copies] = \
                    index.stats()["index"]["postings_requests"]
                if strategy == "naive":
                    assert result.extra["records_tested"] \
                        == copies * len(corpus)
        assert requests["per-query", 3] == 3 * requests["per-query", 1] > 0
        for strategy in ("batched", "prefix"):
            assert requests[strategy, 3] == requests[strategy, 1] > 0

    def test_elapsed_covers_the_dispatch(self, monkeypatch) -> None:
        import repro.core.join as join_module

        def slow_choose(queries, stats):
            time.sleep(0.05)
            return choose_strategy(queries, stats)

        monkeypatch.setattr(join_module, "choose_strategy", slow_choose)
        corpus = _corpus(79)
        index = NestedSetIndex.build(corpus)
        result = containment_join(index, _workload(80, corpus),
                                  strategy="adaptive")
        assert result.elapsed_seconds >= 0.05
