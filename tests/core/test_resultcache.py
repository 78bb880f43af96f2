"""Tests for whole-query result caching."""

from __future__ import annotations

import pytest

from repro.core.engine import NestedSetIndex
from repro.core.model import NestedSet
from repro.core.resultcache import ResultCache, make_key

N = NestedSet


class TestResultCacheUnit:
    def test_miss_then_hit(self) -> None:
        cache = ResultCache()
        key = make_key(N(["a"]), "bottomup", "hom", "subset", 1, "root")
        assert cache.get(key) is None
        cache.put(key, ["r1", "r2"])
        assert cache.get(key) == ["r1", "r2"]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_returned_lists_are_copies(self) -> None:
        cache = ResultCache()
        key = make_key(N(["a"]), "bottomup", "hom", "subset", 1, "root")
        cache.put(key, ["r1"])
        cache.get(key).append("tampered")
        assert cache.get(key) == ["r1"]

    def test_lru_eviction(self) -> None:
        cache = ResultCache(capacity=2)
        keys = [make_key(N([f"a{i}"]), "bottomup", "hom", "subset", 1,
                         "root") for i in range(3)]
        cache.put(keys[0], [])
        cache.put(keys[1], [])
        cache.get(keys[0])          # refresh 0; 1 becomes LRU
        cache.put(keys[2], [])
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) is not None

    def test_options_distinguish_entries(self) -> None:
        cache = ResultCache()
        query = N(["a"])
        cache.put(make_key(query, "bottomup", "hom", "subset", 1, "root"),
                  ["x"])
        other = make_key(query, "bottomup", "hom", "subset", 1, "anywhere")
        assert cache.get(other) is None

    def test_invalidate_all(self) -> None:
        cache = ResultCache()
        key = make_key(N(["a"]), "bottomup", "hom", "subset", 1, "root")
        cache.put(key, ["r"])
        cache.invalidate_all()
        assert cache.get(key) is None
        assert cache.stats.invalidations == 1

    def test_capacity_validation(self) -> None:
        with pytest.raises(ValueError):
            ResultCache(capacity=0)


class TestEngineIntegration:
    def test_repeat_queries_hit(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        cache = index.enable_result_cache()
        query = small_corpus[0][1]
        first = index.query(query)
        second = index.query(query)
        assert first == second
        assert cache.stats.hits == 1

    def test_results_correct_after_updates(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        index.enable_result_cache()
        query = N(["a1"])
        before = index.query(query)
        index.insert("fresh", N(["a1", "unique"]))
        after = index.query(query)
        assert "fresh" in after
        assert set(after) == set(before) | {"fresh"}
        victim = after[0]
        index.delete(victim)
        assert victim not in index.query(query)

    def test_bloom_queries_are_cached(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus, bloom="flat")
        cache = index.enable_result_cache()
        query = small_corpus[0][1]
        first = index.query(query, algorithm="naive", use_bloom=True)
        second = index.query(query, algorithm="topdown")
        # Distinct options -> distinct keys: two misses, no cross-talk.
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0
        # Repeats with identical options hit their own entries.
        assert index.query(query, algorithm="naive", use_bloom=True) == first
        assert index.query(query, algorithm="topdown") == second
        assert cache.stats.hits == 2

    def test_bloom_flag_keys_separately(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus, bloom="flat")
        cache = index.enable_result_cache()
        query = small_corpus[0][1]
        with_bloom = index.query(query, algorithm="naive", use_bloom=True)
        without = index.query(query, algorithm="naive", use_bloom=False)
        assert with_bloom == without
        assert cache.stats.misses == 2

    def test_disable(self, small_corpus) -> None:
        index = NestedSetIndex.build(small_corpus)
        cache = index.enable_result_cache()
        index.query("{a1}")
        index.disable_result_cache()
        index.query("{a1}")
        assert cache.stats.requests == 1
