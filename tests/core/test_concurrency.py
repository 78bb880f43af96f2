"""Thread-safety regression tests: readers racing writers on one index.

The query service runs engine calls from a thread pool, so the engine's
reader/writer coordination is a correctness contract, not an
implementation detail: any number of concurrent ``query`` calls must each
see one committed version of the index while ``insert``/``delete`` commit
beside them.
These tests hammer exactly that contract -- on an index of one partition
and on one of four -- and check *exact* answers before and after every
mutation, not just the absence of crashes.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.bench.workloads import generate_dataset
from repro.core.cache import BlockCache
from repro.core.engine import NestedSetIndex
from repro.core.invfile import InvertedFile
from repro.core.model import NestedSet
from repro.core.postings import COLUMNAR_MIN
from repro.data.ingest import StreamIngestor
from repro.storage import KVStore, StorageError


class _UnversionedStore(KVStore):
    """The five primitives over a dict: ``mvcc_info()`` stays ``None``."""

    def __init__(self) -> None:
        super().__init__()
        self._data: dict[bytes, bytes] = {}

    def get(self, key):
        return self._data.get(key)

    def put(self, key, value):
        self._data[bytes(key)] = bytes(value)

    def delete(self, key):
        return self._data.pop(key, None) is not None

    def items(self):
        return iter(sorted(self._data.items()))

    def __len__(self):
        return len(self._data)


class TestSnapshotSupportIsRequired:
    def test_a_store_without_snapshots_is_refused_at_construction(
            self) -> None:
        """Reads pin a version and take no lock, so there is nothing to
        fall back on: the index refuses such a store once, up front."""
        store = _UnversionedStore()
        ifile = InvertedFile.build(
            [("r0", NestedSet(["a"])), ("r1", NestedSet(["a", "b"]))],
            store=store)
        assert len(ifile.postings("a")) == 2    # the file itself reads
        with pytest.raises(StorageError, match="mvcc_info"):
            NestedSetIndex.from_store(store)
        with pytest.raises(StorageError, match="cannot pin"):
            store.snapshot()                    # no unisolated view


def _build(shards: int):
    records = list(generate_dataset("uniform-wide", 80, seed=11))
    return NestedSetIndex.build(records, shards=shards)


@pytest.mark.parametrize("shards", [1, 4])
class TestReadersVersusWriters:
    PROBE = "{__live__}"

    def test_exact_answers_around_each_mutation(self, shards) -> None:
        """Single-threaded ground truth: each mutation is fully visible."""
        index = _build(shards)
        expected: list[str] = []
        assert index.query(self.PROBE) == []
        for i in range(8):
            index.insert(f"live{i}", "{__live__, t%d}" % i)
            expected.append(f"live{i}")
            assert index.query(self.PROBE) == sorted(expected)
        for i in range(0, 8, 2):
            assert index.delete(f"live{i}") is True
            expected.remove(f"live{i}")
            assert index.query(self.PROBE) == sorted(expected)
        index.close()

    def test_concurrent_readers_race_mutations(self, shards) -> None:
        """8 reader threads hammer queries while a writer mutates.

        Every answer a reader observes must be *some* prefix of the
        mutation history -- sorted, containing only live-probe keys,
        and never a torn state (e.g. a key half-inserted across
        postings and the record table).
        """
        index = _build(shards)
        # Keys the writer will ever have inserted, in order.
        history = [f"live{i:02d}" for i in range(12)]
        valid_states = set()
        state: tuple = ()
        valid_states.add(state)
        for key in history:                     # states after inserts
            state = tuple(sorted({*state, key}))
            valid_states.add(state)
        for key in history[::3]:                # states after deletes
            state = tuple(k for k in state if k != key)
            valid_states.add(state)

        stop = threading.Event()
        failures: list[str] = []

        def reader() -> None:
            while not stop.is_set():
                try:
                    answer = tuple(index.query(self.PROBE))
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"reader raised: {exc!r}")
                    return
                if answer not in valid_states:
                    failures.append(f"torn answer: {answer!r}")
                    return

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        try:
            for key in history:
                index.insert(key, "{__live__, payload}")
            for key in history[::3]:
                assert index.delete(key) is True
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert not failures, failures[:3]
        # Final exact answer: all inserts minus the deletes.
        final = sorted(set(history) - set(history[::3]))
        assert index.query(self.PROBE) == final
        index.close()

    def test_snapshot_pinned_before_delete_sees_dead_record(self,
                                                            shards) -> None:
        """MVCC headline: a pin outlives the mutations it predates."""
        index = _build(shards)
        index.insert("doomed", "{__live__, victim}")
        with index.snapshot() as before:
            assert index.delete("doomed") is True
            # Live reads agree the record is gone...
            assert index.query(self.PROBE) == []
            # ...while the pinned reader still sees its version, and
            # keeps seeing it however often it asks.
            assert before.query(self.PROBE) == ["doomed"]
            assert before.query(self.PROBE) == ["doomed"]
        assert index.query(self.PROBE) == []
        index.close()

    def test_snapshot_pinned_before_inserts_is_blind_to_them(self,
                                                             shards) -> None:
        index = _build(shards)
        index.insert("old", "{__live__, t}")
        with index.snapshot() as before:
            # Spread fresh keys across every shard of a sharded layout.
            for i in range(8):
                index.insert(f"new{i}", "{__live__, t%d}" % i)
            assert before.query(self.PROBE) == ["old"]
        expected = sorted(["old"] + [f"new{i}" for i in range(8)])
        assert index.query(self.PROBE) == expected
        index.close()

    def test_readers_race_stream_ingest_one_consistent_version(self,
                                                               shards) -> None:
        """8 readers vs full-speed streaming ingest: every answer is one
        committed version.

        Records arrive through :class:`StreamIngestor` (the ``ingest
        --follow`` machinery), which commits them as WAL groups in
        submission order -- so any consistent answer is a *prefix* of the
        submission sequence, and the two queries of one batch must agree
        exactly (they run against one pinned version).
        """
        index = _build(shards)
        total = 160
        keys = [f"s{i:03d}" for i in range(total)]   # sorted == submit order
        prefixes = {tuple(keys[:i]) for i in range(total + 1)}
        queries = [self.PROBE, "{__live__, payload}"]
        stop = threading.Event()
        failures: list[str] = []

        def reader() -> None:
            while not stop.is_set():
                try:
                    probe_hits, payload_hits = index.query_batch(queries)
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"reader raised: {exc!r}")
                    return
                if probe_hits != payload_hits:
                    failures.append(
                        f"one batch mixed two versions: {probe_hits!r} "
                        f"vs {payload_hits!r}")
                    return
                if tuple(probe_hits) not in prefixes:
                    failures.append(f"torn/non-prefix state: "
                                    f"{probe_hits!r}")
                    return

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        try:
            with StreamIngestor(index, batch_size=16,
                                flush_interval=0.02) as ingestor:
                for key in keys:
                    ingestor.submit(key, "{__live__, payload}")
                assert ingestor.flush(timeout=60)
                counts = ingestor.counters()
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert not failures, failures[:3]
        assert counts["records_ingested"] == total
        assert counts["errors"] == 0
        # Batching amortized the WAL groups (far fewer commits than
        # records), which is the point of the streaming path.
        assert counts["groups_committed"] < total
        assert index.query(self.PROBE) == keys
        index.close()

    def test_readers_share_warm_lists_under_stream_ingest(self,
                                                         shards) -> None:
        """Readers racing on the same warm lists while a
        :class:`StreamIngestor` commits.

        A warm list is one object shared by every reader of its key, so
        the first readers to need its head column, columns or rows write
        them onto it together.  The writer commits the probe lists (a
        fresh list per commit) and every few records drops the cached
        lists, so the static ones -- long enough for the columnar path,
        and short enough for rows -- are filled in again under the race.
        Every batch must be one committed version: the probe answers a
        prefix of the submission order, the static ones never change.
        """
        index = _build(shards)
        static = [(f"w{i:03d}", "{__warm__, %s}" % ("even", "odd")[i % 2])
                  for i in range(2 * COLUMNAR_MIN + 2)]
        static += [(f"x{i}", "{__warm__, rare, {__warm__, odd}}")
                   for i in range(3)]
        index.insert_batch(static)
        fixed = ["{__warm__}", "{__warm__, odd}", "{rare, {odd}}",
                 "{__warm__, even, odd}"]
        want = [index.query(query) for query in fixed]
        assert len(want[0]) > 2 * COLUMNAR_MIN and want[2] == ["x0", "x1",
                                                                "x2"]
        total = 120
        keys = [f"s{i:03d}" for i in range(total)]   # sorted == submit order
        prefixes = {tuple(keys[:i]) for i in range(total + 1)}
        queries = [self.PROBE, "{__live__, payload}", *fixed]
        stop = threading.Event()
        failures: list[str] = []

        def reader() -> None:
            while not stop.is_set():
                try:
                    probe_hits, payload_hits, *answers = \
                        index.query_batch(queries)
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"reader raised: {exc!r}")
                    return
                if probe_hits != payload_hits:
                    failures.append(
                        f"one batch mixed two versions: {probe_hits!r} "
                        f"vs {payload_hits!r}")
                    return
                if tuple(probe_hits) not in prefixes:
                    failures.append(f"torn/non-prefix state: "
                                    f"{probe_hits!r}")
                    return
                if answers != want:
                    failures.append(f"a static answer moved: {answers!r}")
                    return

        threads = [threading.Thread(target=reader) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            with StreamIngestor(index, batch_size=8,
                                flush_interval=0.01) as ingestor:
                for n, key in enumerate(keys):
                    ingestor.submit(key, "{__live__, payload}")
                    if n % 10 == 0:
                        for part in index.shards:
                            part.inverted_file.block_cache.clear()
                assert ingestor.flush(timeout=60)
                counts = ingestor.counters()
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures[:3]
        assert counts["records_ingested"] == total
        assert counts["errors"] == 0
        assert index.query(self.PROBE) == keys
        assert [index.query(query) for query in fixed] == want
        index.close()

    def test_readers_at_old_and_new_versions_share_carried_lists(
            self, shards, monkeypatch) -> None:
        """Readers pinned at old versions and readers at the newest one
        race on the lists each commit carries forward, beside a
        :class:`StreamIngestor` committing into those lists.

        The hot lists are warm when every group lands, so each commit
        derives the next epoch's lists from them and shares their
        decoded blocks.  A pinned reader keeps its first answers; a
        fresh one sees a prefix of the submission order; both see the
        hot list agree with it.
        """
        hot = [(f"h{i:03d}", "{__hot__, %s}" % ("even", "odd")[i % 2])
               for i in range(3 * COLUMNAR_MIN)]
        index = NestedSetIndex.build(hot, shards=shards, block_size=8)
        base = [key for key, _tree in hot]
        odd = [key for key, text in hot if "odd" in text]
        total = 120
        keys = [f"s{i:03d}" for i in range(total)]   # sorted == submit order
        prefixes = {tuple(keys[:i]) for i in range(total + 1)}
        queries = ["{__hot__, payload}", "{__hot__}", "{__hot__, odd}"]
        carries = []
        carry = BlockCache.carry

        def counted(cache, *args):
            carries.append(carry(cache, *args))
            return carries[-1]

        monkeypatch.setattr(BlockCache, "carry", counted)
        stop = threading.Event()
        failures: list[str] = []

        def consistent(answers) -> bool:
            payload, every, odds = answers
            if tuple(payload) in prefixes and odds == odd \
                    and every == base + payload:
                return True
            failures.append(f"not one committed version: {answers!r}")
            return False

        def live_reader() -> None:
            while not stop.is_set():
                try:
                    if not consistent(index.query_batch(queries)):
                        return
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"reader raised: {exc!r}")
                    return

        def pinned_reader() -> None:
            while not stop.is_set():
                try:
                    with index.snapshot() as snap:
                        first = snap.query_batch(queries)
                        if not consistent(first):
                            return
                        for _ in range(4):
                            if snap.query_batch(queries) != first:
                                failures.append("a pinned answer moved")
                                return
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"pinned reader raised: {exc!r}")
                    return

        threads = [threading.Thread(target=target)
                   for target in (live_reader, pinned_reader) * 3]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            with StreamIngestor(index, batch_size=8,
                                flush_interval=0.01) as ingestor:
                for key in keys:
                    ingestor.submit(key, "{__hot__, payload}")
                assert ingestor.flush(timeout=60)
                counts = ingestor.counters()
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures, failures[:3]
        assert counts["records_ingested"] == total
        assert counts["errors"] == 0
        assert any(carries)
        assert index.query_batch(queries) == [keys, base + keys, odd]
        index.close()

    def test_batch_queries_race_mutations(self, shards) -> None:
        """query_batch (the micro-batcher's entry point) under writes."""
        index = _build(shards)
        queries = [self.PROBE, "{__live__, payload}"]
        stop = threading.Event()
        failures: list[str] = []

        def reader() -> None:
            while not stop.is_set():
                try:
                    probe_hits, payload_hits = index.query_batch(queries)
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"batch raised: {exc!r}")
                    return
                # Both answers come from one read-locked pass, so they
                # must agree with each other exactly.
                if probe_hits != payload_hits:
                    failures.append(
                        f"inconsistent batch: {probe_hits!r} "
                        f"vs {payload_hits!r}")
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for i in range(10):
                index.insert(f"b{i}", "{__live__, payload}")
            for i in range(0, 10, 2):
                index.delete(f"b{i}")
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert not failures, failures[:3]
        assert index.query(self.PROBE) == [f"b{i}" for i in
                                           range(1, 10, 2)]
        index.close()
