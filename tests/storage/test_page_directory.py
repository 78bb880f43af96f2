"""The page directory of ``storage/diskhash``: one parse, many lookups.

A directory is a pure function of its page, the memo that holds
directories is bounded and is used only for bytes equal to the bytes an
entry was parsed from, and a lookup still reads every page of its chain.
Each of those is a test here.  Hypothesis-free (runs in the
``crash-consistency`` CI job).
"""

from __future__ import annotations

import random
import struct
from typing import Iterator

import pytest

from repro.storage import diskhash
from repro.storage.codec import decode_varint, encode_varint
from repro.storage.diskhash import DiskHashTable, _parse_page
from repro.storage.errors import CorruptionError, KeyTooLargeError

PAGE = 4096
_HEADER = struct.Struct("<QH")
LIVE, DEAD, OVERFLOW = 0, 1, 2


# -- the record-by-record scan the directory replaced (reference) ----------

def scan_page(raw: bytes) -> Iterator[tuple[int, int, bytes, bytes, int]]:
    """Yield ``(offset, flag, key, stored_value, record_end)`` per record."""
    _next_page, used = _HEADER.unpack_from(raw, 0)
    pos = _HEADER.size
    end = _HEADER.size + used
    while pos < end:
        start = pos
        flag = raw[pos]
        pos += 1
        klen, pos = decode_varint(raw, pos)
        vlen, pos = decode_varint(raw, pos)
        key = raw[pos:pos + klen]
        pos += klen
        value = raw[pos:pos + vlen]
        pos += vlen
        yield start, flag, key, value, pos


def scan_for(raw: bytes, key: bytes):
    """What a scan for ``key`` finds: its first live record, or None."""
    for start, flag, rec_key, stored, end in scan_page(raw):
        if flag != DEAD and rec_key == key:
            return flag, start, stored, end
    return None


def record(flag: int, key: bytes, stored: bytes) -> bytes:
    return bytes([flag]) + encode_varint(len(key)) + \
        encode_varint(len(stored)) + key + stored


def page_of(records: list[bytes], next_page: int = 0) -> bytes:
    body = b"".join(records)
    return (_HEADER.pack(next_page, len(body)) + body).ljust(PAGE, b"\x00")


def unpacked(entry: int) -> tuple[int, int, int, int]:
    """``(flag, record_start, value_start, value_end)`` of an entry."""
    return (entry & diskhash._FLAG_MASK,
            entry >> diskhash._START_SHIFT & diskhash._OFFSET_MASK,
            entry >> diskhash._VALUE_SHIFT & diskhash._OFFSET_MASK,
            entry >> diskhash._END_SHIFT)


MIXED_PAGE = page_of([
    record(LIVE, b"inline", b"v"),
    record(OVERFLOW, b"spilled", struct.pack("<QI", 77, 9000)),
    record(DEAD, b"gone", b"old bytes"),
    record(LIVE, b"empty", b""),
    record(LIVE, b"two-byte-vlen", b"x" * 300),         # vlen varint: 2 B
    record(LIVE, b"K" * 200, b"long key"),              # klen varint: 2 B
    record(DEAD, b"again", b"first life"),
    record(LIVE, b"again", b"second life"),             # after its tombstone
    record(LIVE, b"last", b"z" * 127),                  # largest 1 B vlen
], next_page=5)


class TestParse:
    def test_equals_the_scan_on_every_record_kind(self) -> None:
        parsed, directory = _parse_page(MIXED_PAGE)
        keys = [b"inline", b"spilled", b"gone", b"empty", b"two-byte-vlen",
                b"K" * 200, b"again", b"last", b"absent"]
        for key in keys:
            found = scan_for(MIXED_PAGE, key)
            entry = directory.get(key)
            if found is None:
                assert entry is None, key
                continue
            flag, start, stored, end = found
            got_flag, got_start, value_start, value_end = unpacked(entry)
            assert (got_flag, got_start, value_end) == (flag, start, end)
            assert MIXED_PAGE[value_start:value_end] == stored
        # Same records, same order as the scan's live ones.
        assert list(directory) == [
            key for _s, flag, key, _v, _e in scan_page(MIXED_PAGE)
            if flag != DEAD]
        assert directory.keys() >= {b"again", b"spilled"}
        assert b"gone" not in directory
        # What was parsed: header and records, nothing of the tail.
        used = _HEADER.unpack_from(MIXED_PAGE)[1]
        assert parsed == MIXED_PAGE[:_HEADER.size + used]

    def test_first_live_record_of_a_key_wins(self) -> None:
        raw = page_of([record(LIVE, b"k", b"first"),
                       record(LIVE, b"k", b"second")])
        _flag, _start, value_start, value_end = unpacked(
            _parse_page(raw)[1][b"k"])
        assert raw[value_start:value_end] == b"first" == scan_for(raw, b"k")[2]

    def test_empty_page(self) -> None:
        assert _parse_page(bytes(PAGE)) == (bytes(_HEADER.size), {})

    @pytest.mark.parametrize("raw", [
        # ``used`` runs past the page
        _HEADER.pack(0, 5000) + bytes(PAGE - _HEADER.size),
        # the last record's value runs past ``used``
        (_HEADER.pack(0, 8) + record(LIVE, b"key", b"value" * 10)
         ).ljust(PAGE, b"\x00"),
        # the bytes end inside a record header
        _HEADER.pack(0, 40) + b"\x00",
        # ... inside a multi-byte varint
        _HEADER.pack(0, 40) + b"\x00\x03\x80",
        # ... inside a value
        _HEADER.pack(0, 40) + record(LIVE, b"key", b"v" * 30)[:20],
    ])
    def test_truncated_page_is_a_typed_error(self, raw: bytes) -> None:
        with pytest.raises(CorruptionError):
            _parse_page(raw)

    def test_table_reads_a_legacy_page_like_the_scan(self, tmp_path) -> None:
        """A page with tombstones and a reused key, read through ``get``,
        ``items`` and ``delete``."""
        table = DiskHashTable(str(tmp_path / "t.dh"), create=True,
                              n_buckets=1)
        table.put(b"seed", b"s")                # allocates the bucket's page
        page_id = table._directory[0]
        raw = page_of([record(LIVE, b"inline", b"v"),
                       record(DEAD, b"again", b"first life"),
                       record(LIVE, b"again", b"second life"),
                       record(DEAD, b"gone", b"old")])
        table._pager.write(page_id, raw)
        assert table.get(b"again") == b"second life"
        assert table.get(b"gone") is None
        assert dict(table.items()) == {b"inline": b"v",
                                       b"again": b"second life"}
        assert table.delete(b"gone") is False
        assert table.delete(b"again") is True
        assert table.get(b"again") is None
        assert [(flag, key) for _s, flag, key, _v, _e
                in scan_page(table._pager.read(page_id))] == [
            (LIVE, b"inline"), (DEAD, b"again"), (DEAD, b"gone")]
        table.close()


@pytest.fixture
def one_bucket(tmp_path) -> DiskHashTable:
    table = DiskHashTable(str(tmp_path / "t.dh"), create=True, n_buckets=1)
    yield table
    if not table._closed:
        table.close()


def chain_pages(table: DiskHashTable, bucket: int = 0) -> list[int]:
    return [page_id for page_id, _raw
            in table._chain(table._directory[bucket])]


class TestValidatedByContent:
    def test_one_page_at_two_pinned_versions_and_live(
            self, one_bucket: DiskHashTable) -> None:
        table = one_bucket
        with table.transaction():
            table.put(b"pad", b"p" * 40)
            table.put(b"k", b"one")
        first = table.snapshot()
        with table.transaction():
            table.put(b"k", b"the second, longer value")
            table.delete(b"pad")
        second = table.snapshot()
        with table.transaction():
            table.put(b"front", b"f" * 90)
            table.put(b"k", b"3")
        assert len(chain_pages(table)) == 1     # one page_id serves all three
        for _round in range(4):
            assert first.get(b"k") == b"one"
            assert second.get(b"k") == b"the second, longer value"
            assert table.get(b"k") == b"3"
            assert first.get(b"pad") == b"p" * 40
            assert second.get(b"pad") is None
            assert second.get(b"front") is None
            assert table.get(b"front") == b"f" * 90
        assert dict(first.items()) == {b"pad": b"p" * 40, b"k": b"one"}
        first.close()
        second.close()

    def test_reads_right_after_an_abort(self, one_bucket: DiskHashTable) -> None:
        table = one_bucket
        with table.transaction():
            table.put(b"k", b"committed")
            table.put(b"other", b"o" * 20)
        assert table.get(b"k") == b"committed"
        table.begin()
        table.put(b"k", b"never committed, and longer")
        table.delete(b"other")
        assert table.get(b"k") == b"never committed, and longer"
        assert table.get(b"other") is None
        table.abort()
        assert table.get(b"k") == b"committed"
        assert table.get(b"other") == b"o" * 20
        assert dict(table.items()) == {b"k": b"committed",
                                       b"other": b"o" * 20}

    def test_an_entry_for_other_bytes_is_never_served(
            self, one_bucket: DiskHashTable) -> None:
        table = one_bucket
        table.put(b"k", b"value")
        table.put(b"m", b"more")
        assert table.get(b"k") == b"value"
        (page_id,) = chain_pages(table)
        parsed, directory = table._pages._held[page_id]
        # A directory that points somewhere else, filed under bytes the
        # page does not have: it must be ignored and replaced.
        lies = {key: entry + (3 << diskhash._VALUE_SHIFT)
                for key, entry in directory.items()}
        table._pages._held[page_id] = (parsed[:-1] + b"\xff", lies)
        assert table.get(b"k") == b"value"
        assert table.get(b"m") == b"more"
        assert table._pages._held[page_id] == (parsed, directory)
        # Filed under the page's own bytes it would be served: the
        # comparison, nothing else, is what stands between the two.
        table._pages._held[page_id] = (parsed, lies)
        assert table.get(b"k") != b"value"


class TestBound:
    def test_never_more_entries_than_the_bound(self, tmp_path) -> None:
        table = DiskHashTable(str(tmp_path / "b.dh"), create=True,
                              n_buckets=2)
        bound = table._pages.bound
        assert bound == diskhash._DIRECTORIES_PER_BUCKET * 2
        values = {b"key-%03d" % i: (b"%03d" % i) * 40 for i in range(400)}
        for key, value in values.items():
            table.put(key, value)
            assert len(table._pages) <= bound
        n_pages = len(chain_pages(table, 0)) + len(chain_pages(table, 1))
        assert n_pages > 2 * bound
        snapshot = table.snapshot()
        for reader in (table, snapshot, table):
            for key, value in values.items():
                assert reader.get(key) == value
                assert len(table._pages) <= bound
        assert len(table._pages) == bound
        snapshot.close()
        table.close()


class TestStillReadsEveryPage:
    def test_counters_of_a_fixed_script(self, tmp_path) -> None:
        """The access-cost counters of this script, recorded at the
        commit before page directories: a lookup that skipped a page
        read, or counted one twice, would move them."""
        table = DiskHashTable(str(tmp_path / "c.dh"), create=True,
                              n_buckets=4)
        for i in range(120):
            table.put(b"k%03d" % i, b"v" * (i * 7 % 300))
        table.put(b"big", b"B" * 9000)
        for i in range(0, 120, 3):
            table.delete(b"k%03d" % i)
        for i in range(0, 120, 5):
            table.put(b"k%03d" % i, b"w" * (i % 50))
        snapshot = table.snapshot()
        for reader in (table, snapshot):
            for i in range(130):
                reader.get(b"k%03d" % i)
            reader.get(b"big")
            reader.get(b"absent")
        assert sorted(snapshot.items()) == sorted(table.items())
        snapshot.close()
        assert table.stats.snapshot() == {
            "gets": 264, "hits": 178, "misses": 86,
            "puts": 145, "deletes": 40,
            "bytes_read": 36120, "bytes_written": 26160,
            "page_reads": 470, "page_writes": 201,
        }
        table.close()

    def test_put_reads_each_page_of_the_chain_once(
            self, one_bucket: DiskHashTable) -> None:
        table = one_bucket
        for i in range(60):
            table.put(b"key-%02d" % i, b"v" * 200)
        n = len(chain_pages(table))
        assert n >= 3
        pager = table.pager
        before = pager.page_reads
        table.put(b"a new key", b"small")               # absent: whole chain
        assert pager.page_reads - before == n
        before = pager.page_reads
        table.put(b"key-00", b"V" * 200)                # oldest page, replaced
        assert pager.page_reads - before <= n
        before = pager.page_reads
        assert table.delete(b"absent") is False
        assert pager.page_reads - before == n
        assert table.get(b"a new key") == b"small"
        assert table.get(b"key-00") == b"V" * 200


class TestUnstorableKey:
    """One answer for a key over the size limit: ``put`` refuses it, so
    every lookup misses -- on the live table as through a snapshot."""

    def test_a_miss_everywhere(self, one_bucket: DiskHashTable) -> None:
        table = one_bucket
        table.put(b"k", b"v")
        huge = b"x" * 3000
        with pytest.raises(KeyTooLargeError):
            table.put(huge, b"v")
        snapshot = table.snapshot()
        assert table.get(huge) is None
        assert snapshot.get(huge) is None
        assert huge not in table
        assert table.delete(huge) is False
        assert table.stats.misses == 3
        snapshot.close()


class TestKeptCurrentByWrites:
    """``put`` and ``delete`` file the page they wrote with a directory
    derived from the one held for the page before: what a parse of the
    new page would give, so the next lookup there parses nothing."""

    def test_every_held_directory_is_its_page_parse(self, tmp_path,
                                                    monkeypatch) -> None:
        rng = random.Random(7)
        table = DiskHashTable(str(tmp_path / "w.dh"), create=True,
                              n_buckets=2)
        # "k1" is a prefix of "k10".."k19": the shadowed-record check
        # finds it behind an excised record and must only skip.
        keys = [b"k%d" % i for i in range(30)]
        model: dict[bytes, bytes] = {}
        for _step in range(500):
            key = rng.choice(keys)
            if rng.random() < 0.75:
                value = rng.choice([b"", b"v" * rng.randint(1, 300),
                                    b"B" * 3000])       # overflow too
                table.put(key, value)
                model[key] = value
            else:
                assert table.delete(key) == (model.pop(key, None)
                                             is not None)
            for page_id, (parsed, directory) in table._pages._held.items():
                raw = table._pager.read(page_id)
                if raw.startswith(parsed):
                    # in page order too: the derivation relies on it
                    reparsed, expected = _parse_page(raw)
                    assert parsed == reparsed
                    assert list(directory.items()) == list(expected.items())
        parses = []
        monkeypatch.setattr(diskhash, "_parse_page",
                            lambda raw: parses.append(1) or
                            _parse_page(raw))
        live = sorted(model)
        table.put(live[0], b"replaced")        # locate: page already held
        model[live[0]] = b"replaced"
        assert all(table.get(key) == model.get(key) for key in keys)
        assert len(parses) <= len(table._pages) + 1
        table.close()

    def test_a_group_writes_each_page_once(self, one_bucket: DiskHashTable,
                                           monkeypatch) -> None:
        """``put_many`` over keys on different pages of one chain -- a
        replaced key on each of three pages, two cut from one page, one
        key given twice, an overflow value, new keys -- writes each
        record page once and files each with the directory a parse
        gives."""
        table = one_bucket
        table._pages.bound = 16             # every page's directory held
        model = {b"key-%02d" % i: b"v" * 200 for i in range(60)}
        for key, value in model.items():
            table.put(key, value)
        pages = chain_pages(table)
        assert len(pages) >= 3
        assert all(table.get(key) == value for key, value in model.items())
        on_page = {page_id: sorted(_parse_page(table._pager.read(page_id))[1])
                   for page_id in pages}
        first, second, middle, last = (
            on_page[pages[0]][0], on_page[pages[0]][2],
            on_page[pages[1]][-1], on_page[pages[-1]][1])
        pairs = [(first, b"a" * 150), (middle, b"B" * 2500),
                 (last, b"c" * 10), (b"brand new", b"n" * 300),
                 (second, b"s" * 20), (first, b"A" * 190),
                 (b"also new", b"")]
        written: list[int] = []
        write = table._pager.write
        monkeypatch.setattr(table._pager, "write", lambda page_id, data: (
            written.append(page_id), write(page_id, data))[1])
        table.put_many(pairs)
        model.update(pairs)
        record_pages = [page_id for page_id in written
                        if page_id in set(chain_pages(table))]
        assert len(record_pages) == len(set(record_pages))
        assert {pages[0], pages[1], pages[-1]} <= set(record_pages)
        for page_id in chain_pages(table):
            held = table._pages._held.get(page_id)
            raw = table._pager.read(page_id)
            if held is not None and raw.startswith(held[0]):
                reparsed, expected = _parse_page(raw)
                assert held[0] == reparsed
                assert list(held[1].items()) == list(expected.items())
        parses = []
        monkeypatch.setattr(diskhash, "_parse_page",
                            lambda raw: parses.append(1) or
                            _parse_page(raw))
        assert all(table.get(key) == value for key, value in model.items())
        assert len(parses) <= len(chain_pages(table)) - len(pages)
        assert dict(table.items()) == model and len(table) == len(model)

    def test_a_replace_on_the_page_with_room_is_one_write(
            self, one_bucket: DiskHashTable) -> None:
        """The record cut and its replacement appended are one edit of
        the page (two writes, excise then append, before ``put_many``)."""
        table = one_bucket
        table.put(b"k", b"old")
        table.put(b"m", b"other")
        before = table.stats.page_writes
        table.put(b"k", b"new and longer")
        assert table.stats.page_writes - before == 1
        assert dict(table.items()) == {b"k": b"new and longer",
                                       b"m": b"other"}

    def test_a_shadowed_live_record_surfaces_after_a_delete(
            self, one_bucket: DiskHashTable) -> None:
        table = one_bucket
        table.put(b"seed", b"s")
        (page_id,) = chain_pages(table)
        table._pager.write(page_id, page_of([record(LIVE, b"k", b"first"),
                                             record(LIVE, b"x", b"y"),
                                             record(LIVE, b"k", b"second")]))
        assert table.get(b"k") == b"first"
        assert table.delete(b"k") is True
        assert table.get(b"k") == b"second" == scan_for(
            table._pager.read(page_id), b"k")[2]
        assert table.get(b"x") == b"y"
