"""Write-ahead log: crash-safe commit groups for the paged stores.

The paper's storage layer (Tokyo Cabinet) assumes clean shutdowns: indexes
are built offline and only read at query time.  Online mutations
(:mod:`repro.core.updates`) break that assumption -- one logical insert
touches posting lists, node metadata, the record table, the key map, the
frequency table and the config record, and a crash between any two of
those writes leaves a torn index with no way to detect or repair it.

This module provides the durability primitive the pager builds
transactions on: an append-only log of *commit groups*.  Each group is a
checksummed, length-prefixed batch of opaque records (the pager logs
post-image pages) tagged with the logical mutation that produced it::

    file   := [magic "NCWL"][version u16] group*
    group  := [magic "G1"][body_len u32][crc32(body) u32] body
    body   := [label_len u16][label][n_records u32] record*
    record := [length u32][payload]

Every group's label carries a stamp (:func:`stamp_label`) ahead of the
pager's own label::

    label  := "@" version:u64 "R" seq:u64 term:u64 pager_label

``version`` is the pager version the commit produces (recovery lands the
version counter on it); ``seq`` numbers the groups in one durable order
that never restarts, and ``term`` is the fencing term of the primary
that committed the group.  A log is therefore *tailable*: replicas ship
its groups verbatim (:mod:`repro.replication`).

Commit protocol (see :meth:`WriteAheadLog.commit`):

1. the whole group is appended with a **single write** and one fsync --
   this is the commit point; the main file has not been touched yet;
2. the buffered pages are then applied to the main file (crash-unsafe,
   but redone from the log on recovery);
3. a later checkpoint (on ``sync``/``close`` or when the log grows past
   a threshold) fsyncs the main file and truncates the log.

Recovery (:meth:`WriteAheadLog.recover`) scans the log front to back,
re-applies every complete group whose checksum verifies (idempotent:
records are physical post-images), and discards the torn tail, if any.
An index is therefore always either pre- or post-mutation, never
in between -- the property the crash-consistency suite in
``tests/storage/test_crash.py`` sweeps for.

Sequence numbers outlive truncation through a 22-byte sidecar file
(``<log>-repl``) holding the next-seq floor and the term.  The floor is
written *before* the truncate: a crash in between leaves the stamped
groups on disk, and their stamps dominate the floor when the log is
reopened, so nothing is renumbered.  A log whose groups carry the
version stamp alone (written before sequence numbers) numbers them from
the floor.  Truncation waits for registered followers' acks
(:meth:`WriteAheadLog.checkpoint`) until the log outgrows
``retain_bytes``.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass
from typing import Callable

from .errors import CorruptionError
from .faults import wrap_file

MAGIC = b"NCWL"
VERSION = 1
GROUP_MAGIC = b"G1"
_FILE_HEADER = struct.Struct("<4sH")
_GROUP_HEADER = struct.Struct("<2sII")  # magic, body length, crc32(body)

#: Default log size (bytes) past which the owning pager checkpoints.
DEFAULT_CHECKPOINT_BYTES = 4 << 20

#: Default bytes of shipped-but-unacked log retained for slow followers
#: before checkpoint truncation proceeds without them.
DEFAULT_RETAIN_BYTES = 64 << 20

#: The two stamps a group label leads with, each a marker byte and its
#: fields.
_VERSION_STAMP = b"@"
_VERSION_FIELDS = struct.Struct("<Q")
_SEQ_STAMP = b"R"
_SEQ_FIELDS = struct.Struct("<QQ")  # seq, term

SIDE_MAGIC = b"NCRS"
SIDE_VERSION = 1
_SIDECAR = struct.Struct("<4sHQQ")  # magic, version, next-seq floor, term


def stamp_label(version: int, seq: int, term: int, label: bytes) -> bytes:
    """Prefix a group label with its version, sequence number and term."""
    return (_VERSION_STAMP + _VERSION_FIELDS.pack(version)
            + _SEQ_STAMP + _SEQ_FIELDS.pack(seq, term) + label)


def split_label(label: bytes
                ) -> tuple[int | None, int | None, int | None, bytes]:
    """Split a group label into ``(version, seq, term, pager_label)``.

    A stamp that is absent comes back as ``None``: groups logged before
    sequence numbers carry the version stamp alone, and a label without
    either stamp is returned whole.
    """
    version = seq = term = None
    if label[:1] == _VERSION_STAMP and len(label) > _VERSION_FIELDS.size:
        version = _VERSION_FIELDS.unpack_from(label, 1)[0]
        label = label[1 + _VERSION_FIELDS.size:]
    if label[:1] == _SEQ_STAMP and len(label) > _SEQ_FIELDS.size:
        seq, term = _SEQ_FIELDS.unpack_from(label, 1)
        label = label[1 + _SEQ_FIELDS.size:]
    return version, seq, term, label


def sidecar_path(log_path: str) -> str:
    """The sequence-floor sidecar paired with a log path."""
    return log_path + "-repl"


def write_sidecar(path: str, next_seq: int, term: int) -> None:
    """Persist the sequence floor and term (atomic: one small write)."""
    with open(path, "wb") as handle:
        handle.write(_SIDECAR.pack(SIDE_MAGIC, SIDE_VERSION, next_seq, term))
        handle.flush()
        os.fsync(handle.fileno())


def read_sidecar(path: str) -> tuple[int, int]:
    """Return ``(next_seq_floor, term)``; ``(1, 0)`` for a fresh log."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read(_SIDECAR.size)
    except FileNotFoundError:
        return 1, 0
    if len(blob) < _SIDECAR.size:
        return 1, 0
    magic, version, next_seq, term = _SIDECAR.unpack(blob)
    if magic != SIDE_MAGIC:
        raise CorruptionError(f"bad replication sidecar magic in {path!r}")
    if version != SIDE_VERSION:
        raise CorruptionError(
            f"unsupported replication sidecar version {version}")
    return next_seq, term


def fsync_file(handle) -> None:
    """Flush and fsync a (possibly fault-wrapped) file handle."""
    handle.flush()
    sync = getattr(handle, "fsync", None)
    if sync is not None:
        sync()
    else:
        os.fsync(handle.fileno())


@dataclass
class WALStats:
    """Lifetime counters of one log (surfaced by ``nestcontain info``)."""

    commits: int = 0
    records_logged: int = 0
    bytes_logged: int = 0
    syncs: int = 0
    checkpoints: int = 0
    recovered_groups: int = 0
    discarded_groups: int = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name)
                for name in self.__dataclass_fields__}


class WriteAheadLog:
    """Append-only commit-group log beside one paged store file.

    Committers are serialized by the caller (the pager's commit lock);
    ``_lock`` serializes them against tail reads and follower acks from
    server threads.
    """

    def __init__(self, path: str, *, create: bool = False,
                 sync: bool = True,
                 retain_bytes: int = DEFAULT_RETAIN_BYTES) -> None:
        self.path = path
        self.sync = sync
        self.retain_bytes = retain_bytes
        self.stats = WALStats()
        self._lock = threading.RLock()
        if create:
            # A fresh log restarts the sequence space too.
            for stale in (path, sidecar_path(path)):
                if os.path.exists(stale):
                    os.remove(stale)
        #: Seq of the group at the head of the log file.
        self._base_seq, self._term = read_sidecar(sidecar_path(path))
        #: Byte offset of each group in the log file; ``offsets[i]``
        #: holds the group with seq ``base_seq + i``.
        self._offsets: list[int] = []
        #: Last-acked seq per registered follower id.
        self._acked: dict[str, int] = {}
        self.checkpoints_deferred = 0
        #: Optional post-commit hook (the shipper's wakeup), called with
        #: the new group's seq inside the pager's commit lock.
        self.on_commit: Callable[[int], None] | None = None
        if not os.path.exists(path):
            with open(path, "wb") as handle:
                handle.write(_FILE_HEADER.pack(MAGIC, VERSION))
        self._file = wrap_file(open(path, "r+b"), role="wal")
        self._file.seek(0)
        header = self._file.read(_FILE_HEADER.size)
        if len(header) < _FILE_HEADER.size:
            # A crash can tear even the 6-byte header of a brand-new log:
            # nothing was ever committed, so an empty log is the truth.
            self._reset()
            return
        magic, version = _FILE_HEADER.unpack(header)
        if magic != MAGIC:
            raise CorruptionError(f"bad WAL magic in {path!r}")
        if version != VERSION:
            raise CorruptionError(f"unsupported WAL version {version}")
        self._scan_existing()

    def _scan_existing(self) -> None:
        """Rebuild the offsets (and the seq base) from groups on disk.

        Stamped groups dominate the sidecar floor: a crash between the
        floor write and the truncate leaves both present, and trusting
        the stamps keeps the on-disk numbering authoritative.  Groups
        ahead of the first seq stamp are numbered back from it.
        """
        stamped = False
        for pos, label, _records, _next in self.iter_groups():
            _version, seq, term, _label = split_label(label)
            if seq is not None:
                if not stamped:
                    self._base_seq = seq - len(self._offsets)
                    stamped = True
                self._term = max(self._term, term)
            self._offsets.append(pos)

    # -- sequence numbers and terms ------------------------------------------

    @property
    def base_seq(self) -> int:
        """Seq of the oldest group still in the log (next one if empty)."""
        return self._base_seq

    @property
    def next_seq(self) -> int:
        return self._base_seq + len(self._offsets)

    @property
    def last_seq(self) -> int:
        """Seq of the newest committed group (``base_seq - 1`` if none)."""
        return self._base_seq + len(self._offsets) - 1

    @property
    def term(self) -> int:
        return self._term

    def bump_term(self) -> int:
        """Advance the fencing term durably (promotion)."""
        with self._lock:
            self._term += 1
            write_sidecar(sidecar_path(self.path), self.next_seq,
                          self._term)
            return self._term

    def adopt_term(self, term: int) -> None:
        """Raise the term durably (a replica saw a newer primary's groups)."""
        with self._lock:
            if term > self._term:
                self._term = term
                write_sidecar(sidecar_path(self.path), self.next_seq,
                              self._term)

    # -- commit ------------------------------------------------------------

    def commit(self, label: bytes, records: list[bytes], *,
               version: int) -> None:
        """Durably append one group, stamped with ``version``, the next
        seq and the current term (single write + fsync)."""
        self.append_stamped(
            stamp_label(version, self.next_seq, self._term, label), records)

    def append_stamped(self, label: bytes, records: list[bytes]) -> None:
        """Durably append a group whose label already carries its stamp.

        A replica appends shipped groups verbatim -- the primary's
        version, seq and term -- so a promoted replica continues the
        primary's sequence exactly.
        """
        body = bytearray(struct.pack("<H", len(label)))
        body += label
        body += struct.pack("<I", len(records))
        for record in records:
            body += struct.pack("<I", len(record))
            body += record
        group = _GROUP_HEADER.pack(GROUP_MAGIC, len(body),
                                   zlib.crc32(body)) + bytes(body)
        with self._lock:
            offset = self._file.seek(0, os.SEEK_END)
            self._file.write(group)
            if self.sync:
                fsync_file(self._file)
                self.stats.syncs += 1
            else:
                self._file.flush()
            self._offsets.append(offset)
            self.stats.commits += 1
            self.stats.records_logged += len(records)
            self.stats.bytes_logged += len(group)
            hook = self.on_commit
        if hook is not None:
            hook(self.last_seq)

    # -- follower tracking -------------------------------------------------

    def register_follower(self, follower_id: str, acked_seq: int) -> None:
        """Track a tailing replica; its ack gates checkpoint truncation."""
        with self._lock:
            self._acked[follower_id] = acked_seq

    def forget_follower(self, follower_id: str) -> None:
        with self._lock:
            self._acked.pop(follower_id, None)

    def ack(self, follower_id: str, seq: int) -> None:
        """Record that a follower has durably applied through ``seq``."""
        with self._lock:
            if seq > self._acked.get(follower_id, -1):
                self._acked[follower_id] = seq

    def followers(self) -> dict[str, int]:
        with self._lock:
            return dict(self._acked)

    def min_acked(self) -> int | None:
        with self._lock:
            return min(self._acked.values()) if self._acked else None

    # -- recovery / iteration ----------------------------------------------

    def read_group_at(self, offset: int
                      ) -> tuple[bytes, list[bytes], int] | None:
        """Read and decode the single group at byte ``offset``.

        Returns ``(label, records, next_offset)``, or ``None`` when the
        offset is at (or past) the end of the log, or the group there is
        torn or fails its checksum.  Only this group's bytes are read,
        so callers can walk logs of any size in bounded memory.
        """
        with self._lock:
            self._file.seek(offset)
            raw = self._file.read(_GROUP_HEADER.size)
            if len(raw) == _GROUP_HEADER.size:
                raw += self._file.read(_GROUP_HEADER.unpack(raw)[1])
        group = self._parse_group(raw, 0)
        if group is None:
            return None
        label, records, size = group
        return label, records, offset + size

    def iter_groups(self, offset: int | None = None):
        """Yield ``(offset, label, records, next_offset)`` from ``offset``.

        Starts at the first group when ``offset`` is ``None``.  Stops at
        the first torn/invalid group (the crash tail) or at end of log.
        Groups are decoded one at a time -- memory use is bounded by the
        largest single group, not the log size.  Labels are returned
        stamped (:func:`split_label`).
        """
        pos = _FILE_HEADER.size if offset is None else offset
        while True:
            group = self.read_group_at(pos)
            if group is None:
                return
            label, records, next_pos = group
            yield pos, label, records, next_pos
            pos = next_pos

    def recover(self, apply: Callable[[bytes, list[bytes]], None]
                ) -> tuple[int, int]:
        """Re-apply committed groups; drop the torn tail.

        ``apply(label, records)`` is invoked once per complete group, in
        commit order, with the stamped label.  Returns ``(replayed,
        discarded)`` group counts.  The caller must fsync the main file
        and then :meth:`checkpoint`; until it does, the replayed groups
        stay pending in the log, so a crash *during recovery* simply
        replays them again (idempotent -- the records are physical
        post-images).  Groups stream through one at a time, so replaying
        a multi-GB log needs memory for only the largest single group.
        """
        end = self.size
        replayed = 0
        stopped_at = _FILE_HEADER.size
        for pos, label, records, next_pos in self.iter_groups():
            apply(label, records)
            replayed += 1
            stopped_at = next_pos
        discarded = 1 if stopped_at < end else 0
        self.stats.recovered_groups += replayed
        self.stats.discarded_groups += discarded
        return replayed, discarded

    def read_raw_groups(self, start_seq: int, *, max_groups: int = 256,
                        max_bytes: int = 4 << 20
                        ) -> tuple[int, int, bytes]:
        """Contiguous committed groups from ``start_seq`` as raw log bytes.

        Returns ``(first_seq, count, data)`` where ``data`` is the exact
        on-disk byte run (headers, checksums and all) of ``count``
        groups starting at ``first_seq`` -- zero groups when the log has
        nothing at or past ``start_seq``.  Raises ``LookupError`` when
        ``start_seq`` has already been truncated away (the follower fell
        past retention and must re-bootstrap).
        """
        with self._lock:
            if start_seq < self._base_seq:
                raise LookupError(
                    f"seq {start_seq} predates retained log base "
                    f"{self._base_seq}")
            index = start_seq - self._base_seq
            if index >= len(self._offsets):
                return start_seq, 0, b""
            end_index = min(index + max_groups, len(self._offsets))
            start_off = self._offsets[index]
            stop_off = (self._offsets[end_index]
                        if end_index < len(self._offsets) else self.size)
            while (end_index - index > 1
                   and stop_off - start_off > max_bytes):
                end_index -= 1
                stop_off = self._offsets[end_index]
            self._file.seek(start_off)
            data = self._file.read(stop_off - start_off)
            return start_seq, end_index - index, data

    @staticmethod
    def _parse_body(body: bytes) -> tuple[bytes, list[bytes]]:
        """Split a checksummed group body into ``(label, records)``."""
        cursor = 0
        label_len = struct.unpack_from("<H", body, cursor)[0]
        cursor += 2
        label = body[cursor:cursor + label_len]
        cursor += label_len
        n_records = struct.unpack_from("<I", body, cursor)[0]
        cursor += 4
        records: list[bytes] = []
        for _ in range(n_records):
            length = struct.unpack_from("<I", body, cursor)[0]
            cursor += 4
            records.append(body[cursor:cursor + length])
            cursor += length
        return label, records

    @classmethod
    def _parse_group(cls, raw: bytes, pos: int
                     ) -> tuple[bytes, list[bytes], int] | None:
        """Decode one group at ``pos`` of a byte blob; ``None`` if torn."""
        if pos + _GROUP_HEADER.size > len(raw):
            return None
        magic, body_len, crc = _GROUP_HEADER.unpack_from(raw, pos)
        if magic != GROUP_MAGIC:
            return None
        body_start = pos + _GROUP_HEADER.size
        body = raw[body_start:body_start + body_len]
        if len(body) < body_len or zlib.crc32(body) != crc:
            return None
        label, records = cls._parse_body(body)
        return label, records, body_start + body_len

    # -- checkpoint --------------------------------------------------------

    def checkpoint(self) -> None:
        """Truncate the log to its header (main file must be durable) --
        unless a follower still needs the retained groups.

        Deferred truncation leaves the groups pending; they replay
        idempotently on the next recovery, so durability is unaffected.
        Once the log outgrows ``retain_bytes`` the laggard loses its
        window (it re-bootstraps from a snapshot) and truncation
        proceeds.
        """
        with self._lock:
            if self._offsets:
                min_acked = self.min_acked()
                if (min_acked is not None and min_acked < self.last_seq
                        and self.size <= self.retain_bytes):
                    self.checkpoints_deferred += 1
                    return
            next_seq = self.next_seq
            write_sidecar(sidecar_path(self.path), next_seq, self._term)
            self._file.seek(_FILE_HEADER.size)
            self._file.truncate()
            if self.sync:
                fsync_file(self._file)
            self._base_seq = next_seq
            self._offsets = []
            self.stats.checkpoints += 1

    def _reset(self) -> None:
        self._file.seek(0)
        self._file.write(_FILE_HEADER.pack(MAGIC, VERSION))
        self._file.truncate()
        self._file.flush()

    # -- introspection -----------------------------------------------------

    @property
    def pending_groups(self) -> int:
        """Groups in the log: committed or replayed, not yet truncated."""
        return len(self._offsets)

    @property
    def size(self) -> int:
        with self._lock:
            return self._file.seek(0, os.SEEK_END)

    def describe(self) -> dict[str, object]:
        """WAL state for ``nestcontain info`` / engine stats."""
        with self._lock:
            out: dict[str, object] = {
                "path": self.path,
                "size_bytes": self.size,
                "pending_groups": self.pending_groups,
                "synchronous": self.sync,
                "base_seq": self._base_seq,
                "last_seq": self.last_seq,
                "term": self._term,
                "followers": dict(self._acked),
                "checkpoints_deferred": self.checkpoints_deferred,
            }
        out.update(self.stats.snapshot())
        return out

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()
