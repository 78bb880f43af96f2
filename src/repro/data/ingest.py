"""Ingesting real document collections: JSON Lines and XML dumps.

The paper's real data sets are a Twitter crawl (nested JSON) and the DBLP
XML dump.  The simulated generators in :mod:`repro.data.twitter` /
:mod:`repro.data.dblp` stand in for those corpora in the benchmarks (we
cannot ship the originals), but a user with the actual files should be
able to ingest them directly.  This module provides the streaming
loaders:

* :func:`iter_jsonl` -- one JSON document per line (the shape Twitter's
  APIs and most document stores export), mapped through the JSON adapter;
* :func:`iter_xml_records` -- record elements pulled incrementally from
  an arbitrarily large XML file with ``iterparse`` (the DBLP dump is
  multi-GB; the whole tree is never materialized);

plus key-extraction hooks so records get stable identifiers from their
own content (tweet ``id_str``, DBLP ``key`` attribute, ...), and
:class:`StreamIngestor` -- a background batcher that turns a live record
stream (``nestcontain ingest --follow``, the server's ``ingest`` op)
into amortized write-ahead-log commit groups off the query path.
"""

from __future__ import annotations

import json
import threading
import xml.etree.ElementTree as ET
from typing import Callable, Iterator, TextIO

from ..core.model import NestedSet
from .json_adapter import json_to_nested
from .xml_adapter import element_to_nested


class IngestError(ValueError):
    """Raised for malformed input documents."""


#: Extracts a record key from a parsed JSON document (None = synthesize).
JsonKeyFn = Callable[[dict], "str | None"]
#: Extracts a record key from an XML element (None = synthesize).
XmlKeyFn = Callable[[ET.Element], "str | None"]


def default_json_key(document: dict) -> str | None:
    """id_str / id / key / _id, whichever the document carries first."""
    for field in ("id_str", "id", "key", "_id"):
        value = document.get(field)
        if value is not None:
            return str(value)
    return None


def default_xml_key(element: ET.Element) -> str | None:
    """The ``key`` or ``id`` attribute, DBLP-style."""
    for name in ("key", "id"):
        value = element.get(name)
        if value is not None:
            return value
    return None


def iter_jsonl(handle: TextIO, *, key_fn: JsonKeyFn = default_json_key,
               skip_invalid: bool = False
               ) -> Iterator[tuple[str, NestedSet]]:
    """Yield ``(key, nested set)`` records from a JSON Lines stream.

    Blank lines are ignored.  Malformed lines raise :class:`IngestError`
    (with the line number) unless ``skip_invalid`` is set.  Documents
    without an extractable key get ``doc<line_no>``.
    """
    for line_no, line in enumerate(handle, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            document = json.loads(stripped)
        except json.JSONDecodeError as exc:
            if skip_invalid:
                continue
            raise IngestError(f"line {line_no}: invalid JSON: {exc}") \
                from exc
        key = None
        if isinstance(document, dict):
            key = key_fn(document)
        if key is None:
            key = f"doc{line_no}"
        yield key, json_to_nested(document)


def load_jsonl_file(path: str, **options: object
                    ) -> list[tuple[str, NestedSet]]:
    """Read a whole ``.jsonl`` file."""
    with open(path) as handle:
        return list(iter_jsonl(handle, **options))  # type: ignore[arg-type]


def iter_xml_records(source: "str | TextIO", record_tags: set[str], *,
                     key_fn: XmlKeyFn = default_xml_key
                     ) -> Iterator[tuple[str, NestedSet]]:
    """Stream record elements out of a large XML file.

    ``record_tags`` names the elements that constitute records (for DBLP:
    ``{"article", "inproceedings", "book", ...}``).  Elements are mapped
    and *cleared* as soon as their end tag arrives, so memory stays
    bounded by one record.  Records without an extractable key get
    ``<tag><ordinal>``.
    """
    if not record_tags:
        raise IngestError("record_tags must name at least one element")
    count = 0
    depth_stack: list[ET.Element] = []
    for event, element in ET.iterparse(source, events=("start", "end")):
        if event == "start":
            depth_stack.append(element)
            continue
        depth_stack.pop()
        if element.tag not in record_tags:
            continue
        # Only top-level-ish records: skip a record tag nested inside
        # another record tag (rare, but keeps semantics crisp).
        if any(parent.tag in record_tags for parent in depth_stack):
            continue
        key = key_fn(element)
        if key is None:
            key = f"{element.tag}{count}"
        yield key, element_to_nested(element)
        count += 1
        element.clear()


def load_xml_file(path: str, record_tags: set[str], **options: object
                  ) -> list[tuple[str, NestedSet]]:
    """Read every record element of an XML file."""
    return list(iter_xml_records(path, record_tags,
                                 **options))  # type: ignore[arg-type]


#: The record element names of the DBLP dump.
DBLP_RECORD_TAGS = frozenset({
    "article", "inproceedings", "proceedings", "book", "incollection",
    "phdthesis", "mastersthesis", "www",
})


# -- streaming ingest ---------------------------------------------------------


class StreamIngestor:
    """Batch a live record stream into WAL commit groups, off the hot path.

    ``submit(key, value)`` enqueues and returns immediately; a background
    thread gathers pending records and commits them through
    ``index.insert_batch`` -- **one** write-ahead-log group (one version,
    one fsync, and one write of every posting list, tail block and
    statistics delta the batch touches, however many of its records
    touch it) per batch, flushed when
    ``batch_size`` records are waiting or ``flush_interval`` seconds pass
    with a partial batch, whichever comes first.  Under the engine's
    MVCC read path these commits never block in-flight queries: readers
    keep their pinned versions and each group lands as one atomic
    version step.

    A batch that fails wholesale (one malformed record aborts its whole
    transactional group) is retried record by record, so one bad record
    costs only itself; per-record failures count in :attr:`errors`.

    Thread-safe for any number of producers.  Counters:
    :attr:`records_ingested`, :attr:`groups_committed`, :attr:`errors`.
    """

    def __init__(self, index: object, *, batch_size: int = 64,
                 flush_interval: float = 0.25) -> None:
        self._index = index
        self.batch_size = max(1, int(batch_size))
        self.flush_interval = max(0.001, float(flush_interval))
        self._cond = threading.Condition()
        self._pending: list[tuple[str, object]] = []
        self._submitted = 0
        self._completed = 0
        self._closing = False
        self._force_flush = False
        self.records_ingested = 0
        self.groups_committed = 0
        self.errors = 0
        self._failure: BaseException | None = None
        self._thread = threading.Thread(target=self._run,
                                        name="repro-ingest", daemon=True)
        self._started = False

    # -- producer side -----------------------------------------------------

    def start(self) -> "StreamIngestor":
        if not self._started:
            self._started = True
            self._thread.start()
        return self

    def submit(self, key: str, value: object) -> None:
        """Enqueue one record; returns before it is committed."""
        with self._cond:
            if self._closing:
                raise IngestError("ingestor is closed")
            self._pending.append((key, value))
            self._submitted += 1
            if len(self._pending) >= self.batch_size:
                self._cond.notify_all()
        if not self._started:
            self.start()

    def flush(self, timeout: float | None = None) -> bool:
        """Block until everything submitted so far is committed."""
        with self._cond:
            target = self._submitted
            self._force_flush = True
            self._cond.notify_all()
            return self._cond.wait_for(
                lambda: self._completed >= target, timeout=timeout)

    def counters(self) -> dict[str, int]:
        with self._cond:
            return {
                "records_ingested": self.records_ingested,
                "groups_committed": self.groups_committed,
                "errors": self.errors,
                "pending": len(self._pending),
            }

    def close(self) -> None:
        """Flush the tail and stop the background thread (idempotent)."""
        with self._cond:
            if self._closing:
                return
            self._closing = True
            self._cond.notify_all()
        if self._started:
            self._thread.join()

    def __enter__(self) -> "StreamIngestor":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- background thread -------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                self._cond.wait_for(
                    lambda: (len(self._pending) >= self.batch_size
                             or self._force_flush or self._closing),
                    timeout=self.flush_interval)
                batch = self._pending[:self.batch_size]
                del self._pending[:self.batch_size]
                if not self._pending:   # sticky until the queue drains,
                    self._force_flush = False  # so a flush empties it all
                done = self._closing and not batch
            if batch:
                self._commit(batch)
                with self._cond:
                    self._completed += len(batch)
                    self._cond.notify_all()
            elif done:
                return

    def _commit(self, batch: list[tuple[str, object]]) -> None:
        try:
            self._index.insert_batch(batch)
        except Exception:
            # The group aborted as a unit; salvage record by record so
            # one malformed document costs only itself.
            for key, value in batch:
                try:
                    self._index.insert(key, value)
                except Exception:
                    with self._cond:
                        self.errors += 1
                else:
                    with self._cond:
                        self.records_ingested += 1
                        self.groups_committed += 1
        else:
            with self._cond:
                self.records_ingested += len(batch)
                self.groups_committed += 1
