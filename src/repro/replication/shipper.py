"""Primary-side log shipping: bootstrap snapshots and group tailing.

:class:`ReplicationSource` backs the server's ``repl_*`` operations on
whatever index the server is serving.  Any disk store qualifies: every
one has a write-ahead log, which numbers its commit groups durably and
tracks followers -- all shipping needs.

Bootstrap protocol (replica side drives it):

1. ``repl_bootstrap`` -- the source records ``boot_next_seq`` *before*
   pinning a :class:`~repro.storage.pager.PageReader`, then pins one and
   returns a session token plus the snapshot geometry (version,
   page_size, n_pages) and the tail coordinates (next_seq, term).
   Ordering matters: any group committed between the seq capture and
   the pin is *included in the snapshot* and will also be shipped --
   replaying it twice is idempotent (physical post-images) and the
   version max-guard keeps the counter monotonic.
2. ``repl_pages`` -- the replica pulls page runs out of the pinned
   reader until it holds all ``n_pages``.
3. ``repl_done`` -- the session's reader unpins; the replica then opens
   the copied file locally and starts tailing from ``next_seq``.

Tailing: ``repl_fetch`` doubles as the acknowledgement -- ``after_seq``
is the replica's durable apply horizon, recorded against its
``replica_id`` so checkpoint truncation can wait for it.  When the
requested sequence has been truncated away the fetch answers
``status="behind"`` and the replica re-bootstraps.
"""

from __future__ import annotations

import base64
import secrets
import threading
import time

from ..storage.pager import PageReader, parse_header
from ..storage.wal import WriteAheadLog

#: Bootstrap sessions idle longer than this are reaped (their pinned
#: readers released) the next time any session-touching call runs.
SESSION_TTL_S = 600.0

#: Ceiling on one ``repl_pages`` response, well under MAX_FRAME_BYTES
#: (pages are base64-encoded, a 4/3 expansion, plus JSON framing).
MAX_PAGE_RUN_BYTES = 4 << 20

#: Ceiling on one ``repl_fetch`` response's raw group bytes.
MAX_FETCH_BYTES = 4 << 20


class _Session:
    __slots__ = ("reader", "n_pages", "last_used")

    def __init__(self, reader: PageReader, n_pages: int) -> None:
        self.reader = reader
        self.n_pages = n_pages
        self.last_used = time.monotonic()


class ReplicationSource:
    """Serves bootstrap snapshots and log tails off a primary's index."""

    def __init__(self, index) -> None:
        pager = getattr(index.base_store, "pager", None)
        if pager is None:
            raise ValueError("replication needs a disk-backed store")
        self._pager = pager
        self._log = log = pager.wal
        self._lock = threading.Lock()
        self._sessions: dict[str, _Session] = {}
        self.last_commit_at = time.time()
        log.on_commit = self._note_commit

    @property
    def log(self) -> WriteAheadLog:
        return self._log

    @property
    def term(self) -> int:
        return self._log.term

    def _note_commit(self, _seq: int) -> None:
        self.last_commit_at = time.time()

    # -- bootstrap ----------------------------------------------------------

    def _reap_locked(self) -> None:
        now = time.monotonic()
        for token in [t for t, s in self._sessions.items()
                      if now - s.last_used > SESSION_TTL_S]:
            self._sessions.pop(token).reader.close()

    def bootstrap(self, replica_id: str) -> dict[str, object]:
        """Open a snapshot session; returns geometry + tail coordinates."""
        with self._lock:
            self._reap_locked()
            # Seq capture strictly before the pin -- see the module doc.
            boot_next_seq = self._log.next_seq
            reader = self._pager.reader()
            _page_size, n_pages, _free, _meta = \
                parse_header(reader.read(0))
            token = secrets.token_hex(8)
            self._sessions[token] = _Session(reader, n_pages)
        self._log.register_follower(replica_id, boot_next_seq - 1)
        return {
            "session": token,
            "version": reader.version,
            "page_size": reader.page_size,
            "n_pages": n_pages,
            "next_seq": boot_next_seq,
            "term": self._log.term,
        }

    def pages(self, session: str, start_page: int,
              count: int) -> dict[str, object]:
        """A run of snapshot pages, base64-packed, capped by bytes."""
        with self._lock:
            state = self._sessions.get(session)
            if state is None:
                raise KeyError(f"unknown bootstrap session {session!r}")
            state.last_used = time.monotonic()
        reader = state.reader
        per_page = reader.page_size
        count = max(1, min(count, MAX_PAGE_RUN_BYTES // per_page,
                           state.n_pages - start_page))
        if start_page >= state.n_pages or start_page < 0:
            raise IndexError(
                f"page {start_page} past snapshot end {state.n_pages}")
        run = b"".join(reader.read(page_id)
                       for page_id in range(start_page, start_page + count))
        return {
            "start_page": start_page,
            "count": count,
            "data": base64.b64encode(run).decode("ascii"),
        }

    def done(self, session: str) -> dict[str, object]:
        """Release a bootstrap session's pinned reader (idempotent)."""
        with self._lock:
            state = self._sessions.pop(session, None)
        if state is not None:
            state.reader.close()
        return {"closed": state is not None}

    # -- tailing ------------------------------------------------------------

    def fetch(self, replica_id: str, after_seq: int, *,
              max_groups: int = 256) -> dict[str, object]:
        """Groups after ``after_seq``; records the ack as a side effect."""
        self._log.ack(replica_id, after_seq)
        try:
            first_seq, count, data = self._log.read_raw_groups(
                after_seq + 1, max_groups=max_groups,
                max_bytes=MAX_FETCH_BYTES)
        except LookupError:
            return {
                "status": "behind",
                "base_seq": self._log.base_seq,
                "term": self._log.term,
            }
        return {
            "status": "ok",
            "first_seq": first_seq,
            "count": count,
            "data": base64.b64encode(data).decode("ascii"),
            "end_seq": self._log.last_seq,
            "term": self._log.term,
            "last_commit_at": self.last_commit_at,
        }

    # -- introspection ------------------------------------------------------

    def summary(self) -> dict[str, object]:
        """Follower lag view for stats / ``info --server``."""
        followers = self._log.followers()
        last = self._log.last_seq
        return {
            "term": self._log.term,
            "last_seq": last,
            "followers": {rid: {"acked_seq": acked,
                                "lag_groups": max(0, last - acked)}
                          for rid, acked in followers.items()},
            "checkpoints_deferred": self._log.checkpoints_deferred,
        }

    def close(self) -> None:
        with self._lock:
            sessions, self._sessions = dict(self._sessions), {}
        for state in sessions.values():
            state.reader.close()
        if self._log.on_commit == self._note_commit:
            self._log.on_commit = None
