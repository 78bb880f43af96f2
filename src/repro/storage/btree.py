"""External-memory B+tree over the paged file.

Tokyo Cabinet offers both hash-table and B+tree indexes; the paper used the
hash table but we provide the B+tree as well so the storage-engine ablation
(experiment ST1 in DESIGN.md) can compare the two, and so range scans over
atoms are possible.

Node layouts::

    leaf:     [type u8=1][n u16][next_leaf u64] { [flag u8][klen][vlen][key][val] }*
    internal: [type u8=2][n u16][child0 u64]    { [klen][key][child u64] }*

Internal-node semantics: keys ``k_1 < ... < k_n`` partition children so that
child ``i`` holds keys in ``[k_i, k_{i+1})`` (child 0 holds keys below
``k_1``).  Values above the overflow threshold spill to overflow chains
(flag 2); deletion is lazy (no rebalancing), which is adequate for the
append-mostly index workloads of the paper.
"""

from __future__ import annotations

import struct
from bisect import bisect_right, insort
from typing import Iterable, Iterator

from .codec import decode_varint, encode_varint
from .errors import CorruptionError, KeyTooLargeError
from .kvstore import KVStore, ReadOnlySnapshot
from .pager import DEFAULT_PAGE_SIZE, PageReader, Pager

_LEAF = 1
_INTERNAL = 2
_FLAG_INLINE = 0
_FLAG_OVERFLOW = 2
_OVERFLOW_REF = struct.Struct("<QI")
_META = struct.Struct("<QQ")  # root page, count
MAX_KEY = 512


class _Leaf:
    """Decoded leaf node: sorted (key, flag, stored_value) triples."""

    __slots__ = ("next_leaf", "entries")

    def __init__(self, next_leaf: int, entries: list[tuple[bytes, int, bytes]]):
        self.next_leaf = next_leaf
        self.entries = entries


class _Internal:
    """Decoded internal node: children[i] covers keys in [keys[i-1], keys[i])."""

    __slots__ = ("keys", "children")

    def __init__(self, keys: list[bytes], children: list[int]):
        self.keys = keys
        self.children = children


def _crossing(sizes: Iterable[int], limit: int) -> int:
    """How many leading entries it takes for their encoded sizes to add
    up past ``limit`` (all of them when they never do).

    Where a full node is split: entries differ a hundredfold in size
    (an inline value may be a quarter page), so halving by *count* can
    leave one half larger than a page.  Cut at half a page by *size*
    and neither half can be: the left one is at most half a page plus
    one entry, the right one what the overfull node held less half a
    page.
    """
    used = count = 0
    for count, size in enumerate(sizes, 1):
        used += size
        if used > limit:
            break
    return count


def _decode_node(raw: bytes) -> _Leaf | _Internal:
    """Decode one node page (shared by the live tree and snapshots)."""
    node_type = raw[0]
    n = struct.unpack_from("<H", raw, 1)[0]
    if node_type == _LEAF:
        next_leaf = struct.unpack_from("<Q", raw, 3)[0]
        pos = 11
        entries: list[tuple[bytes, int, bytes]] = []
        for _ in range(n):
            flag = raw[pos]
            pos += 1
            klen, pos = decode_varint(raw, pos)
            vlen, pos = decode_varint(raw, pos)
            key = raw[pos:pos + klen]
            pos += klen
            value = raw[pos:pos + vlen]
            pos += vlen
            entries.append((key, flag, value))
        return _Leaf(next_leaf, entries)
    if node_type == _INTERNAL:
        child0 = struct.unpack_from("<Q", raw, 3)[0]
        pos = 11
        keys: list[bytes] = []
        children = [child0]
        for _ in range(n):
            klen, pos = decode_varint(raw, pos)
            keys.append(raw[pos:pos + klen])
            pos += klen
            children.append(struct.unpack_from("<Q", raw, pos)[0])
            pos += 8
        return _Internal(keys, children)
    raise CorruptionError(f"unknown btree node type {node_type}")


class BPlusTree(KVStore):
    """Disk B+tree implementing the :class:`KVStore` interface."""

    def __init__(self, path: str, *, create: bool = False,
                 page_size: int = DEFAULT_PAGE_SIZE,
                 wal: bool = True, use_mmap: bool = True,
                 wal_factory=None) -> None:
        super().__init__()
        #: An unjournaled write left the header's root/count behind.
        self._meta_stale = False
        if create:
            self._pager = Pager(path, page_size=page_size, create=True,
                                wal=wal, use_mmap=use_mmap,
                                wal_factory=wal_factory)
            self._payload = self._pager.page_size
            self._overflow_threshold = self._pager.page_size // 4
            self._root = self._pager.allocate()
            self._count = 0
            self._write_leaf(self._root, _Leaf(0, []))
            self._write_meta()
        else:
            self._pager = Pager(path, wal=wal, use_mmap=use_mmap,
                                wal_factory=wal_factory)
            meta = self._pager.meta
            if len(meta) < _META.size:
                raise CorruptionError("btree metadata missing")
            self._root, self._count = _META.unpack(meta[:_META.size])
        self._payload = self._pager.page_size
        self._overflow_threshold = self._pager.page_size // 4

    # -- node (de)serialization ------------------------------------------------

    def _write_meta(self) -> None:
        self._pager.set_meta(_META.pack(self._root, self._count))
        self._meta_stale = False

    def reload_meta(self) -> None:
        """Re-read the root/count from the pager (replica replay)."""
        meta = self._pager.meta
        if len(meta) < _META.size:
            raise CorruptionError("btree metadata missing")
        self._root, self._count = _META.unpack(meta[:_META.size])

    def _read_node(self, page_id: int) -> _Leaf | _Internal:
        raw = self._pager.read(page_id)
        self.stats.page_reads += 1
        return _decode_node(raw)

    def _leaf_bytes(self, leaf: _Leaf) -> bytes:
        out = bytearray()
        out.append(_LEAF)
        out += struct.pack("<H", len(leaf.entries))
        out += struct.pack("<Q", leaf.next_leaf)
        for key, flag, value in leaf.entries:
            out.append(flag)
            out += encode_varint(len(key))
            out += encode_varint(len(value))
            out += key
            out += value
        return bytes(out)

    def _internal_bytes(self, node: _Internal) -> bytes:
        out = bytearray()
        out.append(_INTERNAL)
        out += struct.pack("<H", len(node.keys))
        out += struct.pack("<Q", node.children[0])
        for key, child in zip(node.keys, node.children[1:]):
            out += encode_varint(len(key))
            out += key
            out += struct.pack("<Q", child)
        return bytes(out)

    def _write_leaf(self, page_id: int, leaf: _Leaf) -> bytes | None:
        raw = self._leaf_bytes(leaf)
        if len(raw) > self._payload:
            return raw
        self._pager.write(page_id, raw)
        self.stats.page_writes += 1
        return None

    def _write_internal(self, page_id: int, node: _Internal) -> bytes | None:
        raw = self._internal_bytes(node)
        if len(raw) > self._payload:
            return raw
        self._pager.write(page_id, raw)
        self.stats.page_writes += 1
        return None

    # -- search ------------------------------------------------------------------

    def _descend(self, key: bytes) -> tuple[list[tuple[int, _Internal]], int, _Leaf]:
        """Walk to the leaf for ``key``; returns (ancestor stack, leaf id, leaf)."""
        stack: list[tuple[int, _Internal]] = []
        page_id = self._root
        node = self._read_node(page_id)
        while isinstance(node, _Internal):
            stack.append((page_id, node))
            index = bisect_right(node.keys, key)
            page_id = node.children[index]
            node = self._read_node(page_id)
        return stack, page_id, node

    def _resolve(self, flag: int, stored: bytes) -> bytes:
        if flag == _FLAG_OVERFLOW:
            head, length = _OVERFLOW_REF.unpack(stored)
            return self._pager.read_overflow(head, length)
        return stored

    def get(self, key: bytes) -> bytes | None:
        self._check_open()
        self.stats.gets += 1
        _stack, _leaf_id, leaf = self._descend(key)
        for rec_key, flag, stored in leaf.entries:
            if rec_key == key:
                value = self._resolve(flag, stored)
                self.stats.hits += 1
                self.stats.bytes_read += len(value)
                return value
        self.stats.misses += 1
        return None

    # -- insertion ---------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        self._check_open()
        if self._pager.txn_depth == 0:
            self._meta_stale = True
        self.stats.puts += 1
        self.stats.bytes_written += len(value)
        if len(key) > MAX_KEY:
            raise KeyTooLargeError(f"key of {len(key)} bytes exceeds {MAX_KEY}")
        if len(value) > self._overflow_threshold:
            head = self._pager.write_overflow(value)
            stored = _OVERFLOW_REF.pack(head, len(value))
            flag = _FLAG_OVERFLOW
        else:
            stored = value
            flag = _FLAG_INLINE
        stack, leaf_id, leaf = self._descend(key)
        replaced = False
        for index, (rec_key, old_flag, old_stored) in enumerate(leaf.entries):
            if rec_key == key:
                if old_flag == _FLAG_OVERFLOW:
                    ohead, olen = _OVERFLOW_REF.unpack(old_stored)
                    self._pager.free_overflow(ohead, olen)
                leaf.entries[index] = (key, flag, stored)
                replaced = True
                break
        if not replaced:
            insort(leaf.entries, (key, flag, stored))
            self._count += 1
        if self._write_leaf(leaf_id, leaf) is None:
            return
        self._split_leaf(stack, leaf_id, leaf)

    def _split_leaf(self, stack: list[tuple[int, _Internal]],
                    leaf_id: int, leaf: _Leaf) -> None:
        sizes = (1 + len(encode_varint(len(key))) +
                 len(encode_varint(len(stored))) + len(key) + len(stored)
                 for key, _flag, stored in leaf.entries)
        mid = min(_crossing(sizes, self._payload // 2),
                  len(leaf.entries) - 1)        # both halves non-empty
        right = _Leaf(leaf.next_leaf, leaf.entries[mid:])
        right_id = self._pager.allocate()
        left = _Leaf(right_id, leaf.entries[:mid])
        separator = right.entries[0][0]
        if self._write_leaf(right_id, right) is not None:
            raise CorruptionError("leaf half does not fit a page")
        if self._write_leaf(leaf_id, left) is not None:
            raise CorruptionError("leaf half does not fit a page")
        self._insert_separator(stack, separator, right_id)

    def _insert_separator(self, stack: list[tuple[int, _Internal]],
                          separator: bytes, right_id: int) -> None:
        while stack:
            page_id, node = stack.pop()
            index = bisect_right(node.keys, separator)
            node.keys.insert(index, separator)
            node.children.insert(index + 1, right_id)
            if self._write_internal(page_id, node) is None:
                self._write_meta()
                return
            sizes = (len(encode_varint(len(key))) + len(key) + 8
                     for key in node.keys)
            mid = max(1, min(_crossing(sizes, self._payload // 2),
                             len(node.keys) - 2))   # a key on either side
            promote = node.keys[mid]
            right_node = _Internal(node.keys[mid + 1:], node.children[mid + 1:])
            left_node = _Internal(node.keys[:mid], node.children[:mid + 1])
            new_right = self._pager.allocate()
            if self._write_internal(new_right, right_node) is not None:
                raise CorruptionError("internal half does not fit a page")
            if self._write_internal(page_id, left_node) is not None:
                raise CorruptionError("internal half does not fit a page")
            separator, right_id = promote, new_right
        old_root = self._root
        new_root = self._pager.allocate()
        root = _Internal([separator], [old_root, right_id])
        if self._write_internal(new_root, root) is not None:
            raise CorruptionError("fresh root does not fit a page")
        self._root = new_root
        self._write_meta()

    # -- deletion (lazy) --------------------------------------------------------

    def delete(self, key: bytes) -> bool:
        self._check_open()
        self.stats.deletes += 1
        _stack, leaf_id, leaf = self._descend(key)
        for index, (rec_key, flag, stored) in enumerate(leaf.entries):
            if rec_key == key:
                if flag == _FLAG_OVERFLOW:
                    head, length = _OVERFLOW_REF.unpack(stored)
                    self._pager.free_overflow(head, length)
                del leaf.entries[index]
                if self._write_leaf(leaf_id, leaf) is not None:
                    raise CorruptionError("leaf grew on delete")
                self._count -= 1
                self._write_meta()
                return True
        return False

    # -- iteration ----------------------------------------------------------------

    def _leftmost_leaf(self) -> tuple[int, _Leaf]:
        page_id = self._root
        node = self._read_node(page_id)
        while isinstance(node, _Internal):
            page_id = node.children[0]
            node = self._read_node(page_id)
        return page_id, node

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        self._check_open()
        _page_id, leaf = self._leftmost_leaf()
        while True:
            for key, flag, stored in leaf.entries:
                yield bytes(key), self._resolve(flag, stored)
            if not leaf.next_leaf:
                return
            node = self._read_node(leaf.next_leaf)
            if not isinstance(node, _Leaf):
                raise CorruptionError("leaf chain points at internal node")
            leaf = node

    def range(self, start: bytes, end: bytes | None = None
              ) -> Iterator[tuple[bytes, bytes]]:
        """Iterate pairs with ``start <= key`` and, if given, ``key < end``."""
        self._check_open()
        _stack, _leaf_id, leaf = self._descend(start)
        while True:
            for key, flag, stored in leaf.entries:
                if key < start:
                    continue
                if end is not None and key >= end:
                    return
                yield bytes(key), self._resolve(flag, stored)
            if not leaf.next_leaf:
                return
            node = self._read_node(leaf.next_leaf)
            if not isinstance(node, _Leaf):
                raise CorruptionError("leaf chain points at internal node")
            leaf = node

    def __len__(self) -> int:
        self._check_open()
        return self._count

    def sync(self) -> None:
        self._check_open()
        self._write_meta()
        self._pager.sync()

    # -- transactions ------------------------------------------------------

    def begin(self, label: bytes = b"") -> None:
        self._check_open()
        if self._pager.txn_depth == 0:
            # Keep the header pre-image current before the snapshot (bulk
            # loads defer meta writes to sync/close).
            self._write_meta()
        self._pager.begin(label)

    def commit(self) -> None:
        self._check_open()
        if self._pager.txn_depth == 1:
            self._write_meta()  # root/count land inside the commit group
        self._pager.commit()

    def abort(self) -> None:
        self._check_open()
        if self._pager.txn_depth == 0:
            return
        self._pager.abort()
        self._root, self._count = _META.unpack(
            self._pager.meta[:_META.size])

    def wal_info(self) -> dict[str, object] | None:
        return self._pager.wal_info()

    @property
    def pager(self):
        return self._pager

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> KVStore:
        self._check_open()
        if self._meta_stale:
            # Unjournaled puts defer the count to sync/close; the view
            # reads it from the header as of its pin.
            self._write_meta()
        return BTreeSnapshot(self)

    def mvcc_info(self) -> dict[str, object]:
        return self._pager.mvcc_info()

    def current_version(self) -> int:
        return self._pager.current_version()

    def close(self) -> None:
        if not self._closed:
            self._write_meta()
            self._pager.close()
        super().close()


class BTreeSnapshot(ReadOnlySnapshot):
    """Read-only view of a :class:`BPlusTree` pinned at one pager version.

    The root pointer and count come from the versioned header page, and
    every node / overflow read goes through the pinned
    :class:`~repro.storage.pager.PageReader` -- so the traversal is
    immune to concurrent splits, frees, and page reuse by later commits.
    """

    def __init__(self, tree: BPlusTree) -> None:
        super().__init__()
        self._reader: PageReader = tree._pager.reader()
        self.version = self._reader.version
        self.stats = tree.stats
        meta = self._reader.meta
        if len(meta) < _META.size:
            self._reader.close()
            raise CorruptionError("btree metadata missing in snapshot")
        self._root, self._count = _META.unpack(meta[:_META.size])
        self._released = False

    def _read_node(self, page_id: int) -> _Leaf | _Internal:
        raw = self._reader.read(page_id)
        self.stats.page_reads += 1
        return _decode_node(raw)

    def _resolve(self, flag: int, stored: bytes) -> bytes:
        if flag == _FLAG_OVERFLOW:
            head, length = _OVERFLOW_REF.unpack(stored)
            return self._reader.read_overflow(head, length)
        return stored

    def get(self, key: bytes) -> bytes | None:
        self._check_open()
        self.stats.gets += 1
        page_id = self._root
        node = self._read_node(page_id)
        while isinstance(node, _Internal):
            page_id = node.children[bisect_right(node.keys, key)]
            node = self._read_node(page_id)
        for rec_key, flag, stored in node.entries:
            if rec_key == key:
                value = self._resolve(flag, stored)
                self.stats.hits += 1
                self.stats.bytes_read += len(value)
                return value
        self.stats.misses += 1
        return None

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        self._check_open()
        node = self._read_node(self._root)
        while isinstance(node, _Internal):
            node = self._read_node(node.children[0])
        leaf = node
        while True:
            for key, flag, stored in leaf.entries:
                yield bytes(key), self._resolve(flag, stored)
            if not leaf.next_leaf:
                return
            nxt = self._read_node(leaf.next_leaf)
            if not isinstance(nxt, _Leaf):
                raise CorruptionError("leaf chain points at internal node")
            leaf = nxt

    def __len__(self) -> int:
        self._check_open()
        return self._count

    def close(self) -> None:
        if not self._released:
            self._released = True
            self._reader.close()
        super().close()
