"""Wire protocol of the query service: length-prefixed binary frames.

Every message -- request or response -- is one *frame*::

    [length u32 big-endian][payload, `length` bytes]

whose payload is versioned and binary::

    [0xB1][version u8][opcode u8][request_id varint][body ...]

reusing the varint / fixed-width idioms of :mod:`repro.storage.codec`
(the first byte is :data:`BINARY_MAGIC`; anything else is refused).
Responses echo the request id, so many requests can be *outstanding on
one connection at once* (pipelining) and responses may return in
completion order.  The text interface is the HTTP gateway
(:mod:`repro.server.gateway`).

Request bodies start with a flags byte (bit 0: a ``timeout_us``
varint follows; bit 1: a length-prefixed JSON ``options`` section
follows), then the op-specific section:

* ``query`` -- one nested-set section (below);
* ``query_batch`` -- a count followed by that many nested-set sections;
* ``insert`` / ``delete`` / ``ingest`` -- length-prefixed UTF-8 strings;
* ``ping`` / ``stats`` / ``shutdown`` -- empty.

A *nested-set section* encodes the query structurally instead of as
text: a sorted, deduplicated atom table (tagged UTF-8 strings or
zigzag-varint integers), then the tree with each node's atoms as a
**sorted delta-varint array of table indices**
(:func:`repro.storage.codec.encode_uint_list`) and its children
recursively.  The server hands the decoded :class:`NestedSet` straight
to the engine -- no text parse on the hot path.

Responses are ``[0xB1][version][RESP_* opcode][request_id]``
plus a tagged body: ``query`` results are length-prefixed key lists,
``query_batch`` results are one key table plus per-query **packed
fixed-width id arrays** (decodable in one ``numpy.frombuffer`` shot,
the PR 7 fast path), everything else is a JSON section.  Error
responses carry an :data:`ERROR_CODES` index plus a message.

Both ends enforce :data:`MAX_FRAME_BYTES` so a corrupt or hostile
length prefix cannot trigger an unbounded allocation, and the nested
set decoder bounds recursion at :data:`MAX_SET_DEPTH`.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from array import array
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as _np

from ..core.model import NestedSet, _sort_key, as_nested_set
from ..storage.codec import (
    decode_uint_list,
    decode_varint,
    encode_uint_list,
    encode_varint,
)
from ..storage.errors import CorruptionError

__all__ = [
    "BINARY_MAGIC",
    "ERROR_CODES",
    "MAX_FRAME_BYTES",
    "MAX_SET_DEPTH",
    "OPCODES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "QUERY_OPTION_FIELDS",
    "Request",
    "decode_nested_set",
    "decode_packed_ids",
    "decode_request_body",
    "decode_response_body",
    "encode_nested_set",
    "encode_packed_ids",
    "encode_request_binary",
    "encode_response_for",
    "error_response",
    "ok_response",
    "peek_request_id",
    "read_frame_bytes",
    "recv_frame_bytes",
    "validate_request",
]

#: Frame length prefix: unsigned 32-bit, network byte order.
_LENGTH = struct.Struct("!I")

#: Hard ceiling on one frame's payload (requests and responses alike).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: First payload byte of every frame.
BINARY_MAGIC = 0xB1

#: Version byte following the magic; bumped on incompatible layouts.
PROTOCOL_VERSION = 1

#: Recursion bound of the nested-set decoder (hostile depth -> error).
MAX_SET_DEPTH = 256

#: Request operations the server understands.  Append-only: binary
#: opcodes are positional, so reordering would break old clients.
OPS = ("ping", "query", "query_batch", "insert", "ingest", "delete",
       "stats", "shutdown",
       "repl_bootstrap", "repl_pages", "repl_done", "repl_fetch",
       "promote")

#: Binary opcode of each request op (index into :data:`OPS`).
OPCODES = {op: index for index, op in enumerate(OPS)}
_OP_OF_CODE = {index: op for op, index in OPCODES.items()}

#: Binary response opcodes.
RESP_OK = 0x80
RESP_ERR = 0x81

#: Tags of an ok-response body.
_TAG_JSON = 0        # varint length + JSON of ``result``
_TAG_KEYS = 1        # varint count + length-prefixed UTF-8 keys
_TAG_KEYSETS = 2     # key table + per-query packed id arrays

#: Request flags byte.
_FLAG_TIMEOUT = 0x01
_FLAG_OPTIONS = 0x02

#: Evaluation options a query/query_batch request may carry; mirrors the
#: keyword surface of ``NestedSetIndex.query``.
QUERY_OPTION_FIELDS = ("algorithm", "semantics", "join", "epsilon",
                       "mode", "use_bloom")

#: Error codes a response may carry (binary responses store the index).
ERROR_CODES = (
    "bad_request",     # malformed frame / unknown op / invalid fields
    "overloaded",      # admission control rejected the request
    "timeout",         # the per-request deadline expired
    "shutting_down",   # the server is draining
    "internal",        # evaluation raised (message carries the cause)
    "read_only",       # mutation sent to a replica (message names primary)
)
_CODE_INDEX = {code: index for index, code in enumerate(ERROR_CODES)}

#: Permitted fixed widths (bytes per id) of a packed id array.
_ID_WIDTHS = (1, 2, 4, 8)
_ID_TYPECODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_ID_LIMITS = {1: 1 << 8, 2: 1 << 16, 4: 1 << 32, 8: 1 << 64}
_ID_DTYPES = {1: _np.dtype("<u1"), 2: _np.dtype("<u2"),
              4: _np.dtype("<u4"), 8: _np.dtype("<u8")}


class ProtocolError(Exception):
    """Malformed frame or request (maps to a ``bad_request`` response)."""


@dataclass
class Request:
    """One decoded request: payload dict plus the id its response echoes.

    ``payload`` has the request shape the HTTP gateway takes as JSON; a
    ``query``/``query_batch`` off the wire carries decoded
    :class:`NestedSet` values instead of text (the engine accepts both).
    """

    payload: dict
    request_id: int = 0

    @property
    def op(self) -> str | None:
        return self.payload.get("op")


# -- frames and JSON sections ------------------------------------------------


def _decode_json(raw: bytes) -> Any:
    """Parse one JSON section (request options, a generic result)."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable JSON section: {exc}") from exc


def _check_length(length: int) -> None:
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} exceeds {MAX_FRAME_BYTES}")


def _frame_of(body: bytes) -> bytes:
    _check_length(len(body))
    return _LENGTH.pack(len(body)) + body


# -- varint/section helpers --------------------------------------------------


def _varint_at(buf: bytes, offset: int) -> tuple[int, int]:
    try:
        return decode_varint(buf, offset)
    except CorruptionError as exc:
        raise ProtocolError(str(exc)) from None


def _uint_list_at(buf: bytes, offset: int) -> tuple[list[int], int]:
    try:
        return decode_uint_list(buf, offset)
    except CorruptionError as exc:
        raise ProtocolError(str(exc)) from None


def _encode_bytes(raw: bytes) -> bytes:
    return encode_varint(len(raw)) + raw


def _bytes_at(buf: bytes, offset: int) -> tuple[bytes, int]:
    length, pos = _varint_at(buf, offset)
    end = pos + length
    if end > len(buf):
        raise ProtocolError("truncated length-prefixed section")
    return buf[pos:end], end


def _encode_str(text: str) -> bytes:
    return _encode_bytes(text.encode("utf-8"))


def _str_at(buf: bytes, offset: int) -> tuple[str, int]:
    raw, pos = _bytes_at(buf, offset)
    try:
        return raw.decode("utf-8"), pos
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"undecodable string section: {exc}") from None


def _count_at(buf: bytes, offset: int) -> tuple[int, int]:
    """A varint element count, sanity-bounded by the remaining bytes.

    Every counted element occupies at least one byte, so a count past
    ``len(buf) - pos`` proves corruption before any allocation happens.
    """
    count, pos = _varint_at(buf, offset)
    if count > len(buf) - pos:
        raise ProtocolError(f"element count {count} exceeds the "
                            "remaining frame bytes")
    return count, pos


def _zigzag(value: int) -> int:
    return (value << 1) if value >= 0 else ((-value << 1) - 1)


def _unzigzag(value: int) -> int:
    return (value >> 1) if not value & 1 else -((value + 1) >> 1)


# -- nested-set section ------------------------------------------------------


def encode_nested_set(value: object) -> bytes:
    """Encode one query set structurally (text is parsed first).

    Layout: a sorted atom table (tag ``0`` = UTF-8 string, tag ``1`` =
    zigzag-varint integer), then the tree -- per node a sorted
    delta-varint array of atom-table indices and the child nodes.
    """
    ns = as_nested_set(value)
    atoms = sorted(ns.all_atoms(), key=_sort_key)
    index_of = {atom: index for index, atom in enumerate(atoms)}
    out = bytearray()
    out += encode_varint(len(atoms))
    for atom in atoms:
        if isinstance(atom, str):
            out.append(0)
            out += _encode_str(atom)
        else:
            out.append(1)
            out += encode_varint(_zigzag(atom))

    def _encode_node(node: NestedSet) -> bytes:
        chunk = bytearray(encode_uint_list(
            sorted(index_of[atom] for atom in node.atoms)))
        chunk += encode_varint(len(node.children))
        # Determinism (equal sets -> equal bytes) comes from sorting
        # the children's *encodings*, which exist anyway -- rendering
        # text just to sort would double the cost of deep sets.
        for encoded in sorted(_encode_node(child)
                              for child in node.children):
            chunk += encoded
        return bytes(chunk)

    out += _encode_node(ns)
    return bytes(out)


def decode_nested_set(buf: bytes, offset: int = 0) -> tuple[NestedSet, int]:
    """Decode one nested-set section; returns ``(set, next_offset)``."""
    n_atoms, pos = _count_at(buf, offset)
    table: list = []
    for _ in range(n_atoms):
        if pos >= len(buf):
            raise ProtocolError("truncated atom table")
        tag = buf[pos]
        pos += 1
        if tag == 0:
            atom, pos = _str_at(buf, pos)
        elif tag == 1:
            raw, pos = _varint_at(buf, pos)
            atom = _unzigzag(raw)
        else:
            raise ProtocolError(f"unknown atom tag {tag}")
        table.append(atom)

    def _decode_node(pos: int, depth: int) -> tuple[NestedSet, int]:
        if depth > MAX_SET_DEPTH:
            raise ProtocolError(
                f"nested set deeper than {MAX_SET_DEPTH}")
        indices, pos = _uint_list_at(buf, pos)
        try:
            atoms = [table[index] for index in indices]
        except IndexError:
            raise ProtocolError("atom index past the atom table") from None
        n_children, pos = _count_at(buf, pos)
        children = []
        for _ in range(n_children):
            child, pos = _decode_node(pos, depth + 1)
            children.append(child)
        # Atom types were enforced by the table tags above, so the
        # validating constructor would only re-check what the codec
        # already guarantees.
        return NestedSet._from_trusted(frozenset(atoms),
                                       frozenset(children)), pos

    return _decode_node(pos, 1)


# -- packed id arrays --------------------------------------------------------


def encode_packed_ids(ids: Sequence[int]) -> bytes:
    """Encode sorted non-negative ids as a fixed-width packed array.

    Layout: ``[width u8][count varint][count x width bytes LE]`` with
    the smallest of {1, 2, 4, 8} bytes that holds the maximum --
    the same promotion rule as the packed posting blocks.
    """
    maximum = max(ids, default=0)
    for width in _ID_WIDTHS:
        if maximum < _ID_LIMITS[width]:
            break
    arr = array(_ID_TYPECODES[width], ids)
    if struct.pack("=H", 1) != struct.pack("<H", 1):  # pragma: no cover
        arr.byteswap()
    return bytes((width,)) + encode_varint(len(ids)) + arr.tobytes()


def decode_packed_ids(buf: bytes, offset: int = 0) -> tuple[list[int], int]:
    """Decode a packed id array (one ``frombuffer``)."""
    if offset >= len(buf):
        raise ProtocolError("truncated packed id array")
    width = buf[offset]
    if width not in _ID_LIMITS:
        raise ProtocolError(f"bad packed id width {width}")
    count, pos = _varint_at(buf, offset + 1)
    end = pos + count * width
    if end > len(buf):
        raise ProtocolError("packed id array shorter than its count")
    return _np.frombuffer(buf, _ID_DTYPES[width], count, pos).tolist(), end


# -- binary requests ---------------------------------------------------------


def _binary_header(opcode: int, request_id: int) -> bytearray:
    out = bytearray((BINARY_MAGIC, PROTOCOL_VERSION, opcode))
    out += encode_varint(request_id)
    return out


def _query_section(query: object,
                   cache: dict[str, bytes] | None) -> bytes:
    """The encoded nested-set section of one query, optionally cached.

    Parsing text and building the atom table dominate request encoding
    (~100 us on benchmark-sized sets), so clients that repeat queries
    pass a cache keyed by the exact text -- a prepared-statement
    equivalent.  Non-text queries skip the cache: hashing a NestedSet
    is no cheaper than encoding it.
    """
    if cache is None or not isinstance(query, str):
        return encode_nested_set(query)
    section = cache.get(query)
    if section is None:
        section = encode_nested_set(query)
        if len(cache) >= _QUERY_CACHE_LIMIT:
            cache.clear()
        cache[query] = section
    return section


#: Bound on a client's prepared-query cache; cleared wholesale when
#: full (a workload with > 4096 distinct hot queries is repeating
#: little, so eviction sophistication would buy nothing).
_QUERY_CACHE_LIMIT = 4096


def encode_request_binary(request: dict, request_id: int, *,
                          query_cache: dict[str, bytes] | None = None
                          ) -> bytes:
    """Encode a JSON-shaped request dict as one binary frame.

    ``query`` fields may hold text or :class:`NestedSet`; text is
    parsed here (client side), so the server never parses text on the
    binary path.  ``query_cache`` memoizes encoded query sections by
    their text across calls.
    """
    op = request.get("op")
    if op not in OPCODES:
        raise ProtocolError(f"unknown op {op!r}; expected one of {OPS}")
    out = _binary_header(OPCODES[op], request_id)
    flags = 0
    timeout_ms = request.get("timeout_ms")
    options = request.get("options")
    if timeout_ms is not None:
        if not isinstance(timeout_ms, (int, float)) \
                or isinstance(timeout_ms, bool) or timeout_ms <= 0:
            raise ProtocolError(
                "field 'timeout_ms' must be a positive number")
        flags |= _FLAG_TIMEOUT
    if options:
        flags |= _FLAG_OPTIONS
    out.append(flags)
    if flags & _FLAG_TIMEOUT:
        # Microsecond resolution keeps fractional-ms deadlines intact.
        out += encode_varint(max(1, round(float(timeout_ms) * 1000.0)))
    if flags & _FLAG_OPTIONS:
        out += _encode_bytes(json.dumps(
            options, separators=(",", ":")).encode("utf-8"))
    if op == "query":
        out += _query_section(request["query"], query_cache)
    elif op == "query_batch":
        queries = request["queries"]
        out += encode_varint(len(queries))
        for query in queries:
            out += _query_section(query, query_cache)
    elif op == "insert":
        out += _encode_str(request["key"])
        out += _encode_str(request["value"])
    elif op == "delete":
        out += _encode_str(request["key"])
    elif op == "ingest":
        records = request["records"]
        out += encode_varint(len(records))
        for key, value in records:
            out += _encode_str(key)
            out += _encode_str(value)
    elif op == "repl_bootstrap":
        out += _encode_str(request["replica_id"])
    elif op == "repl_pages":
        out += _encode_str(request["session"])
        out += encode_varint(int(request["start_page"]))
        out += encode_varint(int(request["count"]))
    elif op == "repl_done":
        out += _encode_str(request["session"])
    elif op == "repl_fetch":
        out += _encode_str(request["replica_id"])
        out += encode_varint(int(request["after_seq"]))
        out += encode_varint(int(request.get("max_groups", 256)))
        out += encode_varint(int(request.get("wait_ms", 0)))
    return _frame_of(bytes(out))


def _decode_binary_header(body: bytes) -> tuple[int, int, int]:
    """Parse ``(opcode, request_id, next_offset)`` of a binary payload."""
    if len(body) < 3:
        raise ProtocolError("truncated binary frame header")
    if body[0] != BINARY_MAGIC:
        raise ProtocolError(f"bad binary magic 0x{body[0]:02X}")
    if body[1] != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {body[1]} "
            f"(this end speaks {PROTOCOL_VERSION})")
    request_id, pos = _varint_at(body, 3)
    return body[2], request_id, pos


def peek_request_id(body: bytes) -> int | None:
    """The request id of a binary payload, if its header parses.

    Lets the server tag a ``bad_request`` response for a frame whose
    header survived but whose body is corrupt, so a pipelined client
    can settle the matching in-flight request instead of stalling.
    """
    try:
        _opcode, request_id, _pos = _decode_binary_header(body)
        return request_id
    except ProtocolError:
        return None


def decode_request_body(body: bytes) -> Request:
    """Decode one request payload into a :class:`Request`."""
    opcode, request_id, pos = _decode_binary_header(body)
    if opcode not in _OP_OF_CODE:
        raise ProtocolError(f"unknown opcode 0x{opcode:02X}")
    op = _OP_OF_CODE[opcode]
    payload: dict[str, Any] = {"op": op}
    if pos >= len(body):
        raise ProtocolError("binary frame missing its flags byte")
    flags = body[pos]
    pos += 1
    if flags & ~(_FLAG_TIMEOUT | _FLAG_OPTIONS):
        raise ProtocolError(f"unknown request flags 0x{flags:02X}")
    if flags & _FLAG_TIMEOUT:
        timeout_us, pos = _varint_at(body, pos)
        if timeout_us <= 0:
            raise ProtocolError("field 'timeout_ms' must be positive")
        payload["timeout_ms"] = timeout_us / 1000.0
    if flags & _FLAG_OPTIONS:
        raw, pos = _bytes_at(body, pos)
        options = _decode_json(raw)
        if not isinstance(options, dict):
            raise ProtocolError("options section must be a JSON object")
        payload["options"] = options
    if op == "query":
        payload["query"], pos = decode_nested_set(body, pos)
    elif op == "query_batch":
        count, pos = _count_at(body, pos)
        queries = []
        for _ in range(count):
            query, pos = decode_nested_set(body, pos)
            queries.append(query)
        payload["queries"] = queries
    elif op == "insert":
        payload["key"], pos = _str_at(body, pos)
        payload["value"], pos = _str_at(body, pos)
    elif op == "delete":
        payload["key"], pos = _str_at(body, pos)
    elif op == "ingest":
        count, pos = _count_at(body, pos)
        records = []
        for _ in range(count):
            key, pos = _str_at(body, pos)
            value, pos = _str_at(body, pos)
            records.append([key, value])
        payload["records"] = records
    elif op == "repl_bootstrap":
        payload["replica_id"], pos = _str_at(body, pos)
    elif op == "repl_pages":
        payload["session"], pos = _str_at(body, pos)
        payload["start_page"], pos = _varint_at(body, pos)
        payload["count"], pos = _varint_at(body, pos)
    elif op == "repl_done":
        payload["session"], pos = _str_at(body, pos)
    elif op == "repl_fetch":
        payload["replica_id"], pos = _str_at(body, pos)
        payload["after_seq"], pos = _varint_at(body, pos)
        payload["max_groups"], pos = _varint_at(body, pos)
        payload["wait_ms"], pos = _varint_at(body, pos)
    if pos != len(body):
        raise ProtocolError(
            f"{len(body) - pos} trailing bytes after a {op} request")
    return Request(payload, request_id)


# -- binary responses --------------------------------------------------------


def _is_key_list(result: Any) -> bool:
    return isinstance(result, list) and \
        all(isinstance(key, str) for key in result)


def encode_response_for(request: Request, response: dict) -> bytes:
    """Encode one response frame, tagged with its request's id."""
    request_id = request.request_id
    if not response.get("ok"):
        out = _binary_header(RESP_ERR, request_id)
        code = response.get("error", "internal")
        out.append(_CODE_INDEX.get(code, _CODE_INDEX["internal"]))
        out += _encode_str(response.get("message", ""))
        return _frame_of(bytes(out))
    result = response.get("result")
    out = _binary_header(RESP_OK, request_id)
    if request.op == "query" and _is_key_list(result):
        out.append(_TAG_KEYS)
        out += encode_varint(len(result))
        for key in result:
            out += _encode_str(key)
    elif request.op == "query_batch" and isinstance(result, list) \
            and all(_is_key_list(keys) for keys in result):
        # One key table, one packed id array per query: repeated keys
        # across a coalesced batch are encoded (and decoded) once.
        table: dict[str, int] = {}
        for keys in result:
            for key in keys:
                if key not in table:
                    table[key] = len(table)
        out.append(_TAG_KEYSETS)
        out += encode_varint(len(table))
        for key in table:
            out += _encode_str(key)
        out += encode_varint(len(result))
        for keys in result:
            out += encode_packed_ids([table[key] for key in keys])
    else:
        out.append(_TAG_JSON)
        out += _encode_bytes(json.dumps(
            result, separators=(",", ":"), ensure_ascii=False)
            .encode("utf-8"))
    return _frame_of(bytes(out))


def decode_response_body(body: bytes) -> tuple[int, dict]:
    """Decode one response payload to ``(request_id, response_dict)``,
    the response in the JSON shape of :func:`ok_response` /
    :func:`error_response`."""
    opcode, request_id, pos = _decode_binary_header(body)
    if opcode == RESP_ERR:
        if pos >= len(body):
            raise ProtocolError("truncated error response")
        code_index = body[pos]
        if code_index >= len(ERROR_CODES):
            raise ProtocolError(f"unknown error code index {code_index}")
        message, pos = _str_at(body, pos + 1)
        return request_id, {"ok": False, "error": ERROR_CODES[code_index],
                            "message": message}
    if opcode != RESP_OK:
        raise ProtocolError(f"unknown response opcode 0x{opcode:02X}")
    if pos >= len(body):
        raise ProtocolError("truncated response body")
    tag = body[pos]
    pos += 1
    if tag == _TAG_JSON:
        raw, pos = _bytes_at(body, pos)
        result = _decode_json(raw)
    elif tag == _TAG_KEYS:
        count, pos = _count_at(body, pos)
        result = []
        for _ in range(count):
            key, pos = _str_at(body, pos)
            result.append(key)
    elif tag == _TAG_KEYSETS:
        n_table, pos = _count_at(body, pos)
        table = []
        for _ in range(n_table):
            key, pos = _str_at(body, pos)
            table.append(key)
        n_lists, pos = _varint_at(body, pos)
        result = []
        for _ in range(n_lists):
            ids, pos = decode_packed_ids(body, pos)
            try:
                result.append([table[index] for index in ids])
            except IndexError:
                raise ProtocolError("key id past the key table") from None
    else:
        raise ProtocolError(f"unknown response tag {tag}")
    if pos != len(body):
        raise ProtocolError(
            f"{len(body) - pos} trailing bytes after a response")
    return request_id, {"ok": True, "result": result}


# -- asyncio endpoints -------------------------------------------------------


async def read_frame_bytes(reader: asyncio.StreamReader) -> bytes | None:
    """Read one frame's payload bytes; ``None`` on clean EOF."""
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-frame") from exc
    (length,) = _LENGTH.unpack(prefix)
    _check_length(length)
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("connection closed mid-frame") from exc


# -- blocking endpoints (client side) ---------------------------------------


def _recv_exactly(sock: socket.socket, n: int) -> bytes | None:
    out = bytearray()
    while len(out) < n:
        chunk = sock.recv(n - len(out))
        if not chunk:
            return None
        out += chunk
    return bytes(out)


def recv_frame_bytes(sock: socket.socket) -> bytes | None:
    """Blocking read of one frame's payload; ``None`` on clean EOF."""
    prefix = _recv_exactly(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    _check_length(length)
    body = _recv_exactly(sock, length)
    if body is None:
        raise ProtocolError("connection closed mid-frame")
    return body


# -- requests and responses --------------------------------------------------


def ok_response(result: Any) -> dict:
    return {"ok": True, "result": result}


def error_response(code: str, message: str = "") -> dict:
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return {"ok": False, "error": code, "message": message}


def _require_str(request: dict, field_name: str) -> str:
    value = request.get(field_name)
    if not isinstance(value, str):
        raise ProtocolError(f"{request.get('op')}: field {field_name!r} "
                            "must be a string")
    return value


def _require_uint(request: dict, field_name: str,
                  default: int | None = None) -> int:
    value = request.get(field_name, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ProtocolError(f"{request.get('op')}: field {field_name!r} "
                            "must be a non-negative integer")
    return value


def _is_query(value: object) -> bool:
    """Queries arrive as text (HTTP gateway) or NestedSet (the wire)."""
    return isinstance(value, (str, NestedSet))


def validate_request(request: Any) -> dict:
    """Check shape and field types; returns the request dict.

    Raises :class:`ProtocolError` (→ ``bad_request``) on anything the
    dispatcher should not have to defend against.
    """
    if not isinstance(request, dict):
        raise ProtocolError("request must be a JSON object")
    op = request.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {OPS}")
    if op == "query":
        if not _is_query(request.get("query")):
            raise ProtocolError("query: field 'query' must be a string "
                                "or an encoded set")
    elif op == "query_batch":
        queries = request.get("queries")
        if not isinstance(queries, list) or \
                not all(_is_query(q) for q in queries):
            raise ProtocolError("query_batch: field 'queries' must be "
                                "a list of strings or encoded sets")
    elif op == "insert":
        _require_str(request, "key")
        _require_str(request, "value")
    elif op == "ingest":
        records = request.get("records")
        if not isinstance(records, list) or not all(
                isinstance(pair, (list, tuple)) and len(pair) == 2
                and isinstance(pair[0], str) and isinstance(pair[1], str)
                for pair in records):
            raise ProtocolError("ingest: field 'records' must be a list "
                                "of [key, value] string pairs")
    elif op == "delete":
        _require_str(request, "key")
    elif op == "repl_bootstrap":
        _require_str(request, "replica_id")
    elif op == "repl_pages":
        _require_str(request, "session")
        _require_uint(request, "start_page")
        _require_uint(request, "count")
    elif op == "repl_done":
        _require_str(request, "session")
    elif op == "repl_fetch":
        _require_str(request, "replica_id")
        _require_uint(request, "after_seq")
        _require_uint(request, "max_groups", 256)
        _require_uint(request, "wait_ms", 0)
    options = request.get("options")
    if options is not None:
        if not isinstance(options, dict):
            raise ProtocolError("field 'options' must be an object")
        unknown = set(options) - set(QUERY_OPTION_FIELDS)
        if unknown:
            raise ProtocolError(
                f"unknown option(s) {sorted(unknown)}; "
                f"expected a subset of {QUERY_OPTION_FIELDS}")
    timeout_ms = request.get("timeout_ms")
    if timeout_ms is not None and (
            not isinstance(timeout_ms, (int, float))
            or isinstance(timeout_ms, bool) or timeout_ms <= 0):
        raise ProtocolError("field 'timeout_ms' must be a positive number")
    return request
