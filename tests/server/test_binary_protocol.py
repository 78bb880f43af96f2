"""Corruption matrix and round trips for the binary wire codec.

Mirrors the packed-block corruption tests in tests/core/test_packed.py:
any byte-level damage to a frame body -- truncation, bad magic, wrong
version, unknown opcode, out-of-range lengths -- must surface as
:class:`ProtocolError`, never as a wrong answer, an unbounded
allocation, or a non-protocol exception.
"""

from __future__ import annotations

import struct

import pytest

from repro.core.model import NestedSet, as_nested_set
from repro.server.protocol import (
    BINARY_MAGIC,
    MAX_FRAME_BYTES,
    MAX_SET_DEPTH,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    decode_nested_set,
    decode_packed_ids,
    decode_request_body,
    decode_response_body,
    encode_nested_set,
    encode_packed_ids,
    encode_request_binary,
    encode_response_for,
    error_response,
    ok_response,
    peek_request_id,
)

REQUESTS = [
    {"op": "ping"},
    {"op": "query", "query": "{a, {b, c}, {b, {d}}}"},
    {"op": "query", "query": "{x}", "timeout_ms": 250.5,
     "options": {"algorithm": "topdown", "semantics": "iso"}},
    {"op": "query_batch", "queries": ["{a}", "{a, {b}}", "{}"]},
    {"op": "insert", "key": "r1", "value": "{café, {münchen, 42}}"},
    {"op": "delete", "key": "r1"},
    {"op": "ingest", "records": [["k1", "{a}"], ["k2", "{b, {c}}"]]},
    {"op": "stats"},
    {"op": "shutdown"},
    {"op": "repl_bootstrap", "replica_id": "replica-7"},
    {"op": "repl_pages", "session": "ab12cd", "start_page": 3,
     "count": 16},
    {"op": "repl_done", "session": "ab12cd"},
    {"op": "repl_fetch", "replica_id": "replica-7", "after_seq": 42,
     "max_groups": 64, "wait_ms": 250},
    {"op": "promote"},
]


def _body_of(request: dict, request_id: int = 7) -> bytes:
    """The frame body (length prefix stripped) of one encoded request."""
    frame = encode_request_binary(request, request_id)
    (length,) = struct.Struct("!I").unpack(frame[:4])
    assert length == len(frame) - 4
    return frame[4:]


class TestRequestRoundTrip:
    @pytest.mark.parametrize("request_", REQUESTS,
                             ids=[r["op"] for r in REQUESTS])
    def test_round_trip(self, request_) -> None:
        decoded = decode_request_body(_body_of(request_, request_id=93))
        assert decoded.request_id == 93
        payload = decoded.payload
        assert payload["op"] == request_["op"]
        if "timeout_ms" in request_:
            assert payload["timeout_ms"] == pytest.approx(
                request_["timeout_ms"])
        if "options" in request_:
            assert payload["options"] == request_["options"]
        # Query fields arrive pre-parsed: structural equality with the
        # text the client shipped.
        if request_["op"] == "query":
            assert payload["query"] == as_nested_set(request_["query"])
        if request_["op"] == "query_batch":
            assert payload["queries"] == [as_nested_set(q)
                                          for q in request_["queries"]]

    def test_json_body_refused(self) -> None:
        with pytest.raises(ProtocolError, match="magic 0x7B"):
            decode_request_body(b'{"op": "ping"}')
        with pytest.raises(ProtocolError, match="magic 0x7B"):
            decode_response_body(b'{"ok": true, "result": "pong"}')

    def test_unknown_op_rejected_at_encode(self) -> None:
        with pytest.raises(ProtocolError, match="unknown op"):
            encode_request_binary({"op": "evaporate"}, 1)


class TestRequestCorruption:
    """Every way to damage a frame body must raise ProtocolError."""

    @pytest.mark.parametrize("request_", REQUESTS,
                             ids=[r["op"] for r in REQUESTS])
    def test_every_truncation_detected(self, request_) -> None:
        body = _body_of(request_)
        for cut in range(len(body)):
            with pytest.raises(ProtocolError):
                decode_request_body(body[:cut])

    def test_trailing_garbage_detected(self) -> None:
        body = _body_of({"op": "query", "query": "{a}"})
        with pytest.raises(ProtocolError, match="trailing"):
            decode_request_body(body + b"\x00")

    def test_bad_magic(self) -> None:
        body = bytearray(_body_of({"op": "ping"}))
        body[0] = BINARY_MAGIC + 1
        with pytest.raises(ProtocolError, match="magic 0xB2"):
            decode_request_body(bytes(body))

    def test_unsupported_version(self) -> None:
        body = bytearray(_body_of({"op": "ping"}))
        body[1] = PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            decode_request_body(bytes(body))

    def test_unknown_opcode(self) -> None:
        body = bytearray(_body_of({"op": "ping"}))
        body[2] = len(OPS)
        with pytest.raises(ProtocolError, match="opcode"):
            decode_request_body(bytes(body))

    def test_unknown_flag_bits(self) -> None:
        body = bytearray(_body_of({"op": "ping"}))
        # Flags byte sits right after the request-id varint (id 7 is
        # a single byte).
        body[4] |= 0x80
        with pytest.raises(ProtocolError, match="flag"):
            decode_request_body(bytes(body))

    def test_oversized_count_bounded_by_remaining_bytes(self) -> None:
        # A frame claiming 2**40 batch queries but carrying none must
        # fail fast instead of looping or allocating per the count.
        prefix = _body_of({"op": "query_batch", "queries": []})[:5]
        huge = prefix + b"\x80\x80\x80\x80\x80\x20"  # varint 2**40
        with pytest.raises(ProtocolError):
            decode_request_body(huge)

    def test_depth_bound_enforced(self) -> None:
        deep = as_nested_set("{a}")
        for _ in range(MAX_SET_DEPTH + 1):
            deep = NestedSet(frozenset(), frozenset((deep,)))
        buf = encode_nested_set(deep)
        with pytest.raises(ProtocolError, match="deeper"):
            decode_nested_set(buf)

    def test_atom_index_out_of_range(self) -> None:
        buf = bytearray(encode_nested_set("{a, b}"))
        # Atom table: count=2, [tag, len, 'a'], [tag, len, 'b'] -> the
        # node's delta-varint list starts at offset 7.  First delta 0
        # selects atom 0; patch it to select a table slot that does
        # not exist.
        assert buf[7] == 2  # node atom count
        buf[8] = 5  # first index: 5 > max table index 1
        with pytest.raises(ProtocolError, match="atom index"):
            decode_nested_set(bytes(buf))


class TestFrameLimits:
    def test_oversized_length_prefix_rejected(self) -> None:
        from repro.server.protocol import _check_length

        with pytest.raises(ProtocolError, match="exceeds"):
            _check_length(MAX_FRAME_BYTES + 1)

    def test_oversized_request_rejected_on_encode(self) -> None:
        request = {"op": "insert", "key": "k",
                   "value": "x" * (MAX_FRAME_BYTES + 1)}
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_request_binary(request, 1)


class TestPackedIds:
    @pytest.mark.parametrize("ids", [
        [], [0], [255], [256, 70000], [1, 2, 3, 4_000_000_000],
        [1 << 33], list(range(300)),
    ])
    def test_round_trip(self, ids) -> None:
        buf = encode_packed_ids(ids)
        decoded, end = decode_packed_ids(buf)
        assert decoded == ids
        assert end == len(buf)

    def test_bad_width_rejected(self) -> None:
        buf = bytearray(encode_packed_ids([1, 2, 3]))
        buf[0] = 3  # not one of {1, 2, 4, 8}
        with pytest.raises(ProtocolError, match="width"):
            decode_packed_ids(bytes(buf))

    def test_truncated_array_rejected(self) -> None:
        buf = encode_packed_ids([256, 70000])
        for cut in range(len(buf)):
            with pytest.raises(ProtocolError):
                decode_packed_ids(buf[:cut])


class TestResponses:
    def _request(self, payload: dict, request_id: int = 11) -> Request:
        return Request(payload=payload, request_id=request_id)

    @staticmethod
    def _body(frame: bytes) -> bytes:
        """Strip the length prefix off one encoded response frame."""
        (length,) = struct.Struct("!I").unpack(frame[:4])
        assert length == len(frame) - 4
        return frame[4:]

    def test_query_response_round_trip(self) -> None:
        request = self._request({"op": "query"})
        body = self._body(
            encode_response_for(request, ok_response(["r3", "r17"])))
        request_id, response = decode_response_body(body)
        assert request_id == 11
        assert response == {"ok": True, "result": ["r3", "r17"]}

    def test_batch_response_shares_key_table(self) -> None:
        request = self._request({"op": "query_batch"})
        result = [["k1", "k2"], [], ["k2"], ["k1", "k2", "k3"]]
        body = self._body(encode_response_for(request,
                                              ok_response(result)))
        request_id, response = decode_response_body(body)
        assert request_id == 11
        assert response["result"] == result

    def test_error_response_round_trip(self) -> None:
        request = self._request({"op": "query"}, request_id=404)
        body = self._body(encode_response_for(
            request, error_response("overloaded", "busy")))
        request_id, response = decode_response_body(body)
        assert request_id == 404
        assert response == {"ok": False, "error": "overloaded",
                            "message": "busy"}

    def test_response_truncations_detected(self) -> None:
        request = self._request({"op": "query_batch"})
        body = self._body(encode_response_for(
            request, ok_response([["k1"], ["k1", "k2"]])))
        for cut in range(1, len(body)):
            with pytest.raises(ProtocolError):
                decode_response_body(body[:cut])

    def test_peek_request_id_survives_corrupt_body(self) -> None:
        body = bytearray(_body_of({"op": "query", "query": "{a}"},
                                  request_id=55))
        truncated = bytes(body[:6])
        assert peek_request_id(truncated) == 55
        assert peek_request_id(b"\x00\x01") is None
