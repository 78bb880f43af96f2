"""Frame codec and request validation of the query-service protocol."""

from __future__ import annotations

import struct

import pytest

from repro.core.model import as_nested_set
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    decode_request_body,
    encode_request_binary,
    error_response,
    ok_response,
    validate_request,
)


class TestFrameCodec:
    def test_round_trip(self) -> None:
        payload = {"op": "query", "query": "{a, {b, c}}",
                   "options": {"algorithm": "topdown"}, "timeout_ms": 250}
        frame = encode_request_binary(payload, 7)
        (length,) = struct.Struct("!I").unpack(frame[:4])
        assert length == len(frame) - 4
        request = decode_request_body(frame[4:])
        assert request.request_id == 7
        assert request.payload == dict(
            payload, query=as_nested_set(payload["query"]))

    def test_non_ascii_survives(self) -> None:
        payload = {"op": "insert", "key": "münchen",
                   "value": "{café, {münchen}}"}
        frame = encode_request_binary(payload, 1)
        assert decode_request_body(frame[4:]).payload == payload
        query = {"op": "query", "query": "{café, {münchen}}"}
        assert decode_request_body(
            encode_request_binary(query, 2)[4:]).payload["query"] == \
            as_nested_set(query["query"])

    def test_oversize_payload_rejected_on_encode(self) -> None:
        with pytest.raises(ProtocolError, match="exceeds"):
            encode_request_binary(
                {"op": "delete", "key": "x" * (MAX_FRAME_BYTES + 1)}, 1)

    def test_undecodable_payload_rejected(self) -> None:
        # the JSON frame generation is gone: a payload that does not
        # open with the magic byte is refused, valid JSON included
        for body in (b"\xff\xfe not json", b'{"op": "ping"}', b""):
            with pytest.raises(ProtocolError):
                decode_request_body(body)

    def test_responses_shape(self) -> None:
        assert ok_response([1, 2]) == {"ok": True, "result": [1, 2]}
        err = error_response("overloaded", "busy")
        assert err == {"ok": False, "error": "overloaded",
                       "message": "busy"}
        with pytest.raises(ValueError):
            error_response("not-a-code")


class TestValidateRequest:
    def test_valid_ops_pass(self) -> None:
        for request in (
            {"op": "ping"},
            {"op": "query", "query": "{a}"},
            {"op": "query", "query": "{a}",
             "options": {"algorithm": "topdown", "semantics": "iso"},
             "timeout_ms": 100},
            {"op": "query_batch", "queries": ["{a}", "{b}"]},
            {"op": "insert", "key": "r1", "value": "{a}"},
            {"op": "delete", "key": "r1"},
            {"op": "stats"},
            {"op": "shutdown"},
        ):
            assert validate_request(request) is request

    @pytest.mark.parametrize("request_", [
        "not an object",
        {"op": "evaporate"},
        {"op": "query"},                              # missing query
        {"op": "query", "query": 7},                  # wrong type
        {"op": "query_batch", "queries": "{a}"},      # not a list
        {"op": "query_batch", "queries": ["{a}", 3]},
        {"op": "insert", "key": "r1"},                # missing value
        {"op": "delete"},                             # missing key
        {"op": "query", "query": "{a}", "options": ["algorithm"]},
        {"op": "query", "query": "{a}",
         "options": {"volume": 11}},                  # unknown option
        {"op": "query", "query": "{a}", "timeout_ms": 0},
        {"op": "query", "query": "{a}", "timeout_ms": -5},
        {"op": "query", "query": "{a}", "timeout_ms": True},
        {"op": "query", "query": "{a}", "timeout_ms": "fast"},
        # a removed option is an unknown one
        {"op": "query", "query": "{a}", "options": {"planner": "text"}},
        {"op": "query_batch", "queries": ["{a}"],
         "options": {"planner": "text"}},
    ])
    def test_invalid_requests_rejected(self, request_) -> None:
        with pytest.raises(ProtocolError):
            validate_request(request_)
