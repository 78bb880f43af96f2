"""Unit tests of the span recorder."""

from spans import Tracer


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("a"):
        with tracer.span("b"):
            pass
    assert tracer.rows() == []


def test_spans_nest_and_share_the_round_id():
    tracer = Tracer(enabled=True)
    tracer.round_id = "read:0"
    with tracer.span("round"):
        with tracer.span("op"):
            pass
        with tracer.span("op"):
            pass
    rows = [dict(zip(Tracer.FIELDS, row)) for row in tracer.rows()]
    assert [row["name"] for row in rows] == ["round", "op", "op"]
    assert rows[0]["parent"] is None
    assert rows[1]["parent"] == rows[2]["parent"] == rows[0]["id"]
    assert {row["round"] for row in rows} == {"read:0"}
    assert all(row["end"] >= row["start"] for row in rows)


def test_self_time_is_duration_minus_children():
    tracer = Tracer(enabled=True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    times = tracer.self_times()
    assert times["outer"]["count"] == 1
    assert times["outer"]["self_s"] == \
        times["outer"]["total_s"] - times["inner"]["total_s"]
    assert times["inner"]["self_s"] == times["inner"]["total_s"]
