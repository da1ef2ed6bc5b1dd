"""Self times split the wall time along one time line."""

import pytest

from attribution import analyse


def _dump(role, pid, spans):
    return {"role": role, "pid": pid, "spans": spans, "events": []}


def _span(label, start, end, depth=0, tid=1, rid=None, attrs=None):
    return [label, start, end, depth, tid, rid, attrs]


def test_one_request_adds_up_to_the_wall():
    client = _dump("loadgen", 1, [_span("loadgen", 0.0, 10.0, rid="c1")])
    server = _dump("server", 2, [
        _span("wire.decode", 1.0, 2.0, rid="c1"),
        _span("service.busy", 3.0, 8.0, tid=2),
        _span("engine.levelloop", 4.0, 7.0, depth=1, tid=2,
              attrs={"levels": 3, "ops": 30}),
        _span("wire.encode", 8.5, 9.0, tid=2, rid="c1"),
    ])
    out = analyse([client, server], 0.0, 10.0, accesses=10)
    m = out["metrics"]
    assert m["loadgen.transit_s"] == pytest.approx(2.0)  # 0-1 and 9-10
    assert m["wire.decode_s"] == pytest.approx(1.0)
    assert m["server.s"] == pytest.approx(1.5)  # 2-3 and 8-8.5
    assert m["service.busy_s"] == pytest.approx(2.0)
    assert m["engine.levelloop_s"] == pytest.approx(3.0)
    assert m["wire.encode_s"] == pytest.approx(0.5)
    assert m["unattributed_s"] == pytest.approx(0.0)
    assert out["attributed_s"] == pytest.approx(10.0)
    assert m["engine.levels"] == 3


def test_busy_threads_share_and_gaps_stay_unattributed():
    server = _dump("server", 2, [
        _span("api.solve", 0.0, 4.0, tid=1),
        _span("tenants.push", 2.0, 6.0, tid=2),
    ])
    out = analyse([server], 0.0, 8.0, accesses=1)
    m = out["metrics"]
    assert m["api.solve_s"] == pytest.approx(3.0)
    assert m["tenants.push_s"] == pytest.approx(3.0)
    assert m["unattributed_s"] == pytest.approx(2.0)
    assert out["attributed_s"] + m["unattributed_s"] == pytest.approx(8.0)


def test_preview_subtree_counts_as_preview_and_commits_count_amplification():
    server = _dump("server", 2, [
        _span("chunked.preview", 0.0, 4.0),
        _span("engine.other", 1.0, 3.0, depth=1, attrs={"n": 50}),
        _span("chunked.solve", 5.0, 9.0, attrs={"n": 100}),
        _span("engine.other", 6.0, 8.0, depth=1, attrs={"n": 150}),
        _span("chunked.carry", 8.0, 9.0, depth=1, attrs={"n": 100}),
    ])
    m = analyse([server], 0.0, 10.0, accesses=100)["metrics"]
    assert m["chunked.preview_s"] == pytest.approx(4.0)
    assert m["engine.other_s"] == pytest.approx(2.0)
    assert m["chunked.amplification"] == pytest.approx(1.5)
    assert m["chunked.chunks"] == 1
