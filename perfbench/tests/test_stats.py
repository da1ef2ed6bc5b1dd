"""Percentile reporting rules and failure accounting."""

import numpy as np
import pytest

from stats import Ledger, tail
from workloads import OfflineSolve, RingTenants, TenantStream
from traces import rng_for


def test_tail_needs_ten_samples_beyond_it():
    assert tail(list(range(1, 101)), 0.90) == 90  # 10 samples above
    assert tail(list(range(1, 100)), 0.90) is None  # only 9 above
    assert tail(list(range(1, 1001)), 0.99) == 990
    assert tail(list(range(1, 1000)), 0.99) is None


def test_median_is_reported_for_few_samples_but_tails_are_not():
    ledger = Ledger()
    for seconds in (3.1, 3.3, 3.2, 3.4, 3.0, 3.5, 3.6):
        ledger.reply(ledger.begin(), "solve", {"ok": True}, seconds)
    summary = ledger.summary("solve")
    assert summary == {"samples": 7, "p50_ms": pytest.approx(3300.0),
                       "p90_ms": None, "p99_ms": None}


@pytest.mark.parametrize("payload", [
    {"ok": False, "error": "ReproError"},
    {"ok": True, "degraded": True},
    {"ok": True, "rerouted": True},
])
def test_error_and_flagged_replies_fail_once(payload):
    ledger = Ledger()
    op = ledger.begin()
    assert not ledger.reply(op, "push", payload, 0.01, 100)
    ledger.reply(ledger.begin(), "push", {"ok": True}, 0.01, 100)
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.failed_ratio == 0.5
    assert ledger.latencies["push"] == [0.01]
    assert ledger.accesses == 100


class _TimingOut:
    def push(self, *args, **kwargs):
        raise TimeoutError("timed out")


class _Refusing:
    def curve(self, *args, **kwargs):
        return {"id": "c1", "ok": False, "error": "ServiceOverloadedError"}

    def latency(self, rid, start):
        return start, 0.001


def _ring(tmp_path):
    wl = RingTenants(1, tmp_path)
    wl.streams = {"tenant0": TenantStream(rng_for(1, "t"), 64, 0.8)}
    return wl


def test_timeout_counts_once_and_stops_the_run(tmp_path):
    wl = _ring(tmp_path)
    wl.client = _TimingOut()
    wl.push("tenant0")
    assert (wl.ledger.attempted, wl.ledger.failed) == (1, 1)
    assert dict(wl.ledger.reasons) == {"timeout": 1}
    assert wl.aborted


def test_refused_query_counts_once(tmp_path):
    wl = _ring(tmp_path)
    wl.client = _Refusing()
    wl.query("tenant0")
    assert (wl.ledger.attempted, wl.ledger.failed) == (1, 1)
    assert dict(wl.ledger.reasons) == {"error": 1}


class _SmallOffline(OfflineSolve):
    N, U = 3000, 200


def test_wrong_answer_counts_once(tmp_path):
    wl = _SmallOffline(1, tmp_path)
    from repro import solve

    ref = solve(wl.base).curve
    good = np.asarray(ref.hits_cumulative)
    bad = good.copy()
    bad[-1] -= 1
    for hits in (good, bad):
        op = wl.ledger.begin()
        wl.ledger.reply(op, "solve", {"ok": True}, 0.1, wl.N)
        wl.answers.append((op, hits, ref.total_accesses))
    wl.ledger.fail(1, "wrong")  # an op already failed is not failed twice
    wl.check()
    assert (wl.ledger.attempted, wl.ledger.failed) == (2, 1)
    assert len(wl.errors) == 1
