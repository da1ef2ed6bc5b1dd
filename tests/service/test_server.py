"""The line-oriented serve protocol: parsing, stdin mode, TCP mode."""

from __future__ import annotations

import io
import json
import threading

import numpy as np
import pytest

from repro import SolveConfig
from repro.cli import main
from repro.core.engine import iaf_hit_rate_curve
from repro.errors import ReproError
from repro.service import CurveService, parse_request, serve_stream, serve_tcp
from repro.workloads.traceio import write_trace


@pytest.fixture
def trace_file(tmp_path, rng):
    trace = rng.integers(0, 50, size=800)
    path = tmp_path / "t.reprotrc"
    write_trace(path, trace)
    return str(path), trace


class TestParseRequest:
    def test_bare_path(self):
        trace, cfg, deadline, req_id, sizes = parse_request("  /a/b.trc \n")
        assert trace == "/a/b.trc"
        assert cfg == SolveConfig()
        assert deadline is None and req_id is None and sizes == []

    def test_full_json(self):
        line = json.dumps({
            "trace": "x.trc", "id": "r1", "algorithm": "parallel-iaf",
            "max_cache_size": 64, "workers": 2, "dtype": "int32",
            "engine_backend": "naive", "deadline": 1.5, "sizes": [4, 8],
        })
        trace, cfg, deadline, req_id, sizes = parse_request(line)
        assert trace == "x.trc"
        assert cfg.algorithm == "parallel-iaf"
        assert cfg.max_cache_size == 64
        assert cfg.workers == 2
        assert np.dtype(cfg.dtype) == np.int32
        assert cfg.engine_backend == "naive"
        assert deadline == 1.5
        assert req_id == "r1"
        assert sizes == [4, 8]

    def test_inline_trace(self):
        trace, *_ = parse_request('{"trace": [1, 2, 1]}')
        assert trace == [1, 2, 1]

    @pytest.mark.parametrize("line,match", [
        ("", "empty"),
        ("{not json", "bad request JSON"),
        ('{"trace": "x", "workers": 0}', "workers"),
        ('{"trace": "x", "bogus": 1}', "unknown request field"),
        ('{"id": "a"}', 'needs a "trace"'),
        ('{"trace": "x", "dtype": "float64"}', "bad dtype"),
        ('{"trace": "x", "deadline": -1}', "deadline"),
        ('{"trace": "x", "sizes": [0]}', "sizes"),
        ('{"trace": "x", "algorithm": "magic"}', "unknown algorithm"),
    ])
    def test_malformed_lines_rejected(self, line, match):
        with pytest.raises(ReproError, match=match):
            parse_request(line)


class TestServeStream:
    def run_lines(self, lines, **service_kwargs):
        out = []
        with CurveService(workers=1, **service_kwargs) as svc:
            failures = serve_stream(iter(lines), out.append, svc)
        return [json.loads(text) for text in out], failures

    def test_mixed_good_and_bad_lines(self, trace_file):
        path, trace = trace_file
        lines = [
            path + "\n",
            json.dumps({"trace": [1, 2, 1, 2], "id": "inline",
                        "sizes": [2]}) + "\n",
            "garbage-not-a-file\n",
            "\n",  # blank lines are skipped, not errors
        ]
        responses, failures = self.run_lines(lines)
        assert failures == 1
        by_id = {r["id"]: r for r in responses}
        assert by_id[None]["ok"] in (True, False)  # path or garbage line
        ok = [r for r in responses if r["ok"]]
        bad = [r for r in responses if not r["ok"]]
        assert len(ok) == 2 and len(bad) == 1
        inline = by_id["inline"]
        assert inline["hit_rates"]["2"] == pytest.approx(0.5)
        direct = iaf_hit_rate_curve(trace)
        served = next(r for r in ok if r["id"] is None)
        assert served["total_accesses"] == direct.total_accesses
        assert served["max_size"] == direct.max_size

    def test_error_line_carries_request_id(self):
        responses, failures = self.run_lines([
            json.dumps({"trace": "no-such-file.trc", "id": "gone"}),
        ])
        assert failures == 1
        assert responses[0]["id"] == "gone"
        assert responses[0]["ok"] is False
        assert responses[0]["error"]

    def test_every_request_answered(self, rng):
        traces = [rng.integers(0, 9, size=50).tolist() for _ in range(10)]
        lines = [json.dumps({"trace": t, "id": str(i)})
                 for i, t in enumerate(traces)]
        responses, failures = self.run_lines(lines, max_batch=4)
        assert failures == 0
        assert sorted(r["id"] for r in responses) == \
            sorted(str(i) for i in range(10))


class TestProtocolErrors:
    """Regression: byte lines used to be decoded with errors="replace",
    so undecodable requests were silently mangled into U+FFFD garbage
    and failed downstream with a misleading parse error."""

    def run_bytes(self, lines):
        out = []
        with CurveService(workers=1) as svc:
            failures = serve_stream(iter(lines), out.append, svc)
            metrics = svc.metrics()
        return [json.loads(text) for text in out], failures, metrics

    def test_invalid_utf8_answered_with_protocol_error(self):
        responses, failures, metrics = self.run_bytes([
            b'{"trace": [1, 2, 1], "id": "good", "sizes": [1]}\n',
            b"\xff\xfe not utf-8 \x80\n",
        ])
        assert failures == 1
        assert metrics["service.protocol_errors"] == 1
        by_ok = {r["ok"]: r for r in responses}
        assert by_ok[True]["id"] == "good"
        bad = by_ok[False]
        assert bad["error"] == "ProtocolError"
        assert "not valid UTF-8" in bad["message"]
        assert bad["id"] is None  # undecodable line has no usable id

    def test_valid_bytes_lines_decode_strictly(self):
        request = {"trace": [1, 2, 1, 2], "id": "bytes", "sizes": [2]}
        responses, failures, metrics = self.run_bytes([
            (json.dumps(request) + "\n").encode("utf-8"),
        ])
        assert failures == 0
        assert metrics.get("service.protocol_errors", 0) == 0
        assert responses[0]["ok"] is True
        assert responses[0]["hit_rates"]["2"] == pytest.approx(0.5)

    def test_stream_continues_after_protocol_error(self):
        """One bad client line must not poison later requests."""
        lines = [
            b"\x80\x81\x82\n",
            b'{"trace": [5, 5, 5], "id": "after", "sizes": [1]}\n',
            b"\xc3\x28\n",  # invalid continuation byte
        ]
        responses, failures, metrics = self.run_bytes(lines)
        assert failures == 2
        assert metrics["service.protocol_errors"] == 2
        ok = [r for r in responses if r["ok"]]
        assert len(ok) == 1 and ok[0]["id"] == "after"


class TestServeCLI:
    def test_stdin_mode(self, trace_file, capsys, monkeypatch):
        path, trace = trace_file
        request = json.dumps({"trace": path, "id": "cli", "sizes": [8]})
        monkeypatch.setattr("sys.stdin", io.StringIO(request + "\n"))
        rc = main(["serve", "--workers", "1"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        payload = json.loads(out[-1])
        assert payload["ok"] is True
        assert payload["id"] == "cli"
        direct = iaf_hit_rate_curve(trace)
        assert payload["hit_rates"]["8"] == pytest.approx(
            direct.hit_rate(8)
        )

    def test_stdin_mode_bad_line_rc(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("no-such.trc\n"))
        rc = main(["serve", "--workers", "1", "--metrics"])
        assert rc == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out.strip())["ok"] is False
        assert "service.queue_depth" in captured.err


class TestServeClusterFlags:
    def test_every_forwarded_flag_parses(self, monkeypatch):
        """A shard is ``repro serve`` with the flags the ring forwards;
        each must parse, or every shard exits at start."""
        import types

        import repro.cluster.spawn as spawn
        from repro.cli import build_parser

        commands = []

        class Spawned(Exception):
            pass

        def popen(cmd, **kwargs):
            commands.append(cmd)
            raise Spawned

        monkeypatch.setattr(spawn, "subprocess", types.SimpleNamespace(
            Popen=popen, DEVNULL=None, PIPE=None,
        ))
        with pytest.raises(Spawned):
            main(["serve", "--cluster", "2", "--port", "0",
                  "--workers", "3", "--max-queue", "17", "--max-batch", "5",
                  "--default-deadline", "4.5", "--tenant-budget-mb", "64",
                  "--tenant-sample-rate", "0.25"])
        cmd = commands[0]
        args = build_parser().parse_args(cmd[cmd.index("repro") + 1:])
        assert args.command == "serve" and args.cluster is None
        assert args.tenants and args.port == 0 and args.workers == 3
        assert (args.max_queue, args.max_batch) == (17, 5)
        assert args.default_deadline == 4.5
        assert args.tenant_budget_mb == 64.0
        assert args.tenant_sample_rate == 0.25


class TestRemovedIn7:
    """7.0 turned the serving layer's unset knobs into constants and
    moved the size rule into ``solve()``; the old keywords fail loudly."""

    @pytest.mark.parametrize("keyword", [
        "shard_threshold", "tick_seconds", "latency_window",
    ])
    def test_curve_service_keyword_is_gone(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            CurveService(**{keyword: 1})

    def test_default_config_keyword_is_gone(self):
        from repro.service import parse_request_obj, serve_binary
        from repro.service.server import LocalBackend

        cfg = SolveConfig()
        with CurveService(workers=1) as svc:
            calls = [
                lambda: parse_request('{"trace": "x"}', default_config=cfg),
                lambda: parse_request_obj({"trace": "x"},
                                          default_config=cfg),
                lambda: LocalBackend(svc, default_config=cfg),
                lambda: serve_stream(iter(()), print, svc,
                                     default_config=cfg),
                lambda: serve_binary(io.BytesIO(), io.BytesIO(), svc,
                                     default_config=cfg),
                lambda: serve_tcp(svc, "127.0.0.1", 0, default_config=cfg),
            ]
            for call in calls:
                with pytest.raises(TypeError, match="default_config"):
                    call()

    def test_shard_threshold_constant_is_gone(self):
        with pytest.raises(ImportError):
            exec("from repro.service.curve_service import "
                 "DEFAULT_SHARD_THRESHOLD", {})

    def test_shard_threshold_flag_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--shard-threshold", "5"])
        assert exc.value.code == 2
        assert "--shard-threshold" in capsys.readouterr().err


class TestServeTCP:
    """TCP round trips through the supported client, both transports."""

    @pytest.mark.parametrize("prefer_binary", [False, True])
    def test_round_trip_shared_service(self, trace_file, prefer_binary):
        from repro.client import CurveClient

        path, trace = trace_file
        with CurveService(workers=2) as svc:
            server = serve_tcp(svc, "127.0.0.1", 0)
            host, port = server.server_address[:2]
            runner = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            runner.start()
            try:
                with CurveClient(host, port,
                                 prefer_binary=prefer_binary) as client:
                    assert client.binary is prefer_binary
                    responses = client.solve_batch(
                        [path, [1, 2, 1]], sizes=[1]
                    )
                assert all(r["ok"] for r in responses)
                direct = iaf_hit_rate_curve(trace)
                assert responses[0]["total_accesses"] == \
                    direct.total_accesses
                assert responses[1]["hit_rates"]["1"] == pytest.approx(0.0)
            finally:
                server.shutdown()
                server.server_close()


class TestTenantVerbs:
    """The multi-tenant protocol ops (docs/TENANTS.md)."""

    def _run(self, lines, tenants=None, service=None):
        out = []
        svc = service or CurveService(workers=2)
        try:
            failures = serve_stream(
                iter([json.dumps(l) + "\n" for l in lines]),
                out.append, svc, tenants=tenants,
            )
        finally:
            if service is None:
                svc.close(drain=True)
        return failures, [json.loads(o) for o in out]

    def test_disabled_by_default(self):
        failures, resp = self._run([{"op": "tenants", "id": "x"}])
        assert failures == 1
        assert resp[0]["ok"] is False
        assert "not enabled" in resp[0]["message"]

    def test_full_lifecycle(self, rng):
        from repro.tenants import TenantService

        trace = rng.integers(0, 200, size=3000).tolist()
        with CurveService(workers=2) as svc:
            tenants = TenantService(svc)
            failures, resp = self._run([
                {"op": "register", "tenant": "w", "id": "r"},
                {"op": "push", "tenant": "w", "trace": trace, "id": "p"},
                {"op": "curve", "tenant": "w", "sizes": [16, 64],
                 "id": "c"},
                {"op": "tenants", "id": "t"},
                {"op": "evict", "tenant": "w", "id": "e"},
            ], tenants=tenants, service=svc)
        assert failures == 0
        by_id = {r["id"]: r for r in resp}
        assert by_id["r"]["tier"] == "exact"
        assert by_id["p"]["ingested"] == 3000
        direct = iaf_hit_rate_curve(np.asarray(trace))
        assert by_id["c"]["exact"] is True
        assert by_id["c"]["hit_rates"]["64"] == pytest.approx(
            direct.hit_rate(64)
        )
        assert by_id["t"]["tenants"][0]["tenant"] == "w"
        assert by_id["e"]["evicted"] is True

    def test_sampled_tier_over_the_wire(self, rng):
        from repro.core.sampling import sampled_hit_rate_curve
        from repro.tenants import TenantService

        trace = rng.integers(0, 500, size=8000).tolist()
        with CurveService(workers=2) as svc:
            tenants = TenantService(svc)
            failures, resp = self._run([
                {"op": "register", "tenant": "s", "tier": "sampled",
                 "sample_rate": 0.5, "id": "r"},
                {"op": "push", "tenant": "s", "trace": trace, "id": "p"},
                {"op": "curve", "tenant": "s", "sizes": [128], "id": "c"},
            ], tenants=tenants, service=svc)
        assert failures == 0
        by_id = {r["id"]: r for r in resp}
        oneshot = sampled_hit_rate_curve(np.asarray(trace), 0.5, seed=0)
        assert by_id["c"]["exact"] is False
        assert by_id["c"]["hit_rates"]["128"] == pytest.approx(
            oneshot.hit_rate(128), abs=0.0
        )
        assert by_id["p"]["ingested"] == oneshot.sampled_accesses

    def test_malformed_tenant_lines(self):
        from repro.tenants import TenantService

        with CurveService(workers=2) as svc:
            tenants = TenantService(svc)
            failures, resp = self._run([
                {"op": "bogus", "id": "a"},
                {"op": "push", "id": "b"},
                {"op": "push", "tenant": "ghost", "trace": [1], "id": "c"},
                {"op": "register", "tenant": "t", "shoe_size": 9,
                 "id": "d"},
                {"op": "curve", "tenant": "t", "sizes": [-1], "id": "e"},
            ], tenants=tenants, service=svc)
        assert failures == 5
        by_id = {r["id"]: r for r in resp}
        assert "unknown op" in by_id["a"]["message"]
        assert '"tenant"' in by_id["b"]["message"]
        assert "unknown tenant" in by_id["c"]["message"]
        assert "shoe_size" in by_id["d"]["message"]
        assert "positive integers" in by_id["e"]["message"]

    def test_stdin_cli_tenant_mode(self, capsys, monkeypatch):
        lines = "\n".join([
            json.dumps({"op": "register", "tenant": "t", "id": "r"}),
            json.dumps({"op": "push", "tenant": "t",
                        "trace": [1, 2, 1, 3, 1], "id": "p"}),
            json.dumps({"op": "curve", "tenant": "t", "sizes": [2],
                        "id": "c"}),
        ])
        monkeypatch.setattr("sys.stdin", io.StringIO(lines + "\n"))
        rc = main(["serve", "--workers", "1", "--tenants", "--metrics"])
        assert rc == 0
        captured = capsys.readouterr()
        payloads = {json.loads(l)["id"]: json.loads(l)
                    for l in captured.out.strip().splitlines()}
        assert payloads["p"]["ingested"] == 5
        direct = iaf_hit_rate_curve(np.array([1, 2, 1, 3, 1]))
        assert payloads["c"]["hit_rates"]["2"] == pytest.approx(
            direct.hit_rate(2)
        )
        assert "tenant.pushes" in captured.err

    @pytest.mark.parametrize("prefer_binary", [False, True])
    def test_tcp_tenant_round_trip(self, prefer_binary):
        from repro.client import CurveClient
        from repro.tenants import TenantService

        with CurveService(workers=2) as svc:
            tenants = TenantService(svc)
            server = serve_tcp(svc, "127.0.0.1", 0, tenants=tenants)
            host, port = server.server_address[:2]
            runner = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            runner.start()
            try:
                with CurveClient(host, port,
                                 prefer_binary=prefer_binary) as client:
                    assert client.server_info["tenants"] is True
                    client.register("t")
                    push = client.push("t", [5, 6, 5])
                    curve = client.curve("t", sizes=[2])
                assert push["ingested"] == 3
                assert curve["hit_rates"]["2"] == pytest.approx(1.0 / 3.0)
            finally:
                server.shutdown()
                server.server_close()
