"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.workloads.traceio import read_trace, write_trace


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "t.trc"
    trace = np.random.default_rng(0).integers(0, 40, size=2_000)
    write_trace(path, trace)
    return path


class TestGenerate:
    def test_generate_zipf(self, tmp_path, capsys):
        out = tmp_path / "z.trc"
        rc = main(["generate", str(out), "--kind", "zipf", "-n", "500",
                   "-u", "50", "--alpha", "0.6", "--seed", "3"])
        assert rc == 0
        trace = read_trace(out)
        assert trace.size == 500 and trace.max() < 50
        assert "wrote 500" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["uniform", "scan", "phases"])
    def test_generate_other_kinds(self, tmp_path, kind):
        out = tmp_path / f"{kind}.trc"
        rc = main(["generate", str(out), "--kind", kind, "-n", "300",
                   "-u", "30"])
        assert rc == 0
        assert read_trace(out).size == 300

    def test_generate_int32(self, tmp_path):
        out = tmp_path / "t32.trc"
        main(["generate", str(out), "-n", "100", "-u", "10",
              "--dtype", "int32"])
        assert read_trace(out).dtype == np.int32


class TestInfo:
    def test_info_reports_stats(self, trace_file, capsys):
        rc = main(["info", str(trace_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "requests:           2,000" in out
        assert "distinct ids:       40" in out
        assert "frequency profile" in out


class TestAnalyze:
    def test_default_reports_knees(self, trace_file, capsys):
        rc = main(["analyze", str(trace_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "LRU hit-rate curve" in out
        assert "cache size" in out

    def test_explicit_sizes_csv(self, trace_file, capsys):
        rc = main(["analyze", str(trace_file), "--sizes", "1,10,40",
                   "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "cache_size,hits,hit_rate"
        assert len(lines) == 4
        # final hit count = n - u
        assert lines[3].startswith("40,1960,")

    def test_bounded_with_limit(self, trace_file, capsys):
        rc = main(["analyze", str(trace_file), "--algorithm", "bounded-iaf",
                   "-k", "10", "--sizes", "1,5,10"])
        assert rc == 0

    def test_targets(self, trace_file, capsys):
        rc = main(["analyze", str(trace_file), "--sizes", "1",
                   "--target", "0.5", "--target", "0.9999"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "hit rate 50%: first reached at cache size" in out
        assert "unreachable" in out

    def test_bad_sizes_errors(self, trace_file, capsys):
        rc = main(["analyze", str(trace_file), "--sizes", "a,b"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestAnalyzeProfile:
    def test_profile_flag_appends_span_summary(self, trace_file, capsys):
        rc = main(["analyze", str(trace_file), "--sizes", "1,10",
                   "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "LRU hit-rate curve" in out  # the normal report survives
        assert "span summary (iaf)" in out
        assert "profile.run" in out
        assert "engine.level" in out

    def test_profile_flag_keeps_curve_exact(self, trace_file, capsys):
        main(["analyze", str(trace_file), "--sizes", "1,10,40",
              "--format", "csv"])
        plain = capsys.readouterr().out
        main(["analyze", str(trace_file), "--sizes", "1,10,40",
              "--format", "csv", "--profile"])
        profiled = capsys.readouterr().out
        assert profiled == plain  # csv output has no span table appended

    def test_profile_flag_keeps_every_solve_flag(self, trace_file, capsys,
                                                 monkeypatch):
        """Regression: --profile solved with only algorithm, k and
        workers, so --engine-backend and --chunk-size were dropped."""
        import repro.obs.profile as profile

        runs = []
        real = profile.profile_hit_rate_curve

        def spy(*args, **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(profile, "profile_hit_rate_curve", spy)
        assert main(["analyze", str(trace_file), "--profile",
                     "--engine-backend", "naive"]) == 0
        assert main(["analyze", str(trace_file), "--profile",
                     "--algorithm", "chunked-iaf", "--chunk-size", "500"]) == 0
        capsys.readouterr()
        solves = [e for e in runs[0].events if e.name == "iaf.solve"]
        assert [e.attrs["backend"] for e in solves] == ["naive"]
        chunks = [e for e in runs[1].events if e.name == "chunked.chunk"]
        assert len(chunks) == 4  # 2 000 accesses in chunks of 500


class TestCompare:
    def test_agreeing_algorithms(self, trace_file, capsys):
        rc = main(["compare", str(trace_file),
                   "--algorithms", "iaf,ost,mattson"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all curves agree" in out

    def test_output_table_shape(self, trace_file, capsys):
        rc = main(["compare", str(trace_file), "--algorithms", "iaf,ost"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 algorithms on" in out
        assert "(n=2,000)" in out
        for column in ("algorithm", "runtime", "speedup vs first",
                       "hits at k="):
            assert column in out
        # one row per algorithm, first one pinned at 1.00x
        iaf_row = next(line for line in out.splitlines()
                       if line.startswith("iaf"))
        assert "1.00x" in iaf_row

    def test_unknown_algorithm(self, trace_file, capsys):
        rc = main(["compare", str(trace_file), "--algorithms", "iaf,magic"])
        assert rc == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_missing_trace_file_exits_2(self, tmp_path, capsys):
        rc = main(["compare", str(tmp_path / "nope.trc")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_with_workers_and_limit(self, trace_file):
        rc = main(["compare", str(trace_file),
                   "--algorithms", "iaf,parda", "--workers", "3",
                   "-k", "20"])
        assert rc == 0


class TestProfile:
    def test_table_output(self, trace_file, capsys):
        rc = main(["profile", str(trace_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "profile: iaf on" in out
        assert "(n=2,000" in out
        for span in ("profile.run", "iaf.preprocess", "iaf.solve",
                     "engine.level"):
            assert span in out
        # the counters table follows the span table
        assert "engine.work" in out
        assert "profile.wall_seconds" in out

    def test_jsonl_stdout_is_parseable(self, trace_file, capsys):
        rc = main(["profile", str(trace_file), "--format", "jsonl"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        objs = [json.loads(line) for line in lines]
        assert any(o["name"] == "profile.run" for o in objs)
        assert all({"name", "wall_s", "cpu_s", "depth"} <= set(o)
                   for o in objs)

    def test_chrome_stdout_is_valid_trace_json(self, trace_file, capsys):
        rc = main(["profile", str(trace_file), "--format", "chrome"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["displayTimeUnit"] == "ms"
        assert all(e["ph"] == "X" for e in doc["traceEvents"])

    def test_chrome_trace_out_reconciles(self, trace_file, tmp_path,
                                         capsys):
        out = tmp_path / "trace.json"
        rc = main(["profile", str(trace_file), "--format", "chrome",
                   "--trace-out", str(out)])
        assert rc == 0
        assert "written to" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        root = next(e for e in doc["traceEvents"]
                    if e["name"] == "profile.run")
        # Acceptance invariant: direct children's durations sum to the
        # root's within 5% (nothing material escapes the span tree).
        children = [e for e in doc["traceEvents"]
                    if e["args"]["parent_id"] == root["args"]["span_id"]]
        assert children
        assert sum(e["dur"] for e in children) <= root["dur"] * 1.05

    def test_jsonl_trace_out(self, trace_file, tmp_path, capsys):
        out = tmp_path / "spans.jsonl"
        rc = main(["profile", str(trace_file), "--algorithm", "bounded-iaf",
                   "-k", "16", "--format", "jsonl",
                   "--trace-out", str(out)])
        assert rc == 0
        objs = [json.loads(line)
                for line in out.read_text().splitlines()]
        assert any(o["name"] == "bounded.chunk" for o in objs)

    def test_trace_out_requires_machine_format(self, trace_file, tmp_path,
                                               capsys):
        rc = main(["profile", str(trace_file),
                   "--trace-out", str(tmp_path / "x.json")])
        assert rc == 2
        assert "--format jsonl or chrome" in capsys.readouterr().err

    def test_malformed_trace_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.trc"
        bad.write_bytes(b"this is not a REPROTRC file")
        rc = main(["profile", str(bad)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_trace_file_exits_2(self, tmp_path, capsys):
        rc = main(["profile", str(tmp_path / "nope.trc")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_capacity_flag_drops_spans(self, trace_file, capsys):
        rc = main(["profile", str(trace_file), "--algorithm", "bounded-iaf",
                   "-k", "8", "--capacity", "4"])
        assert rc == 0
        assert "spans dropped" in capsys.readouterr().out

    def test_workers_flag(self, trace_file, capsys):
        rc = main(["profile", str(trace_file), "--algorithm",
                   "parallel-iaf", "--workers", "2"])
        assert rc == 0
        assert "parallel.worker" in capsys.readouterr().out


class TestSaveCurve:
    def test_analyze_save_round_trip(self, trace_file, tmp_path, capsys):
        from repro.core.hitrate import load_curve

        out = tmp_path / "curve.npz"
        rc = main(["analyze", str(trace_file), "--sizes", "1",
                   "--save", str(out)])
        assert rc == 0
        curve = load_curve(out)
        assert curve.total_accesses == 2_000
        assert "curve saved" in capsys.readouterr().out
