"""The benchmark's own tests: ``python3 -m pytest e2ebench -q``.

Every workload runs at tiny sizes and emits every metric that
``BENCHMARK.json`` names, with its unit; planted wrong outputs are
counted as failures.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

import checks
import harness
import serve_load
import workloads
from tracer import Tracer
from workloads import TraceInput

# The traced run and these tests import the program in-process.
if str(harness.SRC) not in sys.path:
    sys.path.insert(0, str(harness.SRC))

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


# -- checks, with planted faults ---------------------------------------------------

MC_OUT = (
    "graph: <MessagePassingGraph p=4 nodes=10 edges=12 (local=8, msg=4)>\n"
    "correctness: 0 order violation(s), 0 async warning(s), 0 clamp warning(s)\n"
    "monte carlo: 3 replicates: makespan delay mean 1,200 ± 30 cy, "
    "p5/p50/p95 = 1,150/1,210/1,240 cy\n"
)


def test_analyze_summary_inside_bounds_passes():
    assert checks.check_analyze(MC_OUT, 3, (0.0, 5000.0)) == []
    assert checks.graph_size(MC_OUT) == {"ranks": 4, "nodes": 10, "edges": 12}


def test_bounds_excluding_the_mean_fail():
    problems = checks.check_analyze(MC_OUT, 3, (0.0, 1190.0))
    assert any("mean" in p for p in problems)


def test_missing_summary_and_wrong_replicates_fail():
    assert checks.check_analyze("nothing", 3, (0.0, 1e9))
    assert checks.check_analyze(MC_OUT, 4, (0.0, 1e9))


def _diagnose_report(makespan: float = 10.0) -> dict:
    return {
        "schema": "repro-diagnosis-report/1",
        "summary": {"errors": 0},
        "diagnosis": {
            "attribution": {
                "makespan": makespan,
                "by_rank": {"0": 10.0},
                "by_primitive": {"compute": 7.5, "send": 2.5},
            },
            "critical_path": {"total_cost": 10.0},
        },
    }


def test_diagnose_attribution_identity():
    assert checks.check_diagnose_report(_diagnose_report()) == []
    assert checks.check_diagnose_report(_diagnose_report(makespan=10.5))


def _verify_report(lo: float = 0.0, hi: float = 5.0) -> dict:
    return {
        "schema": "repro-verify-report/1",
        "summary": {"errors": 0},
        "verification": {
            "bounds": {"makespan_lo": lo, "makespan_hi": hi, "rank_lo": [lo], "rank_hi": [hi]},
            "containment_violations": [],
        },
    }


def test_verify_bounds_order():
    assert checks.check_verify_report(_verify_report()) == []
    assert checks.check_verify_report(_verify_report(lo=6.0))


def _envelope(kind: str, result: dict) -> bytes:
    return json.dumps(
        {
            "schema": checks.RESULT_SCHEMA,
            "ok": True,
            "kind": kind,
            "build": {"key": "k", "digest": "d", "cached": True},
            "result": result,
        }
    ).encode()


def test_tampered_response_byte_fails():
    result = {"report": _verify_report()}
    body = _envelope("verify", result)
    env, problems = checks.check_envelope(body, "verify", {"nprocs": 1})
    assert problems == []
    twin = checks.render_like_cli("verify", env["result"])
    assert checks.compare_twin("verify", env["result"], twin) == []

    # One changed digit still parses and validates, but no longer equals
    # its twin byte for byte.
    tampered = body.replace(b'"makespan_hi": 5.0', b'"makespan_hi": 5.5')
    env, problems = checks.check_envelope(tampered, "verify", {"nprocs": 1})
    assert problems == []
    assert checks.compare_twin("verify", env["result"], twin)
    # A broken byte in the framing fails validation outright.
    _, problems = checks.check_envelope(body[:-1], "verify", {"nprocs": 1})
    assert problems


def test_error_envelope_and_bad_samples_fail():
    err = json.dumps(
        {"schema": checks.RESULT_SCHEMA, "ok": False, "error": {"code": "overloaded",
                                                                 "message": "busy"}}
    ).encode()
    assert checks.check_envelope(err, "analyze", {"nprocs": 2})[1]
    bad = _envelope(
        "analyze",
        {"replicates": 1, "seeds": [0], "samples": [[1.0]],
         "summary": {"p5": 1, "p50": 1, "p95": 1}},
    )
    assert checks.check_envelope(bad, "analyze", {"nprocs": 2, "replicates": 1})[1]


# -- tracer ------------------------------------------------------------------------


def test_self_time_and_coverage():
    tr = Tracer()
    with tr.span("outer") as outer, tr.span("inner") as inner:
        pass
    assert inner.parent == 0
    assert outer.self_time == pytest.approx(outer.duration - inner.duration)
    assert tr.covered(outer.start, outer.end) == pytest.approx(outer.duration)
    assert tr.covered(outer.end, outer.end + 1.0) == 0.0


def test_instrument_wraps_and_restores():
    import repro.cli
    import repro.core.builder as builder

    original = builder.build_graph
    tr = Tracer()
    with tr.instrument({"repro.core.builder:build_graph": "build"}):
        assert repro.cli.build_graph is not original
        assert builder.build_graph is not original
    assert repro.cli.build_graph is original and builder.build_graph is original


# -- whole workloads at tiny sizes -------------------------------------------------


@pytest.fixture
def tiny(monkeypatch):
    """Tiny inputs, two set-up repeats, and this process's environment
    restored after the in-process traced run changed it."""
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 2)
    monkeypatch.setattr(workloads, "IMPORT_REPEATS", 1)
    monkeypatch.setattr(
        workloads, "ANALYZE_TRACE", TraceInput("stencil1d", 4, ("iterations=3",), "st1d")
    )
    monkeypatch.setattr(workloads, "ANALYZE_REPLICATES", 1)
    monkeypatch.setattr(
        workloads, "STATIC_TRACE", TraceInput("stencil2d", 4, ("iterations=2",), "st2d")
    )
    monkeypatch.setattr(
        workloads,
        "SERVE_HOT",
        [TraceInput("token_ring", 4, ("traversals=1",), "ring"),
         TraceInput("stencil1d", 4, ("iterations=2",), "st1d")],
    )
    monkeypatch.setattr(
        workloads,
        "SERVE_COLD",
        [TraceInput("pipeline", 4, ("items=4",), f"pipe{k}", seed_offset=k) for k in range(3)],
    )
    monkeypatch.setattr(workloads, "SERVE_MIN_REQUESTS", 4)
    for key in ("TMPDIR", "XDG_CACHE_HOME", "REPRO_TABLES_CACHE"):
        monkeypatch.delenv(key, raising=False)
    monkeypatch.setattr(tempfile, "tempdir", tempfile.tempdir)


def _run(name: str, trace: bool, seed: int = 3):
    work = harness.Workdir(f"test-{name}-{int(trace)}")
    try:
        return getattr(workloads, name)(seed, 0.1, trace, work)
    finally:
        work.cleanup()


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_emits_every_metric(tiny, name, trace):
    tally, metrics, sizes = _run(name, trace)
    assert tally.failed == 0, tally.reasons
    assert tally.attempted > 0
    expected = LAYER_UNITS if trace else E2E_UNITS
    assert {k: unit for k, (_, unit) in metrics.items()} == expected
    assert all(isinstance(v, float) for v, _ in metrics.values())
    if not trace:
        assert all(v > 0 for v, _ in metrics.values())
    assert sizes


def test_planted_bounds_are_counted_as_failures(tiny, monkeypatch):
    """Bounds that exclude the sample mean fail every repro-analyze job."""
    monkeypatch.setattr(checks, "verify_bounds", lambda report: (-2.0, -1.0))
    tally, metrics, _ = _run("analyze_empirical", False)
    assert tally.failed >= 1
    assert metrics["success_ratio"][0] < 1.0


def test_planted_response_byte_is_counted_as_failure(tiny, monkeypatch):
    """A changed digit in a response that still validates is caught by
    the byte-for-byte comparison with the CLI/library twin."""
    real = serve_load.http_call

    def tampering(port, method, path, body=None):
        status, data = real(port, method, path, body)
        if method == "POST" and b'"ok": true' in data:
            i = max(data.rfind(bytes([d])) for d in b"0123456789")
            data = data[:i] + (b"1" if data[i:i + 1] != b"1" else b"2") + data[i + 1:]
        return status, data

    monkeypatch.setattr(serve_load, "http_call", tampering)
    tally, _, _ = _run("serve_mixed", False)
    assert any("twin" in r for r in tally.reasons)


def test_emit_last_line_is_the_result(capsys):
    tally = harness.Tally()
    tally.record("op", [])
    harness.emit(tally, {"job_s": (1.5, "s")}, {"seed": 1})
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["metrics"] == {"job_s": {"value": 1.5, "unit": "s"}}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "static_gate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / ".e2ebench_runs").exists()


def test_quantile_interpolates():
    assert harness.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert harness.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.9) == pytest.approx(4.6)
    assert harness.quantile([5.0], 0.9) == 5.0
