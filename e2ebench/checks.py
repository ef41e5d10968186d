"""Output checks.  Each returns a list of problems; empty means correct.

A failed check counts the operation that produced the output as
failed, so it shows in ``failed`` / ``success_ratio`` of the result.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any

RESULT_SCHEMA = "repro-serve-result/1"

_MC_LINE = re.compile(
    r"^monte carlo: (?P<n>\d+) replicates: makespan delay mean (?P<mean>[\d,.-]+) "
    r"± (?P<std>[\d,.-]+) cy, p5/p50/p95 = (?P<p5>[\d,.-]+)/(?P<p50>[\d,.-]+)/"
    r"(?P<p95>[\d,.-]+) cy$",
    re.MULTILINE,
)
_GRAPH_LINE = re.compile(r"^graph: <MessagePassingGraph p=(\d+) nodes=(\d+) edges=(\d+)", re.M)

# Reports print whole cycles (``{:,.0f}``), so a printed value may sit
# half a cycle outside the exact bound it came from.
_PRINT_SLACK = 0.5
# Attribution is a float sum over the path's edges; allow for rounding.
_SUM_RTOL = 1e-9


def guarded(check, *args: Any) -> list[str]:
    """Run ``check``; output too malformed for it to read is a problem
    of that output, not a crash of the benchmark."""
    try:
        return check(*args)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return [f"malformed output ({type(exc).__name__}: {exc})"]


def _num(text: str) -> float:
    return float(text.replace(",", ""))


def mc_summary(stdout: str) -> dict[str, float] | None:
    """The ``monte carlo:`` line of ``repro-analyze`` output, parsed."""
    m = _MC_LINE.search(stdout)
    if m is None:
        return None
    return {k: _num(v) for k, v in m.groupdict().items()}


def mc_line(stdout: str) -> str | None:
    m = _MC_LINE.search(stdout)
    return None if m is None else m.group(0)


def graph_size(stdout: str) -> dict[str, int] | None:
    m = _GRAPH_LINE.search(stdout)
    if m is None:
        return None
    return {"ranks": int(m.group(1)), "nodes": int(m.group(2)), "edges": int(m.group(3))}


def check_analyze(stdout: str, replicates: int, bounds: tuple[float, float]) -> list[str]:
    """``repro-analyze --replicates N``: the Monte-Carlo summary exists,
    is ordered, and lies inside the certified makespan-delay bounds."""
    s = mc_summary(stdout)
    if s is None:
        return ["no 'monte carlo:' summary line in repro-analyze output"]
    problems = []
    if int(s["n"]) != replicates:
        problems.append(f"{int(s['n'])} replicates reported, {replicates} requested")
    if not s["p5"] <= s["p50"] <= s["p95"]:
        problems.append(f"quantiles out of order: {s['p5']}/{s['p50']}/{s['p95']}")
    lo, hi = bounds
    for key in ("mean", "p5", "p50", "p95"):
        if not lo - _PRINT_SLACK <= s[key] <= hi + _PRINT_SLACK:
            problems.append(f"monte carlo {key} {s[key]} outside certified bounds [{lo}, {hi}]")
    if "correctness: 0 order violation(s)" not in stdout:
        problems.append("repro-analyze reported order violations or no correctness line")
    return problems


def verify_bounds(report: dict[str, Any]) -> tuple[float, float]:
    b = report["verification"]["bounds"]
    return float(b["makespan_lo"]), float(b["makespan_hi"])


def check_diagnose_report(report: dict[str, Any]) -> list[str]:
    """No ERROR findings, and attribution sums to the critical-path makespan."""
    problems = []
    if report.get("schema") != "repro-diagnosis-report/1":
        return [f"unexpected diagnose schema {report.get('schema')!r}"]
    if report["summary"]["errors"]:
        problems.append(f"{report['summary']['errors']} ERROR finding(s) in diagnosis")
    diag = report["diagnosis"]
    makespan = float(diag["attribution"]["makespan"])
    total = float(diag["critical_path"]["total_cost"])
    tol = _SUM_RTOL * max(1.0, abs(total))
    if abs(makespan - total) > tol:
        problems.append(f"attribution makespan {makespan} != critical path cost {total}")
    for part in ("by_rank", "by_primitive"):
        s = math.fsum(float(v) for v in diag["attribution"][part].values())
        if abs(s - makespan) > tol:
            problems.append(f"attribution {part} sums to {s}, makespan is {makespan}")
    return problems


def check_verify_report(report: dict[str, Any]) -> list[str]:
    """No ERROR findings, and every reported bound has lo <= hi."""
    problems = []
    if report.get("schema") != "repro-verify-report/1":
        return [f"unexpected verify schema {report.get('schema')!r}"]
    if report["summary"]["errors"]:
        problems.append(f"{report['summary']['errors']} ERROR finding(s) in verification")
    b = report["verification"].get("bounds")
    if b is None:
        return problems + ["verify report carries no bounds"]
    if not b["makespan_lo"] <= b["makespan_hi"]:
        problems.append(f"makespan bounds inverted: [{b['makespan_lo']}, {b['makespan_hi']}]")
    bad = [r for r, (lo, hi) in enumerate(zip(b["rank_lo"], b["rank_hi"])) if not lo <= hi]
    if bad:
        problems.append(f"rank bounds inverted on ranks {bad[:5]}")
    if report["verification"]["containment_violations"]:
        problems.append("verify reports containment violations")
    return problems


def check_metrics_report(report: dict[str, Any]) -> list[str]:
    if report.get("schema") != "repro-pop-metrics/1":
        return [f"unexpected metrics schema {report.get('schema')!r}"]
    problems = []
    for key in ("parallel_efficiency", "load_balance", "comm_efficiency"):
        v = report.get(key)
        if not isinstance(v, float) or not 0.0 <= v <= 1.0:
            problems.append(f"metrics {key}={v!r} is not an efficiency in [0, 1]")
    pe = report.get("parallel_efficiency", 0.0)
    lb_ce = report.get("load_balance", 0.0) * report.get("comm_efficiency", 0.0)
    if abs(pe - lb_ce) > 1e-9:
        problems.append(f"POP identity PE = LB x CommE broken: {pe} vs {lb_ce}")
    return problems


def _finite_rows(rows: Any, width: int) -> bool:
    return isinstance(rows, list) and all(
        isinstance(r, list) and len(r) == width and all(math.isfinite(v) for v in r)
        for r in rows
    )


def check_envelope(body: bytes, kind: str, expect: dict[str, Any]) -> tuple[dict | None, list[str]]:
    """Validate one daemon response: the result envelope, ``ok``, and the
    endpoint's own invariants.  ``expect`` carries ``nprocs`` plus the
    request's ``replicates`` / ``scales`` where they apply."""
    try:
        env = json.loads(body.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return None, [f"response is not JSON: {exc}"]
    if not isinstance(env, dict) or env.get("schema") != RESULT_SCHEMA:
        return None, ["response is not a repro-serve-result/1 envelope"]
    if env.get("ok") is not True:
        err = env.get("error") or {}
        return env, [f"error envelope {err.get('code')}: {err.get('message')}"]
    if env.get("kind") != kind:
        return env, [f"response kind {env.get('kind')!r}, sent {kind!r}"]
    build = env.get("build")
    if not isinstance(build, dict) or not {"key", "digest", "cached"} <= set(build):
        return env, ["response lacks its build block"]
    result = env.get("result")
    if not isinstance(result, dict):
        return env, ["response lacks a result object"]
    nprocs = expect["nprocs"]
    problems: list[str] = []
    if kind == "analyze":
        reps = expect["replicates"]
        if result.get("replicates") != reps or len(result.get("seeds", ())) != reps:
            problems.append(f"analyze returned {result.get('replicates')} replicates, sent {reps}")
        if not _finite_rows(result.get("samples"), nprocs):
            problems.append("analyze samples are not a finite replicates x ranks matrix")
        s = result.get("summary", {})
        if not s.get("p5", 1) <= s.get("p50", 0) <= s.get("p95", -1):
            problems.append("analyze summary quantiles out of order")
    elif kind == "sweep":
        points = result.get("points")
        if not isinstance(points, list) or len(points) != len(expect["scales"]):
            problems.append("sweep returned the wrong number of points")
        elif not _finite_rows([p.get("delays") for p in points], nprocs):
            problems.append("sweep delays are not finite per-rank rows")
        elif [p.get("x") for p in points] != expect["scales"]:
            problems.append("sweep points do not follow the requested scales")
    elif kind == "diagnose":
        problems += check_diagnose_report(result.get("report", {}))
    elif kind == "verify":
        problems += check_verify_report(result.get("report", {}))
    elif kind == "metrics":
        problems += check_metrics_report(result.get("report", {}))
    return env, problems


def render_like_cli(kind: str, result: dict[str, Any]) -> str:
    """The bytes the CLI twin writes for this endpoint's result (the
    format ``docs/SERVING.md`` promises the client reproduces)."""
    if kind == "metrics":
        return json.dumps(result["report"], indent=2) + "\n"
    if kind in ("diagnose", "verify"):
        return json.dumps(result["report"], indent=2, sort_keys=True) + "\n"
    if kind == "analyze":
        return json.dumps({"seeds": result["seeds"], "samples": result["samples"]}, sort_keys=True)
    return json.dumps([p["delays"] for p in result["points"]], sort_keys=True)


def compare_twin(kind: str, result: dict[str, Any], expected: str | None) -> list[str]:
    """Byte-for-byte comparison of a response with its twin's output."""
    if expected is None:
        return [f"no {kind} twin output to compare with"]
    got = render_like_cli(kind, result)
    if got == expected:
        return []
    at = next(
        (i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
        min(len(got), len(expected)),
    )
    return [
        f"{kind} response differs from its twin at byte {at} "
        f"({len(got)} vs {len(expected)} bytes)"
    ]
