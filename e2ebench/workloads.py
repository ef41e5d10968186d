"""The three workloads: set-up, the timed loop, and the traced run.

Every workload makes its inputs from ``--seed`` in set-up, with the
``repro-trace`` / ``repro-microbench`` entry points, into a fresh work
directory; the program under test sees only those files.  Set-up runs
``SETUP_REPEATS`` times and ``setup_s`` is the median, so work moved
into set-up shows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import checks
from harness import (
    RUNS,
    BenchError,
    CliRun,
    Tally,
    Workdir,
    cli_problems,
    log,
    median,
    quantile,
)
from tracer import Tracer

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
SIGNATURE_MACHINE = "noisy"
TRACE_MACHINE = "quiet"

Metrics = dict[str, tuple[float, str]]

# -- inputs ------------------------------------------------------------------


@dataclass(frozen=True)
class TraceInput:
    app: str
    nprocs: int
    params: tuple[str, ...]
    stem: str
    seed_offset: int = 0

    def argv(self, out: Path, seed: int) -> list[str]:
        argv = ["--app", self.app, "--nprocs", str(self.nprocs), "--machine", TRACE_MACHINE]
        argv += ["--seed", str(seed + self.seed_offset), "--out", str(out), "--stem", self.stem]
        for p in self.params:
            argv += ["--param", p]
        return argv + ["--quiet"]


# analyze_empirical: the README path at ~5k events.  Replicates are few
# because each one costs ~0.8 s of scalar sampling on this signature.
ANALYZE_TRACE = TraceInput("stencil1d", 16, ("iterations=60",), "st1d")
ANALYZE_REPLICATES = 3

# static_gate: a 64-rank 2-D stencil at ~21k events; no draws sampled.
STATIC_TRACE = TraceInput("stencil2d", 64, ("iterations=40",), "st2d")

# serve_mixed: small traces of several bundled apps.  Four hot sets take
# most requests; twelve cold sets (more than the daemon's default LRU
# capacity of 8) are visited round-robin, so each cold visit is a build.
SERVE_HOT = [
    TraceInput("token_ring", 8, ("traversals=15",), "ring"),
    TraceInput("stencil1d", 8, ("iterations=8",), "st1d"),
    TraceInput("allreduce_iter", 8, ("iterations=32",), "allred"),
    TraceInput("master_worker", 6, ("tasks=64",), "mw"),
]
SERVE_COLD = [
    TraceInput(app, 8, params, f"{stem}{k}", seed_offset=100 + k)
    for k in range(3)
    for app, params, stem in (
        ("pipeline", ("items=48",), "pipe"),
        ("butterfly_allreduce", ("iterations=25",), "bfly"),
        ("fft_transpose", ("stages=32",), "fft"),
        ("random_sparse", ("iterations=15",), "sparse"),
    )
]
SERVE_MIN_REQUESTS = 110  # >= 10 samples beyond p90


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _setup_inputs(
    work: Workdir,
    tally: Tally,
    make_calls: Callable[[Path], list],
    after: Callable[[Path], None] | None = None,
) -> tuple[Path, list[float]]:
    """Run the generator ``SETUP_REPEATS`` times into fresh directories;
    every repetition must produce identical files (same seed).  ``after``
    runs inside each timed repetition (daemon start-up and warm-up).
    Returns the last directory and the per-repetition wall times."""
    walls, last, first_digest = [], None, None
    for i in range(SETUP_REPEATS):
        out = work.sub(f"inputs{i}")
        t0 = time.perf_counter()
        run = work.helper("gen.py", {"calls": make_calls(out)})
        if after is not None and run.rc == 0:
            after(out)
        walls.append(time.perf_counter() - t0)
        problems = cli_problems(run, "set-up")
        if problems:
            raise BenchError("; ".join(problems))
        digest = _digest([p for p in out.rglob("*") if p.is_file()])
        last = out
        if first_digest is None:
            first_digest = digest
        else:
            tally.record(
                f"set-up repeat {i}",
                [] if digest == first_digest else ["inputs differ between set-ups of one seed"],
            )
    assert last is not None
    return last, walls


def _signature_call(out: Path, seed: int) -> list:
    return [
        "main_microbench",
        ["--machine", SIGNATURE_MACHINE, "--seed", str(seed), "--out", str(out / "sig.json"),
         "--quiet"],
    ]


def _batch_metrics(job_walls: list[float], runs: list[CliRun], ok: int, wall: float,
                   tally: Tally, setup_walls: list[float]) -> Metrics:
    req = [r.wall_s for r in runs]
    return {
        "job_s": (median(job_walls), "s"),
        "request_p50_s": (median(req), "s"),
        "request_p90_s": (quantile(req, 0.9), "s"),
        "requests_per_s": (ok / wall, "1/s"),
        "peak_rss_mb": (max(r.rss_mb for r in runs), "MB"),
        "success_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "setup_s": (median(setup_walls), "s"),
    }


def _timed_loop(seconds: float, job: Callable[[], tuple[float, list[CliRun], int]]):
    """Run ``job`` back to back until ``seconds`` have passed (at least
    once).  ``job`` returns (wall, its CLI runs, correct runs)."""
    walls: list[float] = []
    runs: list[CliRun] = []
    ok = 0
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        wall, job_runs, job_ok = job()
        walls.append(wall)
        runs += job_runs
        ok += job_ok
    return walls, runs, ok, time.perf_counter() - t0


# -- traced in-process runs ----------------------------------------------------

# Public entry points of each layer -> span name.
LAYER_TARGETS = {
    "repro.lint:lint_traces": "lint",
    "repro.trace.validate:validate_traces": "trace.validate",
    "repro.trace.stats:trace_stats": "trace.stats",
    "repro.core.builder:build_graph": "build",
    "repro.core.compiled:CompiledPlan.__init__": "compile",
    "repro.core.compiled:CompiledPlan.sample_raw_batch": "sample",
    "repro.core.compiled:CompiledPlan.apply_mode": "propagate",
    "repro.core.compiled:CompiledPlan.kernel": "propagate",
    "repro.core.compiled:CompiledPlan.finals": "propagate",
    "repro.core.montecarlo:monte_carlo": "mc",
    "repro.core.correctness:check_correctness": "analysis",
    "repro.core.analysis:runtime_impact": "analysis",
    "repro.core.analysis:critical_path": "analysis",
    "repro.core.analysis:absorption_map": "analysis",
    "repro.diagnose.engine:diagnose_build": "diagnose",
    "repro.verify.bounds:makespan_bounds": "verify.bounds",
    "repro.verify.matches:analyze_matches": "verify.matches",
    "repro.metrics.frames:trace_frame": "metrics.frame",
    "repro.metrics.pop:pop_metrics": "metrics.pop",
    "repro.metrics.timeline:pop_timeline": "metrics.pop",
}


def _note_build(span, args, result) -> None:
    span.attrs["nodes"] = len(result.graph.nodes)
    span.attrs["edges"] = len(result.graph.edges)


def _note_compile(span, args, result) -> None:
    span.attrs["coarse"] = args[0].coarse is not None


def _note_mc(span, args, result) -> None:
    span.attrs["replicates"] = int(result.replicates)


LAYER_NOTES = {
    "repro.core.builder:build_graph": _note_build,
    "repro.core.compiled:CompiledPlan.__init__": _note_compile,
    "repro.core.montecarlo:monte_carlo": _note_mc,
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "trace.read_s": "s",
    "trace.validate_s": "s",
    "trace.stats_s": "s",
    "trace.files_read_per_rank": "count",
    "lint.s": "s",
    "build.s": "s",
    "build.us_per_event": "us",
    "build.rss_mb": "MB",
    "graph.nodes": "count",
    "graph.edges": "count",
    "compile.s": "s",
    "compile.coarse": "bool",
    "sample.s": "s",
    "sample.ns_per_lane": "ns",
    "sample.fallback_ratio": "ratio",
    "propagate.s": "s",
    "mc.s": "s",
    "mc.replicates_per_s": "1/s",
    "mc.jobs2_speedup": "x",
    "analysis.s": "s",
    "diagnose.s": "s",
    "verify.bounds_s": "s",
    "verify.matches_s": "s",
    "metrics.frame_s": "s",
    "metrics.pop_s": "s",
    "serve.analyze_p50_s": "s",
    "serve.sweep_p50_s": "s",
    "serve.diagnose_p50_s": "s",
    "serve.verify_p50_s": "s",
    "serve.metrics_p50_s": "s",
    "serve.cold_p50_s": "s",
    "serve.warm_p50_s": "s",
    "serve.builds": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.rejected": "count",
    "traced.overhead_ratio": "ratio",
    "traced.unattributed_s": "s",
    "error_rate": "ratio",
}


def _per_layer(values: dict[str, float], tally: Tally) -> Metrics:
    """Every per-layer metric; a layer the workload does not exercise
    reads 0."""
    out = {name: (float(values.get(name, 0.0)), unit) for name, unit in PER_LAYER_UNITS.items()}
    out["error_rate"] = (tally.failed / tally.attempted, "ratio")
    return out


@dataclass
class InProcess:
    stdout: str
    stderr: str
    rc: int
    wall_s: float
    counters: dict[str, Any]
    start: float
    end: float


def _call_main(entry: str, argv: list[str], observe: bool) -> InProcess:
    """One CLI entry point called in this process, output captured."""
    import repro.cli
    from repro import obs

    out, err = io.StringIO(), io.StringIO()
    counters: dict[str, Any] = {}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        session_cm = obs.observed("e2ebench") if observe else contextlib.nullcontext()
        t0 = time.perf_counter()
        with session_cm as session:
            try:
                rc = getattr(repro.cli, entry)(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        t1 = time.perf_counter()
        if observe:
            counters = session.metrics.as_dict()
    return InProcess(out.getvalue(), err.getvalue(), int(rc or 0), t1 - t0, counters, t0, t1)


def _import_time(work: Workdir, tally: Tally) -> float:
    """``import repro.cli`` in fresh interpreters, timed from outside."""
    walls = []
    for _ in range(IMPORT_REPEATS):
        run = work.run([sys.executable, "-c", "import repro.cli"])
        tally.record("import repro.cli", cli_problems(run, "import"))
        walls.append(run.wall_s)
    return median(walls)


def _read_time(directory: Path, stem: str) -> tuple[float, int, int]:
    """``TraceSet.open`` plus one full event pass: (seconds, ranks, events)."""
    from repro.trace import TraceSet

    t0 = time.perf_counter()
    traces = TraceSet.open(directory, stem)
    events = sum(len(rank) for rank in traces.load_all())
    return time.perf_counter() - t0, len(traces.streams()), events


def traced_calls(
    work: Workdir, tally: Tally, calls: list[tuple[str, list[str]]], ranks: int, events: int
) -> tuple[dict[str, float], Tracer, list[InProcess], list[InProcess]]:
    """Run ``calls`` in-process untraced, then traced; derive the layer
    self times, the tracing overhead and the unattributed remainder.

    A first untimed pass fills the program's in-process caches, so the
    untraced and traced passes start from the same state."""
    warm = [_call_main(entry, argv, observe=False) for entry, argv in calls]
    untraced = [_call_main(entry, argv, observe=False) for entry, argv in calls]
    tracer = Tracer()
    traced: list[InProcess] = []
    with tracer.instrument(LAYER_TARGETS, LAYER_NOTES):
        for entry, argv in calls:
            traced.append(_call_main(entry, argv, observe=True))
    for label, runs in (("warm-up", warm), ("in-process", untraced), ("traced", traced)):
        for (entry, _), run in zip(calls, runs):
            tally.record(f"{label} {entry}", [] if run.rc == 0 else [f"exit {run.rc}"])

    v: dict[str, float] = {}
    for metric, span in (
        ("trace.validate_s", "trace.validate"),
        ("trace.stats_s", "trace.stats"),
        ("lint.s", "lint"),
        ("build.s", "build"),
        ("compile.s", "compile"),
        ("sample.s", "sample"),
        ("propagate.s", "propagate"),
        ("analysis.s", "analysis"),
        ("diagnose.s", "diagnose"),
        ("verify.bounds_s", "verify.bounds"),
        ("verify.matches_s", "verify.matches"),
        ("metrics.frame_s", "metrics.frame"),
        ("metrics.pop_s", "metrics.pop"),
    ):
        v[metric] = tracer.self_time(span)
    builds = tracer.by_name("build")
    if builds:
        v["build.us_per_event"] = v["build.s"] / (events * len(builds)) * 1e6
        v["build.rss_mb"] = max(s.rss_after_mb - s.rss_before_mb for s in builds)
        v["graph.nodes"] = builds[-1].attrs["nodes"]
        v["graph.edges"] = builds[-1].attrs["edges"]
    compiles = tracer.by_name("compile")
    if compiles:
        v["compile.coarse"] = float(any(s.attrs["coarse"] for s in compiles))
    lanes = sum(r.counters.get("compiled.lanes", 0) for r in traced)
    if lanes:
        fallback = sum(r.counters.get("compiled.fallback_lanes", 0) for r in traced)
        v["sample.ns_per_lane"] = tracer.inclusive_time("sample") / lanes * 1e9
        v["sample.fallback_ratio"] = fallback / lanes
    mcs = tracer.by_name("mc")
    if mcs:
        v["mc.s"] = tracer.inclusive_time("mc")
        v["mc.replicates_per_s"] = sum(s.attrs["replicates"] for s in mcs) / v["mc.s"]
    v["trace.files_read_per_rank"] = (
        sum(r.counters.get("trace.files_read", 0) for r in traced) / len(traced) / ranks
    )
    v["traced.overhead_ratio"] = sum(r.wall_s for r in traced) / sum(r.wall_s for r in untraced)
    v["traced.unattributed_s"] = sum(
        r.wall_s - tracer.covered(r.start, r.end) for r in traced
    )
    return v, tracer, untraced, traced


def _write_spans(tracer: Tracer, workload: str, seed: int, origin: float) -> None:
    path = RUNS / f"spans-{workload}-s{seed}.json"
    tracer.write(path, origin)
    log(f"spans written to {path}")


def _self_time_table(tracer: Tracer) -> dict[str, float]:
    table: dict[str, float] = {}
    for s in tracer.spans:
        table[s.name] = table.get(s.name, 0.0) + s.self_time
    return dict(sorted(table.items(), key=lambda kv: -kv[1]))


# -- analyze_empirical ---------------------------------------------------------


def analyze_empirical(seed: int, seconds: float, trace: bool, work: Workdir):
    tally = Tally()

    def calls(out: Path) -> list:
        return [
            ["main_trace", ANALYZE_TRACE.argv(out, seed)],
            _signature_call(out, seed),
            # Certified makespan-delay bounds for the same signature; the
            # timed Monte-Carlo summary must lie inside them.
            ["main_verify", ["--traces", str(out), "--stem", ANALYZE_TRACE.stem,
                             "--signature", str(out / "sig.json"), "--format", "json",
                             "--out", str(out / "bounds.json"), "--quiet"]],
        ]

    inputs, setup_walls = _setup_inputs(work, tally, calls)
    report = json.loads((inputs / "bounds.json").read_text())
    problems = checks.guarded(checks.check_verify_report, report)
    if not tally.record("set-up verify report", problems):
        raise BenchError(f"set-up could not certify makespan bounds: {problems}")
    bounds = checks.verify_bounds(report)
    analyze_argv = [
        "--traces", str(inputs), "--stem", ANALYZE_TRACE.stem,
        "--signature", str(inputs / "sig.json"),
        "--replicates", str(ANALYZE_REPLICATES), "--seed", str(seed),
    ]

    def check_run(run: CliRun) -> bool:
        problems = cli_problems(run, "repro-analyze") or checks.guarded(
            checks.check_analyze, run.stdout, ANALYZE_REPLICATES, bounds
        )
        return tally.record("repro-analyze", problems)

    sizes: dict[str, Any] = {
        "ranks": report["summary"]["nprocs"],
        "events": report["summary"]["events"],
        "replicates": ANALYZE_REPLICATES,
    }
    if not trace:
        def job():
            run = work.cli("main_analyze", analyze_argv)
            return run.wall_s, [run], int(check_run(run))

        walls, runs, ok, wall = _timed_loop(seconds, job)
        sizes.update(checks.graph_size(runs[0].stdout) or {})
        sizes["jobs"] = len(walls)
        return tally, _batch_metrics(walls, runs, ok, wall, tally, setup_walls), sizes

    # Traced run: the same invocation from outside (the CLI's summary is
    # the reference), then in-process untraced and traced.
    cli_run = work.cli("main_analyze", analyze_argv)
    check_run(cli_run)
    origin = time.perf_counter()
    v: dict[str, float] = {"cli.import_s": _import_time(work, tally)}
    work.adopt_env()
    v["trace.read_s"], ranks, events = _read_time(inputs, ANALYZE_TRACE.stem)
    lv, tracer, untraced, traced = traced_calls(
        work, tally, [("main_analyze", analyze_argv)], ranks, events
    )
    v.update(lv)
    ref = checks.mc_line(cli_run.stdout)
    for label, run in (("untraced", untraced[0]), ("traced", traced[0])):
        got = checks.mc_line(run.stdout)
        tally.record(
            f"{label} in-process monte carlo equals the CLI's",
            [] if got is not None and got == ref else [f"{got!r} != {ref!r}"],
        )
    v["mc.jobs2_speedup"] = _jobs2_speedup(inputs, seed, tally)
    _write_spans(tracer, "analyze_empirical", seed, origin)
    log(f"self times: {_self_time_table(tracer)}")
    sizes.update(ranks=ranks, events=events, nodes=v.get("graph.nodes"), edges=v.get("graph.edges"))
    return tally, _per_layer(v, tally), sizes


def _jobs2_speedup(inputs: Path, seed: int, tally: Tally) -> float:
    """Serial ÷ ``jobs=2`` Monte-Carlo wall on the same seeds; the two
    sample matrices must be bit-identical."""
    import numpy as np

    from repro.core import PerturbationSpec, build_graph, compiled_plan, monte_carlo
    from repro.noise import MachineSignature
    from repro.trace import TraceSet

    build = build_graph(TraceSet.open(inputs, ANALYZE_TRACE.stem))
    compiled_plan(build)
    spec = PerturbationSpec(MachineSignature.load(inputs / "sig.json"), seed=seed)
    t0 = time.perf_counter()
    serial = monte_carlo(build, spec, replicates=ANALYZE_REPLICATES * 2, jobs=0)
    t1 = time.perf_counter()
    pooled = monte_carlo(build, spec, replicates=ANALYZE_REPLICATES * 2, jobs=2)
    t2 = time.perf_counter()
    same = np.array_equal(serial.samples, pooled.samples)
    tally.record("jobs=2 samples bit-identical to serial", [] if same else ["samples differ"])
    return (t1 - t0) / (t2 - t1)


# -- static_gate -----------------------------------------------------------------


def static_gate(seed: int, seconds: float, trace: bool, work: Workdir):
    tally = Tally()

    def calls(out: Path) -> list:
        return [["main_trace", STATIC_TRACE.argv(out, seed)], _signature_call(out, seed)]

    inputs, setup_walls = _setup_inputs(work, tally, calls)
    diag_out = work.path / "diagnose.json"
    ver_out = work.path / "verify.json"
    common = ["--traces", str(inputs), "--stem", STATIC_TRACE.stem, "--format", "json"]
    diagnose_argv = common + ["--out", str(diag_out)]
    verify_argv = common + ["--signature", str(inputs / "sig.json"), "--out", str(ver_out)]
    sizes: dict[str, Any] = {}

    def check_outputs(diag_run, ver_run) -> int:
        ok = 0
        for run, path, what, check in (
            (diag_run, diag_out, "repro-diagnose", checks.check_diagnose_report),
            (ver_run, ver_out, "repro-verify", checks.check_verify_report),
        ):
            problems = cli_problems(run, what)
            if not problems:
                try:
                    report = json.loads(path.read_text())
                except (OSError, json.JSONDecodeError) as exc:
                    problems = [f"{what} wrote no JSON report: {exc}"]
                else:
                    problems = checks.guarded(check, report)
                    if not problems:
                        sizes.setdefault("ranks", report["summary"]["nprocs"])
                        sizes.setdefault("events", report["summary"]["events"])
            ok += tally.record(what, problems)
            path.unlink(missing_ok=True)
        return ok

    if not trace:
        def job():
            t0 = time.perf_counter()
            diag = work.cli("main_diagnose", diagnose_argv)
            ver = work.cli("main_verify", verify_argv)
            wall = time.perf_counter() - t0
            return wall, [diag, ver], check_outputs(diag, ver)

        walls, runs, ok, wall = _timed_loop(seconds, job)
        sizes["jobs"] = len(walls)
        sizes.update(_graph_sizes(work, [(inputs, STATIC_TRACE.stem)])[0])
        return tally, _batch_metrics(walls, runs, ok, wall, tally, setup_walls), sizes

    origin = time.perf_counter()
    v: dict[str, float] = {"cli.import_s": _import_time(work, tally)}
    work.adopt_env()
    v["trace.read_s"], ranks, events = _read_time(inputs, STATIC_TRACE.stem)
    calls_ = [("main_diagnose", diagnose_argv), ("main_verify", verify_argv)]
    lv, tracer, untraced, traced = traced_calls(work, tally, calls_, ranks, events)
    v.update(lv)
    # The report files now hold the traced calls' output.
    check_outputs(*(CliRun([], r.rc, r.wall_s, 0.0, r.stdout, r.stderr) for r in traced))
    _write_spans(tracer, "static_gate", seed, origin)
    log(f"self times: {_self_time_table(tracer)}")
    sizes.update(ranks=ranks, events=events, nodes=v.get("graph.nodes"), edges=v.get("graph.edges"))
    return tally, _per_layer(v, tally), sizes


def _graph_sizes(work: Workdir, sets: list[tuple[Path, str]]) -> list[dict[str, int]]:
    run = work.helper("twin.py", {"sizes": [[str(d), s] for d, s in sets]})
    if run.rc != 0:
        raise BenchError(f"size probe failed: {run.stderr[-400:]}")
    return json.loads(run.stdout.strip().splitlines()[-1])["sizes"]


# -- serve_mixed -------------------------------------------------------------------


def serve_mixed(seed: int, seconds: float, trace: bool, work: Workdir):
    import serve_load as sl

    tally = Tally()
    daemons: list[sl.Daemon] = []
    started = itertools.count()

    def refs(out: Path, sets: list[TraceInput]) -> list[sl.TraceSetRef]:
        return [sl.TraceSetRef(str(out / t.stem), t.stem, t.nprocs) for t in sets]

    def calls(out: Path) -> list:
        return [
            ["main_trace", t.argv(out / t.stem, seed)] for t in SERVE_HOT + SERVE_COLD
        ] + [_signature_call(out, seed)]

    def start_and_warm(out: Path) -> None:
        while daemons:
            daemons.pop().stop()
        daemon = sl.Daemon(work, str(next(started)))
        daemons.append(daemon)
        signature = json.loads((out / "sig.json").read_text())
        for ref in refs(out, SERVE_HOT):
            for kind in sl.ENDPOINTS:
                body, expect = sl.request_body(kind, ref, signature, seed)
                req = sl.Request(kind, "hot", ref, body, expect)
                _, _, problems = sl.send(daemon.port, req)
                tally.record(f"warm-up {kind} {ref.stem}", problems)

    try:
        inputs, setup_walls = _setup_inputs(work, tally, calls, after=start_and_warm)
        daemon = daemons[0]
        signature = json.loads((inputs / "sig.json").read_text())
        hot, cold = refs(inputs, SERVE_HOT), refs(inputs, SERVE_COLD)
        mix = sl.Mix(seed, hot, cold, signature)

        def on_result(req, rec, problems) -> None:
            tally.record(f"{req.source} {req.kind} {Path(req.ref.directory).name}", problems)

        before = sl.get_json(daemon.port, "/healthz")["cache"]
        origin = time.perf_counter()
        tracer = Tracer() if trace else None
        if trace:
            # Half the run untraced, half traced: the ratio of their
            # median round times is the tracing overhead.
            half = seconds / 2
            plain = sl.run_rounds(daemon.port, mix, half, SERVE_MIN_REQUESTS // 2, on_result)
            traced = sl.run_rounds(
                daemon.port, mix, half, SERVE_MIN_REQUESTS // 2, on_result, tracer
            )
            records = plain.records + traced.records
        else:
            stats = sl.run_rounds(daemon.port, mix, seconds, SERVE_MIN_REQUESTS, on_result)
            records = stats.records
        after = sl.get_json(daemon.port, "/healthz")["cache"]
        rejected = sl.get_json(daemon.port, "/metricsz")["rejected"]
        hot_sizes = _twin_check(work, daemon.port, hot, inputs / "sig.json", signature, tally)
        peak_rss = daemon.peak_rss_mb()
    finally:
        while daemons:
            daemons.pop().stop()

    sizes: dict[str, Any] = {
        "requests": len(records),
        "hot_sets": len(SERVE_HOT),
        "cold_sets": len(SERVE_COLD),
        "clients": sl.CLIENTS,
        "analyze_replicates": sl.ANALYZE_REPLICATES,
        "hot_set_sizes": hot_sizes,
    }
    if not trace:
        lat = [r.latency_s if r.ok else stats.wall_s for r in records]
        ok = sum(r.ok for r in records)
        metrics = {
            "job_s": (median(stats.round_walls), "s"),
            "request_p50_s": (median(lat), "s"),
            "request_p90_s": (quantile(lat, 0.9), "s"),
            "requests_per_s": (ok / stats.wall_s, "1/s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "success_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
            "setup_s": (median(setup_walls), "s"),
        }
        sizes["rounds"] = len(stats.round_walls)
        return tally, metrics, sizes

    assert tracer is not None
    v: dict[str, float] = {}
    for kind in sl.ENDPOINTS:
        lat = [r.latency_s for r in records if r.kind == kind and r.ok]
        v[f"serve.{kind}_p50_s"] = median(lat) if lat else 0.0
    for source, metric in (("cold", "serve.cold_p50_s"), ("hot", "serve.warm_p50_s")):
        lat = [r.latency_s for r in records if r.source == source and r.ok]
        v[metric] = median(lat) if lat else 0.0
    builds = after["builds"] - before["builds"]
    reused = (after["hits"] - before["hits"]) + (after["coalesced"] - before["coalesced"])
    v["serve.builds"] = builds
    v["serve.cache_hit_ratio"] = reused / max(1, builds + reused)
    v["serve.rejected"] = rejected
    v["traced.overhead_ratio"] = median(traced.round_walls) / median(plain.round_walls)
    v["traced.unattributed_s"] = traced.wall_s - tracer.covered(
        traced.start, traced.start + traced.wall_s
    )
    _write_spans(tracer, "serve_mixed", seed, origin)
    return tally, _per_layer(v, tally), sizes


def _twin_check(
    work: Workdir, port: int, hot: list, sig_path: Path, signature: dict, tally: Tally
) -> list[dict[str, int]]:
    """One response per endpoint, on the first hot set, against its
    reference: the CLI's JSON for diagnose/verify/metrics, the library
    call for analyze/sweep.  Returns the sizes of the hot sets."""
    import serve_load as sl

    twin_seed = 7
    ref = hot[0]
    d, stem = ref.directory, ref.stem
    out = work.sub("twin")
    common = ["--traces", d, "--stem", stem, "--format", "json", "--quiet"]
    spec = {
        "cli": [
            ["diagnose", "main_diagnose", common + ["--out", str(out / "diagnose.json")]],
            ["verify", "main_verify",
             common + ["--signature", str(sig_path), "--out", str(out / "verify.json")]],
            ["metrics", "main_metrics", common + ["--out", str(out / "metrics.json")]],
        ],
        "library": {
            "traces": d, "stem": stem, "signature": str(sig_path),
            "analyze": {"seed": twin_seed, "replicates": sl.ANALYZE_REPLICATES},
            "sweep": {"seed": twin_seed, "scales": sl.SWEEP_SCALES},
        },
        "sizes": [[r.directory, r.stem] for r in hot],
    }
    run = work.helper("twin.py", spec)
    if not tally.record("twin references", cli_problems(run, "twin.py")):
        return []
    twins = json.loads(run.stdout.strip().splitlines()[-1])
    expected = {**twins["cli"], **twins["library"]}
    for kind in sl.ENDPOINTS:
        body, expect = sl.request_body(kind, ref, signature, twin_seed)
        _, env, problems = sl.send(port, sl.Request(kind, "twin", ref, body, expect))
        if not problems:
            problems = checks.guarded(
                checks.compare_twin, kind, env["result"], expected.get(kind)
            )
        tally.record(f"{kind} response equals its CLI/library twin", problems)
    return twins["sizes"]
