"""PERF — diagnosis pipeline cost and oracle-agreement smoke.

Times one full ``diagnose_build`` pass (critical-path extraction,
attribution, anomaly detection, MPG2xx rules) on a token-ring build,
times the compiled extraction against the scalar longest-path oracle on
the same build, and records the per-stage split.  The diagnosis is meant to ride along with every
analysis — this bench keeps its cost visibly small relative to the
Monte-Carlo propagation it accompanies.

``REPRO_BENCH_DIAG_TRAVERSALS`` scales the trace (default 8).
"""

import os
import time

from benchmarks._common import emit, table
from repro.apps import TokenRingParams, token_ring
from repro.core import build_graph, longest_weighted_path
from repro.diagnose import DiagnoseConfig, diagnose_build, extract_critical_path
from repro.diagnose.path import path_costs
from repro.mpisim import run

TRAVERSALS = int(os.environ.get("REPRO_BENCH_DIAG_TRAVERSALS", "8"))


def diag_build():
    trace = run(token_ring(TokenRingParams(traversals=TRAVERSALS)), nprocs=8, seed=0).trace
    return build_graph(trace)


def test_diagnose_pipeline(benchmark):
    build = diag_build()
    extract_critical_path(build)  # lower the compiled plan once (cached)

    report = benchmark(lambda: diagnose_build(build))

    t0 = time.perf_counter()
    cp = extract_critical_path(build)
    t_compiled = time.perf_counter() - t0
    assert cp.edges == report.critical_path.edges
    t0 = time.perf_counter()
    L, pred = longest_weighted_path(build, path_costs(build).tolist())
    t_oracle = time.perf_counter() - t0
    sink = build.graph.final_node_of(cp.sink_rank)
    assert L[sink] == cp.total_cost and pred[sink] == cp.edges[-1]

    rows = [
        (name, f"{dt * 1e3:.2f} ms", f"{len(report.critical_path)} edges")
        for name, dt in (("compiled", t_compiled), ("oracle", t_oracle))
    ]
    body = table(["engine", "extract time", "path"], rows)
    summary = (
        f"diagnosis of p={build.graph.nprocs} "
        f"n={len(build.graph.nodes)} graph: "
        f"{len(report.findings)} finding(s), makespan "
        f"{report.critical_path.total_cost:,.0f} cy "
        f"(compiled and oracle agree bit-for-bit)"
    )
    emit(
        "perf_diagnose",
        body + "\n" + summary,
        params={"traversals": TRAVERSALS, "nprocs": build.graph.nprocs},
        timings={"extract_compiled_s": t_compiled, "oracle_longest_path_s": t_oracle},
        metrics={
            "findings": len(report.findings),
            "path_edges": len(report.critical_path),
            "makespan_cy": report.critical_path.total_cost,
        },
    )


def test_diagnose_with_replicates(benchmark):
    """Replicate-delay metric via the compiled batch kernel."""
    from repro.noise import Exponential, MachineSignature

    build = diag_build()
    signature = MachineSignature(os_noise=Exponential(120.0), latency=Exponential(50.0))
    config = DiagnoseConfig(replicates=32, seed=17)
    diagnose_build(build, config, signature=signature)  # warm-up

    report = benchmark(lambda: diagnose_build(build, config, signature=signature))
    assert "replicate-delay" in report.anomalies.metrics
