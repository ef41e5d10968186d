"""PERF — hierarchical (coarse) plan vs flat compiled propagation.

Measures the phase-coarsening tentpole on the iterations-scaled
million-event stress configuration
(:func:`repro.apps.stencil1d.stress_params`: 4 ranks x 52 000
iterations = 1 040 008 events, ~2.1M nodes / ~2.9M edges, 520 003 flat
levels): replicates/sec through ``coarsen="on"`` vs ``coarsen="off"``
on the same :class:`~repro.core.compiled.CompiledPlan` build, plus the
process peak RSS.  The coarse batch must be **bit-for-bit identical**
to the flat engine's on the same seeds — the whole point of the
precomputed-transfer-function design is that it changes the schedule,
never the arithmetic.

The headline signature draws from the uniform family (the cheapest
inverse CDF) — this isolates what coarsening optimizes: per-level
dispatch in propagation.  A secondary exponential-noise pair is
recorded too; there the shared sampling cost (a ``log1p`` per draw)
dilutes the ratio equally in both engines.

Environment knobs (used by the CI smoke job to keep runtime tiny):

``REPRO_BENCH_COARSEN_ITERATIONS``
    Stencil iterations (default 52 000 — the >= 1M-event headline).
``REPRO_BENCH_COARSEN_NPROCS``
    Ranks (default 4).
``REPRO_BENCH_COARSEN_FLAT_REPS`` / ``REPRO_BENCH_COARSEN_COARSE_REPS``
    Timed replicate counts per engine (defaults 3 / 128 — the coarse
    batch is large so the one-time template bind amortizes, exactly how
    Monte-Carlo analyses call it).
``REPRO_BENCH_COARSEN_MIN_SPEEDUP``
    When > 0, assert the measured flat->coarse throughput ratio meets
    this floor (off by default: committed baselines record the real
    number; shared CI runners are too noisy to gate on one).
"""

import os
import resource
import time

import numpy as np

from benchmarks._common import emit, table
from repro.apps.stencil1d import stencil1d, stress_params
from repro.core import PerturbationSpec, build_graph, compiled_plan
from repro.mpisim import run
from repro.noise import Constant, Exponential, MachineSignature, Uniform

ITERATIONS = int(os.environ.get("REPRO_BENCH_COARSEN_ITERATIONS", "52000"))
NPROCS = int(os.environ.get("REPRO_BENCH_COARSEN_NPROCS", "4"))
FLAT_REPS = int(os.environ.get("REPRO_BENCH_COARSEN_FLAT_REPS", "3"))
COARSE_REPS = int(os.environ.get("REPRO_BENCH_COARSEN_COARSE_REPS", "128"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_COARSEN_MIN_SPEEDUP", "0"))

UNIFORM_SIG = MachineSignature(
    os_noise=Uniform(0.0, 240.0),
    latency=Uniform(0.0, 100.0),
    per_byte=Constant(0.005),
    name="uniform-vectorized",
)
EXP_SIG = MachineSignature(
    os_noise=Exponential(80.0),
    latency=Exponential(25.0),
    per_byte=Constant(0.005),
    name="exponential",
)


def _rss_mb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)


def _reps_per_sec(plan, spec, n: int) -> tuple[float, float]:
    t0 = time.perf_counter()
    plan.propagate_batch(spec, seeds=list(range(n)))
    dt = time.perf_counter() - t0
    return n / dt, dt


def test_coarsen_stress_speedup(benchmark):
    trace = run(stencil1d(stress_params(ITERATIONS)), nprocs=NPROCS, seed=0).trace
    n_events = sum(len(trace._events[r]) for r in range(NPROCS))
    build = build_graph(trace)
    coarse = compiled_plan(build, coarsen="on")
    flat = compiled_plan(build, coarsen="off")
    assert coarse.coarse is not None, "stress config must coarsen"

    spec = PerturbationSpec(UNIFORM_SIG, seed=17)
    # Warm-up doubles as the equivalence bar: same seeds, both engines,
    # bit-identical delay matrices.
    warm_c = coarse.propagate_batch(spec, seeds=[0, 1])
    warm_f = flat.propagate_batch(spec, seeds=[0, 1])
    assert np.array_equal(warm_c.delays, warm_f.delays)

    flat_rps, flat_s = _reps_per_sec(flat, spec, FLAT_REPS)
    coarse_rps, coarse_s = _reps_per_sec(coarse, spec, COARSE_REPS)
    speedup = coarse_rps / flat_rps

    spec_exp = PerturbationSpec(EXP_SIG, seed=17)
    warm_c = coarse.propagate_batch(spec_exp, seeds=[0])
    warm_f = flat.propagate_batch(spec_exp, seeds=[0])
    assert np.array_equal(warm_c.delays, warm_f.delays)
    flat_exp_rps, flat_exp_s = _reps_per_sec(flat, spec_exp, max(2, FLAT_REPS // 2))
    coarse_exp_rps, coarse_exp_s = _reps_per_sec(coarse, spec_exp, max(8, COARSE_REPS // 8))
    exp_speedup = coarse_exp_rps / flat_exp_rps

    if MIN_SPEEDUP > 0:
        assert speedup >= MIN_SPEEDUP, (
            f"coarse/flat throughput ratio {speedup:.2f}x below the "
            f"REPRO_BENCH_COARSEN_MIN_SPEEDUP={MIN_SPEEDUP} floor"
        )

    ir = coarse.coarse
    rows = [
        ["flat  (uniform)", FLAT_REPS, f"{flat_rps:.3f}", "1.00"],
        ["coarse (uniform)", COARSE_REPS, f"{coarse_rps:.3f}", f"{speedup:.2f}"],
        ["flat  (exp)", max(2, FLAT_REPS // 2), f"{flat_exp_rps:.3f}", "1.00"],
        ["coarse (exp)", max(8, COARSE_REPS // 8), f"{coarse_exp_rps:.3f}", f"{exp_speedup:.2f}"],
        ["events", n_events, "", ""],
        ["peak RSS MB", _rss_mb(), "", ""],
    ]
    emit(
        "perf_coarsen",
        table(
            ["engine", "replicates", "reps/s", "speedup"], rows, widths=[17, 10, 9, 8]
        ),
        params={
            "iterations": ITERATIONS,
            "nprocs": NPROCS,
            "flat_reps": FLAT_REPS,
            "coarse_reps": COARSE_REPS,
            "cores": os.cpu_count() or 1,
        },
        timings={
            "flat_s": flat_s,
            "coarse_s": coarse_s,
            "flat_exp_s": flat_exp_s,
            "coarse_exp_s": coarse_exp_s,
        },
        metrics={
            "events": n_events,
            "n_nodes": flat.n_nodes,
            "n_edges": flat.n_edges,
            "flat_levels": len(flat.levels),
            "coarse_instances": len(ir.run_edge_ids),
            "flat_reps_per_sec": flat_rps,
            "coarse_reps_per_sec": coarse_rps,
            "speedup": speedup,
            "flat_exp_reps_per_sec": flat_exp_rps,
            "coarse_exp_reps_per_sec": coarse_exp_rps,
            "exp_speedup": exp_speedup,
            "rss_peak_mb": _rss_mb(),
        },
    )

    benchmark(lambda: coarse.propagate_batch(spec, seeds=[3, 4]))
