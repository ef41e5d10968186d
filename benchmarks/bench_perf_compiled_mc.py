"""PERF — compiled plan vs scalar-oracle Monte-Carlo throughput.

Measures ``monte_carlo`` — the :class:`~repro.core.compiled.
CompiledPlan` replicate-batched numpy kernel — against the scalar
oracle (one ``propagate`` over the object graph per replicate seed
``spec.seed + i``) on the token-ring trace, serially and with
``--jobs`` fan-out, and verifies the equivalence bar: the compiled
samples must be **bit-for-bit identical** to the oracle's.  The
oracle's timings keep the ``graph_serial_s`` key, so committed
baselines stay comparable.

Environment knobs (used by the CI smoke job to keep runtime tiny):

``REPRO_BENCH_MC_REPLICATES``
    Replicate count per run (default 200 — the headline R=200
    configuration the >= 5x serial-speedup criterion is stated at).
``REPRO_BENCH_MC_JOBS``
    Comma-separated worker counts to ladder over (default ``2,4``).

A warm-up batch runs first so the one-time cost (graph lowering) is
paid before timing starts — exactly the steady state a sweep or
repeated analysis sees, since plans are cached per build.

Two signatures are measured: a hand-built Exponential one
(``perf_compiled_mc``) and the §5 default — an *empirical* signature
measured by the microbenchmarks on the ``noisy`` machine preset, with
its interval-scaled OS draws (``perf_compiled_mc_empirical``), so the
regression guard covers the path users actually run.
"""

import os
import time

import numpy as np

from benchmarks._common import emit, table
from repro.apps import TokenRingParams, token_ring
from repro.core import PerturbationSpec, build_graph, compiled_plan, monte_carlo, propagate
from repro.machines import PRESETS
from repro.microbench import measure_machine
from repro.mpisim import run
from repro.noise import Exponential, MachineSignature

REPLICATES = int(os.environ.get("REPRO_BENCH_MC_REPLICATES", "200"))
JOBS_LADDER = [
    int(j) for j in os.environ.get("REPRO_BENCH_MC_JOBS", "2,4").split(",") if j.strip()
]


def mc_build():
    trace = run(token_ring(TokenRingParams(traversals=8)), nprocs=8, seed=0).trace
    return build_graph(trace)


def mc_spec():
    return PerturbationSpec(
        MachineSignature(os_noise=Exponential(120.0), latency=Exponential(50.0)), seed=17
    )


def oracle_samples(build, spec, replicates):
    """The scalar reference: one ``propagate`` per replicate seed."""
    return np.array(
        [
            propagate(
                build, PerturbationSpec(spec.signature, seed=spec.seed + i, scale=spec.scale)
            ).final_delay
            for i in range(replicates)
        ]
    )


def test_compiled_mc_speedup(benchmark):
    build = mc_build()
    spec = mc_spec()
    compiled_plan(build)  # lower once (cached afterwards)
    monte_carlo(build, spec, replicates=4)  # warm-up

    t0 = time.perf_counter()
    reference = oracle_samples(build, spec, REPLICATES)
    t_graph = time.perf_counter() - t0

    t0 = time.perf_counter()
    compiled = monte_carlo(build, spec, replicates=REPLICATES)
    t_compiled = time.perf_counter() - t0

    # The equivalence bar: bit-identical makespan samples.
    assert np.array_equal(reference, compiled.samples)

    serial_speedup = t_graph / t_compiled
    rows = [
        ["oracle", REPLICATES, f"{t_graph * 1e3:.0f}", "1.00"],
        ["compiled", REPLICATES, f"{t_compiled * 1e3:.0f}", f"{serial_speedup:.2f}"],
    ]
    timings = {"graph_serial_s": t_graph, "compiled_serial_s": t_compiled}
    speedups = {"serial": serial_speedup}
    for jobs in JOBS_LADDER:
        t0 = time.perf_counter()
        dist = monte_carlo(build, spec, replicates=REPLICATES, jobs=jobs)
        dt = time.perf_counter() - t0
        assert np.array_equal(reference, dist.samples)
        timings[f"compiled_jobs{jobs}_s"] = dt
        speedups[f"jobs{jobs}"] = t_graph / dt
        rows.append(
            [f"compiled -j{jobs}", REPLICATES, f"{dt * 1e3:.0f}", f"{t_graph / dt:.2f}"]
        )

    rows.append(["cores", os.cpu_count() or 1, "", ""])
    emit(
        "perf_compiled_mc",
        table(["engine", "replicates", "time ms", "speedup"], rows, widths=[13, 10, 9, 8]),
        params={
            "replicates": REPLICATES,
            "jobs_ladder": JOBS_LADDER,
            "cores": os.cpu_count() or 1,
        },
        timings=timings,
        metrics={"speedup": speedups, "mc_mean_delay": compiled.mean()},
    )

    benchmark(lambda: monte_carlo(build, spec, replicates=REPLICATES))


def test_compiled_mc_empirical_signature():
    """The §5 default: a measured empirical signature, serial only."""
    build = mc_build()
    report = measure_machine(PRESETS["noisy"](2, seed=0), seed=0)
    spec = PerturbationSpec(report.to_signature(method="empirical"), seed=17)
    compiled_plan(build)
    monte_carlo(build, spec, replicates=4)  # warm-up

    t0 = time.perf_counter()
    reference = oracle_samples(build, spec, REPLICATES)
    t_graph = time.perf_counter() - t0
    t0 = time.perf_counter()
    compiled = monte_carlo(build, spec, replicates=REPLICATES)
    t_compiled = time.perf_counter() - t0
    assert np.array_equal(reference, compiled.samples)

    speedup = t_graph / t_compiled
    rows = [
        ["oracle", REPLICATES, f"{t_graph * 1e3:.0f}", "1.00"],
        ["compiled", REPLICATES, f"{t_compiled * 1e3:.0f}", f"{speedup:.2f}"],
        ["cores", os.cpu_count() or 1, "", ""],
    ]
    emit(
        "perf_compiled_mc_empirical",
        table(["engine", "replicates", "time ms", "speedup"], rows, widths=[13, 10, 9, 8]),
        params={
            "replicates": REPLICATES,
            "signature": "noisy/empirical",
            "cores": os.cpu_count() or 1,
        },
        timings={"graph_serial_s": t_graph, "compiled_serial_s": t_compiled},
        metrics={"speedup": {"serial": speedup}, "mc_mean_delay": compiled.mean()},
    )


def test_compiled_mc_lognormal_signature_equivalence():
    """Families beyond the hand-built Exponential one (LogNormal OS
    noise here) go through the same sampler: bit-identical samples."""
    from repro.noise.distributions import LogNormal

    build = mc_build()
    sig = MachineSignature(os_noise=LogNormal(3.0, 0.5), latency=Exponential(50.0))
    spec = PerturbationSpec(sig, seed=17)
    n = min(REPLICATES, 24)
    compiled = monte_carlo(build, spec, replicates=n)
    assert np.array_equal(oracle_samples(build, spec, n), compiled.samples)
