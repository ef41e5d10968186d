"""Tests for the compiled graph plan: the counter-based draw primitives
(splitmix64 / mix / uniform grid) against a pure-Python reference of
the sampling contract, and full cross-engine bit-identity — the scalar
oracle ``propagate`` vs :class:`CompiledPlan` vs ``StreamingTraversal`` — over
every bundled app, both modes, every built-in distribution family, and
a ladder of seeds and scales."""

import pickle

import numpy as np
import pytest

from repro import obs
from repro.apps import ALL_APPS
from repro.core import (
    BuildConfig,
    CompiledPlan,
    PerturbationSpec,
    StreamingTraversal,
    build_graph,
    compiled_plan,
    monte_carlo,
    propagate,
    rank_influence,
    sweep_scales,
    sweep_signatures,
)
from repro.core.perturb import _splitmix64_int, draw_uniforms, lane_keys, splitmix64
from repro.mpisim import run
from repro.noise import Constant, Empirical, Exponential, MachineSignature
from repro.noise.distributions import (
    BernoulliSpike,
    Gamma,
    LogNormal,
    Mixture,
    Normal,
    Pareto,
    Scaled,
    Shifted,
    TruncatedNormal,
    Uniform,
    Weibull,
)
from tests.conftest import DELAY_TOL

U64 = np.uint64
MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Pure-Python reference of the draw contract (see repro.core.perturb)
# ---------------------------------------------------------------------------


def ref_splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def ref_mix(ints) -> int:
    h = 0x811C9DC5
    for v in ints:
        h = ref_splitmix64(h ^ (v & MASK64))
    return h


def ref_uniform(seed: int, kind: int, uid: tuple, draw: int) -> float:
    return ((ref_splitmix64(ref_mix((seed, kind) + uid + (draw,))) >> 12) + 0.5) * 2.0**-52


def keys_of(seeds, kind, uids):
    width = max(len(u) for u in uids)
    mat = np.zeros((len(uids), width), dtype=U64)
    for i, uid in enumerate(uids):
        mat[i, : len(uid)] = [v & MASK64 for v in uid]
    lengths = np.array([len(u) for u in uids], dtype=np.int64)
    kinds = np.full(len(uids), kind, dtype=np.uint8)
    return lane_keys(np.array([s & MASK64 for s in seeds], dtype=U64), kinds, mat, lengths)


class TestSplitmixVectorization:
    def test_splitmix64_matches_scalar_10k(self):
        rng = np.random.default_rng(101)
        # Full uint64 range, weighted toward the >= 2^63 wraparound edge.
        xs = np.concatenate(
            [
                rng.integers(0, 1 << 64, size=5000, dtype=U64),
                rng.integers(1 << 63, 1 << 64, size=4990, dtype=U64),
                np.array([0, 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1], dtype=U64),
                np.array([0x9E3779B97F4A7C15, 0xFFFFFFFF00000000,
                          0x00000000FFFFFFFF, 0x811C9DC5, 42], dtype=U64),
            ]
        )
        vec = splitmix64(xs)
        for x, v in zip(xs.tolist(), vec.tolist()):
            assert ref_splitmix64(x) == v == _splitmix64_int(x), f"splitmix64({x:#x})"

    def test_mix_matches_scalar_over_random_uid_tuples(self):
        rng = np.random.default_rng(202)
        n, width = 2000, 5
        cols = rng.integers(0, 1 << 64, size=(n, width), dtype=U64)
        lengths = rng.integers(1, width + 1, size=n)
        uids = [tuple(int(v) for v in cols[i, : lengths[i]]) for i in range(n)]
        seeds = [0, 7, (1 << 64) - 1]
        vec = keys_of(seeds, 3, uids)
        for r, seed in enumerate(seeds):
            for i in range(0, n, 7):
                assert ref_mix((seed, 3) + uids[i]) == int(vec[r, i]), f"mix{uids[i]}"

    def test_mix_negative_ints_mask_like_scalar(self):
        # Seeds and uid components are masked to 64 bits, so negative
        # values hash like their two's-complement images.
        uids = [(-1, 7), (-(1 << 63), 3), (12, -34, 56)]
        vec = keys_of([-5], 1, uids)
        for i, uid in enumerate(uids):
            assert ref_mix((-5, 1) + uid) == int(vec[0, i])


class TestDrawContract:
    def test_uniform_stream_matches_reference(self):
        rng = np.random.default_rng(303)
        uids = [tuple(int(v) for v in rng.integers(0, 1 << 40, size=3)) for _ in range(200)]
        seeds = [0, 11, 123456789]
        keys = keys_of(seeds, 2, uids)
        for draw in (0, 1, 5, 1000):
            u = draw_uniforms(keys, np.full(len(uids), draw, dtype=U64))
            for r, seed in enumerate(seeds):
                for i in range(0, len(uids), 13):
                    assert u[r, i] == ref_uniform(seed, 2, uids[i], draw)

    def test_uniforms_stay_strictly_inside_unit_interval(self):
        # The extreme 52-bit grid points map to 2^-53 and 1 - 2^-53.
        extremes = np.array([0, (1 << 12) - 1, MASK64, MASK64 - (1 << 12)], dtype=U64)
        u = ((extremes >> U64(12)).astype(np.float64) + 0.5) * 2.0**-52
        assert u.min() == 2.0**-53 and u.max() == 1.0 - 2.0**-53
        keys = keys_of(range(50), 1, [(i, 3) for i in range(400)])
        u = draw_uniforms(keys, np.zeros(400, dtype=U64))
        assert (u > 0.0).all() and (u < 1.0).all()

    def test_spec_sample_is_the_recipe_over_reference_uniforms(self):
        from repro.core.graph import DeltaKind, DeltaSpec

        sig = MachineSignature(
            os_noise=Exponential(80.0), latency=Uniform(10.0, 90.0), per_byte=Constant(0.5)
        )
        spec = PerturbationSpec(sig, seed=42, scale=2.0)
        uid = (9, 4, 1)
        d = DeltaSpec(DeltaKind.TRANSFER_OS, rank=1, src=0, dst=1, nbytes=8, uid=uid)
        kind = int(DeltaKind.TRANSFER_OS)
        lat = 10.0 + 80.0 * ref_uniform(42, kind, uid, 0)
        os_ = -80.0 * np.log1p(-np.array([ref_uniform(42, kind, uid, 2)]))[0]
        assert spec.sample(d) == ((0.0 + lat) + 0.5 * 8 + os_) * 2.0


# ---------------------------------------------------------------------------
# Cross-engine bit-identity matrix: all apps x modes x seeds x scales
# ---------------------------------------------------------------------------

SIGNATURES = {
    "const": MachineSignature(
        os_noise=Constant(100.0), latency=Constant(50.0), per_byte=Constant(0.01)
    ),
    "expo": MachineSignature(
        os_noise=Exponential(80.0), latency=Exponential(40.0), per_byte=Constant(0.005)
    ),
    "rich": MachineSignature(
        os_noise=Normal(120.0, 30.0),
        latency=Uniform(10.0, 90.0),
        per_byte=Shifted(Scaled(Exponential(0.004), 1.5), 0.001),
        os_noise_by_rank={1: Exponential(200.0)},
        latency_by_link={(0, 1): Normal(75.0, 5.0)},
    ),
    "lognormal": MachineSignature(
        os_noise=LogNormal(3.0, 0.5), latency=Exponential(40.0), per_byte=Constant(0.005)
    ),
    # Interval-scaled OS draws: os_quantum > 0 gives long compute edges
    # several consecutive draw indices.
    "quantum": MachineSignature(
        os_noise=Exponential(80.0), latency=Exponential(40.0), os_quantum=500.0
    ),
    # The §5 default: measured samples, bootstrap and interpolated.
    "empirical": MachineSignature(
        os_noise=Empirical(np.linspace(0.0, 400.0, 97) ** 1.3),
        latency=Empirical([12.0, 30.0, 31.0, 55.0, 90.0], interpolate=True),
        per_byte=Empirical([0.001, 0.004, 0.009]),
        os_quantum=2000.0,
    ),
    "gamma_weibull": MachineSignature(
        os_noise=Gamma(2.5, 40.0), latency=Weibull(0.7, 30.0), per_byte=Gamma(0.5, 0.01)
    ),
    "pareto_truncnorm": MachineSignature(
        os_noise=Pareto(2.2, 50.0),
        latency=TruncatedNormal(20.0, 15.0, lower=0.0),
        per_byte=Constant(0.002),
        latency_by_link={(1, 0): TruncatedNormal(60.0, 5.0, lower=55.0)},
    ),
    "mixture_spike": MachineSignature(
        os_noise=Mixture([Exponential(20.0), Normal(300.0, 40.0), Constant(7.0)], [5, 1, 2]),
        latency=BernoulliSpike(0.1, Exponential(500.0)),
        per_byte=Mixture([Uniform(0.0, 0.01), Empirical([0.02, 0.05])], [1, 1]),
        os_noise_by_rank={0: BernoulliSpike(0.5, Gamma(3.0, 20.0))},
    ),
}


@pytest.fixture(scope="module")
def app_builds():
    builds = {}
    for name, (factory, params_cls) in sorted(ALL_APPS.items()):
        p = 8 if name == "butterfly_allreduce" else 4
        trace = run(factory(params_cls()), nprocs=p, seed=1).trace
        builds[name] = (trace, build_graph(trace))
    return builds


@pytest.mark.parametrize("app", sorted(ALL_APPS))
@pytest.mark.parametrize("mode", ["additive", "threshold"])
def test_cross_engine_matrix(app_builds, app, mode):
    trace, build = app_builds[app]
    plan = compiled_plan(build)
    for sig_name, sig in SIGNATURES.items():
        for seed, scale in [(0, 1.0), (7, 2.5), (123456789, -0.5)]:
            spec = PerturbationSpec(sig, seed=seed, scale=scale)
            ref = propagate(build, spec, mode=mode)
            got = plan.propagate_one(spec, mode=mode)
            ctx = f"{app}/{sig_name}/seed={seed}/scale={scale}"
            assert got.final_delay == ref.final_delay, ctx
            assert got.final_local_times == ref.final_local_times, ctx
            assert got.node_delay == ref.node_delay, ctx
            assert got.edge_delta == ref.edge_delta, ctx
            assert got.clamped_edges == ref.clamped_edges, ctx
    # Streaming stays within tolerance (one point: it is the slow engine).
    spec = PerturbationSpec(SIGNATURES["expo"], seed=7)
    ref = propagate(build, spec, mode=mode)
    streaming = StreamingTraversal(spec, mode=mode).run(trace)
    assert ref.final_delay == pytest.approx(streaming.final_delay, abs=DELAY_TOL)


def test_one_edge_and_block_sampling_agree(app_builds):
    # The streaming engine samples edge by edge (``sample``), the
    # scalar oracle a whole block (``sample_many``): same floats.
    for app, (_, build) in sorted(app_builds.items()):
        edges = build.graph.edges
        deltas = [e.delta for e in edges]
        weights = [e.weight for e in edges]
        for sig_name, sig in SIGNATURES.items():
            spec = PerturbationSpec(sig, seed=123456789, scale=-0.5)
            one = [spec.sample(d, w) for d, w in zip(deltas, weights)]
            assert one == spec.sample_many(deltas, weights).tolist(), f"{app}/{sig_name}"


def test_batch_rows_match_per_seed_propagations(app_builds):
    _, build = app_builds["token_ring"]
    plan = compiled_plan(build)
    sig = SIGNATURES["rich"]
    seeds = list(range(40, 60))
    for mode in ("additive", "threshold"):
        batch = plan.propagate_batch(
            PerturbationSpec(sig, seed=seeds[0], scale=1.5), seeds=seeds, mode=mode
        )
        assert batch.delays.shape == (len(seeds), build.graph.nprocs)
        for r, seed in enumerate(seeds):
            ref = propagate(build, PerturbationSpec(sig, seed=seed, scale=1.5), mode=mode)
            assert batch.delays[r].tolist() == ref.final_delay
            assert batch.clamped[r] == ref.clamped_edges


def test_plan_pickle_roundtrip_is_bit_identical(app_builds):
    _, build = app_builds["stencil1d"]
    plan = compiled_plan(build)
    spec = PerturbationSpec(SIGNATURES["expo"], seed=9)
    before = plan.propagate_batch(spec, seeds=[9, 10, 11], mode="additive")
    clone: CompiledPlan = pickle.loads(pickle.dumps(plan))
    after = clone.propagate_batch(spec, seeds=[9, 10, 11], mode="additive")
    assert np.array_equal(before.delays, after.delays)


def test_invalid_mode_and_engine_raise(app_builds):
    trace, build = app_builds["token_ring"]
    plan = compiled_plan(build)
    spec = PerturbationSpec(SIGNATURES["const"], seed=0)
    with pytest.raises(ValueError, match="mode"):
        plan.propagate_batch(spec, mode="bogus")
    with pytest.raises(ValueError, match="mode"):
        monte_carlo(build, spec, replicates=2, mode="bogus")
    for engine in ("bogus", "graph", "incore", "auto"):
        with pytest.raises(ValueError, match="engine"):
            sweep_signatures(trace, [SIGNATURES["const"]], engine=engine)


def test_plan_is_cached_on_build(app_builds):
    _, build = app_builds["token_ring"]
    assert compiled_plan(build) is compiled_plan(build)


# ---------------------------------------------------------------------------
# Analysis wiring: monte_carlo / sweep / influence against the scalar oracle
# ---------------------------------------------------------------------------


def oracle_rows(build, specs, mode="additive"):
    """Final delays of one scalar ``propagate`` per spec."""
    return [propagate(build, s, mode=mode).final_delay for s in specs]


class TestAnalysisWiring:
    def test_monte_carlo_engines_and_jobs_agree(self, app_builds):
        _, build = app_builds["token_ring"]
        spec = PerturbationSpec(SIGNATURES["expo"], seed=17)
        replicas = [PerturbationSpec(spec.signature, seed=spec.seed + i) for i in range(24)]
        for mode in ("additive", "threshold"):
            ref = np.array(oracle_rows(build, replicas, mode))
            for kwargs in ({}, {"jobs": 2}):
                got = monte_carlo(build, spec, replicates=24, mode=mode, **kwargs)
                assert np.array_equal(ref, got.samples), kwargs
                assert got.seeds == tuple(range(17, 41))

    def test_monte_carlo_compiled_returns_array_directly(self, app_builds):
        _, build = app_builds["token_ring"]
        dist = monte_carlo(build, PerturbationSpec(SIGNATURES["expo"]), replicates=8)
        assert isinstance(dist.samples, np.ndarray)
        assert dist.samples.dtype == np.float64
        assert dist.samples.shape == (8, build.graph.nprocs)

    def test_sweep_scales_engines_agree(self, app_builds):
        """Point ``s`` is a propagation at ``spec.scale * s`` on every
        engine, serial and pooled: compiled bit for bit against the
        oracle, streaming within tolerance."""
        trace, build = app_builds["stencil1d"]
        scales = [0.0, 0.25, 1.0, 2.0, -1.0]
        for base in (1.0, 2.0):
            spec = PerturbationSpec(SIGNATURES["rich"], seed=5, scale=base)
            ref = {
                mode: oracle_rows(build, [spec.scaled(base * s) for s in scales], mode)
                for mode in ("additive", "threshold")
            }
            for mode, rows in ref.items():
                got = sweep_scales(trace, spec, scales, mode=mode)
                assert [list(p.delays) for p in got.points] == rows, (base, mode)
            for jobs in (0, 2):
                streamed = sweep_scales(trace, spec, scales, engine="streaming", jobs=jobs)
                for point, row in zip(streamed.points, ref["additive"]):
                    assert point.delays == pytest.approx(row, abs=DELAY_TOL), (base, jobs)

    def test_sweep_signatures_engines_agree(self, app_builds):
        trace, build = app_builds["token_ring"]
        sigs = [SIGNATURES["expo"], SIGNATURES["const"], SIGNATURES["lognormal"]]
        ref = oracle_rows(build, [PerturbationSpec(sig, seed=3) for sig in sigs])
        got = sweep_signatures(trace, sigs, seed=3)
        par = sweep_signatures(trace, sigs, seed=3, jobs=2)
        for row, b, c in zip(ref, got.points, par.points):
            assert list(b.delays) == list(c.delays) == row
        streamed = sweep_signatures(trace, sigs, seed=3, engine="streaming")
        for row, point in zip(ref, streamed.points):
            assert point.delays == pytest.approx(row, abs=DELAY_TOL)

    def test_sweep_rejects_unknown_engine(self, app_builds):
        trace, _ = app_builds["token_ring"]
        spec = PerturbationSpec(SIGNATURES["const"])
        with pytest.raises(ValueError, match="engine"):
            sweep_scales(trace, spec, [1.0], engine="bogus")

    def test_rank_influence_engines_agree(self, app_builds):
        _, build = app_builds["master_worker"]
        noise = Exponential(150.0)
        sources = [
            PerturbationSpec(MachineSignature(os_noise_by_rank={src: noise}), seed=3)
            for src in range(build.graph.nprocs)
        ]
        ref = np.array(oracle_rows(build, sources))
        got = rank_influence(build, noise, seed=3)
        par = rank_influence(build, noise, seed=3, jobs=2)
        assert np.array_equal(ref, got.matrix)
        assert np.array_equal(ref, par.matrix)

    def test_streaming_build_config_still_respected(self, app_builds):
        # Compiled plans inherit whatever BuildConfig shaped the build.
        trace, _ = app_builds["allreduce_iter"]
        config = BuildConfig(collective_mode="butterfly")
        build = build_graph(trace, config)
        spec = PerturbationSpec(SIGNATURES["expo"], seed=2)
        ref = propagate(build, spec)
        got = compiled_plan(build).propagate_one(spec)
        assert got.final_delay == ref.final_delay


def test_no_scalar_fallback_lanes_for_any_family(app_builds):
    # Every built-in family samples through the one vectorized sampler,
    # flat and coarse, with or without os_quantum: no fallback counter.
    _, build = app_builds["stencil1d"]
    for coarsen in ("off", "on"):
        plan = CompiledPlan(build, coarsen=coarsen)
        for sig_name, sig in SIGNATURES.items():
            with obs.observed("unit") as session:
                plan.propagate_batch(PerturbationSpec(sig, seed=3), seeds=[3, 4], mode="additive")
            names = session.metrics.snapshot()
            ctx = f"{coarsen}/{sig_name}"
            assert names["compiled.lanes"]["value"] > 0, ctx
            assert "compiled.fallback_lanes" not in names, ctx
