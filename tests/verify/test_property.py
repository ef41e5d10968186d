"""Property tests: the certified static bounds must contain every
Monte-Carlo replicate, for any bundled app, from the compiled plan or
the scalar oracle, any seed — and for arbitrary simulator-producible
programs."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import ALL_APPS
from repro.core import PerturbationSpec, build_graph, monte_carlo, propagate
from repro.core.compiled import compiled_plan
from repro.mpisim import run
from repro.noise import Constant, Exponential, MachineSignature, Uniform
from repro.verify import makespan_bounds

from tests.conftest import plan_program

APP_PARAMS = {
    "token_ring": {"traversals": 2},
    "stencil1d": {"iterations": 2},
    "stencil2d": {"iterations": 2},
    "master_worker": {"tasks": 6},
    "allreduce_iter": {"iterations": 3},
    "fft_transpose": {"stages": 2},
    "butterfly_allreduce": {"iterations": 2},
    "pipeline": {"items": 4},
    "random_sparse": {"iterations": 2},
}

SIGNATURE = MachineSignature(
    os_noise=Exponential(80.0),
    latency=Uniform(20.0, 60.0),
    per_byte=Constant(0.005),
    name="prop",
)


@lru_cache(maxsize=None)
def app_build(name):
    factory, params_cls = ALL_APPS[name]
    nprocs = 8 if name == "butterfly_allreduce" else 4
    return build_graph(run(factory(params_cls(**APP_PARAMS[name])), nprocs=nprocs, seed=1).trace)


@lru_cache(maxsize=None)
def app_bounds(name):
    return makespan_bounds(compiled_plan(app_build(name)), SIGNATURE)


@given(
    name=st.sampled_from(sorted(ALL_APPS)),
    oracle=st.booleans(),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=30, deadline=None)
def test_every_replicate_inside_static_bounds(name, oracle, seed):
    build = app_build(name)
    bounds = app_bounds(name)
    if oracle:
        samples = np.array(
            [propagate(build, PerturbationSpec(SIGNATURE, seed=seed + i)).final_delay
             for i in range(5)]
        )
    else:
        samples = monte_carlo(build, PerturbationSpec(SIGNATURE, seed=seed), replicates=5).samples
    assert bounds.violations(samples) == [], (name, oracle, seed)


_round = st.one_of(
    st.tuples(st.just("compute"), st.integers(100, 3000)),
    st.tuples(st.just("ring"), st.integers(0, 20_000)),
    st.tuples(st.just("xchg"), st.integers(0, 2000)),
    st.tuples(st.just("nb"), st.integers(0, 20_000)),
    st.tuples(st.just("allreduce"), st.integers(0, 128)),
    st.tuples(st.just("barrier")),
)


@given(
    plan=st.lists(_round, min_size=1, max_size=4),
    p=st.integers(2, 5),
    seed=st.integers(0, 10_000),
    scale=st.sampled_from([0.5, 1.0, 2.0]),
)
@settings(max_examples=25, deadline=None)
def test_arbitrary_programs_respect_bounds(plan, p, seed, scale):
    build = build_graph(run(plan_program(plan), nprocs=p, seed=1).trace)
    bounds = makespan_bounds(compiled_plan(build), SIGNATURE, scale=scale)
    dist = monte_carlo(
        build, PerturbationSpec(SIGNATURE, seed=seed, scale=scale), replicates=4
    )
    assert bounds.violations(dist.samples) == []


@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_all_apps_coarsen_bit_stable(name):
    """The acceptance invariant: bounds identical floats with the
    coarsening pass forced on and forced off, for every bundled app."""
    build = app_build(name)
    on = makespan_bounds(compiled_plan(build, coarsen="on"), SIGNATURE)
    off = makespan_bounds(compiled_plan(build, coarsen="off"), SIGNATURE)
    assert on.rank_lo.tolist() == off.rank_lo.tolist(), name
    assert on.rank_hi.tolist() == off.rank_hi.tolist(), name
