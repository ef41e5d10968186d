"""Inverse-CDF (``ppf``) tests for every built-in distribution family.

``ppf`` is the analyzer's only sampling entry point (see
:mod:`repro.core.perturb`), so these are the correctness gate for the
sampled perturbations: each family's ``ppf`` of uniform draws must pass
a Kolmogorov–Smirnov test — against the exact CDF where scipy has one,
otherwise against the family's own generator-based ``sample_n`` — and
must be finite on the whole draw grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.noise import Empirical
from repro.noise.distributions import (
    U_MAX,
    U_MIN,
    BernoulliSpike,
    Constant,
    Exponential,
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

N = 20_000
P_MIN = 1e-3

#: Family -> its exact scipy CDF (continuous families).
EXACT = {
    "uniform": (Uniform(3.0, 11.0), stats.uniform(3.0, 8.0).cdf),
    "exponential": (Exponential(250.0), stats.expon(scale=250.0).cdf),
    "normal": (Normal(-4.0, 2.5), stats.norm(-4.0, 2.5).cdf),
    "truncated_normal": (
        TruncatedNormal(10.0, 4.0, lower=12.0),
        stats.truncnorm(0.5, np.inf, loc=10.0, scale=4.0).cdf,
    ),
    "truncated_normal_far_tail": (
        TruncatedNormal(0.0, 1.0, lower=6.0),
        stats.truncnorm(6.0, np.inf).cdf,
    ),
    "lognormal": (LogNormal(2.0, 0.7), stats.lognorm(0.7, scale=np.exp(2.0)).cdf),
    "gamma": (Gamma(2.5, 40.0), stats.gamma(2.5, scale=40.0).cdf),
    "gamma_small_shape": (Gamma(0.3, 5.0), stats.gamma(0.3, scale=5.0).cdf),
    "weibull": (Weibull(0.7, 30.0), stats.weibull_min(0.7, scale=30.0).cdf),
    "pareto": (Pareto(2.2, 50.0), stats.pareto(2.2, scale=50.0).cdf),
    "shifted": (Shifted(Exponential(10.0), 5.0), stats.expon(5.0, 10.0).cdf),
    "scaled": (Scaled(Normal(1.0, 2.0), 3.0), stats.norm(3.0, 6.0).cdf),
}

#: Families with atoms or no scipy twin: compared with ``sample_n``.
SAMPLED = {
    "empirical_bootstrap": Empirical(np.random.default_rng(5).gamma(2.0, 30.0, 1024)),
    "empirical_interpolated": Empirical(
        np.random.default_rng(6).normal(100.0, 15.0, 257), interpolate=True
    ),
    "mixture": Mixture([Exponential(20.0), Normal(300.0, 40.0), Constant(7.0)], [5, 1, 2]),
    "bernoulli_spike": BernoulliSpike(0.15, Exponential(500.0)),
}

ALL = {**{k: d for k, (d, _) in EXACT.items()}, **SAMPLED, "constant": Constant(4.5)}


def grid_uniforms(seed: int, n: int = N) -> np.ndarray:
    """Uniforms on the analyzer's draw grid ``(k + 0.5) * 2^-52``."""
    k = np.random.default_rng(seed).integers(0, 1 << 52, size=n, dtype=np.int64)
    return (k.astype(np.float64) + 0.5) * 2.0**-52


@pytest.mark.parametrize("name", sorted(EXACT))
def test_ppf_matches_exact_cdf(name):
    dist, cdf = EXACT[name]
    draws = dist.ppf(grid_uniforms(11))
    assert stats.kstest(draws, cdf).pvalue > P_MIN, name


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_ppf_matches_generator_sampler(name):
    dist = SAMPLED[name]
    draws = dist.ppf(grid_uniforms(12))
    reference = dist.sample_n(np.random.default_rng(13), N)
    assert stats.ks_2samp(draws, reference).pvalue > P_MIN, name
    assert np.mean(draws) == pytest.approx(dist.mean(), rel=0.05)


def test_empirical_ppf_stays_on_the_sample():
    emp = SAMPLED["empirical_bootstrap"]
    draws = emp.ppf(grid_uniforms(14, 2000))
    assert np.isin(draws, np.asarray(emp.samples)).all()
    # u -> samples[floor(u * n)]: both grid extremes land on the extremes.
    assert emp.ppf(np.array([U_MIN, U_MAX])).tolist() == [emp.min(), emp.max()]
    interp = SAMPLED["empirical_interpolated"]
    assert interp.ppf(np.array([0.5]))[0] == pytest.approx(interp.quantile(0.5))


def test_truncated_normal_respects_lower():
    tn = TruncatedNormal(0.0, 1.0, lower=2.0)
    assert tn.ppf(grid_uniforms(15, 5000)).min() >= 2.0


@pytest.mark.parametrize("name", sorted(ALL))
def test_ppf_is_elementwise_and_shape_preserving(name):
    dist = ALL[name]
    u = grid_uniforms(16, 60).reshape(3, 20)
    whole = dist.ppf(u)
    assert whole.shape == (3, 20)
    parts = np.array([dist.ppf(row) for row in u])
    assert np.array_equal(whole, parts)


@settings(max_examples=300, deadline=None)
@given(u=st.floats(min_value=2.0**-54, max_value=U_MAX))
def test_ppf_finite_on_draw_range(u):
    arr = np.array([2.0**-54, U_MIN, u, U_MAX])
    for name, dist in ALL.items():
        assert np.isfinite(dist.ppf(arr)).all(), (name, u)
