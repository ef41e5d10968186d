"""The sampling and verify paths use ``scipy.special`` where they once
used ``scipy.stats``; every replaced call must give the very same bits.

``scipy.stats`` costs about a second to import, so only fitting loads it
now.  ``norm.cdf``/``norm.ppf``/``norm.pdf`` and ``gamma.ppf`` are thin
wrappers over ``ndtr``/``ndtri``/``gammaincinv`` and one closed-form
density; these tests pin that on grids of quantiles and parameters, and
check the rewritten methods against their former ``scipy.stats`` bodies.
"""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaincinv, ndtr, ndtri

from repro.noise.distributions import (
    U_MAX,
    U_MIN,
    Gamma,
    LogNormal,
    Normal,
    TruncatedNormal,
    _std_normal_pdf,
)
from repro.verify.intervals import DEFAULT_QUANTILE, Interval, support_interval

#: Standardized points, from the far left tail to past ndtr's underflow.
X_GRID = [-40.0, -8.5, -3.0, -1.0, -0.1, -0.0, 0.0, 0.3, 1.0, 2.5, 5.0, 8.0, 12.0, 37.5, 38.5, 40.0]
#: Quantiles: the draw grid's ends, the verify range [0.5, 1) and beyond.
Q_GRID = [U_MIN, 1e-12, 1e-3, 0.1, 0.5, 0.75, 0.9, 0.99, 1 - 1e-6, DEFAULT_QUANTILE, U_MAX]
SHAPES = [0.05, 0.5, 1.0, 1.5, 2.0, 7.0, 150.0]
SCALES = [1e-3, 0.7, 1.0, 30.0, 1e4]
#: (mu, sigma, lower) triples: mild, deep and far-out truncations.
TRUNCATIONS = [
    (0.0, 1.0, 0.0),
    (10.0, 30.0, 0.0),
    (50.0, 10.0, 0.0),
    (20.0, 30.0, 25.0),
    (100.0, 5.0, -1000.0),
    (0.0, 2.0, 30.0),
    (0.0, 1.0, 38.0),
    (-5.0, 0.25, 0.0),
]


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _same(a, b) -> None:
    np.testing.assert_array_equal(_bits(a), _bits(b))


class TestPrimitives:
    @pytest.mark.parametrize("x", X_GRID)
    def test_ndtr_is_norm_cdf(self, x):
        _same(ndtr(x), stats.norm.cdf(x))

    @pytest.mark.parametrize("x", X_GRID)
    def test_pdf_is_norm_pdf(self, x):
        _same(_std_normal_pdf(x), stats.norm.pdf(x))

    def test_ndtri_is_norm_ppf(self):
        q = np.array(Q_GRID)
        _same(ndtri(q), stats.norm.ppf(q))
        for one in Q_GRID:
            _same(ndtri(one), stats.norm.ppf(one))

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("scale", SCALES)
    def test_gammaincinv_is_gamma_ppf(self, shape, scale):
        for q in Q_GRID:
            _same(gammaincinv(shape, q) * scale, stats.gamma.ppf(q, shape, scale=scale))


class TestTruncatedNormal:
    """The methods against their former ``scipy.stats`` bodies."""

    @pytest.mark.parametrize("mu,sigma,lower", TRUNCATIONS)
    def test_sample_n(self, mu, sigma, lower):
        t = TruncatedNormal(mu, sigma, lower)
        rng = np.random.default_rng(7)
        lo = stats.norm.cdf((lower - mu) / sigma)
        expected = mu + sigma * stats.norm.ppf(rng.uniform(lo, 1.0, size=500))
        _same(t.sample_n(np.random.default_rng(7), 500), expected)

    @pytest.mark.parametrize("mu,sigma,lower", TRUNCATIONS)
    def test_moments(self, mu, sigma, lower):
        t = TruncatedNormal(mu, sigma, lower)
        a = (lower - mu) / sigma
        z = max(1.0 - stats.norm.cdf(a), 1e-300)
        lam = stats.norm.pdf(a) / z
        with np.errstate(over="ignore"):  # deep truncations overflow to -inf alike
            former_var = sigma**2 * (1.0 - lam * (lam - a))
        _same(t.mean(), mu + sigma * lam)
        _same(t.var(), former_var)


def _former_interval(dist, q: float) -> Interval:
    """``support_interval`` as it was written with ``scipy.stats``."""
    norm = stats.norm
    if isinstance(dist, Normal):
        z = float(norm.ppf(q))
        return Interval(dist.mu - dist.sigma * z, dist.mu + dist.sigma * z, True, True)
    if isinstance(dist, TruncatedNormal):
        a = (dist.lower - dist.mu) / dist.sigma
        lo_mass = float(norm.cdf(a))
        hi = dist.mu + dist.sigma * float(norm.ppf(lo_mass + q * (1.0 - lo_mass)))
        return Interval(dist.lower, hi, hi_q=True)
    if isinstance(dist, LogNormal):
        return Interval(0.0, math.exp(dist.mu + dist.sigma * float(norm.ppf(q))), hi_q=True)
    assert isinstance(dist, Gamma)
    return Interval(0.0, float(stats.gamma.ppf(q, dist.shape, scale=dist.scale)), hi_q=True)


VERIFY_Q = [0.5, 0.75, 0.9, 0.99, 1 - 1e-6, DEFAULT_QUANTILE, U_MAX]
FAMILIES = (
    [Normal(mu, s) for mu in (-3.0, 0.0, 40.0) for s in (0.01, 1.0, 15.0)]
    + [TruncatedNormal(*t) for t in TRUNCATIONS]
    + [LogNormal(mu, s) for mu in (-1.0, 0.0, 3.0) for s in (0.1, 0.5, 2.0)]
    + [Gamma(k, th) for k in SHAPES for th in (0.7, 30.0)]
)


@pytest.mark.parametrize("dist", FAMILIES, ids=repr)
def test_support_interval_matches_scipy_stats(dist):
    for q in VERIFY_Q:
        got, want = support_interval(dist, q), _former_interval(dist, q)
        _same([got.lo, got.hi], [want.lo, want.hi])
        assert (got.lo_q, got.hi_q) == (want.lo_q, want.hi_q)
