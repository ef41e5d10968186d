"""Empirical distributions built from microbenchmark samples.

The second parameterization method of §5: instead of fitting an assumed
family, keep the measured samples and draw from the empirical
distribution.  By the law of large numbers the empirical distribution
converges to the true one as the sample count grows, which is exactly
the property the property-based tests verify.

Sampling is implemented two ways:

* :class:`Empirical` — classical bootstrap resampling (draw measured
  values with replacement).  Exact match to the sample's ECDF; its
  inverse CDF is the order statistic ``samples[floor(u * n)]``.
* :class:`Empirical` with ``interpolate=True`` — inverse-CDF sampling
  with linear interpolation between order statistics, which smooths the
  staircase and can produce values between observations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

__all__ = ["Empirical", "ecdf"]


def ecdf(samples: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(xs, F(xs))`` — the empirical CDF evaluated at the sorted
    unique sample points.

    ``F(x)`` is the right-continuous step function
    ``#(samples <= x) / n``.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("ecdf requires at least one sample")
    xs, counts = np.unique(arr, return_counts=True)
    return xs, np.cumsum(counts) / arr.size


@dataclass(frozen=True)
class Empirical:
    """Empirical distribution over a fixed set of measured samples.

    Implements the :class:`repro.noise.distributions.RandomVariable`
    protocol so an empirical distribution can be attached anywhere a
    parametric one can (the whole point of §5's second method).
    """

    samples: tuple
    interpolate: bool = False
    # Sorted array view of ``samples``, kept out of equality and hashing.
    _arr: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, samples: Sequence[float], interpolate: bool = False) -> None:
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("Empirical requires a non-empty 1-D sample array")
        if not np.all(np.isfinite(arr)):
            raise ValueError("Empirical samples must be finite")
        arr = np.sort(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", tuple(arr.tolist()))
        object.__setattr__(self, "interpolate", bool(interpolate))
        object.__setattr__(self, "_arr", arr)

    # -- RandomVariable protocol ------------------------------------------------
    def sample(self, rng: np.random.Generator) -> float:
        return float(self.sample_n(rng, 1)[0])

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        arr = self._arr
        if not self.interpolate or arr.size == 1:
            idx = rng.integers(0, arr.size, size=n)
            return arr[idx]
        u = rng.uniform(0.0, 1.0, size=n)
        return self.quantile(u)

    def ppf(self, u: np.ndarray) -> np.ndarray:
        """Inverse ECDF (bootstrap) or the linear-interpolated quantile."""
        arr = self._arr
        n = arr.size
        if not self.interpolate or n == 1:
            idx = np.minimum((u * n).astype(np.intp), n - 1)
            return arr[idx]
        pos = u * (n - 1)
        lo = np.minimum(pos.astype(np.intp), n - 2)
        return arr[lo] + (pos - lo) * (arr[lo + 1] - arr[lo])

    def mean(self) -> float:
        return float(np.mean(self.samples))

    def var(self) -> float:
        return float(np.var(self.samples))

    # -- Descriptive statistics ---------------------------------------------------
    def quantile(self, q: Any) -> np.ndarray:
        """Linear-interpolated quantile(s) of the sample."""
        return np.quantile(self._arr, q)

    def cdf(self, x: float | np.ndarray) -> np.ndarray:
        """Right-continuous ECDF evaluated at ``x`` (scalar or array)."""
        arr = self._arr
        return np.searchsorted(arr, np.asarray(x, dtype=float), side="right") / arr.size

    def min(self) -> float:
        return self.samples[0]

    def max(self) -> float:
        return self.samples[-1]

    def size(self) -> int:
        return len(self.samples)

    def ks_distance(self, other: "Empirical") -> float:
        """Two-sample Kolmogorov–Smirnov statistic against ``other``.

        Used by the fitting tests to check that sampling from an
        empirical distribution converges back to its source.
        """
        grid = np.union1d(np.asarray(self.samples), np.asarray(other.samples))
        return float(np.max(np.abs(self.cdf(grid) - other.cdf(grid))))

    def truncated(self, lower: float | None = None, upper: float | None = None) -> "Empirical":
        """New empirical distribution keeping samples in ``[lower, upper]``."""
        arr = np.asarray(self.samples)
        mask = np.ones(arr.size, dtype=bool)
        if lower is not None:
            mask &= arr >= lower
        if upper is not None:
            mask &= arr <= upper
        kept = arr[mask]
        if kept.size == 0:
            raise ValueError("truncation removed every sample")
        return Empirical(kept, interpolate=self.interpolate)

    def __len__(self) -> int:  # pragma: no cover - trivial
        return len(self.samples)
