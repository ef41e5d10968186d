"""Certified makespan bounds by interval abstract interpretation.

Instead of *sampling* the perturbed graph (Monte-Carlo, §5) this module
propagates guaranteed per-edge delay **intervals** through the exact
same compiled level schedule, producing per-rank and makespan bounds
``[lo, hi]`` that every possible replicate is contained in — without
drawing a single sample.

Soundness argument, end to end:

1. Every primitive draw the perturbation engine makes is clamped at
   zero (:class:`~repro.core.perturb.DeltaSampler`), so its value lies
   in the clamped support interval of its distribution
   (:func:`~repro.verify.intervals.support_interval`; quantile-bounded
   for unbounded families — the one explicit soundness caveat).
2. The sampler composes draws per edge with nonnegative byte factors
   and recipe-order sums only, then scales — all interval-monotone.
   :func:`edge_intervals` runs that very recipe code
   (:meth:`~repro.core.perturb.DeltaSampler.evaluate`) on the interval
   endpoints, so even the float rounding of each sum is mirrored.
3. The mode transfer (:func:`repro.core.compiled._apply_mode_w`) and
   the level-schedule kernel use only ``+``/``max``/floor-clamps, which
   are monotone in IEEE float arithmetic.  Propagating the ``lo`` and
   ``hi`` rows through the *same* kernel a replicate would take
   therefore brackets every replicate's per-rank delay exactly — no
   epsilon, no tolerance.

When the plan carries a :class:`~repro.core.coarsen.CoarseIR` the
interval rows run through :meth:`CompiledPlan._coarse_run` — the phase-
template walk whose contract is "any execution order yields the flat
engine's exact floats" — so bounds are bit-stable across
``--coarsen on/off`` by construction, and million-event stress traces
verify in seconds instead of walking a million flat levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.core.compiled import CompiledPlan, _apply_mode_w
from repro.core.perturb import DeltaSampler
from repro.core.traversal import MODES
from repro.noise.distributions import RandomVariable
from repro.noise.signature import MachineSignature
from repro.verify.intervals import DEFAULT_QUANTILE, Interval, support_interval

__all__ = ["EdgeIntervals", "MakespanBounds", "edge_intervals", "makespan_bounds"]


@dataclass(frozen=True)
class EdgeIntervals:
    """Per-edge raw-delta enclosures (pre mode transfer).

    ``lo``/``hi`` have length ``n_edges``; ``lo_q``/``hi_q`` flag
    endpoints that are quantile-bounded rather than absolute.
    """

    lo: np.ndarray
    hi: np.ndarray
    lo_q: np.ndarray
    hi_q: np.ndarray
    quantile: float

    @property
    def q_bounded_edges(self) -> int:
        return int((self.lo_q | self.hi_q).sum())


@dataclass(frozen=True)
class MakespanBounds:
    """A certified per-rank / makespan delay enclosure.

    ``rank_lo``/``rank_hi`` have length ``nprocs``.  ``q_bounded_edges``
    counts edges whose interval is quantile-bounded: when zero the
    certificate is absolute, otherwise it holds up to ``quantile`` per
    affected draw (see :mod:`repro.verify.intervals`).
    """

    rank_lo: np.ndarray
    rank_hi: np.ndarray
    quantile: float
    q_bounded_edges: int
    sampled_edges: int
    scale: float
    mode: str
    coarse: bool

    @property
    def makespan_lo(self) -> float:
        return float(self.rank_lo.max()) if len(self.rank_lo) else 0.0

    @property
    def makespan_hi(self) -> float:
        return float(self.rank_hi.max()) if len(self.rank_hi) else 0.0

    @property
    def absolute(self) -> bool:
        """True when no endpoint needed the finite-support policy."""
        return self.q_bounded_edges == 0

    def contains(self, samples: np.ndarray) -> np.ndarray:
        """Per-replicate containment of a (R, nprocs) delay matrix.

        NaN rows (skipped replicates under fault policies) count as
        contained — there is nothing to check.
        """
        s = np.asarray(samples, dtype=float)
        if s.ndim != 2 or s.shape[1] != len(self.rank_lo):
            raise ValueError(
                f"samples must be (replicates, {len(self.rank_lo)}), got {s.shape}"
            )
        ok = (s >= self.rank_lo[None, :]) & (s <= self.rank_hi[None, :])
        return np.where(np.isnan(s).any(axis=1), True, ok.all(axis=1))

    def violations(self, samples: np.ndarray) -> list[int]:
        """Replicate indices falling outside the enclosure."""
        return [int(i) for i in np.nonzero(~self.contains(samples))[0]]

    def as_dict(self) -> dict[str, Any]:
        return {
            "makespan_lo": self.makespan_lo,
            "makespan_hi": self.makespan_hi,
            "rank_lo": [float(v) for v in self.rank_lo],
            "rank_hi": [float(v) for v in self.rank_hi],
            "quantile": self.quantile,
            "absolute": self.absolute,
            "q_bounded_edges": self.q_bounded_edges,
            "sampled_edges": self.sampled_edges,
            "scale": self.scale,
            "mode": self.mode,
            "coarse": self.coarse,
        }


def edge_intervals(
    plan: CompiledPlan,
    signature: MachineSignature,
    scale: float = 1.0,
    quantile: float = DEFAULT_QUANTILE,
) -> EdgeIntervals:
    """Raw-delta enclosure per edge: the perturbation recipe
    (:class:`~repro.core.perturb.DeltaSampler`) evaluated with every
    draw replaced by its distribution's support endpoint."""
    recipe = DeltaSampler(signature, plan.cols)
    support: dict[int, Interval] = {}

    def endpoint(side: str) -> Callable[[RandomVariable], float]:
        def value_of(dist: RandomVariable) -> float:
            iv = support.get(id(dist))
            if iv is None:
                iv = support[id(dist)] = support_interval(dist, quantile).clamp_min(0.0)
            return float(getattr(iv, side))

        return value_of

    lo = recipe.evaluate(endpoint("lo"))
    hi = recipe.evaluate(endpoint("hi"))
    loq = recipe.evaluate(endpoint("lo_q")) > 0.0
    hiq = recipe.evaluate(endpoint("hi_q")) > 0.0
    # Global scale last, exactly like the sampler; a negative scale
    # flips every interval and its per-side flags.
    if scale >= 0.0:
        return EdgeIntervals(lo * scale, hi * scale, loq, hiq, quantile)
    return EdgeIntervals(hi * scale, lo * scale, hiq, loq, quantile)


def makespan_bounds(
    plan: CompiledPlan,
    signature: MachineSignature,
    scale: float = 1.0,
    mode: str = "additive",
    quantile: float = DEFAULT_QUANTILE,
) -> MakespanBounds:
    """Propagate the lo/hi interval rows through the compiled schedule.

    Takes the coarse phase-template walk when the plan has one (bit-
    identical to the flat kernel by the ``_coarse_run`` contract), the
    flat level schedule otherwise — so the resulting floats do not
    depend on the ``coarsen`` setting at all.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    with obs.span("verify.bounds", edges=plan.n_edges, quantile=quantile):
        iv = edge_intervals(plan, signature, scale=scale, quantile=quantile)
        raw2 = np.vstack([iv.lo, iv.hi])
        coarse = plan.coarse is not None
        if coarse:
            ir = plan.coarse
            eff_s, _ = _apply_mode_w(
                raw2[:, ir.static_eids], plan.edge_weight[ir.static_eids], mode
            )

            def tmpl_eff(j0: int, j1: int) -> tuple[np.ndarray, np.ndarray]:
                cols = ir.run_edge_ids[j0:j1].reshape(-1)
                return _apply_mode_w(raw2[:, cols], plan.edge_weight[cols], mode)

            delays, _ = plan._coarse_run(2, eff_s, tmpl_eff)
        else:
            eff, _ = plan.apply_mode(raw2, mode)
            delays = plan.finals(plan.kernel(eff))
        return MakespanBounds(
            rank_lo=delays[0].copy(),
            rank_hi=delays[1].copy(),
            quantile=quantile,
            q_bounded_edges=iv.q_bounded_edges,
            sampled_edges=int(len(plan.sampled_ids)),
            scale=scale,
            mode=mode,
            coarse=coarse,
        )
