"""Compiled graph plan: vectorized sampling + replicate-batched propagation.

The perturbation engine is the hot path of every experiment:
``monte_carlo``, sweeps, and ``rank_influence`` all call
:func:`~repro.core.traversal.propagate` once per replicate, re-walking
the Python object graph — an R-replicate analysis does R
interpreter-bound traversals of *identical* topology.  A
:class:`CompiledPlan` lowers a :class:`~repro.core.builder.BuildResult`
once into structure-of-arrays form and then processes **all replicates
simultaneously**:

* a level-ordered node table with CSR in-edge arrays (predecessor
  index, weight, delta-kind code) plus the edges' sampling inputs as
  :class:`~repro.core.perturb.DeltaColumns`;
* sampling through :class:`~repro.core.perturb.DeltaSampler` — the one
  implementation of the per-edge draw contract, which every engine
  shares, so compiled draws equal :meth:`PerturbationSpec.sample` draws
  by construction for every distribution family;
* a propagation kernel carrying a ``(R, n_nodes)`` delay matrix
  through one topological pass (per-node max over in-edges vectorized
  across the replicate axis, both ``additive`` and ``threshold``
  modes).

Observability: the compiled path emits ``compiled.compile``,
``compiled.sample`` and ``compiled.propagate`` spans plus
``compiled.lanes`` (sampled edge x replicate lanes) and
``traversal.propagations`` / ``traversal.clamped_edges`` counters, so
``--profile`` output stays comparable with the reference engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.builder import BuildResult
from repro.core.coarsen import AUTO_MIN_NODES, COARSEN_CHOICES, detect_phases
from repro.core.graph import DeltaKind, EdgeKind
from repro.core.perturb import DeltaColumns, DeltaSampler, PerturbationSpec
from repro.core.traversal import MODES, TraversalResult
from repro.noise.signature import MachineSignature

__all__ = ["CompiledBatch", "CompiledPlan", "compiled_plan"]


# ---------------------------------------------------------------------------
# The compiled plan
# ---------------------------------------------------------------------------


class _Level:
    """One rank of the level schedule: nodes whose in-edges all come from
    earlier levels, so the whole rank is a single vectorized gather+max."""

    __slots__ = ("nodes", "src", "eid", "segs", "sizes", "single")

    def __init__(self, nodes, src, eid, segs, single):
        self.nodes = nodes
        self.src = src
        self.eid = eid
        self.segs = segs
        # In-edges per node in this level (for expanding segment maxima
        # back to the edge axis in the predecessor-tracking kernel).
        self.sizes = np.diff(np.append(segs, len(eid)))
        self.single = single

    def __getstate__(self):
        return {s: getattr(self, s) for s in self.__slots__}

    def __setstate__(self, state):
        for s, v in state.items():
            setattr(self, s, v)


def _apply_mode_w(raw: np.ndarray, w: np.ndarray, mode: str):
    """δ_eff + additive clamp counts for explicit per-column weights.

    Exactly the operations of :meth:`CompiledPlan.apply_mode` (which
    delegates here with the full weight row) — the coarse engine calls
    it with gathered static / per-instance weight slices so both paths
    compute bit-identical effective deltas.
    """
    if mode == "threshold":
        return np.maximum(0.0, raw - w), np.zeros(raw.shape[0], dtype=np.int64)
    mask = raw < -w
    eff = np.where(mask, -w, raw)
    return eff, mask.sum(axis=1).astype(np.int64)


@dataclass(frozen=True)
class CompiledBatch:
    """Replicate-batched propagation output.

    ``delays`` has shape (replicates, nprocs) — row r is exactly
    ``propagate(build, spec_with_seed_r, mode).final_delay``.
    """

    delays: np.ndarray
    clamped: np.ndarray  # (replicates,) per-replicate clamped-edge counts
    mode: str


class CompiledPlan:
    """A BuildResult lowered to structure-of-arrays form (see module doc).

    Compile once (topology is spec-independent), then reuse across
    replicates, sweep points and influence rows.  The plan is picklable
    — :class:`~repro.core.parallel.ProcessPoolBackend` ships these
    compact arrays to workers instead of the Python object graph.
    """

    def __init__(self, build: BuildResult, coarsen: str = "auto"):
        if coarsen not in COARSEN_CHOICES:
            raise ValueError(
                f"coarsen must be one of {COARSEN_CHOICES}, got {coarsen!r}"
            )
        with obs.span("compiled.compile", coarsen=coarsen):
            g = build.graph
            self.nprocs = g.nprocs
            self.n_nodes = len(g.nodes)
            self.n_edges = len(g.edges)
            edges = g.edges
            self.cols = DeltaColumns.from_deltas(
                [e.delta for e in edges], [e.weight for e in edges]
            )
            self.edge_weight = self.cols.weight
            self.edge_kind = self.cols.kind
            self.edge_nbytes = self.cols.nbytes
            self.sampled_ids = np.nonzero(self.edge_kind != int(DeltaKind.NONE))[0]

            # Node/edge attribute columns — the structure-of-arrays substrate
            # that repro.metrics.frames hands out as zero-copy views.
            nodes = g.nodes
            self.node_rank = np.array([n.rank for n in nodes], dtype=np.int64)
            self.node_seq = np.array([n.seq for n in nodes], dtype=np.int64)
            self.node_phase = np.array([int(n.phase) for n in nodes], dtype=np.uint8)
            self.node_kind = np.array([int(n.kind) for n in nodes], dtype=np.uint8)
            self.node_t_local = np.array([n.t_local for n in nodes], dtype=np.float64)
            self.edge_src = np.array([e.src for e in edges], dtype=np.int64)
            self.edge_dst = np.array([e.dst for e in edges], dtype=np.int64)
            self.edge_is_local = np.array(
                [e.kind == EdgeKind.LOCAL for e in edges], dtype=np.bool_
            )

            # Level schedule: level(v) = 1 + max level of predecessors.
            topo = g.topological_order()
            level = [0] * self.n_nodes
            for v in topo:
                ins = g.in_edge_ids(v)
                if ins:
                    level[v] = 1 + max(level[edges[ei].src] for ei in ins)
            by_level: dict[int, list[int]] = {}
            for v, lv in enumerate(level):
                if lv > 0:
                    by_level.setdefault(lv, []).append(v)
            self.levels: list[_Level] = []
            for lv in sorted(by_level):
                nodes = by_level[lv]
                src: list[int] = []
                eid: list[int] = []
                segs: list[int] = []
                for v in nodes:
                    segs.append(len(eid))
                    for ei in g.in_edge_ids(v):
                        src.append(edges[ei].src)
                        eid.append(ei)
                single = len(eid) == len(nodes)
                self.levels.append(
                    _Level(
                        np.array(nodes, dtype=np.int64),
                        np.array(src, dtype=np.int64),
                        np.array(eid, dtype=np.int64),
                        np.array(segs, dtype=np.int64),
                        single,
                    )
                )

            # Final (FINALIZE END) node per rank, rank-chain fallback as in
            # traversal._finals_from_graph; -1 = rank has no nodes at all.
            self.final_node = np.full(self.nprocs, -1, dtype=np.int64)
            self.final_t_local = np.zeros(self.nprocs, dtype=np.float64)
            for rank in range(self.nprocs):
                nid = g.final_node_of(rank)
                if nid is not None:
                    self.final_node[rank] = nid
                    self.final_t_local[rank] = g.nodes[nid].t_local
            # Hierarchical IR: detect the repeated phase and lower it to
            # the two-level coarse plan.  ``auto`` only attempts detection
            # on graphs large enough for the coarse walk to pay off.
            self.coarsen = coarsen
            self.coarse = None
            if coarsen == "on" or (coarsen == "auto" and self.n_nodes >= AUTO_MIN_NODES):
                with obs.span("coarsen.detect", nodes=self.n_nodes):
                    self.coarse = detect_phases(self, g, topo)
                if self.coarse is not None:
                    obs.add("coarsen.applied")
                else:
                    obs.add("coarsen.rejected")

            obs.span_add("compiled.plans")
            self._samplers: list[tuple[MachineSignature, str, DeltaSampler]] = []
            self._tmpl_abs: dict = {}
            self._tap_groups: dict | None = None

    # -- pickling (ship arrays, not caches) -------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_samplers"] = []
        state["_tmpl_abs"] = {}
        state["_tap_groups"] = None
        return state

    # -- sampling ---------------------------------------------------------------
    def bind(self, signature: MachineSignature, region: str = "all") -> DeltaSampler:
        """The sampler for one signature over every edge (``"all"``) or
        the coarse plan's static edges (``"static"``), memoized; signatures
        are compared by identity first, then equality."""
        for sig, reg, sampler in self._samplers:
            if reg == region and (sig is signature or sig == signature):
                return sampler
        cols = self.cols if region == "all" else self.cols.take(self.coarse.static_eids)
        sampler = DeltaSampler(signature, cols)
        self._samplers.append((signature, region, sampler))
        if len(self._samplers) > 8:
            self._samplers.pop(0)
        return sampler

    @staticmethod
    def _draw(sampler: DeltaSampler, seeds: list[int], scale: float) -> np.ndarray:
        with obs.span("compiled.sample", replicates=len(seeds)):
            obs.span_add("compiled.lanes", len(seeds) * sampler.n)
            return sampler.sample(seeds, scale)

    def _sample_run(
        self, signature: MachineSignature, seeds: list[int], scale: float, j0: int, j1: int
    ) -> np.ndarray:
        """(R, (j1-j0) * n_te) deltas of templated instances ``[j0, j1)``,
        instance-major — the same sampler over that edge-id block."""
        ids = self.coarse.run_edge_ids[j0:j1].reshape(-1)
        return self._draw(DeltaSampler(signature, self.cols.take(ids)), seeds, scale)

    def sample_raw_batch(
        self, signature: MachineSignature, seeds: list[int], scale: float = 1.0
    ) -> np.ndarray:
        """(R, n_edges) sampled deltas (already scaled): row r is every
        edge's ``PerturbationSpec(signature, seeds[r], scale).sample``."""
        return self._draw(self.bind(signature), list(seeds), scale)

    # -- mode + kernel ----------------------------------------------------------
    def apply_mode(self, raw: np.ndarray, mode: str):
        """δ_eff per edge (same clamp semantics as ``_DeltaApplier``).

        Returns ``(eff, clamped)``; ``clamped`` counts additive-mode
        zero-floor clamps per replicate."""
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        return _apply_mode_w(raw, self.edge_weight, mode)

    def kernel(self, eff: np.ndarray) -> np.ndarray:
        """One topological pass for all replicates: (R, n_nodes) delays."""
        D = np.zeros((eff.shape[0], self.n_nodes), dtype=np.float64)
        for lv in self.levels:
            contrib = D[:, lv.src] + eff[:, lv.eid]
            if lv.single:
                D[:, lv.nodes] = contrib
            else:
                D[:, lv.nodes] = np.maximum.reduceat(contrib, lv.segs, axis=1)
        return D

    def longest_path(self, eff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Longest weighted path with predecessor tracking, all replicates.

        ``eff`` is an (R, n_edges) per-edge cost matrix; returns
        ``(L, pred)`` of shapes (R, n_nodes): ``L[r, v]`` is the longest
        path cost into ``v`` under row r's costs and ``pred[r, v]`` the
        binding in-edge id (-1 for sources).  Ties break toward the
        *first* in-edge in ``graph.in_edge_ids`` order — the CSR arrays
        are built in exactly that order, so first-position-of-max here
        matches the scalar :func:`~repro.core.traversal.longest_weighted_path`
        bit-for-bit (both compare the same computed float values).
        """
        R = eff.shape[0]
        L = np.zeros((R, self.n_nodes), dtype=np.float64)
        pred = np.full((R, self.n_nodes), -1, dtype=np.int64)
        with obs.span("longest_path", engine="compiled", replicates=R):
            for lv in self.levels:
                contrib = L[:, lv.src] + eff[:, lv.eid]
                if lv.single:
                    L[:, lv.nodes] = contrib
                    pred[:, lv.nodes] = lv.eid[None, :]
                else:
                    M = np.maximum.reduceat(contrib, lv.segs, axis=1)
                    L[:, lv.nodes] = M
                    # First max per segment: mask non-max positions to a
                    # sentinel past the end, then min-reduce positions.
                    ncols = contrib.shape[1]
                    expanded = np.repeat(M, lv.sizes, axis=1)
                    pos = np.where(
                        contrib == expanded,
                        np.arange(ncols, dtype=np.int64)[None, :],
                        ncols,
                    )
                    first = np.minimum.reduceat(pos, lv.segs, axis=1)
                    pred[:, lv.nodes] = lv.eid[first]
        return L, pred

    def finals(self, D: np.ndarray) -> np.ndarray:
        """(R, nprocs) per-rank final delays from a node-delay matrix."""
        out = np.zeros((D.shape[0], self.nprocs), dtype=np.float64)
        have = self.final_node >= 0
        out[:, have] = D[:, self.final_node[have]]
        return out

    # -- coarse (two-level) execution ---------------------------------------------
    def _tmpl_levels_abs(self, phi: int):
        """Template levels materialized for ring frame ``phi``: absolute
        scratch positions for destinations and (lagged or static)
        sources.  Cached per frame — there are only ``L`` variants."""
        got = self._tmpl_abs.get(phi)
        if got is None:
            ir = self.coarse
            got = []
            for lv in ir.tmpl_levels:
                lagged = lv.src_lag >= 0
                slot = (phi - lv.src_lag) % ir.L
                src = np.where(
                    lagged, ir.ring_base + slot * ir.n_t + lv.src_ref, lv.src_ref
                )
                dst = ir.ring_base + phi * ir.n_t + lv.dst
                got.append((dst, src, lv.ecol, lv.segs, lv.single))
            self._tmpl_abs[phi] = got
        return got

    def _instance_taps(self) -> dict:
        """Per-instance tap copies ``{instance: (slots, frame_offsets)}``."""
        if self._tap_groups is None:
            ir = self.coarse
            groups: dict[int, tuple[list, list]] = {}
            for j, (inst, off) in enumerate(
                zip(ir.tap_inst.tolist(), ir.tap_off.tolist())
            ):
                slots, offs = groups.setdefault(int(inst), ([], []))
                slots.append(ir.tap_base + j)
                offs.append(int(off))
            self._tap_groups = {
                i: (np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
                for i, (a, b) in groups.items()
            }
        return self._tap_groups

    def _coarse_run(self, R: int, eff_static: np.ndarray, tmpl_eff, D_full=None):
        """Walk the two-level plan for ``R`` replicate rows.

        ``eff_static`` is the (R, n_static) effective-delta block in
        ``static_eids`` order; ``tmpl_eff(j0, j1)`` returns the
        ``(eff, clamped)`` block for templated instances ``[j0, j1)``.
        Returns ``(final delays (R, nprocs), template clamp counts)``.
        Any execution order yields the flat engine's exact floats: each
        node's value is the max over the identical contrib operand
        pairs, and float max is order-exact.
        """
        ir = self.coarse
        S = np.zeros((R, ir.W), dtype=np.float64)
        for lv in ir.pre_levels:
            contrib = S[:, lv.src] + eff_static[:, lv.ecol]
            if lv.single:
                S[:, lv.dst] = contrib
            else:
                S[:, lv.dst] = np.maximum.reduceat(contrib, lv.segs, axis=1)
        n_t, L, ring = ir.n_t, ir.L, ir.ring_base
        for j in range(ir.fold):
            frame = ring + (j % L) * n_t
            S[:, frame : frame + n_t] = S[:, ir.fold_src_pos[j]]
        if D_full is not None and ir.n_pre:
            D_full[:, ir.pre_node_ids] = S[:, : ir.n_pre]
        taps = self._instance_taps()
        clamp = np.zeros(R, dtype=np.int64)
        zero = ir.zero_offs
        step = max(1, int(12_000_000 // max(1, R * ir.n_te * 3)))
        for j0 in range(0, ir.m_run, step):
            j1 = min(ir.m_run, j0 + step)
            eff_c, nclamp_c = tmpl_eff(j0, j1)
            clamp += nclamp_c
            for j in range(j0, j1):
                i = ir.fold + j
                phi = i % L
                frame = ring + phi * n_t
                if len(zero):
                    S[:, frame + zero] = 0.0
                off = (j - j0) * ir.n_te
                for dst, src, ecol, segs, single in self._tmpl_levels_abs(phi):
                    contrib = S[:, src] + eff_c[:, off + ecol]
                    if single:
                        S[:, dst] = contrib
                    else:
                        S[:, dst] = np.maximum.reduceat(contrib, segs, axis=1)
                tp = taps.get(i)
                if tp is not None:
                    S[:, tp[0]] = S[:, frame + tp[1]]
                if D_full is not None:
                    D_full[:, ir.run_node_ids[i]] = S[:, frame : frame + n_t]
        for lv in ir.post_levels:
            contrib = S[:, lv.src] + eff_static[:, lv.ecol]
            if lv.single:
                S[:, lv.dst] = contrib
            else:
                S[:, lv.dst] = np.maximum.reduceat(contrib, lv.segs, axis=1)
        if D_full is not None and ir.n_post:
            D_full[:, ir.post_node_ids] = S[:, ir.post_base : ir.post_base + ir.n_post]
        delays = np.zeros((R, self.nprocs), dtype=np.float64)
        have = ir.final_pos >= 0
        if have.any():
            delays[:, have] = S[:, ir.final_pos[have]]
        return delays, clamp

    def _coarse_batch(self, spec: PerturbationSpec, seeds: list[int], mode: str):
        """Coarse-path ``propagate_batch``: the static region and each
        chunk of templated instances are sampled and transferred on
        demand, so no (R, n_edges) matrix is ever allocated."""
        static_s = self.bind(spec.signature, "static")
        ir = self.coarse
        R = len(seeds)
        delays = np.empty((R, self.nprocs), dtype=np.float64)
        clamped = np.empty(R, dtype=np.int64)
        w_static = self.edge_weight[ir.static_eids]
        step = max(1, min(R, 12_000_000 // max(1, ir.W + 4 * ir.n_te)))
        for lo in range(0, R, step):
            chunk = seeds[lo : lo + step]
            Rc = len(chunk)
            raw_s = self._draw(static_s, chunk, spec.scale)
            eff_s, nclamp = _apply_mode_w(raw_s, w_static, mode)

            def tmpl_eff(j0, j1, _chunk=chunk):
                raw_t = self._sample_run(spec.signature, _chunk, spec.scale, j0, j1)
                w = self.edge_weight[ir.run_edge_ids[j0:j1]].reshape(-1)
                return _apply_mode_w(raw_t, w, mode)

            with obs.span("compiled.propagate", replicates=Rc, mode=mode, coarse=True):
                d, cl = self._coarse_run(Rc, eff_s, tmpl_eff)
                nclamp = nclamp + cl
                obs.span_add("traversal.propagations", Rc)
                if nclamp.any():
                    obs.span_add("traversal.clamped_edges", int(nclamp.sum()))
            delays[lo : lo + step] = d
            clamped[lo : lo + step] = nclamp
        return CompiledBatch(delays=delays, clamped=clamped, mode=mode)

    def _coarse_presampled(
        self, raw_base: np.ndarray, scales: list[float], mode: str
    ) -> CompiledBatch:
        """Coarse-path ``propagate_presampled_batch``: effective deltas
        are gathered per region from the single pre-sampled row, so no
        (R, n_edges) scratch is ever allocated."""
        ir = self.coarse
        scales_arr = np.asarray(scales, dtype=np.float64)
        R = len(scales_arr)
        with obs.span("compiled.propagate", replicates=R, mode=mode, coarse=True):
            eff_s, nclamp = _apply_mode_w(
                raw_base[ir.static_eids][None, :] * scales_arr[:, None],
                self.edge_weight[ir.static_eids],
                mode,
            )

            def tmpl_eff(j0, j1):
                cols = ir.run_edge_ids[j0:j1].reshape(-1)
                return _apply_mode_w(
                    raw_base[cols][None, :] * scales_arr[:, None],
                    self.edge_weight[cols],
                    mode,
                )

            delays, cl = self._coarse_run(R, eff_s, tmpl_eff)
            nclamp = nclamp + cl
            obs.span_add("traversal.propagations", R)
            if nclamp.any():
                obs.span_add("traversal.clamped_edges", int(nclamp.sum()))
        return CompiledBatch(delays=delays, clamped=nclamp, mode=mode)

    # -- high-level entry points --------------------------------------------------
    def _batch_size(self, replicates: int) -> int:
        """Bound (R, n_nodes)+(R, n_edges) scratch to ~100 MB per batch."""
        per_rep = max(1, self.n_nodes + 3 * self.n_edges)
        return max(1, min(replicates, 12_000_000 // per_rep))

    def propagate_batch(
        self,
        spec: PerturbationSpec,
        seeds: list[int] | None = None,
        mode: str = "additive",
    ) -> CompiledBatch:
        """Batched equivalent of ``propagate`` over per-replicate seeds.

        Row r uses ``PerturbationSpec(spec.signature, seed=seeds[r],
        scale=spec.scale)`` — the exact Monte-Carlo replicate schedule.
        ``seeds`` defaults to ``[spec.seed]``.
        """
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        seeds = [spec.seed] if seeds is None else list(seeds)
        if self.coarse is not None:
            return self._coarse_batch(spec, seeds, mode)
        R = len(seeds)
        delays = np.empty((R, self.nprocs), dtype=np.float64)
        clamped = np.empty(R, dtype=np.int64)
        step = self._batch_size(R)
        for lo in range(0, R, step):
            chunk = seeds[lo : lo + step]
            raw = self.sample_raw_batch(spec.signature, chunk, spec.scale)
            with obs.span("compiled.propagate", replicates=len(chunk), mode=mode):
                eff, nclamp = self.apply_mode(raw, mode)
                delays[lo : lo + step] = self.finals(self.kernel(eff))
                clamped[lo : lo + step] = nclamp
                obs.span_add("traversal.propagations", len(chunk))
                if nclamp.any():
                    obs.span_add("traversal.clamped_edges", int(nclamp.sum()))
        return CompiledBatch(delays=delays, clamped=clamped, mode=mode)

    def propagate_presampled_batch(
        self, raw_base: np.ndarray, scales: list[float], mode: str = "additive"
    ) -> CompiledBatch:
        """Propagate one pre-sampled raw row at many scales (sweep fast
        path): row i of the result uses ``raw_base * scales[i]``."""
        if raw_base.shape != (self.n_edges,):
            raise ValueError(
                f"raw_base length {raw_base.shape} does not match {self.n_edges} edges"
            )
        if self.coarse is not None:
            return self._coarse_presampled(raw_base, scales, mode)
        raw = raw_base[None, :] * np.asarray(scales, dtype=np.float64)[:, None]
        with obs.span("compiled.propagate", replicates=len(scales), mode=mode):
            eff, nclamp = self.apply_mode(raw, mode)
            delays = self.finals(self.kernel(eff))
            obs.span_add("traversal.propagations", len(scales))
            if nclamp.any():
                obs.span_add("traversal.clamped_edges", int(nclamp.sum()))
        return CompiledBatch(delays=delays, clamped=nclamp, mode=mode)

    def propagate_one(self, spec: PerturbationSpec, mode: str = "additive") -> TraversalResult:
        """Drop-in ``propagate`` replacement (single spec/seed) with the
        in-core extras (node delays, edge deltas) populated."""
        raw = self.sample_raw_batch(spec.signature, [spec.seed], spec.scale)
        with obs.span("compiled.propagate", replicates=1, mode=mode):
            eff, nclamp = self.apply_mode(raw, mode)
            if self.coarse is not None:
                ir = self.coarse
                D = np.zeros((1, self.n_nodes), dtype=np.float64)
                self._coarse_run(
                    1,
                    eff[:, ir.static_eids],
                    lambda j0, j1: (
                        eff[:, ir.run_edge_ids[j0:j1].reshape(-1)],
                        np.zeros(1, dtype=np.int64),
                    ),
                    D_full=D,
                )
            else:
                D = self.kernel(eff)
            delays = self.finals(D)[0]
            have = self.final_node >= 0
            times = np.where(have, self.final_t_local + delays, 0.0)
            obs.span_add("traversal.propagations")
            if nclamp[0]:
                obs.span_add("traversal.clamped_edges", int(nclamp[0]))
        return TraversalResult(
            final_delay=delays.tolist(),
            final_local_times=times.tolist(),
            mode=mode,
            clamped_edges=int(nclamp[0]),
            node_delay=D[0].tolist(),
            edge_delta=eff[0].tolist(),
        )


def compiled_plan(
    build: BuildResult, coarsen: str = "auto", checkpoint=None
) -> CompiledPlan:
    """The (cached) compiled plan for a build — compile once, reuse.

    Plans are memoized on the build per ``coarsen`` policy.  When a
    ``CheckpointStore`` is passed, compiled plans are additionally
    persisted on disk keyed by the build digest, so repeated CLI runs
    and pool workers skip recompilation entirely.

    Concurrent callers sharing one ``build`` (daemon requests that
    coalesced on the same trace) are serialized on a per-build lock, so
    exactly one thread compiles and the rest reuse its plan — the
    memoized dict alone would let two threads race past the ``get`` and
    both pay the compile.
    """
    if coarsen not in COARSEN_CHOICES:
        raise ValueError(f"coarsen must be one of {COARSEN_CHOICES}, got {coarsen!r}")
    import threading

    # dict.setdefault is atomic under the GIL, so all racers agree on
    # one lock object (and one plans dict) for this build.
    lock = build.__dict__.setdefault("_compiled_plans_lock", threading.Lock())
    plans = build.__dict__.setdefault("_compiled_plans", {})
    with lock:
        plan = plans.get(coarsen)
        if plan is None:
            if checkpoint is not None:
                from repro.core.checkpoint import load_plan

                plan = load_plan(checkpoint, build, coarsen)
            if plan is None:
                plan = CompiledPlan(build, coarsen=coarsen)
                if checkpoint is not None:
                    from repro.core.checkpoint import save_plan

                    save_plan(checkpoint, build, coarsen, plan)
            plans[coarsen] = plan
        return plan
