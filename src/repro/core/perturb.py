"""Perturbation sampling for graph edges (§5, §6).

A :class:`PerturbationSpec` binds a machine signature (the distributions
measured by microbenchmarks) to the edge-delta classes of the graph
(:class:`repro.core.graph.DeltaKind`) and samples concrete δ values.

The sampling contract
---------------------

Every edge carries a ``uid`` (assigned by the subgraph templates), and
its delta is a fixed *recipe* of primitive draws (:data:`_RECIPE`:
δ_λ, δ_t(d), δ_os terms per delta kind).  Draw ``j`` of an edge is a
pure function of ``(seed, kind, *uid, j)``::

    h = mix(seed, kind, *uid, j)             # chained splitmix64
    u = ((splitmix64(h) >> 12) + 0.5) * 2**-52   # strictly inside (0, 1)
    value = dist.ppf(u)                      # the family's inverse CDF

clamped at zero and multiplied by ``nbytes`` for δ_t terms, then summed
in recipe order and multiplied by the spec's ``scale``.  The only
implementation is :class:`DeltaSampler`, which evaluates the recipe for
a block of edges (structure-of-arrays :class:`DeltaColumns`) and any
number of seeds at once.  Every traversal calls it — the scalar
oracle :func:`~repro.core.traversal.propagate` through
:meth:`PerturbationSpec.sample_many`, the streaming
traversal edge by edge through :meth:`PerturbationSpec.sample` (a
one-edge sampler, :meth:`DeltaSampler.sample_lane`), the compiled plan
over its edge columns — so they agree bit for bit *by construction*:

* the same value for the same edge regardless of visit order, engine,
  batch shape or process, so scalar, streaming and compiled results
  are identical (the ABL2 experiment's invariant);
* re-running an analysis with the same seed reproduces it exactly, which
  the experiment history (§7 future work) relies on.

``scale`` multiplies every sampled delta — the "varying degrees of
noise" ladders of §6 are driven by one measured signature plus a scale
sweep.  Negative scales model the paper's future-work question of
*reduced* noise (§7); the traversal clamps effective edge weights at
zero to preserve ordering (§4.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.graph import DeltaKind, DeltaSpec
from repro.noise.distributions import Constant, RandomVariable
from repro.noise.signature import MachineSignature

__all__ = ["DeltaColumns", "DeltaSampler", "PerturbationSpec"]

_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF
_FNV_SEED = 0x811C9DC5
_U_STEP = 2.0**-52
_SM_ADD, _SM_MUL1, _SM_MUL2 = (
    _U64(0x9E3779B97F4A7C15),
    _U64(0xBF58476D1CE4E5B9),
    _U64(0x94D049BB133111EB),
)
_S12, _S27, _S30, _S31 = _U64(12), _U64(27), _U64(30), _U64(31)

#: Elements of (replicate x draw) scratch per sampling block.
_BLOCK_ELEMS = 4_000_000


# ---------------------------------------------------------------------------
# Counter-based uniforms
# ---------------------------------------------------------------------------


def _splitmix64_into(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """In-place splitmix64 finalizer on uint64 ``x`` (returned), with
    ``t`` as same-shape scratch."""
    x += _SM_ADD
    np.right_shift(x, _S30, out=t)
    x ^= t
    x *= _SM_MUL1
    np.right_shift(x, _S27, out=t)
    x ^= t
    x *= _SM_MUL2
    np.right_shift(x, _S31, out=t)
    x ^= t
    return x


def splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 of every element of a uint64 array (a copy)."""
    x = np.array(x, dtype=_U64)
    return _splitmix64_into(x, np.empty_like(x))


def _splitmix64_int(x: int) -> int:
    """splitmix64 of one Python int (the same permutation, exactly)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def lane_keys(
    seeds: np.ndarray, kind: np.ndarray, uid: np.ndarray, uid_len: np.ndarray
) -> np.ndarray:
    """``mix(seed, kind, *uid)`` for every (seed, lane): shape (R, n).

    ``mix`` chains ``h = splitmix64(h ^ v)`` from the FNV offset over
    its arguments; lane i uses the first ``uid_len[i]`` uid columns.
    """
    t = np.empty(len(seeds), dtype=_U64)
    h0 = _splitmix64_into(np.asarray(seeds, dtype=_U64) ^ _U64(_FNV_SEED), t)
    h = h0[:, None] ^ kind.astype(_U64)[None, :]
    t = np.empty_like(h)
    _splitmix64_into(h, t)
    for j in range(uid.shape[1]):
        cols = uid_len > j
        if cols.all():
            h ^= uid[None, :, j]
            _splitmix64_into(h, t)
        elif cols.any():
            h[:, cols] = splitmix64(h[:, cols] ^ uid[cols, j][None, :])
    return h


def draw_uniforms(keys: np.ndarray, draw_idx: np.ndarray) -> np.ndarray:
    """Uniform draw ``draw_idx`` of each lane key: ``u`` on the grid
    ``(k + 0.5) * 2**-52`` (k a 52-bit integer), i.e. exactly
    representable and inside [2**-53, 1 - 2**-53]."""
    h = keys ^ draw_idx
    t = np.empty_like(h)
    _splitmix64_into(h, t)
    _splitmix64_into(h, t)
    h >>= _S12
    u = h.astype(np.float64)
    u += 0.5
    u *= _U_STEP
    return u


# ---------------------------------------------------------------------------
# The recipe: DeltaKind -> ordered primitive draws
# ---------------------------------------------------------------------------

# Draw terms: δ_os(rank), δ_λ(src→dst), δ_t = nbytes · per-byte draw,
# δ_λ(dst→src).
_OS, _LAT, _PB, _BACK = range(4)

#: One round of draws per delta kind, in summation order.  δ_t terms
#: are dropped when the edge carries no bytes.  OS edges repeat their
#: round ``signature.os_draws(weight)`` times (interval-scaled
#: extension); COLL_FANIN repeats it ``rounds`` times (Fig. 4's l_δ).
_RECIPE = {
    DeltaKind.OS: (_OS,),
    DeltaKind.LATENCY: (_LAT,),
    DeltaKind.TRANSFER: (_LAT, _PB),
    # Fig. 2 data path: δ_λ1 + δ_t(d) + δ_os2 (Eq. 1, second line).
    DeltaKind.TRANSFER_OS: (_LAT, _PB, _OS),
    # Rendezvous completion against a posted nonblocking receive:
    # λ(src→dst) + δ_t(d) + δ_os(dst) + λ(dst→src).
    DeltaKind.ROUNDTRIP: (_LAT, _PB, _OS, _BACK),
    DeltaKind.COLL_FANIN: (_OS, _LAT, _PB),
}


def _pattern_table() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Padded round patterns indexed by ``pattern[kind, has_bytes]``."""
    rounds: list[tuple[int, ...]] = [()]
    index = np.zeros((max(DeltaKind) + 1, 2), dtype=np.int8)
    for kind, terms in _RECIPE.items():
        for has_bytes in (0, 1):
            index[kind, has_bytes] = len(rounds)
            rounds.append(tuple(t for t in terms if has_bytes or t != _PB))
    width = max(len(r) for r in rounds)
    table = np.full((len(rounds), width), -1, dtype=np.int8)
    for i, r in enumerate(rounds):
        table[i, : len(r)] = r
    return index, table, np.array([len(r) for r in rounds], dtype=np.int8)


_PATTERN_OF, _PATTERNS, _PATTERN_LEN = _pattern_table()


@dataclass(frozen=True)
class DeltaColumns:
    """A block of edges' sampling inputs as structure-of-arrays.

    ``kind`` holds DeltaKind codes, ``weight`` the observed durations
    (OS draw multiplicity), ``uid`` the premasked uint64 uid rows with
    ``uid_len`` used columns each.
    """

    kind: np.ndarray
    rank: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    nbytes: np.ndarray
    rounds: np.ndarray
    weight: np.ndarray
    uid: np.ndarray
    uid_len: np.ndarray

    @classmethod
    def from_deltas(
        cls, deltas: Sequence[DeltaSpec], weights: Sequence[float]
    ) -> "DeltaColumns":
        n = len(deltas)

        def col(field: str) -> np.ndarray:
            return np.fromiter((getattr(d, field) for d in deltas), dtype=np.int64, count=n)

        kind = np.fromiter((int(d.kind) for d in deltas), dtype=np.uint8, count=n)
        uid_len = np.fromiter((len(d.uid) for d in deltas), dtype=np.int64, count=n)
        uid = np.zeros((n, int(uid_len.max(initial=0))), dtype=_U64)
        for i, d in enumerate(deltas):
            if d.uid:
                uid[i, : len(d.uid)] = [v & _MASK64 for v in d.uid]
        return cls(
            kind=kind,
            rank=col("rank"),
            src=col("src"),
            dst=col("dst"),
            nbytes=col("nbytes"),
            rounds=col("rounds"),
            weight=np.asarray(weights, dtype=np.float64).reshape(n),
            uid=uid,
            uid_len=uid_len,
        )

    def take(self, ids: np.ndarray) -> "DeltaColumns":
        """The sub-block of edges ``ids`` (in that order)."""
        return DeltaColumns(
            *(getattr(self, f)[ids] for f in self.__dataclass_fields__)
        )

    def __len__(self) -> int:
        return len(self.kind)


def _lookup(keys: np.ndarray, table: dict[int, int], default: int) -> np.ndarray:
    """``table.get(key, default)`` over an int64 key array."""
    out = np.full(len(keys), default, dtype=np.int64)
    if table:
        known = np.array(sorted(table), dtype=np.int64)
        pos = np.minimum(np.searchsorted(known, keys), len(known) - 1)
        hit = known[pos] == keys
        out[hit] = np.array([table[int(k)] for k in known], dtype=np.int64)[pos[hit]]
    return out


#: Directed link (src, dst) -> one int64 key: src * _LINK + dst.
_LINK = 1 << 32


class DeltaSampler:
    """One signature's draw recipe over a block of edges.

    Construction lays the recipe out as a flat *term* table in
    position-major order — all lanes' draw 0, then all lanes' draw 1, … —
    with lanes sorted by descending term count, so the lanes still
    drawing at position ``j`` are a prefix.  :meth:`sample` evaluates
    every term vectorized over (seed, term), then sums each lane's
    terms in recipe order by adding one position at a time: plain
    elementwise float adds, so a value never depends on how many seeds
    or edges share the call.
    """

    def __init__(self, signature: MachineSignature, cols: DeltaColumns) -> None:
        self.n = len(cols)
        kind = cols.kind.astype(np.int64)
        no_uid = (kind != int(DeltaKind.NONE)) & (cols.uid_len == 0)
        if no_uid.any():
            i = int(np.nonzero(no_uid)[0][0])
            raise ValueError(
                f"edge {i} ({DeltaKind(kind[i]).name}) has no uid; "
                "cannot sample deterministically"
            )
        pattern = _PATTERN_OF[kind, (cols.nbytes > 0).astype(np.int64)]
        repeats = np.ones(self.n, dtype=np.int64)
        is_os = kind == int(DeltaKind.OS)
        if signature.os_quantum > 0.0:
            w = cols.weight[is_os]
            k = np.where(w <= 0.0, 1.0, np.maximum(1.0, np.ceil(w / signature.os_quantum)))
            repeats[is_os] = k.astype(np.int64)
        fanin = kind == int(DeltaKind.COLL_FANIN)
        repeats[fanin] = cols.rounds[fanin]
        n_terms = _PATTERN_LEN[pattern] * repeats

        order = np.argsort(-n_terms, kind="stable")
        order = order[n_terms[order] > 0]
        self.order = order
        n_sorted = n_terms[order]
        max_terms = int(n_sorted[0]) if len(order) else 0
        # cnt[j]: lanes with a draw at position j (a prefix of ``order``).
        self.cnt = np.searchsorted(-n_sorted, -np.arange(max_terms), side="left")
        T = int(self.cnt.sum())
        self.n_terms = T
        # Term tables use the narrowest dtypes that hold them: a block can
        # carry many draws per edge (interval-scaled OS noise).
        pos = np.repeat(np.arange(max_terms, dtype=np.int32), self.cnt)
        starts = np.cumsum(self.cnt) - self.cnt
        lane = np.arange(T, dtype=np.int64) - np.repeat(starts, self.cnt)
        lane_pat = pattern[order][lane]
        term = _PATTERNS[lane_pat, pos % _PATTERN_LEN[lane_pat]]
        del lane_pat

        # Distribution of every term: the distinct dists of this block.
        dists: list[RandomVariable] = []
        ids: dict[RandomVariable, int] = {}

        def dist_id(dist: RandomVariable) -> int:
            if dist not in ids:
                ids[dist] = len(dists)
                dists.append(dist)
            return ids[dist]

        rank, src, dst = cols.rank[order], cols.src[order], cols.dst[order]
        os_ids = {r: dist_id(d) for r, d in signature.os_noise_by_rank.items()}
        links = {s * _LINK + d: dist_id(v) for (s, d), v in signature.latency_by_link.items()}
        by_term = np.stack(
            [
                _lookup(rank, os_ids, dist_id(signature.os_noise)),
                _lookup(src * _LINK + dst, links, dist_id(signature.latency)),
                np.full(len(order), dist_id(signature.per_byte)),
                _lookup(dst * _LINK + src, links, dist_id(signature.latency)),
            ]
        )
        term_dist = by_term.astype(np.int32)[term, lane]
        is_pb = term == _PB
        del term
        self.factor: np.ndarray | None = None
        if is_pb.any():
            self.factor = np.ones(T)
            self.factor[is_pb] = cols.nbytes[order][lane[is_pb]]
        del is_pb

        by_dist = np.argsort(term_dist, kind="stable")
        splits = np.cumsum(np.bincount(term_dist, minlength=len(dists)))[:-1]
        del term_dist
        self.groups: list[tuple[RandomVariable, np.ndarray, np.ndarray, np.ndarray]] = []
        for d, idx in zip(dists, np.split(by_dist, splits)):
            if len(idx):
                self.groups.append((d, idx, lane[idx], pos[idx].astype(_U64)))
        self.hashed = any(not isinstance(d, Constant) for d, *_ in self.groups)
        # sample_lane's per-seed state: (seed, key prefix, terms, factors).
        self._lane: tuple[int, int, list[Any], list[float]] | None = None
        self.kind = cols.kind[order]
        self.uid = cols.uid[order]
        self.uid_len = cols.uid_len[order]

    def _sums(self, V: np.ndarray, scale: float) -> np.ndarray:
        """Clamp an (R, n_terms) matrix of draws at zero, apply the δ_t
        byte factors, sum each edge's terms in recipe order and scale:
        an (R, n) matrix, exactly 0.0 for edges without draws."""
        np.maximum(V, 0.0, out=V)
        if self.factor is not None:
            V *= self.factor
        acc = np.zeros((V.shape[0], len(self.order)), dtype=np.float64)
        s = 0
        for c in self.cnt.tolist():
            acc[:, :c] += V[:, s : s + c]
            s += c
        out = np.zeros((V.shape[0], self.n), dtype=np.float64)
        out[:, self.order] = acc * scale
        return out

    def sample(self, seeds: Sequence[int], scale: float = 1.0) -> np.ndarray:
        """(len(seeds), n) deltas: row r is every edge's δ under
        ``PerturbationSpec(signature, seed=seeds[r], scale=scale)``."""
        R = len(seeds)
        if not self.n_terms:
            return np.zeros((R, self.n), dtype=np.float64)
        out = np.empty((R, self.n), dtype=np.float64)
        seeds_u64 = np.array([s & _MASK64 for s in seeds], dtype=_U64)
        step = max(1, _BLOCK_ELEMS // (self.n_terms + len(self.order)))
        for r0 in range(0, R, step):
            block = seeds_u64[r0 : r0 + step]
            keys = lane_keys(block, self.kind, self.uid, self.uid_len) if self.hashed else None
            V = np.empty((len(block), self.n_terms), dtype=np.float64)
            for dist, idx, lane, pos in self.groups:
                if keys is None or isinstance(dist, Constant):
                    V[:, idx] = dist.ppf(np.full((len(block), len(idx)), 0.5))
                else:
                    V[:, idx] = dist.ppf(draw_uniforms(keys[:, lane], pos))
            out[r0 : r0 + step] = self._sums(V, scale)
        return out

    def sample_lane(self, seed: int, uid: Sequence[int], scale: float) -> float:
        """The δ of a one-edge sampler's edge, re-keyed to ``uid``.

        The same draws as :meth:`sample` at a fraction of its numpy
        dispatch cost, for engines that visit edges one at a time: the
        key hashing runs on Python ints (exact, like the uint64 array
        ops), each distribution's ``ppf`` runs on an array of its draws,
        and the clamp / byte factor / recipe-order sum are the same
        IEEE-754 operations on Python floats.
        """
        if not self.n_terms:
            return 0.0
        if self._lane is None or self._lane[0] != seed:
            h = _splitmix64_int(_FNV_SEED ^ (seed & _MASK64))
            prefix = _splitmix64_int(h ^ int(self.kind[0]))
            terms = [
                (
                    dist,
                    idx.tolist(),
                    pos.tolist(),
                    dist.ppf(np.full(1, 0.5)).tolist()[0] if isinstance(dist, Constant) else None,
                )
                for dist, idx, _, pos in self.groups
            ]
            factor = [1.0] * self.n_terms if self.factor is None else self.factor.tolist()
            self._lane = (seed, prefix, terms, factor)
        _, h, terms, factor = self._lane
        for part in uid:
            h = _splitmix64_int(h ^ (part & _MASK64))
        values = [0.0] * self.n_terms
        for dist, idx, pos, const in terms:
            if const is None:
                u = [((_splitmix64_int(_splitmix64_int(h ^ j)) >> 12) + 0.5) * _U_STEP for j in pos]
                for i, value in zip(idx, dist.ppf(np.array(u)).tolist()):
                    values[i] = value
            else:
                for i in idx:
                    values[i] = const
        total = 0.0
        for v, f in zip(values, factor):
            total += max(v, 0.0) * f
        return total * scale

    def evaluate(self, value_of: Callable[[RandomVariable], float]) -> np.ndarray:
        """Per-edge recipe sums with every draw from ``dist`` replaced by
        ``value_of(dist)`` — clamped, byte-scaled and summed exactly like
        a draw, so a bound on every draw bounds the sum (unscaled)."""
        V = np.empty((1, self.n_terms), dtype=np.float64)
        for dist, idx, *_ in self.groups:
            V[:, idx] = value_of(dist)
        return self._sums(V, 1.0)[0]


@dataclass(frozen=True)
class PerturbationSpec:
    """Sampling policy: signature + seed + global scale.

    Parameters
    ----------
    signature:
        The platform's distributions (δ_os, δ_λ, per-byte δ_t).
    seed:
        Base seed for deterministic per-edge draws.
    scale:
        Multiplier applied to every sampled delta (may be negative for
        speedup exploration; see module docstring).
    """

    signature: MachineSignature
    seed: int = 0
    scale: float = 1.0

    def __post_init__(self) -> None:
        # One-edge samplers by edge shape (everything but the uid that
        # the recipe depends on), so an engine visiting edges one at a
        # time lays each recipe out once.
        object.__setattr__(self, "_lanes", {})

    def __getstate__(self) -> dict[str, object]:
        return {**self.__dict__, "_lanes": {}}

    def sample(self, delta: DeltaSpec, weight: float = 0.0) -> float:
        """Draw the δ for one edge (0.0 for ``DeltaKind.NONE``).

        ``weight`` is the edge's observed duration; it matters only for
        OS edges under the interval-scaled extension (one draw per
        ``signature.os_quantum`` of duration, DESIGN.md §4) and is
        ignored in the paper's per-edge model.
        """
        kind = delta.kind
        if kind == DeltaKind.NONE:
            return 0.0
        sig = self.signature
        draws = sig.os_draws(weight) if kind == DeltaKind.OS else 1
        # The recipe depends on the endpoints only through the
        # distributions they select.
        shape = (
            int(kind),
            delta.nbytes,
            delta.rounds,
            draws,
            id(sig.os_noise_for(delta.rank)),
            id(sig.latency_for(delta.src, delta.dst)),
            id(sig.latency_for(delta.dst, delta.src)),
        )
        lanes: dict[tuple[int, ...], DeltaSampler] = self.__dict__["_lanes"]
        lane = lanes.get(shape)
        if lane is None or not delta.uid:
            lane = DeltaSampler(self.signature, DeltaColumns.from_deltas([delta], [weight]))
            if len(lanes) >= 4096:
                lanes.clear()
            lanes[shape] = lane
        return lane.sample_lane(self.seed, delta.uid, self.scale)

    def sample_many(self, deltas: Sequence[DeltaSpec], weights: Sequence[float]) -> np.ndarray:
        """:meth:`sample` for a block of edges in one vectorized call."""
        cols = DeltaColumns.from_deltas(deltas, weights)
        return DeltaSampler(self.signature, cols).sample([self.seed], self.scale)[0]

    def scaled(self, scale: float) -> "PerturbationSpec":
        """Same signature/seed with a different global scale (sweeps)."""
        return PerturbationSpec(self.signature, self.seed, scale)

    def expected(self, delta: DeltaSpec, weight: float = 0.0) -> float:
        """Analytic expectation of the edge's delta (for model checks)."""
        kind = delta.kind
        sig = self.signature
        if kind == DeltaKind.NONE:
            return 0.0
        if kind == DeltaKind.OS:
            base = sig.os_noise_for(delta.rank).mean() * sig.os_draws(weight)
        elif kind == DeltaKind.LATENCY:
            base = sig.latency_for(delta.src, delta.dst).mean()
        elif kind == DeltaKind.TRANSFER:
            base = sig.latency_for(delta.src, delta.dst).mean() + sig.per_byte.mean() * delta.nbytes
        elif kind == DeltaKind.TRANSFER_OS:
            base = (
                sig.latency_for(delta.src, delta.dst).mean()
                + sig.per_byte.mean() * delta.nbytes
                + sig.os_noise_for(delta.rank).mean()
            )
        elif kind == DeltaKind.ROUNDTRIP:
            base = (
                sig.latency_for(delta.src, delta.dst).mean()
                + sig.per_byte.mean() * delta.nbytes
                + sig.os_noise_for(delta.rank).mean()
                + sig.latency_for(delta.dst, delta.src).mean()
            )
        elif kind == DeltaKind.COLL_FANIN:
            per_round = (
                sig.os_noise_for(delta.rank).mean()
                + sig.latency_for(delta.src, delta.dst).mean()
                + (sig.per_byte.mean() * delta.nbytes if delta.nbytes else 0.0)
            )
            base = per_round * delta.rounds
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown delta kind {kind!r}")
        return base * self.scale
