"""Trace-set → message-passing graph construction (§4, §4.2).

The builder loads per-rank events, matches them by execution order
(:mod:`repro.core.matching`), and materializes the subgraph templates of
:mod:`repro.core.primitives` into an in-core
:class:`~repro.core.graph.MessagePassingGraph`.

For traces that do not fit in memory, use the windowed streaming
traversal (:class:`repro.core.traversal.StreamingTraversal`) instead —
it consumes the same templates without ever materializing the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro import obs
from repro.core.diagnostics import AnalysisWarning
from repro.core.graph import EdgeKind, MessagePassingGraph, Phase
from repro.core.matching import MatchResult, match_events
from repro.core.primitives import (
    BuildConfig,
    EdgeT,
    collective_edges,
    gap_edge,
    intra_event_edge,
    transfer_edges,
)
from repro.trace.events import EventKind, EventRecord

__all__ = ["BuildConfig", "BuildResult", "build_graph"]


@dataclass
class BuildResult:
    """Graph plus the match metadata used to build it.

    ``warnings`` carries structured :class:`~repro.core.diagnostics.
    AnalysisWarning` objects for anomalies found while matching (e.g.
    nonblocking requests whose completion was never observed) — the
    §4.3 cases the tool must flag rather than silently mis-model.
    """

    graph: MessagePassingGraph
    match: MatchResult
    events: list  # per-rank event lists (kept for analysis/export)
    config: BuildConfig
    warnings: list = field(default_factory=list)

    def __getstate__(self) -> dict:
        # Derived caches ride __dict__ (checkpoint digest, compiled-plan
        # memo); the per-build compile lock (repro.core.compiled) is not
        # picklable and is process-local by nature — drop it so builds
        # still cross the pool boundary.
        state = dict(self.__dict__)
        state.pop("_compiled_plans_lock", None)
        return state


def _match_warnings(match: MatchResult, per_rank: list) -> list[AnalysisWarning]:
    """Structured §4.3 warnings for unanchored nonblocking requests."""
    out: list[AnalysisWarning] = []
    for rank, seq in match.uncompleted:
        ev = per_rank[rank][seq]
        if ev.kind == EventKind.ISEND:
            out.append(
                AnalysisWarning(
                    f"rank {rank} event #{seq}: ISEND to {ev.peer} (tag {ev.tag}) never "
                    f"completed — sender-side delays from this transfer are not modeled; "
                    f"correctness of arbitrary perturbations cannot be guaranteed (§4.3)",
                    code="uncompleted-isend",
                    rank=rank,
                    seq=seq,
                )
            )
        else:
            out.append(
                AnalysisWarning(
                    f"rank {rank} event #{seq}: IRECV from {ev.peer} (tag {ev.tag}) never "
                    f"completed — incoming delays from this transfer are dropped (§4.3)",
                    code="uncompleted-irecv",
                    rank=rank,
                    seq=seq,
                )
            )
    return out


class _EndpointResolver:
    """Map template endpoint descriptors to node ids, creating virtual
    nodes (hubs, butterfly rounds) on demand."""

    def __init__(self, graph: MessagePassingGraph):
        self.graph = graph
        self._virtual: dict[tuple, int] = {}

    def __call__(self, ep: tuple) -> int:
        if ep[0] == "sub":
            return self.graph.node_of(ep[1], ep[2], Phase(ep[3]))
        nid = self._virtual.get(ep)
        if nid is None:
            if ep[0] == "hub":
                rank, seq, label = -1, ep[1], f"hub#{ep[1]}"
            else:  # ("bfly", ordinal, rank, k)
                rank, seq, label = ep[2], ep[1], f"bfly#{ep[1]}r{ep[2]}k{ep[3]}"
            nid = self.graph.add_node(
                rank, seq, Phase.VIRTUAL, EventKind.BARRIER, math.nan, label=label
            )
            self._virtual[ep] = nid
        return nid


def _edge_weight(
    et: EdgeT, graph: MessagePassingGraph, src: int, dst: int, config: BuildConfig
) -> float:
    """Message-edge weight: 0 in the paper's clock-free model; the
    *signed* cross-rank timestamp lag in absolute mode (global clock).

    The sign matters: conservative acknowledgement edges point from a
    receive completion back to an eager send's END, which finished
    earlier in wall-clock time — their observed lag is negative, and
    flooring it at zero would inject phantom delays into the absolute
    recomputation (see :func:`repro.core.traversal.propagate_absolute`).
    """
    if et.kind == EdgeKind.LOCAL or not config.absolute_weights:
        return et.weight
    t_src = graph.nodes[src].t_local
    t_dst = graph.nodes[dst].t_local
    if math.isnan(t_src) or math.isnan(t_dst):
        return et.weight
    return t_dst - t_src


def build_graph(trace_set, config: BuildConfig | None = None) -> BuildResult:
    """Build the full message-passing graph of a complete run.

    ``trace_set`` is a :class:`repro.trace.reader.TraceSet` /
    :class:`~repro.trace.reader.MemoryTrace` (anything with ``nprocs``
    and ``load_all``).
    """
    config = config or BuildConfig()
    with obs.span("build_graph"):
        with obs.span("read_traces"):
            per_rank: list[list[EventRecord]] = trace_set.load_all()
        nprocs = trace_set.nprocs
        match = match_events(per_rank)
        with obs.span("materialize_graph"):
            graph = MessagePassingGraph(nprocs)
            resolve = _EndpointResolver(graph)

            def add(et: EdgeT) -> None:
                src = resolve(et.src)
                dst = resolve(et.dst)
                weight = _edge_weight(et, graph, src, dst, config)
                graph.add_edge(src, dst, et.kind, weight, et.delta, et.label)

            # Straight-line per-rank chains (§2): subevent nodes, intra
            # edges, gaps.
            for rank, events in enumerate(per_rank):
                prev: EventRecord | None = None
                for ev in events:
                    graph.add_node(
                        rank, ev.seq, Phase.START, ev.kind, ev.t_start, label=f"{ev.kind.name}.s"
                    )
                    end_id = graph.add_node(
                        rank, ev.seq, Phase.END, ev.kind, ev.t_end, label=f"{ev.kind.name}.e"
                    )
                    add(intra_event_edge(ev))
                    if prev is not None:
                        add(gap_edge(prev, ev))
                    if ev.kind == EventKind.FINALIZE:
                        graph.final_nodes[rank] = end_id
                    prev = ev

            # Message edges for every matched transfer (Figs. 2/3).
            for skey, rkey in match.transfer_of.items():
                send_ev = per_rank[skey[0]][skey[1]]
                recv_ev = per_rank[rkey[0]][rkey[1]]
                for et in transfer_edges(
                    send_ev,
                    recv_ev,
                    match.completion_of.get(skey),
                    match.completion_of.get(rkey),
                    config,
                    chan_index=match.transfer_index[skey],
                ):
                    add(et)

            # Collective subgraphs (Fig. 4 / butterfly).
            for group in match.collectives:
                for et in collective_edges(group, nprocs, config):
                    add(et)

        obs.span_add("graph.nodes", len(graph.nodes))
        obs.span_add("graph.edges", len(graph.edges))
        warnings = _match_warnings(match, per_rank)
        for w in warnings:
            obs.add(f"warnings.{w.code}", w.count)
        return BuildResult(
            graph=graph, match=match, events=per_rank, config=config, warnings=warnings
        )
