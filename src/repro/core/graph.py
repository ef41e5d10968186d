"""The message-passing graph (§2).

Nodes are *subevents*: the START and END of each traced event ("an event
is split into two subevents ... which correspond to entry and exit from
the message passing operation", §4.2), plus virtual nodes introduced by
collective subgraph templates (the hub of Fig. 4).

Edges are *local* (connecting subevents in the same trace, weighted with
the observed interval) or *message* (connecting subevents in different
traces, weighted zero originally — "the effects of latency and bandwidth
are already embedded in the timings of the actual events", §6).  Every
edge carries a :class:`DeltaSpec` describing which perturbation deltas
the analyzer samples onto it.

Timestamps stored on nodes are **local to the owning rank** and are only
ever compared along local edges; message edges are used exclusively for
delay (delta) propagation, never for cross-rank time arithmetic (§4.1).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from repro.core.diagnostics import DiagnosticError
from repro.trace.events import EventKind

__all__ = [
    "Phase",
    "EdgeKind",
    "DeltaKind",
    "DeltaSpec",
    "NO_DELTA",
    "Node",
    "Edge",
    "MessagePassingGraph",
]


class Phase(enum.IntEnum):
    """Which end of an event a subevent node represents."""

    START = 0
    END = 1
    VIRTUAL = 2  # collective hubs, butterfly round nodes


class EdgeKind(enum.IntEnum):
    LOCAL = 0
    MESSAGE = 1


class DeltaKind(enum.IntEnum):
    """What perturbation the analyzer samples for an edge (§3, §5).

    NONE            no perturbation (pure precedence edge)
    OS              one δ_os sample for the owning rank
    LATENCY         one δ_λ sample for the edge's (src_rank, dst_rank) link
    TRANSFER        δ_λ + δ_t(nbytes) (data-bearing message edge)
    TRANSFER_OS     δ_λ + δ_t(nbytes) + δ_os on the receiving rank — the
                    data-path bundle of Fig. 2 / Eq. (1) second line
    ROUNDTRIP       λ→ + δ_t(nbytes) + δ_os(dst) + λ← — rendezvous
                    completion against a posted nonblocking receive
    COLL_FANIN      l_δ of Fig. 4: ``rounds`` × (δ_os + δ_λ [+ δ_t])
    """

    NONE = 0
    OS = 1
    LATENCY = 2
    TRANSFER = 3
    TRANSFER_OS = 4
    ROUNDTRIP = 5
    COLL_FANIN = 6


@dataclass(frozen=True, slots=True)
class DeltaSpec:
    """Sampling instructions attached to an edge.

    ``rank`` is the rank whose OS-noise distribution applies;
    ``src``/``dst`` the link for latency terms; ``nbytes`` the payload
    for δ_t; ``rounds`` the sample count for COLL_FANIN; ``uid`` the
    edge's stable identity used for deterministic sampling (see
    :mod:`repro.core.perturb`).
    """

    kind: DeltaKind = DeltaKind.NONE
    rank: int = -1
    src: int = -1
    dst: int = -1
    nbytes: int = 0
    rounds: int = 0
    uid: tuple = ()


NO_DELTA = DeltaSpec()


@dataclass(frozen=True, slots=True)
class Node:
    """One subevent.

    ``t_local`` is the subevent's timestamp on its own rank's clock
    (NaN for virtual nodes, which have no observed time).
    """

    node_id: int
    rank: int
    seq: int
    phase: Phase
    kind: EventKind
    t_local: float
    label: str = ""

    @property
    def is_virtual(self) -> bool:
        return self.phase == Phase.VIRTUAL


@dataclass(frozen=True, slots=True)
class Edge:
    """A precedence constraint with base weight and perturbation spec.

    ``weight`` is the *observed* elapsed time along the edge (local
    edges) or 0.0 (message edges, §6); the traversal adds the sampled
    delta from ``delta`` on top.
    """

    src: int
    dst: int
    kind: EdgeKind
    weight: float
    delta: DeltaSpec = NO_DELTA
    label: str = ""


class MessagePassingGraph:
    """In-core message-passing graph with per-rank chains.

    The streaming analyzer (:mod:`repro.core.traversal`) never builds
    this object; it exists for exact verification, visualization
    (Fig. 5), critical-path and absorption analysis on traces that fit
    in memory.
    """

    def __init__(self, nprocs: int):
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        self.nprocs = nprocs
        self.nodes: list[Node] = []
        self.edges: list[Edge] = []
        self._out: list[list[int]] = []  # node -> edge indices
        self._in: list[list[int]] = []
        self._by_key: dict[tuple[int, int, Phase], int] = {}
        self.final_nodes: list[int | None] = [None] * nprocs  # FINALIZE ENDs

    # -- construction ---------------------------------------------------------
    def add_node(
        self,
        rank: int,
        seq: int,
        phase: Phase,
        kind: EventKind,
        t_local: float,
        label: str = "",
    ) -> int:
        """Add a subevent node; returns its id.  Real (non-virtual)
        subevents are unique per (rank, seq, phase)."""
        node_id = len(self.nodes)
        if phase != Phase.VIRTUAL:
            key = (rank, seq, phase)
            if key in self._by_key:
                raise DiagnosticError(
                    f"duplicate subevent {key}", code="duplicate-subevent", rank=rank, seq=seq
                )
            self._by_key[key] = node_id
        self.nodes.append(Node(node_id, rank, seq, phase, kind, t_local, label))
        self._out.append([])
        self._in.append([])
        return node_id

    def add_edge(
        self,
        src: int,
        dst: int,
        kind: EdgeKind,
        weight: float,
        delta: DeltaSpec = NO_DELTA,
        label: str = "",
    ) -> int:
        if not (0 <= src < len(self.nodes) and 0 <= dst < len(self.nodes)):
            raise DiagnosticError(
                f"edge endpoints out of range: {src}->{dst}", code="invalid-edge"
            )
        if src == dst:
            raise DiagnosticError(f"self-loop on node {src}", code="invalid-edge")
        if kind == EdgeKind.LOCAL and weight < 0:
            raise DiagnosticError(
                f"negative local edge weight {weight} ({src}->{dst})",
                code="invalid-edge-weight",
                rank=self.nodes[src].rank,
                seq=self.nodes[src].seq,
            )
        edge_id = len(self.edges)
        self.edges.append(Edge(src, dst, kind, weight, delta, label))
        self._out[src].append(edge_id)
        self._in[dst].append(edge_id)
        return edge_id

    # -- lookup -----------------------------------------------------------------
    def node_of(self, rank: int, seq: int, phase: Phase) -> int:
        """Node id of a real subevent."""
        return self._by_key[(rank, seq, phase)]

    def has_node(self, rank: int, seq: int, phase: Phase) -> bool:
        return (rank, seq, phase) in self._by_key

    def out_edges(self, node_id: int) -> Iterator[Edge]:
        return (self.edges[i] for i in self._out[node_id])

    def in_edges(self, node_id: int) -> Iterator[Edge]:
        return (self.edges[i] for i in self._in[node_id])

    def out_degree(self, node_id: int) -> int:
        return len(self._out[node_id])

    def in_degree(self, node_id: int) -> int:
        return len(self._in[node_id])

    def in_edge_ids(self, node_id: int) -> list[int]:
        """Indices into ``edges`` of this node's incoming edges."""
        return self._in[node_id]

    def out_edge_ids(self, node_id: int) -> list[int]:
        """Indices into ``edges`` of this node's outgoing edges."""
        return self._out[node_id]

    # -- traversal support --------------------------------------------------------
    def topological_order(self) -> list[int]:
        """Kahn topological order; raises on cycles.

        A cycle means the builder produced an inconsistent graph — §4.3
        guarantees a trace of a completed run yields a DAG.
        """
        indeg = [len(ins) for ins in self._in]
        stack = [n for n, d in enumerate(indeg) if d == 0]
        order: list[int] = []
        while stack:
            n = stack.pop()
            order.append(n)
            for ei in self._out[n]:
                dst = self.edges[ei].dst
                indeg[dst] -= 1
                if indeg[dst] == 0:
                    stack.append(dst)
        if len(order) != len(self.nodes):
            raise DiagnosticError(
                f"message-passing graph has a cycle "
                f"({len(self.nodes) - len(order)} nodes unreached)",
                code="graph-cycle",
            )
        return order

    def final_node_of(self, rank: int) -> int | None:
        """The rank's FINALIZE END node, falling back to the last real
        subevent of its chain; ``None`` when the rank has no nodes.

        Every consumer that needs "where does rank r end" (final-delay
        extraction, critical-path backtracking, the compiled plan's
        final-node table, diagnosis sinks) goes through this accessor so
        the fallback semantics cannot drift between engines.
        """
        nid = self.final_nodes[rank]
        if nid is not None:
            return nid
        chain = self.rank_chain(rank)
        return chain[-1] if chain else None

    def rank_chain(self, rank: int) -> list[int]:
        """Real subevent nodes of one rank in trace order."""
        chain = [n.node_id for n in self.nodes if n.rank == rank and not n.is_virtual]
        chain.sort(key=lambda nid: (self.nodes[nid].seq, self.nodes[nid].phase))
        return chain

    def local_edges(self) -> Iterator[Edge]:
        return (e for e in self.edges if e.kind == EdgeKind.LOCAL)

    def message_edges(self) -> Iterator[Edge]:
        return (e for e in self.edges if e.kind == EdgeKind.MESSAGE)

    # -- interop ---------------------------------------------------------------------
    def to_networkx(self):
        """Export as a :class:`networkx.MultiDiGraph` for ad-hoc analysis.

        Node attributes: ``rank``, ``seq``, ``phase``, ``kind``,
        ``t_local``, ``label``, ``virtual``.  Edge attributes: ``kind``,
        ``weight``, ``delta_kind``, ``label``.  A MultiDiGraph is used
        because templates may legitimately emit parallel edges between
        the same subevent pair.  Needs the optional ``networkx`` extra
        (``pip install repro[networkx]``).
        """
        try:
            import networkx as nx
        except ImportError as exc:
            raise ImportError(
                "MessagePassingGraph.to_networkx needs networkx, which is optional: "
                "pip install 'repro[networkx]'"
            ) from exc

        g = nx.MultiDiGraph(nprocs=self.nprocs)
        for n in self.nodes:
            g.add_node(
                n.node_id,
                rank=n.rank,
                seq=n.seq,
                phase=Phase(n.phase).name,
                kind=n.kind.name,
                t_local=n.t_local,
                label=n.label,
                virtual=n.is_virtual,
            )
        for e in self.edges:
            g.add_edge(
                e.src,
                e.dst,
                kind=EdgeKind(e.kind).name,
                weight=e.weight,
                delta_kind=DeltaKind(e.delta.kind).name,
                label=e.label,
            )
        return g

    # -- stats ---------------------------------------------------------------------
    def stats(self) -> dict:
        n_local = sum(1 for e in self.edges if e.kind == EdgeKind.LOCAL)
        n_virtual = sum(1 for n in self.nodes if n.is_virtual)
        return {
            "nprocs": self.nprocs,
            "nodes": len(self.nodes),
            "virtual_nodes": n_virtual,
            "edges": len(self.edges),
            "local_edges": n_local,
            "message_edges": len(self.edges) - n_local,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"<MessagePassingGraph p={s['nprocs']} nodes={s['nodes']} "
            f"edges={s['edges']} (local={s['local_edges']}, msg={s['message_edges']})>"
        )
