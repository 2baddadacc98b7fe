"""Time-varying ISL topology construction.

Builds the snapshot graphs that routing consumes.  At each instant the
builder evaluates geometric feasibility (line of sight above the
atmosphere, range limit), picks the best mutually supported technology per
pair, and greedily assigns links nearest-first while respecting each
spacecraft's ISL-degree ceiling — the power constraint the paper calls out
for heterogeneous fleets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.isl.link import (
    LinkTechnology,
    Terminal,
    price_technology,
    terminals_by_technology,
)
# Re-exported: the scalar per-pair pricing the array builder reproduces.
from repro.isl.link import best_link_between as best_link_between
from repro.orbits.visibility import line_of_sight_mask

#: Fleets at least this large use the spatial grid for candidate
#: discovery when the builder's ``spatial_index`` is left on auto.  On a
#: Walker Delta fleet with 3000 km ISLs the grid is already faster from
#: a few hundred satellites; both paths give identical snapshots, so
#: the threshold only moves wall clock.
SPATIAL_AUTO_THRESHOLD = 1024


#: Candidates the greedy walks between two sweeps that drop every
#: candidate with a saturated endpoint.
_GREEDY_BLOCK = 512


def greedy_degree_capped(rows: np.ndarray, cols: np.ndarray,
                         max_degree: Sequence[int]) -> np.ndarray:
    """Accept pairs in order while both endpoints have spare degree.

    The nearest-first ISL assignment: walking ``(rows[k], cols[k])`` in
    order, a pair is accepted when neither endpoint has reached its
    ``max_degree``.  Degrees only grow, so a pair with a saturated
    endpoint can never be accepted later; between blocks of
    ``_GREEDY_BLOCK`` pairs one array pass drops all such pairs, and the
    Python walk only visits pairs that were open at the last sweep.

    Returns:
        Indices of the accepted pairs, ascending.
    """
    spare = np.maximum(np.asarray(max_degree, dtype=np.int64), 0)
    pending = np.arange(rows.size, dtype=np.int64)
    accepted: List[int] = []
    while pending.size:
        pending = pending[(spare[rows[pending]] > 0)
                          & (spare[cols[pending]] > 0)]
        block = pending[:_GREEDY_BLOCK]
        pending = pending[_GREEDY_BLOCK:]
        left = spare.tolist()
        for k, row, col in zip(block.tolist(), rows[block].tolist(),
                               cols[block].tolist()):
            if left[row] > 0 and left[col] > 0:
                left[row] -= 1
                left[col] -= 1
                accepted.append(k)
        spare = np.asarray(left, dtype=np.int64)
    return np.asarray(accepted, dtype=np.int64)


@dataclass
class IslNode:
    """What the topology builder needs to know about one spacecraft.

    Attributes:
        node_id: Stable identifier (also the graph node key).
        terminals: ISL-capable terminals the spacecraft carries.
        max_degree: Maximum simultaneous ISLs (power/thermal ceiling).
        allow_optical: False when the power budget currently cannot afford
            laser pointing; RF candidates are still considered.
        owner: Operator identifier (used by routing/economics layers).
    """

    node_id: str
    terminals: Sequence[Terminal]
    max_degree: int = 2
    allow_optical: bool = True
    owner: str = "unknown"


@dataclass
class TopologySnapshot:
    """The ISL graph at one instant.

    Attributes:
        time_s: Snapshot timestamp.
        graph: Undirected graph; nodes are spacecraft ids, each edge holds
            its :class:`IslLink` under the ``"link"`` attribute plus
            ``"delay_s"`` and ``"capacity_bps"`` convenience attributes.
        positions: Node id -> ECI position (km) at the snapshot time.
    """

    time_s: float
    graph: nx.Graph
    positions: Dict[str, np.ndarray] = field(default_factory=dict)

    def link_between(self, node_a: str, node_b: str) -> Optional[IslLink]:
        """The ISL between two nodes, or None when absent."""
        data = self.graph.get_edge_data(node_a, node_b)
        return data["link"] if data else None

    @property
    def link_count(self) -> int:
        return self.graph.number_of_edges()

    def degree_of(self, node_id: str) -> int:
        return self.graph.degree(node_id) if node_id in self.graph else 0

    def edge_set(self) -> frozenset:
        """The snapshot's edges as canonical ``(min_id, max_id)`` pairs."""
        return frozenset(
            (a, b) if a <= b else (b, a) for a, b in self.graph.edges
        )


@dataclass(frozen=True)
class TopologyDelta:
    """Edge-set difference between two consecutive topology snapshots.

    Pairs keep one fixed orientation (canonical ``(min_id, max_id)`` for
    ISLs; the network diffs station links as ``(satellite, station)``),
    each list sorted, so deltas are deterministic regardless of graph
    iteration order.

    Attributes:
        appeared: Edges present now but not previously.
        disappeared: Edges present previously but gone now.
        persisted: Edges present in both snapshots (their link objects
            are still re-evaluated — the distance moved).
        full_rebuild: True when there was no comparable previous snapshot
            (first epoch, or the participating node set changed), in
            which case ``appeared`` holds every edge.
    """

    appeared: Tuple[Tuple[str, str], ...]
    disappeared: Tuple[Tuple[str, str], ...]
    persisted: Tuple[Tuple[str, str], ...]
    full_rebuild: bool = False

    @classmethod
    def between(cls, previous: frozenset, current: frozenset,
                ) -> "TopologyDelta":
        """The sorted diff from one edge set to the next."""
        return cls(
            appeared=tuple(sorted(current - previous)),
            disappeared=tuple(sorted(previous - current)),
            persisted=tuple(sorted(current & previous)),
        )

    @property
    def changed_count(self) -> int:
        return len(self.appeared) + len(self.disappeared)

    @property
    def churn_fraction(self) -> float:
        """Changed edges over total edges involved (0 for identical sets)."""
        total = self.changed_count + len(self.persisted)
        return self.changed_count / total if total else 0.0


class IslTopologyBuilder:
    """Builds :class:`TopologySnapshot` objects from nodes + positions.

    Args:
        nodes: The participating spacecraft.
        max_range_km: Hard range limit for any ISL (beyond it, link budgets
            will not close anyway; the limit prunes the pair search).
        grazing_altitude_km: Minimum ray altitude for line of sight.
        spatial_index: ``True`` forces grid-pruned candidate discovery,
            ``False`` forces the all-pairs scan, ``None`` (default)
            switches to the grid at ``SPATIAL_AUTO_THRESHOLD`` nodes.
            Both paths produce byte-identical snapshots — the grid only
            prunes pairs that can never be in range.
        spatial_cell_deg: Grid cell size for the spatial index.
    """

    def __init__(self, nodes: Sequence[IslNode], max_range_km: float = 6000.0,
                 grazing_altitude_km: float = 80.0,
                 spatial_index: Optional[bool] = None,
                 spatial_cell_deg: float = 8.0):
        ids = [node.node_id for node in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids in topology builder")
        self.nodes = list(nodes)
        self.max_range_km = max_range_km
        self.grazing_altitude_km = grazing_altitude_km
        self.spatial_index = spatial_index
        self.spatial_cell_deg = spatial_cell_deg
        self._by_id = {node.node_id: node for node in self.nodes}
        # Terminal classes: nodes carrying equal first terminals of every
        # ISL technology price identically, so pricing runs once per
        # (class, class) group of candidate pairs.
        classes: Dict[tuple, int] = {}
        self._class_terminals: List[Dict[LinkTechnology, Terminal]] = []
        node_class = []
        for node in self.nodes:
            by_tech = terminals_by_technology(node.terminals)
            key = tuple(by_tech.items())
            if key not in classes:
                classes[key] = len(self._class_terminals)
                self._class_terminals.append(by_tech)
            node_class.append(classes[key])
        self._node_class = np.asarray(node_class, dtype=np.int64)

    def _use_spatial(self, count: int) -> bool:
        if self.spatial_index is not None:
            return self.spatial_index
        return count >= SPATIAL_AUTO_THRESHOLD

    def _candidate_index_pairs(self, pos_matrix: np.ndarray
                               ) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate ``(i, j)`` pairs, ``i < j``, lexicographically sorted.

        The all-pairs path walks the upper triangle row-major; the grid
        path returns a superset of every within-range pair in the same
        order, so after range/line-of-sight masking both paths yield the
        identical feasible sequence.
        """
        count = pos_matrix.shape[0]
        if self._use_spatial(count):
            # Imported lazily: repro.core.__init__ imports interop which
            # imports this module, so a top-level import would cycle.
            from repro.core.spatial import SpatialGridIndex

            index = SpatialGridIndex(pos_matrix, self.spatial_cell_deg)
            return index.candidate_pairs(self.max_range_km)
        rows, cols = np.triu_indices(count, k=1)
        return rows.astype(np.int64), cols.astype(np.int64)

    def node(self, node_id: str) -> IslNode:
        """Look up a node by id (raises KeyError for unknown ids)."""
        return self._by_id[node_id]

    def snapshot(self, time_s: float,
                 positions: Dict[str, np.ndarray],
                 exclude: Optional[Sequence[str]] = None) -> TopologySnapshot:
        """Build the ISL graph for one instant.

        Candidate pairs are sorted nearest-first and accepted greedily while
        both endpoints have spare ISL degree — shorter links close at higher
        MODCODs, so nearest-first maximizes fleet capacity under the degree
        caps.  A pair accepts the highest-capacity usable technology both
        spacecraft carry (:func:`~repro.isl.link.best_link_between`'s
        rule); a pair with none is skipped and takes no degree slot.

        Args:
            time_s: Snapshot timestamp (stored on the result).
            positions: ECI position per node id; every participating node
                must appear.
            exclude: Node ids to leave out entirely (failed satellites):
                they take no graph node, no candidate pair, and no degree
                slot, so the result is identical to building from the
                surviving fleet alone.
        """
        excluded = frozenset(exclude or ())
        members = [
            index for index, node in enumerate(self.nodes)
            if node.node_id not in excluded
        ]
        nodes = [self.nodes[index] for index in members]
        missing = [n.node_id for n in nodes if n.node_id not in positions]
        if missing:
            raise ValueError(f"positions missing for nodes: {missing}")
        graph = nx.Graph()
        graph.add_nodes_from((node.node_id, {"owner": node.owner})
                             for node in nodes)

        # Candidate discovery is fully vectorized and (above the auto
        # threshold) grid-pruned: distances and line-of-sight run only
        # over candidate pairs instead of an (N, N) matrix.  Candidates
        # arrive in upper-triangle row-major order either way, so ties
        # in the stable distance sort break exactly as the all-pairs
        # enumeration does and pruning never changes the result.
        if len(nodes) >= 2:
            pos_matrix = np.stack(
                [np.asarray(positions[n.node_id], dtype=float) for n in nodes]
            )
            rows, cols = self._candidate_index_pairs(pos_matrix)
        else:
            rows = cols = np.empty(0, dtype=np.int64)
        if rows.size:
            delta = pos_matrix[rows] - pos_matrix[cols]
            distances = np.sqrt((delta * delta).sum(axis=-1))
            in_range = np.nonzero(distances <= self.max_range_km)[0]
            rows, cols = rows[in_range], cols[in_range]
            distances = distances[in_range]
            feasible = line_of_sight_mask(
                pos_matrix[rows], pos_matrix[cols], self.grazing_altitude_km,
            )
            rows, cols = rows[feasible], cols[feasible]
            distances = distances[feasible]
            order = np.argsort(distances, kind="stable")
            rows, cols, distances = rows[order], cols[order], distances[order]
            rows, cols, distances, entry, slot, priced = self._price_candidates(
                np.asarray(members, dtype=np.int64), rows, cols, distances
            )
            accepted = greedy_degree_capped(
                rows, cols, [node.max_degree for node in nodes]
            )
            # Only accepted links become objects.
            links = (
                priced[index].link(nodes[row].node_id, nodes[col].node_id,
                                   at, distance)
                for row, col, distance, index, at in zip(
                    rows[accepted].tolist(), cols[accepted].tolist(),
                    distances[accepted].tolist(), entry[accepted].tolist(),
                    slot[accepted].tolist())
            )
            graph.add_edges_from(
                (link.node_a, link.node_b, {
                    "link": link,
                    "delay_s": link.propagation_delay_s,
                    "capacity_bps": link.capacity_bps,
                })
                for link in links
            )

        return TopologySnapshot(
            time_s=time_s,
            graph=graph,
            positions={k: np.asarray(v, dtype=float) for k, v in positions.items()},
        )

    def _price_candidates(self, members: np.ndarray, rows: np.ndarray,
                          cols: np.ndarray, distances: np.ndarray):
        """Best usable technology of every feasible pair, priced in arrays.

        Pairs are grouped by the terminal classes of their endpoints;
        each group prices each technology both classes carry in one
        array call, in declaration order, keeping the first of equal
        capacities (``best_link_between``'s strict ``>``).  Optical is
        priced only where both endpoints allow it.

        Returns:
            ``(rows, cols, distances, entry, slot, priced)`` restricted
            to the pairs with a usable link, still nearest-first: pair
            ``k``'s best link is row ``slot[k]`` of the
            :class:`~repro.isl.link.PricedTechnology` ``priced[entry[k]]``.
        """
        node_class = self._node_class[members]
        class_a = node_class[rows]
        class_b = node_class[cols]
        n_classes = len(self._class_terminals)
        group = class_a * n_classes + class_b
        allow = np.array([self.nodes[i].allow_optical for i in members.tolist()],
                         dtype=bool)
        best = np.zeros(rows.size)
        entry = np.full(rows.size, -1, dtype=np.int64)
        slot = np.zeros(rows.size, dtype=np.int64)
        priced = []
        for key in np.unique(group).tolist():
            pairs = np.nonzero(group == key)[0]
            slot[pairs] = np.arange(pairs.size)
            terms_a = self._class_terminals[key // n_classes]
            terms_b = self._class_terminals[key % n_classes]
            for tech, term_a in terms_a.items():
                term_b = terms_b.get(tech)
                if term_b is None:
                    continue
                pricing = price_technology(tech, term_a, term_b,
                                           distances[pairs])
                capacity = pricing.capacity_bps
                usable = capacity > best[pairs]
                if tech is LinkTechnology.OPTICAL:
                    usable &= allow[rows[pairs]] & allow[cols[pairs]]
                better = pairs[usable]
                best[better] = capacity[usable]
                entry[better] = len(priced)
                priced.append(pricing)
        keep = entry >= 0
        return (rows[keep], cols[keep], distances[keep], entry[keep],
                slot[keep], priced)

    def snapshot_delta(self, time_s: float,
                       positions: Dict[str, np.ndarray],
                       exclude: Optional[Sequence[str]] = None,
                       previous: Optional[TopologySnapshot] = None,
                       ) -> Tuple[TopologySnapshot, TopologyDelta]:
        """Build a snapshot plus its edge delta against a previous one.

        The new snapshot is always an honest rebuild (greedy assignment
        over freshly evaluated geometry — persisting a link requires
        re-evaluating its budget at the new distance anyway), so the
        result is byte-identical to :meth:`snapshot`.  The delta tells
        consumers (churn metrics, route invalidation) exactly which
        edges changed.

        Args:
            time_s: Snapshot timestamp.
            positions: ECI position per node id.
            exclude: Node ids to leave out (failed satellites).
            previous: The prior epoch's snapshot; ``None`` (or a snapshot
                over a different node set) yields a full-rebuild delta.
        """
        snap = self.snapshot(time_s, positions, exclude=exclude)
        new_edges = snap.edge_set()
        if previous is None or set(previous.graph.nodes) != set(snap.graph.nodes):
            delta = TopologyDelta(
                appeared=tuple(sorted(new_edges)),
                disappeared=(),
                persisted=(),
                full_rebuild=True,
            )
            return snap, delta
        return snap, TopologyDelta.between(previous.edge_set(), new_edges)

    def snapshots(self, times_s: Sequence[float],
                  positions_at) -> List[TopologySnapshot]:
        """Snapshots over a time series.

        Args:
            times_s: Timestamps to evaluate.
            positions_at: Callable ``time_s -> {node_id: position}``.
        """
        return [self.snapshot(t, positions_at(t)) for t in times_s]
