"""Edge cost models and end-to-end route metrics.

Routing operates over :class:`networkx.Graph` snapshots whose edges carry
``delay_s`` and ``capacity_bps`` (set by the ISL topology builder and the
ground-segment attachment code) and optionally ``queue_delay_s``,
``tariff_per_gb``, and ``owner``.  The cost model turns those attributes
into a single additive edge weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import networkx as nx


@dataclass(frozen=True)
class EdgeCostModel:
    """Additive edge-cost weights.

    ``cost = delay_s + queue_delay_s * queue_weight
           + tariff_per_gb * tariff_weight
           + congestion_penalty(capacity)``

    Attributes:
        queue_weight: Scales reported queueing delay into cost seconds.
        tariff_weight: Seconds of cost per $/GB of tariff — expresses how
            much latency an operator will trade to avoid visitor fees.
        min_capacity_bps: Edges below this capacity get the bottleneck
            penalty (proxy for serialization/congestion on thin RF ISLs).
        bottleneck_penalty_s: Cost added to sub-threshold edges.
    """

    queue_weight: float = 1.0
    tariff_weight: float = 0.0
    min_capacity_bps: float = 0.0
    bottleneck_penalty_s: float = 0.0

    def edge_cost(self, data: dict) -> float:
        """Cost of one edge from its attribute dict."""
        cost = float(data.get("delay_s", 0.0))
        cost += self.queue_weight * float(data.get("queue_delay_s", 0.0))
        cost += self.tariff_weight * float(data.get("tariff_per_gb", 0.0))
        capacity = float(data.get("capacity_bps", float("inf")))
        if capacity < self.min_capacity_bps:
            cost += self.bottleneck_penalty_s
        return cost

    def weight_fn(self):
        """A networkx-compatible ``weight(u, v, data)`` callable."""
        def weight(_u, _v, data):
            return self.edge_cost(data)
        return weight


#: Pure propagation-delay cost (the paper's Figure 2(b) metric).
PROPAGATION_ONLY = EdgeCostModel()


@dataclass(frozen=True)
class RouteMetrics:
    """End-to-end metrics of one concrete path.

    Attributes:
        path: Node sequence, source first.
        propagation_delay_s: Sum of per-hop propagation delays.
        queue_delay_s: Sum of per-hop queueing delays.
        bottleneck_capacity_bps: Minimum edge capacity along the path.
        total_tariff_per_gb: Sum of per-hop visitor tariffs.
        hop_count: Number of edges.
        operators: Distinct edge owners traversed, in path order.
    """

    path: List[str]
    propagation_delay_s: float
    queue_delay_s: float
    bottleneck_capacity_bps: float
    total_tariff_per_gb: float
    hop_count: int
    operators: List[str]

    @property
    def total_delay_s(self) -> float:
        return self.propagation_delay_s + self.queue_delay_s

    @property
    def total_delay_ms(self) -> float:
        return self.total_delay_s * 1000.0


def path_metrics(graph: nx.Graph, path: Sequence[str]) -> RouteMetrics:
    """Compute :class:`RouteMetrics` for a node sequence.

    Raises:
        ValueError: When the path is shorter than one edge or uses an edge
            absent from the graph.
    """
    if len(path) < 2:
        raise ValueError(f"path needs at least two nodes, got {list(path)}")
    propagation = 0.0
    queueing = 0.0
    tariff = 0.0
    bottleneck = float("inf")
    operators: List[str] = []
    for u, v in zip(path[:-1], path[1:]):
        data = graph.get_edge_data(u, v)
        if data is None:
            raise ValueError(f"edge {u!r}-{v!r} not present in graph")
        propagation += float(data.get("delay_s", 0.0))
        queueing += float(data.get("queue_delay_s", 0.0))
        tariff += float(data.get("tariff_per_gb", 0.0))
        bottleneck = min(bottleneck, float(data.get("capacity_bps", float("inf"))))
        owner = data.get("owner")
        if owner is not None and (not operators or operators[-1] != owner):
            operators.append(owner)
    return RouteMetrics(
        path=list(path),
        propagation_delay_s=propagation,
        queue_delay_s=queueing,
        bottleneck_capacity_bps=bottleneck,
        total_tariff_per_gb=tariff,
        hop_count=len(path) - 1,
        operators=operators,
    )


def shortest_path(graph: nx.Graph, source: str, target: str,
                  cost_model: Optional[EdgeCostModel] = None,
                  backend: Optional[str] = None) -> Optional[List[str]]:
    """Dijkstra shortest path under a cost model; None when unreachable.

    Args:
        backend: Routing backend name (``"csr"`` or ``"networkx"``);
            ``None`` uses the process default (CSR unless switched).
    """
    from repro.routing import csr as _csr

    model = cost_model or PROPAGATION_ONLY
    if _csr.resolve_backend(backend) == _csr.BACKEND_CSR:
        return _csr.shortest_path_csr(graph, source, target, weight=model)
    try:
        return nx.dijkstra_path(graph, source, target, weight=model.weight_fn())
    except (nx.NetworkXNoPath, nx.NodeNotFound):
        return None
