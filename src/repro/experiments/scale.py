"""Mega-constellation scale sweep: topology churn and delta-vs-full proof.

For every swept fleet size this experiment builds a Walker-Delta
constellation, walks one full orbital period in equal epochs, and builds
the network snapshot at each epoch twice: once through the incremental
delta path (:class:`repro.core.network.OpenSpaceNetwork` with
``snapshot_delta=True``, grid-pruned candidate discovery) and once as an
independent full rebuild.  Each row reports the topology-churn numbers
the delta machinery exploits (edges appeared/disappeared per epoch,
churn fraction, CSR structure reuses) plus a user-visible latency probe
(gateway-to-gateway shortest-path delay), and asserts the tentpole
invariant: the delta-built snapshot digest is byte-identical to the full
rebuild at every epoch.

Every row is a pure function of the arguments — no randomness — so the
sweep prints byte-identical rows at any ``--jobs`` count (the
``scale-smoke`` CI job diffs two runs and a ``--jobs 2`` run).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import networkx as nx

from repro import obs as _obs
from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.ground.station import default_station_network
from repro.orbits.walker import walker_delta
from repro.parallel import run_grid

FLEET_OWNER = "scale-fleet"

#: Latency probe endpoints: a transatlantic gateway pair from the
#: default station network (present in every snapshot's station set).
PROBE_STATIONS = ("gs-virginia", "gs-frankfurt")


def nearest_divisor(count: int, target: float, minimum: int = 1) -> int:
    """The divisor of ``count`` (at least ``minimum``) nearest ``target``.

    Walker lattices need ``planes | satellites``; plane-count heuristics
    snap to an admissible divisor through this (ties go to the smaller
    divisor, deterministically).

    Raises:
        ValueError: When ``count`` has no divisor of at least ``minimum``.
    """
    divisors = [d for d in range(max(1, minimum), count + 1) if count % d == 0]
    if not divisors:
        raise ValueError(
            f"{count} satellites have no plane count >= {minimum}"
        )
    return min(divisors, key=lambda d: (abs(d - target), d))


def plane_count_for(satellites: int) -> int:
    """The divisor of ``satellites`` nearest the near-square plane count.

    Snaps the ``sqrt(N/2)`` heuristic to the closest admissible divisor
    (see :func:`nearest_divisor`).
    """
    if satellites < 1:
        raise ValueError(f"need at least one satellite, got {satellites}")
    return nearest_divisor(satellites, math.sqrt(satellites / 2.0))


def _probe_latency_ms(graph: nx.Graph) -> float:
    """Shortest-path delay between the probe gateways, NaN if unreachable."""
    src, dst = PROBE_STATIONS
    if src not in graph or dst not in graph:
        return math.nan
    try:
        delay_s = nx.dijkstra_path_length(graph, src, dst, weight="delay_s")
    except nx.NetworkXNoPath:
        return math.nan
    return delay_s * 1000.0


def _scale_point(args: tuple) -> Dict:
    """One fleet size, self-contained for process-pool execution."""
    (satellites, epochs, max_range_km, spatial, delta_enabled,
     compare_digests) = args
    planes = plane_count_for(satellites)
    constellation = walker_delta(satellites, planes)
    period_s = next(iter(constellation)).period_s
    times = [k * period_s / epochs for k in range(epochs)]

    fleet = build_fleet(constellation, FLEET_OWNER, SizeClass.MEDIUM)
    stations = default_station_network()
    network = OpenSpaceNetwork(
        fleet, stations, max_isl_range_km=max_range_km,
        snapshot_delta=delta_enabled, spatial_index=spatial,
    )
    reference: Optional[OpenSpaceNetwork] = None
    if compare_digests:
        reference = OpenSpaceNetwork(
            fleet, stations, max_isl_range_km=max_range_km,
            snapshot_delta=False, spatial_index=spatial,
        )
        # Both networks must share one batched time grid: numpy's
        # vectorized trig can round the final ulp differently for
        # different array shapes, so digests only compare like-for-like
        # when both sides prime (or neither does).
        network.prime_positions(times)
        reference.prime_positions(times)

    edge_counts: List[int] = []
    churn: List[float] = []
    latencies: List[float] = []
    digests_match = True
    for t in times:
        snap = network.snapshot(t)
        edge_counts.append(snap.isl_snapshot.link_count)
        latencies.append(_probe_latency_ms(snap.graph))
        last = network.last_snapshot_delta
        if last is not None and last.isl is not None:
            churn.append(last.isl.churn_fraction)
        if reference is not None:
            if snap.digest() != reference.snapshot(t).digest():
                digests_match = False

    stats = network.delta_stats
    reachable = [ms for ms in latencies if ms == ms]
    _obs.active().count("experiment.scale.epochs", len(times))
    return {
        "satellites": int(satellites),
        "planes": int(planes),
        "epochs": int(epochs),
        "period_s": float(period_s),
        "mean_isl_edges": float(sum(edge_counts) / len(edge_counts)),
        "mean_degree": float(
            2.0 * sum(edge_counts) / len(edge_counts) / satellites
        ),
        "churn_mean": float(sum(churn) / len(churn)) if churn else 0.0,
        "churn_max": float(max(churn)) if churn else 0.0,
        "full_builds": int(stats["full_builds"]),
        "delta_builds": int(stats["delta_builds"]),
        "edges_appeared": int(stats["edges_appeared"]),
        "edges_disappeared": int(stats["edges_disappeared"]),
        "structure_reuses": int(stats["structure_reuses"]),
        "probe_latency_ms": (
            float(sum(reachable) / len(reachable)) if reachable
            else math.nan
        ),
        "probe_reachable_epochs": len(reachable),
        "digests_match": bool(digests_match) if compare_digests else None,
    }


def scale_sweep(satellite_counts: Sequence[int] = (48, 180),
                epochs: int = 6,
                max_range_km: float = 3000.0,
                spatial: Optional[bool] = None,
                delta: bool = True,
                compare_digests: bool = True,
                jobs: int = 1) -> List[Dict]:
    """Topology churn and delta-vs-full digests vs constellation size.

    Args:
        satellite_counts: Walker-Delta fleet sizes to sweep.
        epochs: Snapshot epochs spread over one full orbital period.
        max_range_km: Hard ISL range limit.
        spatial: ``True`` forces grid-pruned candidate discovery,
            ``False`` forces all-pairs, ``None`` auto-switches on fleet
            size.  Results are identical either way.
        delta: Build snapshots through the incremental delta path
            (``False`` measures the full-rebuild-every-epoch baseline).
        compare_digests: Also build every epoch through an independent
            full-rebuild network and assert byte-identical digests
            (doubles the work; the point of the exercise).
        jobs: Worker processes; every job count yields identical rows.

    Returns:
        One row dict per fleet size.
    """
    if not satellite_counts:
        raise ValueError("need at least one fleet size to sweep")
    for count in satellite_counts:
        if count < 2:
            raise ValueError(f"need at least two satellites, got {count}")
    if epochs < 1:
        raise ValueError(f"need at least one epoch, got {epochs}")
    if max_range_km <= 0.0:
        raise ValueError(f"range must be positive, got {max_range_km}")

    points = [
        (int(count), int(epochs), float(max_range_km), spatial,
         bool(delta), bool(compare_digests))
        for count in satellite_counts
    ]
    with _obs.active().span("experiment.scale.sweep", points=len(points)):
        return run_grid(_scale_point, points, jobs=jobs, label="scale")
