"""Diurnal demand sweep: million-user fluid load vs constellation size.

For every ``satellite count x UTC hour`` grid point this sweep builds a
Walker-Delta fleet, aggregates the modeled subscriber population onto an
equal-area ground grid (:mod:`repro.demand.grid`), applies the local-
solar-time diurnal curve and QoS flow mix (:mod:`repro.demand.profile`),
and drives the offered load through the vectorized fluid engine
(:mod:`repro.demand.fluid`): one batched multi-source Dijkstra maps
every loaded cell to its serving gateway, then a max-min-fair
waterfilling fixed point allocates link capacity.  Each point reports
the congestion headline numbers (served fraction, mean/peak utilization,
p95 queueing-delay inflation) and the settlement revenue the carried
traffic produces (:mod:`repro.demand.congestion`).

Everything is a pure function of the seed — the same sweep re-run, at
any ``--jobs`` count, prints byte-identical rows (the ``demand-smoke``
CI job diffs two runs and a ``--jobs 2`` run).
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

from repro import obs as _obs
from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.demand.congestion import (
    congestion_state,
    peak_statistics,
    settle_demand,
)
from repro.demand.fluid import run_fluid, weighted_percentile
from repro.demand.grid import GridSpec, population_grid
from repro.demand.profile import offered_load_bps
from repro.experiments.scale import nearest_divisor
from repro.ground.station import default_station_network
from repro.orbits.walker import walker_delta
from repro.parallel import derive_seed, run_grid

#: Operators whose subscribers the grid cells round-robin across; the
#: fleet itself is owned by a third operator so carried traffic is
#: billable cross-operator transit.
PROVIDERS = ("op-a", "op-b")
FLEET_OWNER = "demand-fleet"


def plane_count_for(satellites: int) -> int:
    """Deterministic Walker plane count: near-square lattice, >= 3.

    The rounded ``sqrt(N/2)`` heuristic (at least 3), snapped to the
    nearest divisor of ``N`` that is at least 3, so every fleet of 3 or
    more satellites forms a valid Walker lattice.
    """
    target = max(3, int(round(math.sqrt(satellites / 2.0))))
    return nearest_divisor(satellites, target, minimum=3)


def scale_access_capacity(graph, users_by_cell: Dict[str, int]) -> int:
    """Scale each cell's access links by its aggregated user count.

    A grid cell's terminal stands in for thousands of independent user
    terminals, each with its own access link; the aggregate access
    capacity is the per-terminal capacity times the cell's subscriber
    count (the congestion question then lives on the shared ISL and
    gateway links, which is the point of the fluid model).  Idempotent:
    already-scaled edges (marked ``aggregated_users``) are skipped.

    Returns:
        The number of access edges scaled.
    """
    scaled = 0
    for cell_id, users in users_by_cell.items():
        if cell_id not in graph or users <= 1:
            continue
        for _, _, data in graph.edges(cell_id, data=True):
            if data.get("kind") != "access_link":
                continue
            if "aggregated_users" in data:
                continue
            data["capacity_bps"] = data["capacity_bps"] * users
            data["aggregated_users"] = users
            scaled += 1
    return scaled


def _demand_point(args: tuple) -> Dict:
    """One grid point, self-contained for process-pool execution.

    The population grid is a pure function of ``derive_seed(seed,
    "demand-grid", total_users, distribution)`` — every point of one
    sweep loads the *same* subscriber field, so rows differ only through
    constellation size and local solar time.
    """
    (satellites, hour, row_index, total_users, bands, equator_columns,
     distribution, spread_deg, seed, duration_s, backend) = args
    spec = GridSpec(bands=bands, equator_columns=equator_columns)
    rng = np.random.default_rng(
        derive_seed(seed, "demand-grid", total_users, distribution)
    )
    grid = population_grid(total_users, rng, spec,
                           distribution=distribution,
                           spread_deg=spread_deg)

    constellation = walker_delta(satellites, plane_count_for(satellites))
    fleet = build_fleet(constellation, FLEET_OWNER, SizeClass.MEDIUM)
    network = OpenSpaceNetwork(fleet, default_station_network())
    terminals = grid.terminals(PROVIDERS)
    time_s = hour * 3600.0
    graph = network.snapshot(time_s, users=terminals).graph

    occupied = grid.occupied
    cell_ids = grid.cell_ids(occupied)
    users_by_cell = {
        cell_id: int(grid.users[index])
        for cell_id, index in zip(cell_ids, occupied)
    }
    scale_access_capacity(graph, users_by_cell)
    demand = offered_load_bps(grid.users[occupied], grid.lon_deg[occupied],
                              hour_utc=hour)

    result = run_fluid(graph, cell_ids, demand, backend=backend)
    state = congestion_state(result)
    state.inflate_queue_delays(graph)
    _obs.active().sample_health(time_s, graph,
                                utilization=state.utilization, reset=True)

    stats = peak_statistics(result)
    inflation = result.delay_inflation()
    cell_users = grid.users[occupied].astype(np.float64)
    settlement = settle_demand(result, graph, duration_s=duration_s,
                               time_s=time_s)
    return {
        "satellites": int(satellites),
        "hour_utc": float(hour),
        "users": int(grid.total_users),
        "cells": len(cell_ids),
        "routed_cells": int(result.routed.sum()),
        "offered_gbps": float(demand.sum() / 1e9),
        "served_fraction": result.served_fraction,
        "mean_utilization": stats["mean_utilization"],
        "peak_utilization": stats["peak_utilization"],
        "hot_link_share": stats["hot_link_share"],
        "p95_delay_inflation": weighted_percentile(
            inflation, cell_users, 0.95
        ),
        "revenue_usd": settlement.revenue_usd,
        "carried_gb": settlement.carried_gb,
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
    }


def demand_sweep(satellite_counts: Sequence[int] = (24, 66),
                 hours_utc: Sequence[float] = (4.0, 12.0, 20.0),
                 total_users: int = 1_000_000,
                 bands: int = 18,
                 equator_columns: int = 36,
                 distribution: str = "uniform_land",
                 spread_deg: float = 6.0,
                 seed: int = 7,
                 duration_s: float = 3600.0,
                 backend: str = None,
                 jobs: int = 1) -> List[Dict]:
    """Peak-hour congestion and revenue vs constellation size.

    Args:
        satellite_counts: Walker-Delta fleet sizes to sweep.
        hours_utc: UTC instants sampled (the diurnal curve converts
            these to local solar time per cell).
        total_users: Modeled subscriber count (conserved exactly onto
            the grid).
        bands: Equal-area latitude bands of the population grid.
        equator_columns: Longitude columns at the equator.
        distribution: ``"uniform_land"`` or ``"underserved"``.
        spread_deg: Cluster spread for the underserved distribution.
        seed: Root seed; the population grid derives from it.
        duration_s: Settlement interval each point's rates sustain.
        backend: Routing backend (``None`` = process default).
        jobs: Worker processes; every job count yields identical rows.

    Returns:
        One row dict per ``satellite_counts x hours_utc`` point.
    """
    for count in satellite_counts:
        if count < 3:
            raise ValueError(f"need at least 3 satellites, got {count}")
    for hour in hours_utc:
        if not 0.0 <= hour < 24.0:
            raise ValueError(f"hour must be in [0, 24), got {hour}")

    points = [
        (int(count), float(hour), row_index, total_users, bands,
         equator_columns, distribution, spread_deg, seed, duration_s,
         backend)
        for row_index, (count, hour) in enumerate(
            (count, hour)
            for count in satellite_counts for hour in hours_utc)
    ]
    with _obs.active().span("experiment.demand.sweep", points=len(points)):
        return run_grid(_demand_point, points, jobs=jobs, label="demand")
