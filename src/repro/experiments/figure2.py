"""Figure 2 regeneration (the paper's entire quantitative evaluation).

* **2(a)** — the simulated OpenSpace constellation: an Iridium-like Walker
  Star (66 satellites, 780 km, 6 near-polar planes) "achiev[ing] global
  coverage while maintaining inter-satellite distances and trajectories
  that allow for simple and sustained ISLs."
* **2(b)** — propagation latency vs constellation size: latency falls
  sharply up to ~25 satellites then plateaus around 30 ms; about four
  satellites are the minimum for any connectivity.
* **2(c)** — coverage vs constellation size: total earth coverage around
  50 satellites; extra satellites buy redundancy.

Methodology follows the paper: fixed user and ground-station coordinates,
randomly distributed satellite orbital paths, shortest path between the
pickup satellite and the relay satellite, path length -> latency, and the
worst-case overlap rule for coverage (with the union estimate reported
alongside; see EXPERIMENTS.md for the estimator discussion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import networkx as nx
import numpy as np

from repro import obs as _obs
from repro.isl.topology import IslNode, IslTopologyBuilder
from repro.orbits.constants import (
    IRIDIUM_ALTITUDE_KM,
    SPEED_OF_LIGHT_KM_S,
)
from repro.orbits.coordinates import GeodeticPoint, ecef_to_eci
from repro.orbits.visibility import (
    cluster_coverage_fraction,
    coverage_fraction,
    elevation_angles,
    line_of_sight_mask,
    pairwise_line_of_sight,
    pairwise_slant_ranges,
    worst_case_coverage_fraction,
)
from repro.orbits.walker import iridium_like, random_constellation
from repro.parallel import derive_seed, run_grid
from repro.phy.rf import standard_sband_isl_terminal
from repro.routing.csr import BACKEND_CSR, resolve_backend
from repro.simulation.batched import ground_eci_track, merge_trial_epochs
from repro.simulation.engine import SimulationEngine
from repro.simulation.metrics import SeriesCollector

#: Engine names accepted by the figure-2(b) driver.
ENGINES = ("scalar", "batched")

#: The paper's fixed endpoints: a user in an underserved region and a
#: gateway on another continent (exact coordinates are not given in the
#: paper; these choices are documented in EXPERIMENTS.md).
DEFAULT_USER_SITE = GeodeticPoint(-1.29, 36.82, 0.0)      # Nairobi
DEFAULT_GATEWAY_SITE = GeodeticPoint(50.11, 8.68, 0.0)    # Frankfurt


@dataclass
class ConstellationReport:
    """Figure 2(a): the reference constellation's headline properties.

    Attributes:
        name: Constellation label.
        satellite_count: Total satellites.
        plane_count: Orbital planes.
        altitude_km: Constellation altitude.
        inclination_deg: Plane inclination.
        isl_count: Established ISLs at epoch.
        mean_isl_distance_km: Mean established-ISL slant range.
        max_isl_distance_km: Longest established ISL.
        connected: Whether the ISL graph is a single component.
        coverage_union: Footprint-union coverage fraction.
        coverage_worst_case: Paper-rule (pairwise overlap) coverage.
    """

    name: str
    satellite_count: int
    plane_count: int
    altitude_km: float
    inclination_deg: float
    isl_count: int
    mean_isl_distance_km: float
    max_isl_distance_km: float
    connected: bool
    coverage_union: float
    coverage_worst_case: float


def figure_2a_constellation(time_s: float = 0.0) -> ConstellationReport:
    """Build and characterize the paper's reference constellation."""
    with _obs.span("experiment.figure2a", time_s=time_s):
        return _figure_2a_constellation(time_s)


def _figure_2a_constellation(time_s: float) -> ConstellationReport:
    constellation = iridium_like()
    positions = constellation.positions_at(time_s)
    ids = [f"sat{i}" for i in range(len(constellation))]
    nodes = [
        IslNode(ids[i], [standard_sband_isl_terminal()], max_degree=4)
        for i in range(len(constellation))
    ]
    builder = IslTopologyBuilder(nodes)
    snap = builder.snapshot(time_s, dict(zip(ids, positions)))
    distances = [
        data["link"].distance_km for _, _, data in snap.graph.edges(data=True)
    ]
    elements = constellation.elements[0]
    return ConstellationReport(
        name=constellation.name,
        satellite_count=len(constellation),
        plane_count=constellation.plane_count,
        altitude_km=elements.altitude_km,
        inclination_deg=math.degrees(elements.inclination_rad),
        isl_count=snap.link_count,
        mean_isl_distance_km=float(np.mean(distances)) if distances else 0.0,
        max_isl_distance_km=float(np.max(distances)) if distances else 0.0,
        connected=nx.is_connected(snap.graph),
        coverage_union=coverage_fraction(positions, elements.altitude_km),
        coverage_worst_case=worst_case_coverage_fraction(
            positions, elements.altitude_km
        ),
    )


def _relay_latency_s(positions: np.ndarray, user_eci: np.ndarray,
                     gateway_eci: np.ndarray,
                     min_elevation_deg: float = 10.0,
                     max_isl_range_km: float = 6000.0) -> Optional[float]:
    """The paper's Figure 2(b) measurement for one constellation state.

    Shortest propagation path: user -> pickup satellite -> (ISLs) ->
    relay satellite -> ground station.  Pure geometry — every
    line-of-sight pair within ISL range is a usable relay hop, matching
    the paper's "simplified simulation".

    Returns None when the user or gateway sees no satellite, or the relay
    graph does not connect them.
    """
    count = positions.shape[0]
    mask_rad = math.radians(min_elevation_deg)
    graph = nx.Graph()
    graph.add_node("user")
    graph.add_node("gateway")
    graph.add_nodes_from(range(count))
    # Access edges and the full relay mesh come from vectorized
    # elevation/range/line-of-sight passes; only graph assembly loops.
    for endpoint, ground_eci in (("user", user_eci), ("gateway", gateway_eci)):
        elevations = elevation_angles(ground_eci, positions)
        deltas = positions - np.asarray(ground_eci, dtype=float)
        ranges = np.sqrt((deltas * deltas).sum(axis=-1))
        for i in np.nonzero(elevations >= mask_rad)[0]:
            graph.add_edge(endpoint, int(i),
                           delay_s=float(ranges[i]) / SPEED_OF_LIGHT_KM_S)
    if count >= 2:
        distances = pairwise_slant_ranges(positions)
        feasible = (
            (distances <= max_isl_range_km)
            & pairwise_line_of_sight(positions)
        )
        rows_idx, cols_idx = np.triu_indices(count, k=1)
        keep = feasible[rows_idx, cols_idx]
        for i, j in zip(rows_idx[keep], cols_idx[keep]):
            graph.add_edge(int(i), int(j),
                           delay_s=float(distances[i, j]) / SPEED_OF_LIGHT_KM_S)
    with _obs.span("routing.relay.shortest_path",
                   nodes=graph.number_of_nodes(),
                   edges=graph.number_of_edges()):
        try:
            return nx.dijkstra_path_length(graph, "user", "gateway",
                                           weight="delay_s")
        except nx.NetworkXNoPath:
            return None


def _relay_latency_batch_s(positions_all: np.ndarray,
                           user_ecis: np.ndarray,
                           gateway_ecis: np.ndarray,
                           min_elevation_deg: float = 10.0,
                           max_isl_range_km: float = 6000.0) -> np.ndarray:
    """All epochs of one trial's relay measurement in one csgraph call.

    Builds a block-diagonal CSR matrix — one disjoint relay graph per
    epoch, ``N + 2`` nodes each (satellites, user, gateway) — straight
    from the vectorized elevation/range/line-of-sight masks, with no
    intermediate ``networkx`` graph, then answers every epoch's
    user→gateway distance with one multi-source Dijkstra.  Per-edge
    weights are elementwise ``range / c`` divisions of the same float64
    values the scalar path uses, so distances are bit-identical to
    :func:`_relay_latency_s`.

    Args:
        positions_all: ``(N, K, 3)`` satellite ECI positions over epochs.
        user_ecis: ``(K, 3)`` user ECI positions per epoch.
        gateway_ecis: ``(K, 3)`` gateway positions per epoch.

    Returns:
        ``(K,)`` one-way latencies in seconds; ``inf`` where unreachable.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

    count, epochs = positions_all.shape[0], positions_all.shape[1]
    stride = count + 2
    mask_rad = math.radians(min_elevation_deg)
    # (K, N, 3) with the epoch axis leading; every geometry pass below
    # broadcasts over it, so no Python work scales with epoch count.
    pts = np.ascontiguousarray(positions_all.transpose(1, 0, 2))
    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    data: List[np.ndarray] = []
    for offset, ground_ecis in ((count, user_ecis), (count + 1, gateway_ecis)):
        ground = np.asarray(ground_ecis, dtype=float)[:, None, :]
        elevations = elevation_angles(ground, pts)
        deltas = pts - ground
        ranges = np.sqrt((deltas * deltas).sum(axis=-1))
        vis_epoch, vis_sat = np.nonzero(elevations >= mask_rad)
        if vis_epoch.size == 0:
            continue
        ground_nodes = vis_epoch * stride + offset
        sat_nodes = vis_epoch * stride + vis_sat
        weights = ranges[vis_epoch, vis_sat] / SPEED_OF_LIGHT_KM_S
        rows.extend((ground_nodes, sat_nodes))
        cols.extend((sat_nodes, ground_nodes))
        data.extend((weights, weights))
    if count >= 2:
        # Candidate pairs: upper triangle only, with the line-of-sight
        # test (the expensive segment geometry) restricted to pairs that
        # already pass the range gate.  Same elementwise float ops on the
        # same values as the per-epoch scalar path, so same bits.
        rows_idx, cols_idx = np.triu_indices(count, k=1)
        diff = pts[:, rows_idx, :] - pts[:, cols_idx, :]
        distances = np.sqrt((diff * diff).sum(axis=-1))
        in_epoch, in_pair = np.nonzero(distances <= max_isl_range_km)
        clear = line_of_sight_mask(pts[in_epoch, rows_idx[in_pair]],
                                   pts[in_epoch, cols_idx[in_pair]])
        keep_epoch, keep_pair = in_epoch[clear], in_pair[clear]
        isl_rows = keep_epoch * stride + rows_idx[keep_pair]
        isl_cols = keep_epoch * stride + cols_idx[keep_pair]
        weights = distances[keep_epoch, keep_pair] / SPEED_OF_LIGHT_KM_S
        rows.extend((isl_rows, isl_cols))
        cols.extend((isl_cols, isl_rows))
        data.extend((weights, weights))
    size = epochs * stride
    if rows:
        row_arr = np.concatenate(rows)
        col_arr = np.concatenate(cols)
        data_arr = np.concatenate(data).astype(np.float64)
    else:
        row_arr = col_arr = np.empty(0, dtype=np.int64)
        data_arr = np.empty(0, dtype=np.float64)
    matrix = csr_matrix((data_arr, (row_arr, col_arr)), shape=(size, size))
    sources = np.arange(epochs) * stride + count
    with _obs.span("routing.relay.shortest_path_batch",
                   epochs=epochs, nodes=size, edges=int(data_arr.size // 2)):
        dist = _csgraph_dijkstra(matrix, directed=True, indices=sources)
    return dist[np.arange(epochs), sources + 1]


def _figure_2b_point(args: tuple) -> Dict:
    """One Figure 2(b) sweep point: all trials/epochs for one count.

    Module-level so :func:`repro.parallel.run_grid` can pickle it into
    worker processes; all randomness comes from the point's derived
    seed, so results are identical at any job count.
    """
    (count, trials, epochs, point_seed, altitude_km,
     user_site, gateway_site, backend, engine) = args
    rng = np.random.default_rng(point_seed)
    epoch_times = np.linspace(0.0, 86400.0, epochs, endpoint=False)
    recorder = _obs.active()
    samples: List[float] = []
    reached = 0
    total = 0

    if engine == "batched":
        # The pure tensor pipeline: draw every trial's constellation (same
        # RNG call order as the scalar walk), stack all trials' epoch
        # tensors along the epoch axis, and answer every (trial, epoch)
        # relay measurement with ONE block-diagonal csgraph call.  No
        # discrete-event engine runs; samples land in the same
        # trial-major, epoch-ascending order the event loop would emit,
        # and every float is bit-identical to the scalar engine's.
        with recorder.span("experiment.figure2b.sweep_point",
                           satellites=count, trials=trials, epochs=epochs,
                           backend=backend, engine=engine):
            trial_tensors = []
            for _ in range(trials):
                constellation = random_constellation(count, rng,
                                                     altitude_km=altitude_km)
                with recorder.phase("figure2b.propagate"):
                    trial_tensors.append(
                        constellation.positions_over(epoch_times)
                    )
            positions_merged = merge_trial_epochs(trial_tensors)
            user_track = ground_eci_track(user_site, epoch_times)
            gateway_track = ground_eci_track(gateway_site, epoch_times)
            with recorder.phase("figure2b.relay_path"):
                latencies = _relay_latency_batch_s(
                    positions_merged,
                    np.tile(user_track, (trials, 1)),
                    np.tile(gateway_track, (trials, 1)),
                    min_elevation_deg=0.0,
                )
            for value in latencies:
                total += 1
                latency = float(value)
                if math.isfinite(latency):
                    samples.append(latency * 1000.0)
                    reached += 1
                    if recorder.enabled:
                        recorder.observe("figure2b.latency_ms",
                                         latency * 1000.0, label=str(count))
        return {"count": count, "samples": samples,
                "reached": reached, "total": total}

    def sample_epoch(positions: np.ndarray, time_s: float,
                     precomputed_s: Optional[float] = None) -> None:
        """Evaluate one (constellation, epoch) relay measurement."""
        nonlocal reached, total
        total += 1
        if precomputed_s is not None:
            # CSR backend: this epoch's latency came from the trial's
            # batched csgraph call; the event just records it.
            latency = precomputed_s if math.isfinite(precomputed_s) else None
        else:
            user_eci = ecef_to_eci(user_site.ecef(), time_s)
            gateway_eci = ecef_to_eci(gateway_site.ecef(), time_s)
            with recorder.phase("figure2b.relay_path"):
                latency = _relay_latency_s(positions, user_eci, gateway_eci,
                                           min_elevation_deg=0.0)
        if latency is not None:
            samples.append(latency * 1000.0)
            reached += 1
            if recorder.enabled:
                recorder.observe("figure2b.latency_ms",
                                 latency * 1000.0, label=str(count))

    use_csr = backend == BACKEND_CSR
    with recorder.span("experiment.figure2b.sweep_point",
                       satellites=count, trials=trials, epochs=epochs,
                       backend=backend):
        for _ in range(trials):
            constellation = random_constellation(count, rng,
                                                 altitude_km=altitude_km)
            # One broadcast propagation covers every epoch of the trial.
            with recorder.phase("figure2b.propagate"):
                positions_all = constellation.positions_over(epoch_times)
            batch_latencies = None
            if use_csr:
                user_ecis = np.stack([
                    ecef_to_eci(user_site.ecef(), float(t))
                    for t in epoch_times
                ])
                gateway_ecis = np.stack([
                    ecef_to_eci(gateway_site.ecef(), float(t))
                    for t in epoch_times
                ])
                with recorder.phase("figure2b.relay_path"):
                    batch_latencies = _relay_latency_batch_s(
                        positions_all, user_ecis, gateway_ecis,
                        min_elevation_deg=0.0,
                    )
            # The epoch samples run as discrete events so the sweep
            # exercises (and is measured through) the same engine the
            # protocol simulations use.
            engine = SimulationEngine()
            for k, time_s in enumerate(epoch_times):
                precomputed = (
                    float(batch_latencies[k])
                    if batch_latencies is not None else None
                )
                engine.schedule(
                    float(time_s),
                    lambda pos=positions_all[:, k, :], t=float(time_s),
                        pre=precomputed: sample_epoch(pos, t, pre),
                    label="figure2b.epoch",
                )
            engine.run()
    return {"count": count, "samples": samples,
            "reached": reached, "total": total}


def figure_2b_latency(satellite_counts: Sequence[int] = tuple(
                          list(range(4, 30, 3)) + [35, 45, 55, 70]),
                      trials: int = 4,
                      epochs: int = 6,
                      seed: int = 42,
                      altitude_km: float = IRIDIUM_ALTITUDE_KM,
                      user_site: GeodeticPoint = DEFAULT_USER_SITE,
                      gateway_site: GeodeticPoint = DEFAULT_GATEWAY_SITE,
                      jobs: int = 1,
                      backend: Optional[str] = None,
                      engine: str = "scalar") -> Dict:
    """Propagation latency vs constellation size (paper Figure 2(b)).

    For each satellite count, ``trials`` random constellations are drawn;
    each is sampled at ``epochs`` instants spread over one day (satellites
    orbit and the Earth rotates, so a satellite eventually "orbit[s] in
    range of the user's or ground station's location" — the paper's
    minimum-four-satellites guarantee is a temporal statement).  Latency is
    collected over the reachable epochs; reachability is the fraction of
    epochs with any relay path.

    Each satellite count is an independent sweep point with its own
    derived seed, so ``jobs > 1`` fans points across processes without
    changing any value in the result.  ``backend`` picks the shortest-path
    implementation (``"csr"`` batches every epoch of a trial into one
    :func:`scipy.sparse.csgraph.dijkstra` call; ``"networkx"`` is the
    per-epoch reference); both produce bit-identical latencies.

    ``engine`` selects how a sweep point executes: ``"scalar"`` walks
    trials through the discrete-event engine (the oracle), ``"batched"``
    flattens all of a point's trials and epochs into one tensor pipeline
    — one merged ``(sats, trials * epochs, 3)`` position tensor, one
    vectorized geometry pass, one block-diagonal shortest-path call —
    and requires the CSR backend.  Both engines return bit-identical
    results (the benchmark digest gate holds them together).

    Returns:
        ``{"series": [...rows...], "reachability": {count: fraction}}``
        where each series row is ``{"x", "mean", "p50", "p95", "n"}`` with
        latency in milliseconds.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if epochs < 1:
        raise ValueError(f"need at least one epoch, got {epochs}")
    for count in satellite_counts:
        if count < 1:
            raise ValueError(f"need at least one satellite, got {count}")
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    # Resolve the backend here so worker processes get a concrete name in
    # their args rather than relying on inheriting the parent's default.
    backend = resolve_backend(backend)
    if engine == "batched" and backend != BACKEND_CSR:
        raise ValueError(
            "the batched engine needs the csr backend (scipy); "
            f"resolved backend is {backend!r}"
        )
    points = [
        (int(count), trials, epochs,
         derive_seed(seed, "figure2b", int(count)),
         altitude_km, user_site, gateway_site, backend, engine)
        for count in satellite_counts
    ]
    results = run_grid(_figure_2b_point, points, jobs=jobs, label="figure2b")
    series = SeriesCollector("latency_ms")
    reachability: Dict[int, float] = {}
    recorder = _obs.active()
    for result in results:
        count = result["count"]
        for value in result["samples"]:
            series.add(count, value)
        if recorder.enabled:
            recorder.count("figure2b.epochs", result["total"],
                           label=str(count))
            recorder.count("figure2b.reached", result["reached"],
                           label=str(count))
        reachability[count] = result["reached"] / result["total"]
    rows = []
    for x in series.xs():
        stats = series.summary_at(x)
        rows.append({
            "x": x, "mean": stats.mean, "p50": stats.p50,
            "p95": stats.p95, "n": stats.count,
        })
    return {"series": rows, "reachability": reachability}


def _figure_2c_point(args: tuple) -> Dict:
    """One Figure 2(c) sweep point (picklable; seed derived per point)."""
    count, trials, point_seed, altitude_km = args
    rng = np.random.default_rng(point_seed)
    recorder = _obs.active()
    union_vals, worst_vals, cluster_vals = [], [], []
    with recorder.span("experiment.figure2c.sweep_point",
                       satellites=count, trials=trials):
        for _ in range(trials):
            constellation = random_constellation(count, rng,
                                                 altitude_km=altitude_km)
            positions = constellation.positions_at(0.0)
            with recorder.phase("figure2c.coverage"):
                union_vals.append(
                    coverage_fraction(positions, altitude_km)
                )
                worst_vals.append(
                    worst_case_coverage_fraction(positions, altitude_km)
                )
                cluster_vals.append(
                    cluster_coverage_fraction(positions, altitude_km)
                )
    return {
        "satellites": count,
        "union": float(np.mean(union_vals)),
        "worst_case": float(np.mean(worst_vals)),
        "cluster": float(np.mean(cluster_vals)),
    }


def figure_2c_coverage(satellite_counts: Sequence[int] = tuple(
                           [1, 2, 4, 8, 12, 16, 20, 25, 30, 40, 50, 60, 70, 80]),
                       trials: int = 6,
                       seed: int = 42,
                       altitude_km: float = IRIDIUM_ALTITUDE_KM,
                       jobs: int = 1) -> List[Dict]:
    """Coverage vs constellation size (paper Figure 2(c)).

    Reports three estimators per count:

    * ``union`` — true footprint-union coverage (grid estimate); this is
      the series whose shape matches the paper's curve, reaching total
      earth coverage around 50 satellites;
    * ``worst_case`` — the paper's stated pairwise-overlap rule, which
      saturates at the disjoint-cap packing limit;
    * ``cluster`` — the strictest transitive reading (sensitivity bound).

    Each count is an independent sweep point with a derived seed;
    ``jobs > 1`` fans points across processes without changing values.

    Returns:
        One row per satellite count:
        ``{"satellites", "union", "worst_case", "cluster"}`` (trial means).
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    for count in satellite_counts:
        if count < 1:
            raise ValueError(f"need at least one satellite, got {count}")
    points = [
        (int(count), trials, derive_seed(seed, "figure2c", int(count)),
         altitude_km)
        for count in satellite_counts
    ]
    rows = run_grid(_figure_2c_point, points, jobs=jobs, label="figure2c")
    recorder = _obs.active()
    if recorder.enabled:
        for row in rows:
            recorder.count("figure2c.trials", trials,
                           label=str(row["satellites"]))
    return rows
