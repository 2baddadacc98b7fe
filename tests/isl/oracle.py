"""Scalar reference implementations of the ISL snapshot pipeline.

The production code runs candidate discovery and link assignment as
array passes.  These are the loop formulations they replaced, kept as
test oracles: a per-cell scan of the spatial grid, and the per-pair
nearest-first greedy that prices every candidate through
:func:`~repro.isl.link.best_link_between`.  The property suites assert
the array code reproduces them exactly.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.core.spatial import SpatialGridIndex, max_central_angle_rad
from repro.isl.link import best_link_between
from repro.isl.topology import IslTopologyBuilder, TopologySnapshot
from repro.orbits.visibility import line_of_sight_mask


def loop_candidate_pairs(index: SpatialGridIndex, max_range_km: float
                         ) -> Tuple[np.ndarray, np.ndarray]:
    """``SpatialGridIndex.candidate_pairs`` as a per-cell Python loop."""
    empty = np.empty(0, dtype=np.int64)
    if index.count < 2:
        return empty, empty
    theta = max_central_angle_rad(max_range_km, index._radius_min)
    if theta >= math.pi:
        rows, cols = np.triu_indices(index.count, k=1)
        return rows.astype(np.int64), cols.astype(np.int64)
    band_reach, sin_half_sq = index._reaches(theta)
    n_cols = index.n_lon_cols

    keys = index._band * n_cols + index._col
    order = np.argsort(keys, kind="stable")
    cells: Dict[int, np.ndarray] = {}
    sorted_keys = keys[order]
    uniq, starts = np.unique(sorted_keys, return_index=True)
    bounds = np.append(starts, index.count)
    for k, key in enumerate(uniq):
        cells[int(key)] = order[bounds[k]:bounds[k + 1]]

    lo_parts = []
    hi_parts = []
    for key_a in cells:
        band_a, col_a = divmod(key_a, n_cols)
        members_a = cells[key_a]
        band_stop = min(band_a + band_reach, index.n_lat_bands - 1)
        for band_b in range(band_a, band_stop + 1):
            reach = index._col_reach(
                sin_half_sq,
                float(index._band_min_cos[band_a]),
                float(index._band_min_cos[band_b]),
            )
            if 2 * reach + 1 >= n_cols:
                cols_b = range(n_cols)
            else:
                cols_b = ((col_a + d) % n_cols for d in range(-reach, reach + 1))
            for col_b in cols_b:
                key_b = band_b * n_cols + col_b
                if key_b < key_a:
                    continue
                members_b = cells.get(key_b)
                if members_b is None:
                    continue
                if key_b == key_a:
                    tri_r, tri_c = np.triu_indices(len(members_a), k=1)
                    lo_parts.append(members_a[tri_r])
                    hi_parts.append(members_a[tri_c])
                else:
                    ii = np.repeat(members_a, len(members_b))
                    jj = np.tile(members_b, len(members_a))
                    lo_parts.append(np.minimum(ii, jj))
                    hi_parts.append(np.maximum(ii, jj))
    if not lo_parts:
        return empty, empty
    lo = np.concatenate(lo_parts)
    hi = np.concatenate(hi_parts)
    order = np.argsort(lo * np.int64(index.count) + hi, kind="stable")
    return lo[order], hi[order]


def loop_snapshot(builder: IslTopologyBuilder, time_s: float,
                  positions: Dict[str, np.ndarray],
                  exclude: Optional[Sequence[str]] = None,
                  ) -> TopologySnapshot:
    """``IslTopologyBuilder.snapshot`` as the per-pair scalar greedy.

    Candidates come from the all-pairs scan; each one still open on
    both ends is priced through ``best_link_between`` in nearest-first
    order and accepted when a link closes.
    """
    excluded = frozenset(exclude or ())
    nodes = [n for n in builder.nodes if n.node_id not in excluded]
    graph = nx.Graph()
    for node in nodes:
        graph.add_node(node.node_id, owner=node.owner)
    candidates = []
    if len(nodes) >= 2:
        pos_matrix = np.stack(
            [np.asarray(positions[n.node_id], dtype=float) for n in nodes]
        )
        rows, cols = np.triu_indices(len(nodes), k=1)
        delta = pos_matrix[rows] - pos_matrix[cols]
        distances = np.sqrt((delta * delta).sum(axis=-1))
        feasible = (distances <= builder.max_range_km) & line_of_sight_mask(
            pos_matrix[rows], pos_matrix[cols], builder.grazing_altitude_km,
        )
        rows, cols = rows[feasible], cols[feasible]
        distances = distances[feasible]
        order = np.argsort(distances, kind="stable")
        candidates = zip(distances[order].tolist(), rows[order].tolist(),
                         cols[order].tolist())

    degree = {node.node_id: 0 for node in nodes}
    for distance, row, col in candidates:
        node_a = nodes[row]
        node_b = nodes[col]
        if degree[node_a.node_id] >= node_a.max_degree:
            continue
        if degree[node_b.node_id] >= node_b.max_degree:
            continue
        link = best_link_between(
            node_a.node_id, node_a.terminals,
            node_b.node_id, node_b.terminals,
            distance,
            prefer_optical=node_a.allow_optical and node_b.allow_optical,
        )
        if link is None:
            continue
        graph.add_edge(node_a.node_id, node_b.node_id, link=link,
                       delay_s=link.propagation_delay_s,
                       capacity_bps=link.capacity_bps)
        degree[node_a.node_id] += 1
        degree[node_b.node_id] += 1
    return TopologySnapshot(
        time_s=time_s,
        graph=graph,
        positions={k: np.asarray(v, dtype=float) for k, v in positions.items()},
    )
