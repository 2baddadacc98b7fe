"""Spatial indexing over satellite positions.

All-pairs candidate discovery is the O(N^2) wall between the paper's
few-hundred-satellite Figure 2 and mega-constellation scale: at 10,000
satellites the pairwise distance and line-of-sight matrices alone are
hundreds of megabytes per epoch.  This module provides a latitude/
longitude grid index over ECEF/ECI positions whose neighborhood queries
return a **provable superset** of every pair within a range limit, so
the ISL builder can evaluate geometry for ~N*k candidate pairs instead
of N^2/2.

Superset guarantee
------------------

For two points at radii ``r1, r2 >= r_min`` separated by Earth-central
angle ``theta``, the chord satisfies::

    d^2 = (r1 - r2)^2 + 2 r1 r2 (1 - cos theta) >= (2 r_min sin(theta/2))^2

so any pair within range ``D`` has ``theta <= 2 asin(min(1, D / (2 r_min)))``.
The grid therefore only needs to scan cells within that central angle:

* latitude reach is ``theta`` directly (a great-circle arc is never
  shorter than its latitude span);
* longitude reach per latitude-band pair comes from the haversine
  identity ``sin^2(dlon/2) <= sin^2(theta/2) / (cos lat1 * cos lat2)``,
  bounded with each band's smallest cosine — bands touching a pole get
  an unbounded reach and scan every longitude column (the polar case);
* longitude columns split the full circle evenly (a cell size that does
  not divide 360 degrees gets slightly narrower columns) and wrap modulo
  the column count, so neighborhoods cross the antimeridian without
  special-casing.

Layout
------

Points are sorted by cell key (``band * columns + column``); each
occupied cell is a contiguous run of that order, addressed by a start
offset and a count.  A query enumerates the cells it must scan as
arrays — band offsets times each band pair's column reach — and expands
the occupied ones into point indices with one ragged repeat, so no
Python loop runs per cell.

Determinism
-----------

:meth:`SpatialGridIndex.candidate_pairs` returns pairs with ``i < j``
sorted lexicographically — exactly the order ``np.triu_indices`` walks
the full matrix — so downstream stable sorts break ties identically to
the all-pairs path and pruning changes nothing but wall clock.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

#: Band cosines at or below this are treated as polar (scan all columns).
_POLAR_COS_EPS = 1e-9


def max_central_angle_rad(max_range_km: float, min_radius_km: float) -> float:
    """Largest Earth-central angle a pair within range can subtend.

    Args:
        max_range_km: Chord-distance limit between the two points.
        min_radius_km: Lower bound on both points' geocentric radii.

    Returns:
        The central-angle bound in radians; ``math.pi`` when the range
        covers antipodal points (no pruning possible).
    """
    if min_radius_km <= 0.0:
        raise ValueError(f"min radius must be positive, got {min_radius_km}")
    sin_half = max_range_km / (2.0 * min_radius_km)
    if sin_half >= 1.0:
        return math.pi
    return 2.0 * math.asin(max(0.0, sin_half))


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``concatenate([arange(c) for c in counts])`` without the loop."""
    total = int(counts.sum())
    starts = np.cumsum(counts) - counts
    return np.arange(total, dtype=np.int64) - np.repeat(starts, counts)


class SpatialGridIndex:
    """A latitude/longitude grid over one epoch's satellite positions.

    Args:
        positions_km: ``(N, 3)`` ECEF/ECI position vectors.  Every row
            must have positive norm (a spacecraft is never at the
            geocenter).
        cell_size_deg: Angular cell size: the latitude band height, and
            the upper bound on the longitude column width.  Smaller
            cells prune harder but scan more cells per query.
    """

    def __init__(self, positions_km: np.ndarray, cell_size_deg: float = 8.0):
        if cell_size_deg <= 0.0 or cell_size_deg > 180.0:
            raise ValueError(
                f"cell size must be in (0, 180] degrees, got {cell_size_deg}"
            )
        pos = np.asarray(positions_km, dtype=float)
        if pos.size == 0:
            pos = pos.reshape(0, 3)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {pos.shape}")
        radius = np.sqrt((pos * pos).sum(axis=1))
        if np.any(radius <= 0.0):
            raise ValueError("positions must have positive norm")
        self.positions = pos
        self.cell_size_deg = float(cell_size_deg)
        self.count = pos.shape[0]
        self._radius_min = float(radius.min()) if self.count else 0.0

        self.n_lat_bands = int(math.ceil(180.0 / self.cell_size_deg))
        self.n_lon_cols = int(math.ceil(360.0 / self.cell_size_deg))
        # Equal-width columns: a narrow last column would make a column
        # count across the antimeridian span less longitude than the
        # reach assumes, and the scan would miss pairs.
        self.col_width_deg = 360.0 / self.n_lon_cols

        lat_deg = np.degrees(np.arcsin(np.clip(pos[:, 2] / np.where(
            radius > 0.0, radius, 1.0), -1.0, 1.0)))
        lon_deg = np.degrees(np.arctan2(pos[:, 1], pos[:, 0]))
        # floor() assigns a point exactly on a cell boundary to the upper
        # cell; the pole itself (lat = +90) clips into the top band, and
        # lon = +/-180 wraps into column 0 — one column, no seam.
        self._band = np.clip(
            np.floor((lat_deg + 90.0) / self.cell_size_deg).astype(np.int64),
            0, self.n_lat_bands - 1,
        )
        self._col = (
            np.floor((lon_deg + 180.0) / self.col_width_deg).astype(np.int64)
            % self.n_lon_cols
        )

        # Stable sort keeps each cell's run in ascending point index.
        keys = self._band * self.n_lon_cols + self._col
        self._order = np.argsort(keys, kind="stable")
        cell_keys, starts, counts = np.unique(
            keys[self._order], return_index=True, return_counts=True
        )
        self._cell_keys = cell_keys.astype(np.int64)
        self._cell_start = starts.astype(np.int64)
        self._cell_count = counts.astype(np.int64)
        # Dense cell key -> occupied-cell slot, -1 for an empty cell.
        self._slot = np.full(self.n_lat_bands * self.n_lon_cols, -1,
                             dtype=np.int64)
        self._slot[self._cell_keys] = np.arange(self._cell_keys.size)

        # Smallest |cos(latitude)| over each band, for longitude reach.
        edges = -90.0 + self.cell_size_deg * np.arange(self.n_lat_bands + 1)
        edges = np.clip(edges, -90.0, 90.0)
        edge_cos = np.cos(np.radians(edges))
        self._band_min_cos = np.minimum(edge_cos[:-1], edge_cos[1:])

    # -- structure ------------------------------------------------------

    def cell_of(self, index: int) -> Tuple[int, int]:
        """``(latitude band, longitude column)`` of one point."""
        return int(self._band[index]), int(self._col[index])

    @property
    def occupied_cell_count(self) -> int:
        return int(self._cell_keys.size)

    def _reaches(self, theta_rad: float):
        """Band reach plus per-band-pair longitude reach parameters."""
        theta_deg = math.degrees(theta_rad)
        band_reach = int(theta_deg // self.cell_size_deg) + 1
        sin_half_sq = math.sin(theta_rad / 2.0) ** 2
        return band_reach, sin_half_sq

    def _col_reach(self, sin_half_sq: float, cos_a: float,
                   cos_b: float) -> int:
        """Longitude reach in columns for one band pair.

        Returns ``self.n_lon_cols`` (scan everything) when either band
        touches a pole or the haversine bound saturates.
        """
        denom = cos_a * cos_b
        if denom <= _POLAR_COS_EPS or sin_half_sq >= denom:
            return self.n_lon_cols
        dlon_deg = math.degrees(2.0 * math.asin(math.sqrt(sin_half_sq / denom)))
        return int(dlon_deg // self.col_width_deg) + 1

    def _column_windows(self, col: np.ndarray, reach: np.ndarray):
        """Columns each window scans, expanded: ``(window id, column)``.

        A window centred on ``col[k]`` spans ``-reach[k] .. +reach[k]``
        columns modulo the column count, or every column once the span
        would wrap onto itself.
        """
        full = 2 * reach + 1 >= self.n_lon_cols
        width = np.where(full, self.n_lon_cols, 2 * reach + 1)
        first = np.where(full, 0, col - reach)
        window = np.repeat(np.arange(col.size, dtype=np.int64), width)
        columns = (first[window] + _ragged_arange(width)) % self.n_lon_cols
        return window, columns

    def _members(self, slots: np.ndarray) -> np.ndarray:
        """Point indices of the given occupied cells, run after run."""
        counts = self._cell_count[slots]
        offsets = np.repeat(self._cell_start[slots], counts)
        return self._order[offsets + _ragged_arange(counts)]

    # -- queries --------------------------------------------------------

    def candidate_pairs(self, max_range_km: float
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Every index pair that could be within ``max_range_km``.

        Returns:
            ``(rows, cols)`` index arrays with ``rows[k] < cols[k]``,
            sorted lexicographically by ``(row, col)`` — the traversal
            order of ``np.triu_indices`` — and guaranteed to be a
            superset of the true within-range pairs.
        """
        empty = np.empty(0, dtype=np.int64)
        if self.count < 2:
            return empty, empty
        theta = max_central_angle_rad(max_range_km, self._radius_min)
        if theta >= math.pi:
            rows, cols = np.triu_indices(self.count, k=1)
            return rows.astype(np.int64), cols.astype(np.int64)
        band_reach, sin_half_sq = self._reaches(theta)

        # Column reach of every (band, band + step) pair, step 0..reach.
        n_bands = self.n_lat_bands
        min_cos = self._band_min_cos.tolist()
        steps = band_reach + 1
        reach_table = np.array([
            [self._col_reach(sin_half_sq, min_cos[band],
                             min_cos[min(band + step, n_bands - 1)])
             for step in range(steps)]
            for band in range(n_bands)
        ], dtype=np.int64)

        # Each occupied cell A scans bands band_a .. band_a + reach and,
        # in each, a column window around col_a; a scanned cell B forms
        # the cell pair (A, B) when it is occupied and key_b >= key_a
        # (the scan from the lower key emits each cell pair once).
        cells = np.arange(self._cell_keys.size, dtype=np.int64)
        band_a = self._cell_keys // self.n_lon_cols
        col_a = self._cell_keys % self.n_lon_cols
        scan_cell = np.repeat(cells, steps)
        scan_step = np.tile(np.arange(steps, dtype=np.int64), cells.size)
        scan_band = band_a[scan_cell] + scan_step
        inside = scan_band < n_bands
        scan_cell = scan_cell[inside]
        scan_band = scan_band[inside]
        reach = reach_table[band_a[scan_cell], scan_step[inside]]
        window, col_b = self._column_windows(col_a[scan_cell], reach)
        cell_a = scan_cell[window]
        key_b = scan_band[window] * self.n_lon_cols + col_b
        cell_b = self._slot[key_b]
        keep = (cell_b >= 0) & (key_b >= self._cell_keys[cell_a])
        cell_a = cell_a[keep]
        cell_b = cell_b[keep]

        # Expand each cell pair into its point pairs with one ragged
        # repeat; within one cell only the upper triangle is kept.
        count_a = self._cell_count[cell_a]
        count_b = self._cell_count[cell_b]
        sizes = count_a * count_b
        pair = np.repeat(np.arange(cell_a.size, dtype=np.int64), sizes)
        local = _ragged_arange(sizes)
        local_a = local // count_b[pair]
        local_b = local - local_a * count_b[pair]
        same = cell_a[pair] == cell_b[pair]
        keep = ~same | (local_a < local_b)
        pair = pair[keep]
        point_a = self._order[self._cell_start[cell_a[pair]] + local_a[keep]]
        point_b = self._order[self._cell_start[cell_b[pair]] + local_b[keep]]
        if point_a.size == 0:
            return empty, empty
        # Every point pair appears once, so sorting the flat pair key
        # yields the lexicographic (row, col) order.
        flat = np.sort(np.minimum(point_a, point_b) * np.int64(self.count)
                       + np.maximum(point_a, point_b))
        rows = flat // self.count
        return rows, flat - rows * self.count

    def query_radius(self, position_km: np.ndarray,
                     max_range_km: float) -> np.ndarray:
        """Indices of every point that could be within range of a probe.

        A superset by the same central-angle bound, using the probe's own
        radius when it is below the fleet minimum.  Returns a sorted
        index array; empty when no occupied cell is reachable.
        """
        if self.count == 0:
            return np.empty(0, dtype=np.int64)
        probe = np.asarray(position_km, dtype=float).reshape(3)
        probe_radius = float(np.sqrt((probe * probe).sum()))
        if probe_radius <= 0.0:
            return np.arange(self.count, dtype=np.int64)
        theta = max_central_angle_rad(
            max_range_km, min(probe_radius, self._radius_min)
        )
        if theta >= math.pi:
            return np.arange(self.count, dtype=np.int64)
        band_reach, sin_half_sq = self._reaches(theta)
        lat_q = math.degrees(math.asin(max(-1.0, min(1.0, probe[2] / probe_radius))))
        lon_q = math.degrees(math.atan2(probe[1], probe[0]))
        band_q = min(
            self.n_lat_bands - 1,
            max(0, int((lat_q + 90.0) // self.cell_size_deg)),
        )
        col_q = int((lon_q + 180.0) // self.col_width_deg) % self.n_lon_cols
        cos_q = math.cos(math.radians(lat_q))

        bands = np.arange(max(0, band_q - band_reach),
                          min(self.n_lat_bands - 1, band_q + band_reach) + 1,
                          dtype=np.int64)
        reach = np.array([
            self._col_reach(sin_half_sq, cos_q, float(self._band_min_cos[band]))
            for band in bands.tolist()
        ], dtype=np.int64)
        window, cols = self._column_windows(
            np.full(bands.size, col_q, dtype=np.int64), reach
        )
        slots = self._slot[bands[window] * self.n_lon_cols + cols]
        return np.sort(self._members(slots[slots >= 0]))
