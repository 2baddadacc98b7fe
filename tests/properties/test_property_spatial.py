"""Property-based tests for the spatial grid's superset guarantee."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.spatial import SpatialGridIndex
from tests.isl.oracle import loop_candidate_pairs

EARTH_RADIUS_KM = 6378.137


def _positions(seed, count):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(count, 3))
    norms = np.linalg.norm(vecs, axis=1, keepdims=True)
    radii = rng.uniform(EARTH_RADIUS_KM + 300.0, EARTH_RADIUS_KM + 2000.0,
                        size=(count, 1))
    return vecs / norms * radii


class TestSpatialSupersetProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           count=st.integers(min_value=2, max_value=64),
           cell_deg=st.floats(min_value=2.0, max_value=45.0),
           max_range_km=st.floats(min_value=10.0, max_value=20_000.0))
    @settings(max_examples=40, deadline=None)
    def test_candidates_superset_of_within_range_pairs(
            self, seed, count, cell_deg, max_range_km):
        positions = _positions(seed, count)
        index = SpatialGridIndex(positions, cell_size_deg=cell_deg)
        rows, cols = index.candidate_pairs(max_range_km)
        candidates = set(zip(rows.tolist(), cols.tolist()))

        tri_r, tri_c = np.triu_indices(count, k=1)
        delta = positions[tri_r] - positions[tri_c]
        within = np.sqrt((delta * delta).sum(axis=-1)) <= max_range_km
        truly = set(zip(tri_r[within].tolist(), tri_c[within].tolist()))
        assert truly <= candidates

        # Deterministic traversal contract: i < j, lexicographic, unique.
        assert np.all(rows < cols)
        if rows.size:
            keys = rows * np.int64(count) + cols
            assert np.all(np.diff(keys) > 0)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           count=st.integers(min_value=1, max_value=48),
           lat_deg=st.floats(min_value=-90.0, max_value=90.0),
           lon_deg=st.floats(min_value=-180.0, max_value=180.0),
           max_range_km=st.floats(min_value=10.0, max_value=10_000.0))
    @settings(max_examples=40, deadline=None)
    def test_query_radius_superset(self, seed, count, lat_deg, lon_deg,
                                   max_range_km):
        positions = _positions(seed, count)
        index = SpatialGridIndex(positions)
        lat, lon = np.radians(lat_deg), np.radians(lon_deg)
        probe = EARTH_RADIUS_KM * np.array([
            np.cos(lat) * np.cos(lon),
            np.cos(lat) * np.sin(lon),
            np.sin(lat),
        ])
        found = set(index.query_radius(probe, max_range_km).tolist())
        distances = np.sqrt(((positions - probe) ** 2).sum(axis=1))
        truly = set(np.nonzero(distances <= max_range_km)[0].tolist())
        assert truly <= found


def _polar_and_seam_positions(seed, count):
    """Points crowded onto the poles and the +/-180 seam."""
    rng = np.random.default_rng(seed)
    lat = np.radians(np.where(rng.random(count) < 0.5,
                              rng.choice([-1.0, 1.0], count)
                              * rng.uniform(80.0, 90.0, count),
                              rng.uniform(-90.0, 90.0, count)))
    lon = np.radians(np.where(rng.random(count) < 0.5,
                              rng.choice([-1.0, 1.0], count)
                              * rng.uniform(170.0, 180.0, count),
                              rng.uniform(-180.0, 180.0, count)))
    radius = rng.uniform(EARTH_RADIUS_KM + 300.0, EARTH_RADIUS_KM + 2000.0,
                         count)
    return np.stack([radius * np.cos(lat) * np.cos(lon),
                     radius * np.cos(lat) * np.sin(lon),
                     radius * np.sin(lat)], axis=1)


class TestOffsetJoinMatchesLoopJoin:
    @given(seed=st.integers(min_value=0, max_value=10_000),
           count=st.integers(min_value=0, max_value=120),
           cell_deg=st.floats(min_value=2.0, max_value=60.0),
           max_range_km=st.floats(min_value=10.0, max_value=20_000.0),
           crowded=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_same_pairs_as_per_cell_loop(self, seed, count, cell_deg,
                                         max_range_km, crowded):
        make = _polar_and_seam_positions if crowded else _positions
        index = SpatialGridIndex(make(seed, count), cell_size_deg=cell_deg)
        rows, cols = index.candidate_pairs(max_range_km)
        loop_rows, loop_cols = loop_candidate_pairs(index, max_range_km)
        assert rows.dtype == loop_rows.dtype == np.int64
        assert np.array_equal(rows, loop_rows)
        assert np.array_equal(cols, loop_cols)

    def test_cell_size_not_dividing_360_keeps_superset(self):
        # 360 / 44.875 is not whole: 44.875-degree columns leave a 9th
        # column about 1 degree wide, so a window across the antimeridian
        # spanned less longitude than its reach assumed and lost
        # (17, 23).  Equal-width columns keep the superset.
        positions = _positions(0, 27)
        index = SpatialGridIndex(positions, cell_size_deg=44.875)
        rows, cols = index.candidate_pairs(1481.0)
        delta = positions[17] - positions[23]
        assert np.sqrt((delta * delta).sum()) <= 1481.0
        assert (17, 23) in set(zip(rows.tolist(), cols.tolist()))
