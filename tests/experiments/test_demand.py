"""Tests for the diurnal demand sweep."""

import pytest

from repro.experiments.demand import (
    demand_sweep,
    plane_count_for,
    scale_access_capacity,
)

SMALL = dict(satellite_counts=(24,), hours_utc=(4.0, 20.0),
             total_users=50_000, bands=8, equator_columns=16)


@pytest.fixture(scope="module")
def rows():
    return demand_sweep(**SMALL)


class TestDemandSweep:
    def test_row_grid_shape(self, rows):
        assert len(rows) == 2
        assert [row["hour_utc"] for row in rows] == [4.0, 20.0]
        assert all(row["satellites"] == 24 for row in rows)

    def test_users_conserved(self, rows):
        assert all(row["users"] == 50_000 for row in rows)

    def test_fixed_point_converges(self, rows):
        assert all(row["converged"] for row in rows)
        assert all(row["iterations"] >= 1 for row in rows)

    def test_diurnal_variation_visible(self, rows):
        # Global offered load is nearly flat across UTC hours (the load
        # follows the sun around the globe), but *where* it lands moves,
        # so the congestion outcome differs between hours.
        predawn, evening = rows
        assert evening["served_fraction"] != predawn["served_fraction"]
        assert evening["revenue_usd"] != predawn["revenue_usd"]

    def test_revenue_under_load(self, rows):
        assert all(row["revenue_usd"] > 0.0 for row in rows)
        assert all(row["carried_gb"] > 0.0 for row in rows)

    def test_sane_fractions(self, rows):
        for row in rows:
            assert 0.0 <= row["served_fraction"] <= 1.0
            assert 0.0 <= row["peak_utilization"] <= 1.0 + 1e-9
            assert row["p95_delay_inflation"] >= 1.0
            assert 0 <= row["routed_cells"] <= row["cells"]

    def test_deterministic_per_seed(self, rows):
        again = demand_sweep(**SMALL)
        assert again == rows
        different = demand_sweep(**SMALL, seed=8)
        assert different != rows

    def test_jobs_equivalence(self, rows):
        parallel = demand_sweep(**SMALL, jobs=2)
        assert parallel == rows

    def test_validation(self):
        with pytest.raises(ValueError, match="satellite"):
            demand_sweep(satellite_counts=(0,))
        with pytest.raises(ValueError, match="at least 3 satellites"):
            demand_sweep(satellite_counts=(2,))
        with pytest.raises(ValueError, match="hour"):
            demand_sweep(hours_utc=(24.5,))


class TestHelpers:
    def test_plane_count_deterministic_and_bounded(self):
        assert plane_count_for(24) >= 3
        assert plane_count_for(66) == plane_count_for(66)
        assert plane_count_for(400) > plane_count_for(66)

    def test_plane_count_always_divides(self):
        for satellites in range(3, 1200):
            planes = plane_count_for(satellites)
            assert planes >= 3
            assert satellites % planes == 0

    def test_plane_count_snaps_to_nearest_divisor(self):
        # sqrt(360 / 2) rounds to 13, which does not divide 360.
        assert plane_count_for(360) == 12
        assert plane_count_for(288) == 12  # already a divisor: kept
        assert plane_count_for(48) == 4  # 4 and 6 tie: the smaller
        assert plane_count_for(7) == 7  # prime: one satellite per plane

    def test_too_small_fleet_rejected(self):
        with pytest.raises(ValueError, match="plane count"):
            plane_count_for(2)

    def test_scale_access_capacity_idempotent(self):
        import networkx as nx
        g = nx.Graph()
        g.add_edge("cell-00000", "sat", kind="access_link",
                   capacity_bps=10e6, delay_s=0.004)
        g.add_edge("sat", "gw", kind="ground_link", capacity_bps=1e9)
        assert scale_access_capacity(g, {"cell-00000": 100}) == 1
        assert g["cell-00000"]["sat"]["capacity_bps"] == 10e6 * 100
        # Second call must not double-scale.
        assert scale_access_capacity(g, {"cell-00000": 100}) == 0
        assert g["cell-00000"]["sat"]["capacity_bps"] == 10e6 * 100
        # Non-access links untouched.
        assert g["sat"]["gw"]["capacity_bps"] == 1e9

    def test_scale_skips_singleton_cells(self):
        import networkx as nx
        g = nx.Graph()
        g.add_edge("cell-00001", "sat", kind="access_link",
                   capacity_bps=10e6)
        assert scale_access_capacity(g, {"cell-00001": 1}) == 0
        assert g["cell-00001"]["sat"]["capacity_bps"] == 10e6
