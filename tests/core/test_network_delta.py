"""Tests for the edge diff OpenSpaceNetwork records per base snapshot.

Every base snapshot is a full build; under an unchanged fault state the
network diffs its ISL and station-link edge sets against the previous
base snapshot's.  These tests pin the diff contract (what appeared,
disappeared and persisted reconciles the two edge sets exactly), that a
snapshot built after its predecessors equals a cold rebuild, the
fault-state fallback, the diff's use for route invalidation, the build
counters, and the batched position cache.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.ground.station import default_station_network
from repro.orbits.walker import walker_delta
from repro.routing.proactive import ProactiveRouter


def walker_network(count=60, planes=6, stations=True, **kwargs):
    fleet = build_fleet(walker_delta(count, planes), "delta-test",
                        SizeClass.MEDIUM)
    ground = default_station_network() if stations else []
    return OpenSpaceNetwork(fleet, ground, max_isl_range_km=3000.0,
                            **kwargs)


EPOCH_TIMES = [0.0, 120.0, 240.0, 360.0, 480.0, 600.0]

SMALL_FLEET = build_fleet(walker_delta(24, 4), "diff-test", SizeClass.MEDIUM)
SATELLITE_IDS = [spec.satellite_id for spec in SMALL_FLEET]
STATION_IDS = [station.station_id for station in default_station_network()]


def ground_pairs(snap):
    """The snapshot's station links as ``(satellite, station)`` pairs."""
    graph = snap.graph
    return {
        (a, b) if graph.nodes[a]["kind"] == "satellite" else (b, a)
        for a, b, data in graph.edges(data=True)
        if data.get("kind") == "ground_link"
    }


def assert_reconciles(diff, prev_edges, new_edges):
    appeared = set(diff.appeared)
    disappeared = set(diff.disappeared)
    persisted = set(diff.persisted)
    for pairs in (diff.appeared, diff.disappeared, diff.persisted):
        assert list(pairs) == sorted(set(pairs))
    assert (prev_edges - disappeared) | appeared == new_edges
    assert persisted == prev_edges & new_edges
    assert disappeared <= prev_edges
    assert not appeared & prev_edges


fault_states = st.fixed_dictionaries({
    "failed_satellites": st.lists(st.sampled_from(SATELLITE_IDS),
                                  max_size=4, unique=True),
    "failed_stations": st.lists(st.sampled_from(STATION_IDS),
                                max_size=3, unique=True),
    "failed_links": st.lists(
        st.tuples(st.sampled_from(SATELLITE_IDS),
                  st.sampled_from(SATELLITE_IDS)),
        max_size=3),
})


class TestEdgeDiffContract:
    @settings(max_examples=25, deadline=None)
    @given(t0=st.floats(min_value=0.0, max_value=6000.0),
           gap=st.floats(min_value=1.0, max_value=3000.0),
           faults=st.none() | fault_states)
    def test_diff_reconciles_consecutive_edge_sets(self, t0, gap, faults):
        net = OpenSpaceNetwork(SMALL_FLEET, default_station_network(),
                               max_isl_range_km=3000.0)
        if faults is not None:
            net.set_fault_state(**faults)
        t1 = t0 + gap
        before = net.snapshot(t0)
        after = net.snapshot(t1)
        delta = net.last_snapshot_delta
        assert not delta.full_rebuild
        assert delta.time_s == t1 and delta.base_time_s == t0
        assert_reconciles(delta.isl, before.isl_snapshot.edge_set(),
                          after.isl_snapshot.edge_set())
        assert_reconciles(delta.ground, ground_pairs(before),
                          ground_pairs(after))
        assert set(delta.disappeared_edges) == (
            set(delta.isl.disappeared) | set(delta.ground.disappeared))


class TestDeltaVsFullDigest:
    """A snapshot whose build recorded a diff against its predecessor
    equals a cold full rebuild of the same instant: no state leaks from
    one build into the next."""

    def test_delta_builds_hash_identical_to_full_rebuilds(self):
        walked = walker_network()
        for t in EPOCH_TIMES:
            snap = walked.snapshot(t)
            assert t == EPOCH_TIMES[0] or \
                not walked.last_snapshot_delta.full_rebuild
            assert snap.digest() == walker_network().snapshot(t).digest()
        assert walked.delta_stats["full_builds"] == len(EPOCH_TIMES)
        assert walked.delta_stats["delta_builds"] == 0

    def test_delta_csr_arrays_equal_full_rebuild(self):
        # Node insertion order fixes CSR indices and so route ties; the
        # digest alone would not see a reordering.
        walked = walker_network()
        for t in EPOCH_TIMES[:3]:
            a = walked.snapshot(t).csr_adjacency()
            b = walker_network().snapshot(t).csr_adjacency()
            assert a.nodes == b.nodes
            assert np.array_equal(a.indptr, b.indptr)
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)


class TestDeltaBookkeeping:
    def test_first_build_is_full_then_deltas(self):
        net = walker_network()
        net.snapshot(0.0)
        first = net.last_snapshot_delta
        assert first.full_rebuild and first.isl is None
        assert first.ground is None and first.base_time_s is None
        net.snapshot(120.0)
        second = net.last_snapshot_delta
        assert not second.full_rebuild
        assert second.base_time_s == 0.0
        assert second.isl is not None
        # Every base snapshot is a full build; the second is diffed.
        assert net.delta_stats["full_builds"] == 2
        assert net.delta_stats["delta_builds"] == 0
        assert net.delta_stats["edges_appeared"] == (
            len(second.isl.appeared) + len(second.ground.appeared))
        assert net.delta_stats["edges_persisted"] == len(second.isl.persisted)

    def test_disappeared_edges_feed_route_invalidation(self):
        net = walker_network()
        before = net.snapshot(0.0)
        pairs = [(a, b) for a in STATION_IDS for b in STATION_IDS if a != b]
        router = ProactiveRouter()
        router.precompute([before], pairs=pairs)
        net.snapshot(300.0)
        gone = {frozenset(pair)
                for pair in net.last_snapshot_delta.disappeared_edges}
        assert gone

        def rides_gone_edge(route):
            return any(frozenset(hop) in gone
                       for hop in zip(route.path[:-1], route.path[1:]))

        routes = {pair: router.route(*pair, 0.0) for pair in pairs}
        doomed = {pair for pair, route in routes.items()
                  if route is not None and rides_gone_edge(route)}
        assert doomed, "some gateway route should ride a vanished edge"
        dropped = router.invalidate_routes_through_edges(
            net.last_snapshot_delta.disappeared_edges)
        assert dropped == len(doomed)
        for pair, route in routes.items():
            survivor = router.route(*pair, 0.0)
            assert (survivor is None) == (route is None or pair in doomed)

    def test_cached_snapshot_does_not_rebuild(self):
        net = walker_network()
        net.snapshot(0.0)
        net.snapshot(0.0)
        assert net.delta_stats["full_builds"] == 1
        assert net.delta_stats["delta_builds"] == 0


class TestFaultEpochFallback:
    def test_fault_change_forces_full_rebuild_then_delta_resumes(self):
        net = walker_network()
        net.snapshot(0.0)
        net.snapshot(120.0)
        assert not net.last_snapshot_delta.full_rebuild
        sat = net.satellites[0].satellite_id
        net.set_fault_state(failed_satellites=[sat])
        net.snapshot(240.0)
        record = net.last_snapshot_delta
        assert record.full_rebuild and record.isl is None
        assert record.disappeared_edges == ()
        net.snapshot(360.0)
        resumed = net.last_snapshot_delta
        assert not resumed.full_rebuild and resumed.base_time_s == 240.0
        assert net.delta_stats["full_builds"] == 4

    def test_faulted_delta_matches_faulted_full_rebuild(self):
        walked = walker_network()
        sat = walked.satellites[7].satellite_id
        pair = tuple(sorted([walked.satellites[2].satellite_id,
                             walked.satellites[3].satellite_id]))
        faults = dict(failed_satellites=[sat], failed_links=[pair])
        walked.set_fault_state(**faults)
        for t in EPOCH_TIMES:
            snap = walked.snapshot(t)
            assert sat not in snap.graph
            assert not snap.graph.has_edge(*pair)
            cold = walker_network()
            cold.set_fault_state(**faults)
            assert snap.digest() == cold.snapshot(t).digest()
        assert not walked.last_snapshot_delta.full_rebuild


class TestPrimedPositions:
    def test_prime_positions_counts_and_serves_epochs(self):
        net = walker_network(stations=False)
        assert net.prime_positions(EPOCH_TIMES) == len(EPOCH_TIMES)
        batched = net.satellite_positions(EPOCH_TIMES[2])
        solo = walker_network(stations=False).satellite_positions(
            EPOCH_TIMES[2]
        )
        assert set(batched) == set(solo)
        for sat_id in batched:
            np.testing.assert_allclose(batched[sat_id], solo[sat_id],
                                       rtol=0.0, atol=1e-9)

    def test_clear_primed_positions(self):
        net = walker_network(stations=False)
        net.prime_positions(EPOCH_TIMES[:2])
        net.clear_primed_positions()
        assert net._primed_positions == {}

    def test_priming_both_networks_keeps_digests_equal(self):
        primed = walker_network()
        unprimed = walker_network()
        primed.prime_positions([0.0])
        # At t=0 the mean anomaly solve is exact either way, so even the
        # one epoch where batching cannot jitter must agree.
        assert primed.snapshot(0.0).digest() == \
            unprimed.snapshot(0.0).digest()


class TestDigest:
    def test_digest_ignores_insertion_order(self):
        import networkx as nx
        from repro.core.network import NetworkSnapshot
        from repro.isl.topology import TopologySnapshot

        g1 = nx.Graph()
        g1.add_edge("a", "b", delay_s=1.0)
        g1.add_edge("b", "c", delay_s=2.0)
        g2 = nx.Graph()
        g2.add_edge("c", "b", delay_s=2.0)
        g2.add_edge("b", "a", delay_s=1.0)
        snap1 = NetworkSnapshot(0.0, g1, TopologySnapshot(0.0, g1))
        snap2 = NetworkSnapshot(0.0, g2, TopologySnapshot(0.0, g2))
        assert snap1.digest() == snap2.digest()

    def test_digest_sensitive_to_attributes_and_time(self):
        import networkx as nx
        from repro.core.network import NetworkSnapshot
        from repro.isl.topology import TopologySnapshot

        g1 = nx.Graph()
        g1.add_edge("a", "b", delay_s=1.0)
        g2 = nx.Graph()
        g2.add_edge("a", "b", delay_s=1.0 + 1e-12)
        base = NetworkSnapshot(0.0, g1, TopologySnapshot(0.0, g1))
        tweaked = NetworkSnapshot(0.0, g2, TopologySnapshot(0.0, g2))
        later = NetworkSnapshot(1.0, g1, TopologySnapshot(1.0, g1))
        assert base.digest() != tweaked.digest()
        assert base.digest() != later.digest()
