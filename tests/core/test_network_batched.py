"""Batched gateway probes must match the scalar per-user oracle exactly.

``OpenSpaceNetwork.gateway_probe_paths`` answers every monitored user
with one block-diagonal Dijkstra; the faults sweep's ``--engine
batched`` mode stands on it.  The contract is bitwise: the same path,
node for node, as the per-user snapshot probe — through fault state,
primed position grids, and a probe that builds its own base snapshot.
"""

from typing import List, Optional

import numpy as np
import pytest

from repro.core.interop import SizeClass, build_fleet
from repro.core.network import OpenSpaceNetwork
from repro.experiments.availability import SAMPLE_SITES
from repro.ground.station import default_station_network
from repro.ground.user import UserTerminal
from repro.orbits.walker import iridium_like


def _make_network(**kwargs):
    fleet = build_fleet(iridium_like(), "probe-op", SizeClass.MEDIUM)
    return OpenSpaceNetwork(fleet, default_station_network(), **kwargs)


def _users():
    return [
        UserTerminal(f"u-{name}", site, "probe-op", min_elevation_deg=10.0)
        for name, site in SAMPLE_SITES
    ]


def _scalar_probe(network, user, time_s) -> Optional[List[str]]:
    snap = network.snapshot(time_s, users=[user])
    metrics = snap.nearest_ground_station_route(user.user_id)
    return None if metrics is None else list(metrics.path)


def _scalar_probes(network, users, time_s):
    return {u.user_id: _scalar_probe(network, u, time_s) for u in users}


@pytest.fixture(scope="module")
def network():
    return _make_network()


@pytest.fixture(scope="module")
def users():
    return _users()


class TestGatewayProbePaths:
    def test_matches_scalar_oracle_across_epochs(self, network, users):
        for time_s in np.linspace(0.0, 5400.0, 8):
            batched = network.gateway_probe_paths(float(time_s), users)
            assert batched == _scalar_probes(network, users, float(time_s))

    def test_some_user_is_routable(self, network, users):
        paths = network.gateway_probe_paths(0.0, users)
        routable = [p for p in paths.values() if p is not None]
        assert routable, "reference fleet should reach some gateway"
        for path in routable:
            assert path[0].startswith("u-")

    def test_empty_user_set(self, network):
        assert network.gateway_probe_paths(0.0, []) == {}

    def test_matches_scalar_under_faults(self, users):
        net = _make_network()
        sats = [s.satellite_id for s in net.satellites]
        net.set_fault_state(failed_satellites=sats[::5],
                            failed_links=[(sats[1], sats[2])])
        try:
            for time_s in (0.0, 900.0, 1800.0):
                batched = net.gateway_probe_paths(time_s, users)
                assert batched == _scalar_probes(net, users, time_s)
                for sat in sats[::5]:
                    for path in batched.values():
                        assert path is None or sat not in path
        finally:
            net.clear_fault_state()

    def test_all_stations_failed_means_unreachable(self, users):
        net = _make_network()
        stations = [st.station_id for st in default_station_network()]
        net.set_fault_state(failed_stations=stations)
        try:
            paths = net.gateway_probe_paths(0.0, users)
            assert all(path is None for path in paths.values())
        finally:
            net.clear_fault_state()

    def test_primed_positions_change_nothing(self, users):
        primed = _make_network()
        times = np.linspace(0.0, 3600.0, 4, endpoint=False)
        primed.prime_positions(times)
        cold = _make_network()
        for time_s in times:
            assert (primed.gateway_probe_paths(float(time_s), users)
                    == cold.gateway_probe_paths(float(time_s), users))

    def test_fresh_network_matches_per_user_oracle(self, users):
        # The probe builds the base snapshot itself here; the oracle
        # answers each user from its own snapshot on another network.
        fast = _make_network().gateway_probe_paths(300.0, users)
        oracle = _make_network()
        for user in users:
            metrics = oracle.snapshot(300.0, users=[user]) \
                .nearest_ground_station_route(user.user_id)
            expected = None if metrics is None else list(metrics.path)
            assert fast[user.user_id] == expected
