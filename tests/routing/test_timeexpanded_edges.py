"""Edge-case tests for time-expanded store-and-forward routing."""

import networkx as nx
import pytest

from repro.routing.timeexpanded import TimeExpandedRouter

BACKENDS = ["networkx", "csr"]


class FakeSnapshot:
    def __init__(self, time_s, edges, nodes=("a", "b", "c")):
        self.time_s = time_s
        self.graph = nx.Graph()
        self.graph.add_nodes_from(nodes)
        for u, v, delay in edges:
            self.graph.add_edge(u, v, delay_s=delay)


@pytest.fixture
def intermittent():
    """a-b contact in epoch 0; b-c contact only in epoch 2."""
    return [
        FakeSnapshot(0.0, [("a", "b", 0.01)]),
        FakeSnapshot(60.0, []),
        FakeSnapshot(120.0, [("b", "c", 0.01)]),
    ]


class TestSnapshotIngestion:
    def test_generator_input_materialized(self, intermittent):
        router = TimeExpandedRouter(snap for snap in intermittent)
        assert len(router.snapshots) == 3
        assert router.earliest_arrival("a", "c", 0.0) is not None

    def test_empty_generator_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            TimeExpandedRouter(snap for snap in ())

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            TimeExpandedRouter([])


class TestSourceEqualsTarget:
    def test_zero_delay_route(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        route = router.earliest_arrival("b", "b", departure_s=70.0)
        assert route is not None
        assert route.arrival_s == route.departure_s == 70.0
        assert route.delivery_delay_s == 0.0
        assert route.hops == ()
        assert route.epochs_waited == 0

    def test_unknown_entity_still_none(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        assert router.earliest_arrival("ghost", "ghost", 0.0) is None


class TestHorizonClipping:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unreachable_within_horizon(self, backend):
        # c exists but never has a contact: no plan can reach it.
        snaps = [
            FakeSnapshot(0.0, [("a", "b", 0.01)]),
            FakeSnapshot(60.0, [("a", "b", 0.01)]),
        ]
        router = TimeExpandedRouter(snaps, backend=backend)
        assert router.earliest_arrival("a", "c", 0.0) is None

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_late_departure_clips_past_contacts(self, intermittent, backend):
        router = TimeExpandedRouter(intermittent, backend=backend)
        # The only a-b contact lives in epoch 0: departing in epoch 1 or
        # later, that contact is history and a can no longer reach c.
        assert router.earliest_arrival("a", "c", 60.0) is None
        assert router.earliest_arrival("a", "c", 59.999) is not None

    def test_contact_after_departure_epoch_still_usable(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        # b holds the bundle from epoch 1 until the epoch-2 contact.
        route = router.earliest_arrival("b", "c", 60.0)
        assert route is not None
        assert route.epochs_waited == 1
        assert route.arrival_s == pytest.approx(120.0 + 0.01)


class TestStorageAccounting:
    def test_epochs_waited_counts_storage_edges(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        route = router.earliest_arrival("a", "c", 0.0)
        assert route.epochs_waited == 2
        # Arrival = two 60 s storage waits + both contact delays.
        assert route.arrival_s == pytest.approx(120.0 + 0.02)
        assert route.delivery_delay_s == pytest.approx(120.02)
        assert [(u, v) for _t, u, v in route.hops] == [
            ("a", "b"), ("b", "c"),
        ]

    def test_hop_timestamps_reflect_waits(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        route = router.earliest_arrival("a", "c", 0.0)
        first_hop, second_hop = route.hops
        assert first_hop[0] == pytest.approx(0.01)
        assert second_hop[0] == pytest.approx(120.02)

    def test_no_storage_for_instant_path(self):
        snaps = [FakeSnapshot(0.0, [("a", "b", 0.01), ("b", "c", 0.01)])]
        router = TimeExpandedRouter(snaps)
        route = router.earliest_arrival("a", "c", 0.0)
        assert route.epochs_waited == 0
        assert route.delivery_delay_s == pytest.approx(0.02)


class TestDeliveryRatioDeterminism:
    def test_repeated_calls_identical(self, intermittent):
        router = TimeExpandedRouter(intermittent)
        pairs = [("a", "c"), ("c", "a"), ("a", "b"), ("b", "c")]
        ratios = {router.delivery_ratio(pairs, 0.0) for _ in range(5)}
        assert len(ratios) == 1

    def test_backends_agree(self, intermittent):
        pairs = [("a", "c"), ("c", "a"), ("a", "b"), ("b", "c")]
        ratios = {
            TimeExpandedRouter(intermittent,
                               backend=backend).delivery_ratio(pairs, 0.0)
            for backend in BACKENDS
        }
        assert len(ratios) == 1

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_routes_identical_across_instances(self, intermittent, backend):
        first = TimeExpandedRouter(intermittent, backend=backend)
        second = TimeExpandedRouter(intermittent, backend=backend)
        assert (first.earliest_arrival("a", "c", 0.0)
                == second.earliest_arrival("a", "c", 0.0))
