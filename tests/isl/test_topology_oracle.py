"""Property tests: the array ISL builder equals the scalar greedy.

Random heterogeneous fleets mix every size class's terminals (plus
variants that move the RF and optical capacities around), switch optical
off on some nodes, cap degrees at 0-4 and exclude random nodes.  The
builder must reproduce the per-pair ``best_link_between`` greedy of
``tests/isl/oracle.py`` edge for edge, down to the ``repr`` of every
:class:`~repro.isl.link.IslLink` — the form ``NetworkSnapshot.digest``
hashes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isl.topology import IslNode, IslTopologyBuilder, greedy_degree_capped
from repro.orbits.constants import EARTH_RADIUS_KM
from repro.phy.optical import OpticalTerminal
from repro.phy.rf import (
    RFTerminal,
    standard_ku_space_terminal,
    standard_sband_isl_terminal,
    standard_uhf_isl_terminal,
)
from tests.isl.oracle import loop_snapshot

#: Terminals a node draws from; the ground-band terminal is not an ISL
#: technology and must be ignored.
TERMINALS = [
    standard_uhf_isl_terminal(),
    standard_sband_isl_terminal(),
    RFTerminal("s_band", tx_power_w=40.0, antenna_gain_dbi=22.0),
    RFTerminal("uhf", tx_power_w=20.0, antenna_gain_dbi=12.0,
               noise_temp_k=300.0),
    OpticalTerminal(),
    OpticalTerminal(tx_power_w=4.0, aperture_m=0.1),
    # Narrow electrical bandwidth: the 2 bps/Hz clip binds.
    OpticalTerminal(data_bandwidth_hz=1e6),
    # Wide beam: low gain, so the Shannon capacity binds or fails.
    OpticalTerminal(tx_power_w=0.2, beam_divergence_urad=400.0),
    standard_ku_space_terminal(),
]


@st.composite
def fleets(draw, max_nodes=28):
    count = draw(st.integers(min_value=0, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    nodes = []
    for index in range(count):
        picks = draw(st.lists(st.integers(0, len(TERMINALS) - 1),
                              max_size=4))
        nodes.append(IslNode(
            f"n{index:02d}",
            [TERMINALS[pick] for pick in picks],
            max_degree=draw(st.integers(min_value=0, max_value=4)),
            allow_optical=draw(st.booleans()),
            owner=f"op{index % 3}",
        ))
    vecs = rng.normal(size=(count, 3))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    radii = rng.uniform(EARTH_RADIUS_KM + 400.0, EARTH_RADIUS_KM + 2500.0,
                        size=(count, 1))
    positions = {node.node_id: pos for node, pos in zip(nodes, vecs * radii)}
    excluded = [node.node_id for node in nodes
                if draw(st.integers(0, 5)) == 0]
    max_range_km = draw(st.sampled_from([2000.0, 4000.0, 6000.0, 9000.0]))
    return nodes, positions, excluded, max_range_km


def _content(snap):
    """Nodes, then edges in graph order, each with its data ``repr``."""
    return (
        [(node, repr(sorted(data.items())))
         for node, data in snap.graph.nodes(data=True)],
        [(a, b, repr(sorted(data.items())))
         for a, b, data in snap.graph.edges(data=True)],
    )


class TestArrayBuilderMatchesOracle:
    @given(fleet=fleets())
    @settings(max_examples=120, deadline=None)
    def test_edge_for_edge_with_link_repr(self, fleet):
        nodes, positions, excluded, max_range_km = fleet
        builder = IslTopologyBuilder(nodes, max_range_km=max_range_km,
                                     spatial_index=False)
        snap = builder.snapshot(0.0, positions, exclude=excluded)
        oracle = loop_snapshot(builder, 0.0, positions, exclude=excluded)
        assert _content(snap) == _content(oracle)

    @given(fleet=fleets())
    @settings(max_examples=60, deadline=None)
    def test_degree_caps_hold(self, fleet):
        nodes, positions, excluded, max_range_km = fleet
        snap = IslTopologyBuilder(nodes, max_range_km=max_range_km).snapshot(
            0.0, positions, exclude=excluded
        )
        for node in nodes:
            assert snap.degree_of(node.node_id) <= max(node.max_degree, 0)
            if node.node_id in excluded:
                assert node.node_id not in snap.graph

    @given(fleet=fleets())
    @settings(max_examples=60, deadline=None)
    def test_spatial_path_equals_all_pairs(self, fleet):
        nodes, positions, excluded, max_range_km = fleet
        dense = IslTopologyBuilder(nodes, max_range_km=max_range_km,
                                   spatial_index=False)
        grid = IslTopologyBuilder(nodes, max_range_km=max_range_km,
                                  spatial_index=True)
        assert (_content(grid.snapshot(0.0, positions, exclude=excluded))
                == _content(dense.snapshot(0.0, positions,
                                           exclude=excluded)))

    @given(fleet=fleets())
    @settings(max_examples=60, deadline=None)
    def test_exclusion_equals_building_without(self, fleet):
        nodes, positions, excluded, max_range_km = fleet
        full = IslTopologyBuilder(nodes, max_range_km=max_range_km)
        survivors = IslTopologyBuilder(
            [node for node in nodes if node.node_id not in excluded],
            max_range_km=max_range_km,
        )
        assert (_content(full.snapshot(0.0, positions, exclude=excluded))
                == _content(survivors.snapshot(0.0, positions)))

    def test_large_mixed_fleet_crosses_greedy_blocks(self):
        # Thousands of candidates: the greedy's saturation sweeps run
        # between many blocks, on both candidate-discovery paths.
        rng = np.random.default_rng(2024)
        count = 320
        nodes = [
            IslNode(f"n{index:03d}",
                    [TERMINALS[pick] for pick in
                     rng.choice(len(TERMINALS), size=3, replace=False)],
                    max_degree=int(rng.integers(0, 5)),
                    allow_optical=bool(rng.random() < 0.7))
            for index in range(count)
        ]
        vecs = rng.normal(size=(count, 3))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        positions = {node.node_id: pos for node, pos in
                     zip(nodes, vecs * (EARTH_RADIUS_KM + 800.0))}
        excluded = [node.node_id for node in nodes[::17]]
        oracle = None
        for spatial in (False, True):
            builder = IslTopologyBuilder(nodes, max_range_km=5000.0,
                                         spatial_index=spatial)
            snap = builder.snapshot(0.0, positions, exclude=excluded)
            if oracle is None:
                oracle = _content(loop_snapshot(builder, 0.0, positions,
                                                exclude=excluded))
                assert len(oracle[1]) > 100
            assert _content(snap) == oracle


def _sequential_greedy(rows, cols, max_degree):
    degree = [0] * len(max_degree)
    accepted = []
    for k, (row, col) in enumerate(zip(rows, cols)):
        if degree[row] < max_degree[row] and degree[col] < max_degree[col]:
            degree[row] += 1
            degree[col] += 1
            accepted.append(k)
    return accepted


class TestGreedyDegreeCapped:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           nodes=st.integers(min_value=2, max_value=60),
           pairs=st.integers(min_value=0, max_value=3000))
    @settings(max_examples=60, deadline=None)
    def test_matches_sequential_walk(self, seed, nodes, pairs):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, nodes, size=pairs)
        cols = rng.integers(0, nodes, size=pairs)
        rows, cols = np.minimum(rows, cols), np.maximum(rows, cols)
        keep = rows < cols
        rows, cols = rows[keep], cols[keep]
        max_degree = rng.integers(-1, 5, size=nodes).tolist()
        accepted = greedy_degree_capped(rows, cols, max_degree)
        assert accepted.tolist() == _sequential_greedy(
            rows.tolist(), cols.tolist(), max_degree
        )
