"""Bulk overlay paths: components, generation, degree gathers and the tracker.

``OverlayTopology.connected_components`` labels components with scipy's
``csgraph`` instead of a Python BFS, ``csr_adjacency`` gathers and sorts
its rows with array passes, ``from_edge_arrays`` deduplicates edges with
a sort instead of ``np.unique``, and the tracker gathers its
preferential-attachment weights in one pass.  None of this may change a
generated overlay or a tracker draw; the tests below pin each against a
reference or a recorded digest.
"""

import hashlib

import numpy as np
import pytest

import repro.overlay.generators as generators
from repro.overlay.generators import LARGE_OVERLAY_THRESHOLD
from repro.overlay.membership import MembershipTracker
from repro.overlay.topology import OverlayTopology
from repro.utils.rng import make_rng


def reference_components(topology):
    """BFS from the smallest unvisited peer; largest first, stable on ties."""
    adjacency = topology._adjacency
    seen = set()
    components = []
    for start in sorted(adjacency):
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in adjacency[node]:
                if neighbor not in component:
                    component.add(neighbor)
                    frontier.append(neighbor)
        seen |= component
        components.append(component)
    components.sort(key=len, reverse=True)
    return components


def random_overlay(num_peers, num_edges, seed, ids=None):
    rng = np.random.default_rng(seed)
    ids = list(range(num_peers)) if ids is None else list(ids)
    topology = OverlayTopology(ids)
    for _ in range(num_edges):
        u, v = rng.choice(len(ids), size=2, replace=False)
        topology.add_edge(ids[u], ids[v])
    return topology


def edge_digest(topology):
    edges = np.array(list(topology.edges()), dtype=np.int64)
    return hashlib.sha256(edges.tobytes()).hexdigest()[:32]


class TestConnectedComponents:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_bfs_including_order(self, seed):
        topology = random_overlay(300, 160, seed)
        components = topology.connected_components()
        assert len(components) > 10
        assert components == reference_components(topology)

    def test_non_contiguous_ids_and_isolated_peers(self):
        ids = [5, 9, 40, 41, 77, 1000, 1001, 20_000, 20_001, 3]
        topology = random_overlay(len(ids), 6, seed=2, ids=ids)
        topology.add_peer(123_456)
        components = topology.connected_components()
        assert components == reference_components(topology)
        assert set().union(*components) == set(topology.peers())

    def test_negative_and_very_large_ids(self):
        ids = [-7, -1, 0, 2, 10**10, 10**10 + 1, 3 * 10**12, 5]
        topology = random_overlay(len(ids), 5, seed=3, ids=ids)
        topology.add_peer(-(10**11))
        components = topology.connected_components()
        assert components == reference_components(topology)
        assert set().union(*components) == set(topology.peers())

    def test_equal_sizes_order_by_smallest_peer(self):
        topology = OverlayTopology.from_edges(6, [(4, 5), (0, 3), (1, 2)])
        assert topology.connected_components() == [{0, 3}, {1, 2}, {4, 5}]

    def test_empty_overlay(self):
        assert OverlayTopology().connected_components() == []


class TestGeneratedOverlaysUnchanged:
    """Edge digests of seeded overlays, recorded before the bulk paths."""

    def test_networkx_side_of_the_threshold(self):
        topology = generators.scale_free_topology(3000, mean_degree=6.0, seed=3)
        assert 3000 < LARGE_OVERLAY_THRESHOLD
        assert topology.num_edges == 8601
        assert edge_digest(topology) == "7d4ede874953f6f75e6015c94edaf1cf"

    def test_array_side_of_the_threshold(self):
        topology = generators.scale_free_topology(
            LARGE_OVERLAY_THRESHOLD, mean_degree=6.0, seed=3
        )
        assert topology.num_edges == 144739
        assert edge_digest(topology) == "0674bb043a987086266aaaf254b25a26"

    @pytest.mark.parametrize(
        "num_peers, edges, digest",
        [
            (1999, 2312, "f9d09e18bd2f9a7493e7118655b00a33"),
            (2000, 2297, "2ab9cf28ffb1b5d2c2958d0664cb8473"),
        ],
    )
    def test_fragmented_overlays_patch_identically(
        self, monkeypatch, num_peers, edges, digest
    ):
        # Degree-1 peers leave hundreds of components for the connectivity
        # patch, which consumes randomness in component order.
        monkeypatch.setattr(generators, "LARGE_OVERLAY_THRESHOLD", 2000)
        topology = generators.powerlaw_configuration_topology(
            num_peers, mean_degree=1.5, min_degree=1, seed=5
        )
        assert topology.is_connected()
        assert topology.num_edges == edges
        assert edge_digest(topology) == digest


    @pytest.mark.parametrize(
        "num_peers, edges, digest",
        [
            (20_000, 22832, "0da7994d8919d45991d0e33dba5e1236"),
            (LARGE_OVERLAY_THRESHOLD, 56133, "62774c42c6af8dd4e45b0dcc38ae4eb5"),
        ],
    )
    def test_large_fragmented_overlays_patch_identically(self, num_peers, edges, digest):
        # Thousands of components on each side of the threshold: the patch
        # must make the same draws as the one that re-sorted the merged set.
        topology = generators.powerlaw_configuration_topology(
            num_peers, mean_degree=1.5, min_degree=1, seed=5
        )
        assert topology.is_connected()
        assert topology.num_edges == edges
        assert edge_digest(topology) == digest


class TestFromEdgeArrays:
    def test_matches_np_unique_dedup(self):
        rng = np.random.default_rng(1)
        src = rng.integers(0, 200, size=3000)
        dst = rng.integers(0, 200, size=3000)
        topology = OverlayTopology.from_edge_arrays(200, src, dst)
        keep = src != dst
        lo = np.minimum(src, dst)[keep]
        hi = np.maximum(src, dst)[keep]
        expected = np.unique(lo * 200 + hi)
        assert topology.num_edges == expected.size
        got = np.array([u * 200 + v for u, v in topology.edges()])
        np.testing.assert_array_equal(got, expected)


class TestDegreeGathers:
    def test_degree_array(self):
        topology = random_overlay(50, 120, seed=4)
        peers = [7, 3, 49, 0]
        degrees = topology.degree_array(peers)
        assert degrees.dtype == np.int64
        assert degrees.tolist() == [topology.degree(peer) for peer in peers]
        with pytest.raises(KeyError):
            topology.degree_array([999])

    def test_csr_rows_through_a_column_mapping(self):
        topology = random_overlay(50, 120, seed=4)
        # Half the peers carry shuffled columns; the rest are ignored.
        rng = np.random.default_rng(5)
        mapped = [int(peer) for peer in rng.permutation(50)[:25]]
        columns = {peer: int(column) for peer, column in zip(mapped, rng.permutation(90))}
        order = [7, 3, 49, 0, 123]  # 123 is not in the overlay: an empty row
        row_start, col_indices = topology.csr_adjacency(order, columns=columns)
        for row, peer in enumerate(order):
            expected = sorted(
                columns[n] for n in topology._adjacency.get(peer, ()) if n in columns
            )
            assert col_indices[row_start[row] : row_start[row + 1]].tolist() == expected


    @pytest.mark.parametrize(
        "ids",
        [
            [-3, -2, -1, 0, 1, 2, 3, 4],
            [0, 1, 2, 3, 4, 5, 6, 10**10],
            [-(10**12), 7, 8, 9, 10**15, 11, 12, 13],
        ],
        ids=["negative", "very-large", "both"],
    )
    def test_csr_rows_with_negative_and_very_large_ids(self, ids):
        # The dense id table would index from its end for negative ids and
        # need one entry per id up to the largest.
        topology = random_overlay(len(ids), 14, seed=6, ids=ids)
        order = topology.peers()
        row_start, col_indices = topology.csr_adjacency(order)
        position = {peer: index for index, peer in enumerate(order)}
        for row, peer in enumerate(order):
            expected = sorted(position[n] for n in topology.neighbors(peer))
            assert col_indices[row_start[row] : row_start[row + 1]].tolist() == expected
        # A mapping that leaves some neighbours out ignores their edges.
        columns = {peer: index for index, peer in enumerate(reversed(ids[:5]))}
        row_start, col_indices = topology.csr_adjacency(ids, columns=columns)
        for row, peer in enumerate(ids):
            expected = sorted(columns[n] for n in topology.neighbors(peer) if n in columns)
            assert col_indices[row_start[row] : row_start[row + 1]].tolist() == expected


class TestTrackerDraws:
    def test_preferential_choice_matches_per_peer_degrees(self):
        topology = random_overlay(200, 600, seed=8)
        tracker = MembershipTracker(topology.copy(), target_degree=5, seed=13)
        reference_rng = make_rng(13, "membership-tracker")
        for _ in range(20):
            chosen = tracker.select_neighbors(exclude=-1)
            candidates = topology.peers()
            weights = np.array(
                [topology.degree(peer) + 1.0 for peer in candidates], dtype=float
            )
            weights /= weights.sum()
            expected = reference_rng.choice(candidates, size=5, replace=False, p=weights)
            assert chosen == [int(peer) for peer in expected]

    def test_touched_covers_joins_departures_and_repairs(self):
        topology = OverlayTopology.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        tracker = MembershipTracker(topology, target_degree=2, seed=1)

        def neighbor_sets():
            return {peer: topology.neighbors(peer) for peer in topology.peers()}

        before = neighbor_sets()
        tracker.leave(1)  # orphans 0 and 2, each wired to a candidate
        after = neighbor_sets()
        changed = {peer for peer in after if after[peer] != before[peer]}
        assert len(changed) >= 3
        assert tracker.take_touched() == sorted(changed)
        assert tracker.take_touched() == []
        before = neighbor_sets()
        joiner = tracker.join()
        after = neighbor_sets()
        changed = {peer for peer in after if after[peer] != before.get(peer)}
        assert tracker.take_touched() == sorted(changed)
        assert joiner in changed
