"""The array configuration model reproduces the networkx realisation exactly.

Below ``LARGE_OVERLAY_THRESHOLD`` peers, ``powerlaw_configuration_topology``
pairs shuffled degree stubs with array operations instead of building a
``networkx.configuration_model`` multigraph.  Consumers iterate neighbour
sets unsorted, so the overlay must match the networkx one not only in its
edges but in its peer order and in every neighbour set's iteration order.
The reference below is the networkx realisation and the re-sorting
connectivity patch that the generator used before.
"""

import networkx as nx
import numpy as np
import pytest

import repro.overlay.generators as generators
from repro.overlay.generators import (
    LARGE_OVERLAY_THRESHOLD,
    powerlaw_configuration_topology,
    powerlaw_degree_sequence,
)
from repro.overlay.topology import OverlayTopology
from repro.utils.rng import make_rng


def networkx_overlay(degrees, seed):
    """The configuration model through networkx: simple graph, no self-loops."""
    graph = nx.Graph(nx.configuration_model(degrees.tolist(), seed=seed))
    graph.remove_edges_from(nx.selfloop_edges(graph))
    return OverlayTopology.from_networkx(graph)


def reference_patch(topology, rng):
    """Merge components into the largest, re-sorting the merged set each time."""
    components = topology.connected_components()
    if len(components) <= 1:
        return
    main = components[0]
    main_list = sorted(main)
    for component in components[1:]:
        source = sorted(component)[int(rng.integers(len(component)))]
        target = main_list[int(rng.integers(len(main_list)))]
        topology.add_edge(source, target)
        main.update(component)
        main_list = sorted(main)


def reference_topology(num_peers, shape, mean_degree, min_degree, seed):
    rng = make_rng(seed, "configuration-model")
    degrees = powerlaw_degree_sequence(
        num_peers, shape=shape, mean_degree=mean_degree, min_degree=min_degree, rng=rng
    )
    topology = networkx_overlay(degrees, int(rng.integers(2**31 - 1)))
    reference_patch(topology, rng)
    return topology


def assert_same_overlay(got, want):
    assert got.num_edges == want.num_edges
    assert set(got.edges()) == set(want.edges())
    assert list(got._adjacency) == list(want._adjacency)
    for peer in want._adjacency:
        assert list(got._adjacency[peer]) == list(want._adjacency[peer]), peer
        assert list(got.neighbors(peer)) == list(want.neighbors(peer)), peer


@pytest.mark.parametrize(
    "num_peers, mean_degree, min_degree, seeds",
    [
        (2, 1.0, 1, range(4)),
        (3, 1.5, 1, range(4)),
        (50, 6.0, 2, range(4)),
        (400, 20.0, 2, range(4)),
        (3000, 20.0, 2, range(3)),
        (10_000, 20.0, 2, range(2)),
    ],
)
def test_matches_networkx_across_sizes(num_peers, mean_degree, min_degree, seeds):
    assert num_peers < LARGE_OVERLAY_THRESHOLD
    for seed in seeds:
        got = powerlaw_configuration_topology(
            num_peers, mean_degree=mean_degree, min_degree=min_degree, seed=seed
        )
        want = reference_topology(num_peers, 2.5, mean_degree, min_degree, seed)
        assert_same_overlay(got, want)


@pytest.mark.parametrize("shape", [2.1, 2.5, 3.0])
@pytest.mark.parametrize("mean_degree, min_degree", [(1.5, 1), (6.0, 2), (20.0, 2)])
def test_matches_networkx_across_shapes_and_mean_degrees(shape, mean_degree, min_degree):
    # Mean degree 1.5 leaves many components, so the patch runs as well.
    for seed in (11, 12):
        got = powerlaw_configuration_topology(
            3000, shape=shape, mean_degree=mean_degree, min_degree=min_degree, seed=seed
        )
        want = reference_topology(3000, shape, mean_degree, min_degree, seed)
        assert_same_overlay(got, want)
        assert got.is_connected()


def test_hub_heavy_sequence_with_parallel_edges_and_self_loops():
    degrees = np.array([150, 120, 90, 60] + [3] * 40 + [1] * 20)
    assert degrees.sum() % 2 == 0
    for seed in range(5):
        multigraph = nx.configuration_model(degrees.tolist(), seed=seed)
        assert nx.number_of_selfloops(multigraph) >= 20
        parallel = multigraph.number_of_edges() - nx.Graph(multigraph).number_of_edges()
        assert parallel >= 100
        got = generators._configuration_topology(degrees, seed)
        assert_same_overlay(got, networkx_overlay(degrees, seed))
