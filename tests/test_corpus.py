"""Bundled synthetic graph corpus."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yesnobf.corpus import (
    _pairs_within,
    default_corpus,
    grid_graph,
    random_geometric_graph,
    ring_graph,
    write_corpus,
)
from yesnobf.topology import derive_link_sets, load_graph, select_long_path

import reference


def test_ring_shape():
    g = ring_graph(10)
    assert len(g) == 10
    assert len(g.edges) == 10
    assert all(len(g.neighbors(v)) == 2 for v in g.nodes)


def test_grid_shape():
    g = grid_graph(4, 5)
    assert len(g) == 20
    # interior 2*3 nodes have degree 4, corners 2, the rest 3
    assert len(g.edges) == 4 * 4 + 3 * 5  # rows*(cols-1) + (rows-1)*cols


def test_random_geometric_graph_is_deterministic():
    g1 = random_geometric_graph(60, 0.2, seed=5)
    g2 = random_geometric_graph(60, 0.2, seed=5)
    assert g1.nodes == g2.nodes and g1.edges == g2.edges
    g3 = random_geometric_graph(60, 0.2, seed=6)
    assert g3.edges != g1.edges


radii = st.one_of(st.floats(1e-12, 1e-3), st.floats(0.01, 0.6), st.floats(1.0, 3.0),
                  st.sampled_from([1.0, 0.5, 0.25, 0.2, 0.1, 1 / 3, 1 / 7]))


@settings(max_examples=100, deadline=None)
@given(count=st.integers(2, 80), radius=radii, seed=st.integers(0, 2**32))
@example(count=40, radius=1.0, seed=0)  # one cell
@example(count=40, radius=1e-9, seed=0)  # no edges
def test_random_geometric_graph_matches_all_pairs(count, radius, seed):
    graph = random_geometric_graph(count, radius, seed)
    assert (graph.nodes, graph.edges) == reference.geometric_graph(count, radius, seed)


@st.composite
def aligned_points(draw):
    """A radius, and points in [0, 1)^2 on fractions a/d, which are cell
    edges for d cells, on multiples of the radius, which puts points
    exactly one radius apart, or anywhere."""
    radius = draw(st.sampled_from([1.0, 2.0, 0.5, 0.25, 0.2, 0.125, 0.1, 1 / 3, 1 / 7]))
    coordinate = st.one_of(
        st.floats(0, 1, exclude_max=True),
        st.integers(1, 9).flatmap(lambda d: st.integers(0, d - 1).map(lambda a: a / d)),
        st.integers(0, int(1 / radius)).map(lambda a: a * radius).filter(lambda x: x < 1))
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=40))
    return points, radius


@settings(max_examples=300, deadline=None)
@given(case=aligned_points())
@example(case=([(0.25, 0.5), (0.5, 0.5), (0.75, 0.5), (0.5, 0.75)], 0.25))  # radius apart
def test_pairs_within_matches_all_pairs_on_cell_edges(case):
    points, radius = case
    assert sorted(_pairs_within(points, radius)) == reference.pairs_within(points, radius)


@pytest.mark.parametrize("radius", [0.0, -0.1, float("nan")])
def test_random_geometric_graph_rejects_a_radius_that_is_not_positive(radius):
    with pytest.raises(ValueError, match="radius must be positive"):
        random_geometric_graph(10, radius, seed=0)


def test_corpus_paths_span_the_target_lengths():
    lengths = []
    for name, graph in default_corpus():
        path = select_long_path(graph)
        s_links, t_links = derive_link_sets(graph, path)
        n = len(s_links)
        assert 5 <= n <= 35, f"{name}: path length {n} outside range"
        assert len(t_links) > 0, f"{name}: nothing to query"
        lengths.append(n)
    assert min(lengths) <= 10
    assert max(lengths) >= 25
    assert len(lengths) >= 12


def test_write_corpus_emits_loadable_files(tmp_path):
    paths = write_corpus(tmp_path)
    assert len(paths) == len(default_corpus())
    suffixes = {p.suffix for p in paths}
    assert suffixes == {".edgelist", ".graphml"}  # both readers stay honest
    for path, (name, graph) in zip(paths, default_corpus()):
        assert path.stem == name
        back = load_graph(path)
        assert back.edges == graph.edges
        if path.suffix == ".graphml":
            assert back.nodes == graph.nodes
        else:
            # an edge list cannot carry isolated nodes; everything that can
            # take part in an experiment survives
            connected = {v for edge in graph.edges for v in edge}
            assert set(back.nodes) == connected
