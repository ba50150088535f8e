"""Graphs, path selection, link sets, and the topology benchmark."""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yesnobf import bitcore, topology, yesno
from yesnobf.bitcore import MODE_DOUBLE, MODE_RANDOM, derive_seed
from yesnobf.corpus import default_corpus
from yesnobf.topology import (
    AGGREGATE_CSV_HEADER,
    TOPOLOGY_CSV_HEADER,
    DirectedLink,
    Graph,
    LengthAggregate,
    PathExperiment,
    TopologyResult,
    aggregate_by_length,
    aggregates_to_csv,
    derive_link_sets,
    load_graph,
    run_topology_experiment,
    select_long_path,
    topology_results_to_csv,
    write_edgelist,
    write_graphml,
)
from yesnobf.yesno import YesNoParams

import reference


def test_graph_normalizes_edges():
    g = Graph(nodes=["isolated"], edges=[("b", "a"), ("a", "b"), (1, 2)])
    assert g.nodes == ("1", "2", "a", "b", "isolated")
    assert g.edges == (("1", "2"), ("a", "b"))
    assert g.neighbors("a") == ("b",)
    assert "isolated" in g and g.neighbors("isolated") == ()
    assert len(g) == 5
    with pytest.raises(KeyError):
        g.neighbors("nope")


def test_graph_drops_self_loops_with_warning():
    with pytest.warns(UserWarning, match="self-loop"):
        g = Graph(edges=[("a", "a"), ("a", "b")])
    assert g.edges == (("a", "b"),)
    assert "a" in g


def test_edgelist_parsing(tmp_path):
    text = "a\tb\nb c   # forwarding backbone\n\n# standalone comment\nc d\n"
    path = tmp_path / "toy.edgelist"
    path.write_text(text)
    g = load_graph(path)
    assert g.nodes == ("a", "b", "c", "d")
    assert g.edges == (("a", "b"), ("b", "c"), ("c", "d"))


def test_edgelist_bad_line_carries_position(tmp_path):
    path = tmp_path / "broken.edgelist"
    path.write_text("a b\na b c\n")
    with pytest.raises(ValueError, match=r"broken\.edgelist:2"):
        load_graph(path)


def test_graphml_round_trip(tmp_path):
    g = Graph(nodes=["solo"], edges=[("a", "b"), ("b", "c")])
    path = tmp_path / "toy.graphml"
    write_graphml(g, path)
    back = load_graph(path)
    assert back.nodes == g.nodes
    assert back.edges == g.edges


def test_edgelist_round_trip(tmp_path):
    g = Graph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
    path = tmp_path / "toy.edgelist"
    write_edgelist(g, path)
    back = load_graph(path)
    assert back.edges == g.edges


def test_graphml_rejects_malformed_input(tmp_path):
    bad_xml = tmp_path / "bad.graphml"
    bad_xml.write_text("<graphml><graph>")
    with pytest.raises(ValueError, match="not well-formed"):
        load_graph(bad_xml)

    undeclared = tmp_path / "undeclared.graphml"
    undeclared.write_text(
        '<graphml><graph edgedefault="undirected">'
        '<node id="a"/><edge source="a" target="ghost"/>'
        "</graph></graphml>")
    with pytest.raises(ValueError, match="undeclared"):
        load_graph(undeclared)

    no_graph = tmp_path / "empty.graphml"
    no_graph.write_text("<graphml></graphml>")
    with pytest.raises(ValueError, match="no <graph>"):
        load_graph(no_graph)


def test_load_graph_format_override(tmp_path):
    path = tmp_path / "disguised.txt"
    g = Graph(edges=[("a", "b")])
    write_graphml(g, path)
    with pytest.raises(ValueError):
        load_graph(path)  # suffix says edge list
    assert load_graph(path, fmt="graphml").edges == g.edges
    with pytest.raises(ValueError, match="unknown format"):
        load_graph(path, fmt="dot")


def test_select_long_path_on_a_path_graph():
    g = Graph(edges=[("a", "b"), ("b", "c"), ("c", "d")])
    assert select_long_path(g) == ["a", "b", "c", "d"]


def test_select_long_path_breaks_ties_deterministically():
    g = Graph(edges=[("c", "x"), ("c", "y"), ("c", "z")])
    # all leaf pairs span the diameter; the lexicographically first wins
    assert select_long_path(g) == ["x", "c", "y"]


def test_select_long_path_uses_largest_component():
    g = Graph(edges=[("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("z1", "z2")])
    assert select_long_path(g) == ["a1", "a2", "a3", "a4"]


@st.composite
def small_graphs(draw):
    """Sparse graphs, so components and isolated nodes are common. Names
    are inserted unsorted, and "10" sorts before "9". A renamed twin adds
    an equal component of equal diameter, sorting before or after it."""
    names = draw(st.lists(st.text("ab019", min_size=1, max_size=3),
                          min_size=1, max_size=14, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                          max_size=2 * len(names)))
    edges = [(a, b) for a, b in pairs if a != b]
    prefix = draw(st.sampled_from(["", "0", "z"]))
    if prefix:
        names += [prefix + v for v in names]
        edges += [(prefix + a, prefix + b) for a, b in edges]
    return Graph(draw(st.permutations(names)), edges)


@settings(max_examples=300, deadline=None)
@given(graph=small_graphs())
@example(graph=Graph(nodes=["solo"]))
@example(graph=Graph(nodes=["z", "q"]))  # isolated nodes only: the first wins
@example(graph=Graph(edges=[(f"v{i}", f"v{(i + 1) % 6}") for i in range(6)]))  # all ecc. 3
@example(graph=Graph(edges=[("b9", "b10"), ("a2", "a1")]))  # equal components
def test_select_long_path_matches_the_all_pairs_definition(graph):
    assert select_long_path(graph) == reference.long_path(graph)


def test_corpus_paths_match_the_definition():
    for name, graph in default_corpus():
        assert select_long_path(graph) == reference.long_path(graph), name


def test_link_sets_on_a_triangle():
    g = Graph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
    s_links, t_links = derive_link_sets(g, ["a", "b"])
    assert [l.id for l in s_links] == ["a->b"]
    assert [l.id for l in t_links] == ["a->c", "b->a", "b->c"]

    _, without_reverse = derive_link_sets(g, ["a", "b"], include_reverse=False)
    assert [l.id for l in without_reverse] == ["a->c", "b->c"]


def test_link_sets_reject_bad_paths():
    g = Graph(edges=[("a", "b"), ("b", "c")])
    with pytest.raises(ValueError, match="empty"):
        derive_link_sets(g, [])
    with pytest.raises(ValueError, match="revisits"):
        derive_link_sets(g, ["a", "b", "a"])
    with pytest.raises(ValueError, match="not in graph"):
        derive_link_sets(g, ["a", "ghost"])
    with pytest.raises(ValueError, match="not in graph"):
        derive_link_sets(g, ["a", "c"])  # nodes exist, edge does not


def test_directed_link_identity():
    link = DirectedLink("spine3", "leaf7")
    assert link.id == "spine3->leaf7"
    assert DirectedLink("a", "b") != DirectedLink("b", "a")


def _ring(count):
    return Graph(edges=[(f"v{i:02d}", f"v{(i + 1) % count:02d}")
                        for i in range(count)])


def test_experiment_validation():
    g = _ring(6)
    exp = PathExperiment.from_graph("ring6", g, allocations=5)
    assert exp.name == "ring6"
    assert len(exp.s_links) == 3  # diameter of a 6-ring
    with pytest.raises(ValueError, match="allocations"):
        PathExperiment.from_graph("ring6", g, allocations=0)
    with pytest.raises(ValueError, match="k_bf"):
        PathExperiment.from_graph("ring6", g, k_bf=0)
    link = DirectedLink("a", "b")
    with pytest.raises(ValueError, match="overlap"):
        PathExperiment("broken", (link,), (link,))


def test_experiment_rejects_links_sharing_an_id():
    # "x"->"y->z" and "x->y"->"z" are distinct links with one id, x->y->z
    g = Graph(edges=[("x", "y->z"), ("x->y", "z"), ("z", "x")])
    with pytest.raises(ValueError, match="duplicate elements in the member set"):
        PathExperiment.from_graph("clash", g, path=["x->y", "z", "x", "y->z"])
    x_yz, xy_z = DirectedLink("x", "y->z"), DirectedLink("x->y", "z")
    with pytest.raises(ValueError, match="duplicate elements in the queryable set"):
        PathExperiment("clash", (DirectedLink("z", "x"),), (x_yz, xy_z))
    with pytest.raises(ValueError, match="overlap"):
        PathExperiment("clash", (x_yz,), (xy_z,))


def test_run_experiment_is_deterministic():
    # deliberately leaky geometry so the counts are nonzero and seed-sensitive
    params = YesNoParams.of(p=24, q=4, r=1, k=2, k_prime=1)
    exp = PathExperiment.from_graph("ring10", _ring(10), params=params,
                                    k_bf=3, allocations=40)
    first = run_topology_experiment(exp, seed=3)
    second = run_topology_experiment(exp, seed=3)
    assert first == second
    assert sum(first.yesno_counts) + sum(first.bf_counts) > 0
    assert run_topology_experiment(exp, seed=4) != first


def test_run_experiment_bookkeeping():
    params = YesNoParams.of(p=48, q=8, r=2, k=3, k_prime=2)
    exp = PathExperiment.from_graph("ring10", _ring(10), params=params,
                                    k_bf=4, allocations=60)
    res = run_topology_experiment(exp, seed=0)
    assert res.topology == "ring10"
    assert res.path_len == len(exp.s_links)
    assert res.t_size == len(exp.t_links)
    assert len(res.yesno_counts) == len(res.bf_counts) == 60
    assert res.fp_yesno_mean == pytest.approx(sum(res.yesno_counts) / 60)
    assert res.fp_bf_mean == pytest.approx(sum(res.bf_counts) / 60)
    assert all(0 <= c <= res.t_size for c in res.yesno_counts)
    if res.fp_bf_mean > 0:
        assert res.ratio == pytest.approx(res.fp_yesno_mean / res.fp_bf_mean)
    else:
        assert res.ratio is None


def test_empty_queryable_set_is_survivable():
    g = Graph(edges=[("a", "b")])
    exp = PathExperiment.from_graph("twig", g, path=["a", "b"],
                                    include_reverse=False, allocations=3)
    assert exp.t_links == ()
    res = run_topology_experiment(exp)
    assert res.t_size == 0
    assert res.fp_yesno_mean == res.fp_bf_mean == 0.0
    assert res.ratio is None

    aggregates, excluded = aggregate_by_length([res])
    assert aggregates == []
    assert excluded == 1


def _fake_result(name, n, t, yn_mean, bf_mean):
    ratio = yn_mean / bf_mean if bf_mean > 0 else None
    return TopologyResult(name, n, t, yn_mean, bf_mean, ratio)


def test_aggregate_pools_equal_lengths():
    results = [
        _fake_result("g1", 8, 20, 1.0, 4.0),   # rates 0.05 / 0.20
        _fake_result("g2", 8, 10, 1.5, 2.0),   # rates 0.15 / 0.20
        _fake_result("g3", 12, 40, 0.0, 0.0),  # no BF hits: ratio undefined
    ]
    aggregates, excluded = aggregate_by_length(results)
    assert excluded == 0
    assert [a.n for a in aggregates] == [8, 12]
    first = aggregates[0]
    assert first.rate_yesno == pytest.approx(0.10)
    assert first.rate_bf == pytest.approx(0.20)
    assert first.ratio == pytest.approx(0.5)
    assert aggregates[1].ratio is None


def test_csv_emitters():
    results = [_fake_result("g1", 8, 20, 1.0, 4.0),
               _fake_result("g3", 12, 40, 0.0, 0.0)]
    text = topology_results_to_csv(results)
    lines = text.splitlines()
    assert lines[0] == ",".join(TOPOLOGY_CSV_HEADER)
    assert lines[1] == "g1,8,20,1.000000,4.000000,0.250000"
    assert lines[2].endswith(",")  # undefined ratio stays empty

    aggregates, _ = aggregate_by_length(results)
    agg_text = aggregates_to_csv(aggregates)
    agg_lines = agg_text.splitlines()
    assert agg_lines[0] == ",".join(AGGREGATE_CSV_HEADER)
    assert agg_lines[1].startswith("8,")


@pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_DOUBLE])
# k_bf 9 takes the baseline's family to a second digest block
@pytest.mark.parametrize("name, k_bf", [("ring14", 4), ("grid6x6", 4), ("ring14", 9)],
                         ids=["ring14", "grid6x6", "ring14-k_bf9"])
def test_classic_baseline_counts_match_a_bloom_filter(name, k_bf, mode):
    # a small m keeps the counts off zero; k_bf != k and m != p, so a
    # baseline built with the yes-filter's shape would not match
    params = YesNoParams.of(p=40, q=8, r=2, k=3, k_prime=2)
    graph = dict(default_corpus())[name]
    exp = PathExperiment.from_graph(name, graph, params=params, k_bf=k_bf,
                                    allocations=50)
    res = run_topology_experiment(exp, seed=5, mode=mode)
    # with no no-filters, the reference is a classic m-bit, k_bf-hash filter
    classic = YesNoParams.of(p=params.m, q=1, r=0, k=k_bf, k_prime=0)
    s_ids = [link.id for link in exp.s_links]
    t_ids = [link.id for link in exp.t_links]
    expected = [reference.trial(classic, s_ids, t_ids, derive_seed(5, name, index),
                                mode)[1].fp_count
                for index in range(exp.allocations)]
    assert res.bf_counts == tuple(expected)
    assert sum(expected) > 0


@st.composite
def path_experiments(draw):
    """A random graph holding a random simple path, at a leaky geometry so
    that both filters see false positives."""
    nodes = [f"n{i}" for i in range(draw(st.integers(2, 12)))]
    path = draw(st.permutations(nodes))[:draw(st.integers(2, len(nodes)))]
    extra = draw(st.lists(st.tuples(st.sampled_from(nodes), st.sampled_from(nodes)),
                          max_size=40))
    graph = Graph(nodes, list(zip(path, path[1:])) + [e for e in extra if e[0] != e[1]])
    params = YesNoParams.of(p=24, q=8, r=draw(st.integers(0, 3)), k=2,
                            k_prime=draw(st.integers(1, 4)))
    return PathExperiment.from_graph(
        "random", graph, path=path, include_reverse=draw(st.booleans()),
        params=params, k_bf=draw(st.integers(1, 4)), allocations=3)


@settings(max_examples=60, deadline=None)
@given(exp=path_experiments(), seed=st.integers(0, 2**32),
       mode=st.sampled_from([MODE_RANDOM, MODE_DOUBLE]))
def test_allocations_match_the_reference_kernel(exp, seed, mode):
    res = run_topology_experiment(exp, seed=seed, mode=mode)
    s_ids = [link.id for link in exp.s_links]
    t_ids = [link.id for link in exp.t_links]
    expected = [reference.trial(exp.params, s_ids, t_ids,
                                derive_seed(seed, exp.name, i), mode)[1].fp_count
                for i in range(exp.allocations)]
    assert res.yesno_counts == tuple(expected)


def test_link_ids_are_encoded_once_per_run(monkeypatch):
    """Building the experiment encodes each link id once, and a run
    encodes none and does not re-check the link sets: every run reuses
    what the experiment made."""
    encoded = Counter()
    encode = bitcore.element_to_bytes

    def recording(element):
        encoded[element] += 1
        return encode(element)

    def no_check(*sets):
        raise AssertionError("the run re-checked its link sets")

    for module in (bitcore, yesno, topology):
        monkeypatch.setattr(module, "element_to_bytes", recording, raising=False)
    exp = PathExperiment.from_graph("ring10", _ring(10), allocations=50)
    link_ids = {link.id for link in exp.s_links + exp.t_links}
    assert {e: encoded[e] for e in link_ids} == dict.fromkeys(link_ids, 1)
    for module in (yesno, topology):
        monkeypatch.setattr(module, "_encoded_sets", no_check)
    for _ in range(2):
        encoded.clear()
        run_topology_experiment(exp, seed=1)
        assert {e: encoded[e] for e in link_ids} == dict.fromkeys(link_ids, 0)
