"""Network-topology experiments: filters as compact link-set carriers.

A routed path through a graph gives a natural benchmark: the links of the
path are the member set S, and every outgoing link of the nodes along the
path is a query the forwarding logic will actually make, so those links
(minus S) are the known queryable set T. A false positive here means traffic
leaking onto a link it was never meant for; the yes-no filter exists to make
that rare exactly on the links where it matters.

Graphs are undirected on disk (edge-list or GraphML); links are directed,
one per traversal direction.
"""

from __future__ import annotations

import csv
import io
import warnings
import xml.etree.ElementTree as ET
from collections import deque
from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from pathlib import Path

from .bitcore import MODE_RANDOM, HashFamily, derive_seed
from .yesno import (
    Sketcher,
    YesNoParams,
    _encoded_sets,
    _trial,
)

DEFAULT_PARAMS = YesNoParams.of(p=192, q=32, r=2, k=4, k_prime=3)
DEFAULT_K_BF = 6
DEFAULT_ALLOCATIONS = 1000


class Graph:
    """Undirected simple graph with string node ids.

    Neighbor lists are kept sorted so every traversal below is
    deterministic. Self-loops are dropped with a warning; parallel edges
    collapse silently.
    """

    __slots__ = ("_adjacency",)

    def __init__(self, nodes=(), edges=()):
        adjacency: dict[str, set[str]] = {str(v): set() for v in nodes}
        for a, b in edges:
            a, b = str(a), str(b)
            if a == b:
                warnings.warn(f"self-loop at node {a!r} dropped", stacklevel=2)
                adjacency.setdefault(a, set())
                continue
            adjacency.setdefault(a, set()).add(b)
            adjacency.setdefault(b, set()).add(a)
        self._adjacency = {v: tuple(sorted(ns)) for v, ns in sorted(adjacency.items())}

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(self._adjacency)

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        """Unordered edges, each reported once as a sorted pair."""
        return tuple((a, b) for a in self._adjacency
                     for b in self._adjacency[a] if a < b)

    def neighbors(self, node: str) -> tuple[str, ...]:
        if node not in self._adjacency:
            raise KeyError(f"unknown node {node!r}")
        return self._adjacency[node]

    def __contains__(self, node) -> bool:
        return node in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def __repr__(self) -> str:
        return f"Graph(nodes={len(self)}, edges={len(self.edges)})"


def _parse_edgelist(text: str, source: str) -> Graph:
    edges = []
    nodes = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(
                f"{source}:{lineno}: expected two node ids, got {len(parts)}")
        edges.append((parts[0], parts[1]))
        nodes.extend(parts)
    return Graph(nodes, edges)


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _parse_graphml(text: str, source: str) -> Graph:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ValueError(f"{source}: not well-formed XML: {exc}") from None
    graph_el = None
    for el in root.iter():
        if _local_name(el.tag) == "graph":
            graph_el = el
            break
    if graph_el is None:
        raise ValueError(f"{source}: no <graph> element")
    nodes = []
    edges = []
    for el in graph_el:
        name = _local_name(el.tag)
        if name == "node":
            node_id = el.get("id")
            if node_id is None:
                raise ValueError(f"{source}: <node> without id")
            nodes.append(node_id)
        elif name == "edge":
            src, dst = el.get("source"), el.get("target")
            if src is None or dst is None:
                raise ValueError(f"{source}: <edge> without source/target")
            edges.append((src, dst))
    declared = set(nodes)
    for a, b in edges:
        if a not in declared or b not in declared:
            raise ValueError(f"{source}: edge ({a!r}, {b!r}) references undeclared node")
    return Graph(nodes, edges)


def load_graph(path, fmt: str | None = None) -> Graph:
    """Read a graph file; format from the extension unless given.

    ".graphml" means GraphML (structure only, attributes ignored), anything
    else is a whitespace-separated edge list with # comments.
    """
    path = Path(path)
    if fmt is None:
        fmt = "graphml" if path.suffix.lower() == ".graphml" else "edgelist"
    if fmt not in ("graphml", "edgelist"):
        raise ValueError(f"unknown format {fmt!r}")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{path}: cannot read: {exc}") from None
    if fmt == "graphml":
        return _parse_graphml(text, str(path))
    return _parse_edgelist(text, str(path))


def write_edgelist(graph: Graph, path) -> None:
    lines = [f"{a}\t{b}" for a, b in graph.edges]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_graphml(graph: Graph, path) -> None:
    root = ET.Element("graphml")
    g = ET.SubElement(root, "graph", edgedefault="undirected")
    for node in graph.nodes:
        ET.SubElement(g, "node", id=node)
    for a, b in graph.edges:
        ET.SubElement(g, "edge", source=a, target=b)
    Path(path).write_text(ET.tostring(root, encoding="unicode"), encoding="utf-8")


def _bfs_dists(graph: Graph, source: str) -> dict[str, int]:
    dists = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in dists:
                dists[v] = dists[u] + 1
                queue.append(v)
    return dists


def select_long_path(graph: Graph) -> list[str]:
    """A shortest path realizing the diameter of the largest component.

    Every tie (component choice, endpoint pair, path itself) breaks toward
    the lexicographically smallest node ids, so the answer is a pure
    function of the graph: the start is the smallest node whose
    eccentricity is the diameter D, the goal the smallest node D hops from
    it, and each step goes to the smallest neighbor one hop nearer the goal.

    Eccentricities come from a bit-parallel BFS: every component node holds
    an int bitset of the nodes within d hops, and one level ORs each
    unfinished node's set with its neighbors' sets. That is D passes over
    the edges instead of one BFS per node, in V * V / 8 bytes of sets.
    """
    if not len(graph):
        raise ValueError("graph has no nodes")
    seen: set[str] = set()
    component: list[str] = []
    for seed_node in graph.nodes:  # sorted; first largest component wins
        if seed_node in seen:
            continue
        comp = sorted(_bfs_dists(graph, seed_node))
        seen.update(comp)
        if len(comp) > len(component):
            component = comp
    index = {v: i for i, v in enumerate(component)}
    adjacency = [[index[w] for w in graph.neighbors(v)] for v in component]
    full = (1 << len(component)) - 1
    within = [1 << i for i in range(len(component))]
    unfinished = [i for i in range(len(component)) if within[i] != full]
    last = [0]  # the nodes that finish at the final level, in sorted order
    diameter = 0
    while unfinished:
        diameter += 1
        grown = []
        for i in unfinished:
            bits = within[i]
            for j in adjacency[i]:
                bits |= within[j]
            grown.append(bits)
        for i, bits in zip(unfinished, grown):
            within[i] = bits
        last = unfinished
        unfinished = [i for i in unfinished if within[i] != full]
    start = component[last[0]]
    dists = _bfs_dists(graph, start)
    goal = min(v for v, d in dists.items() if d == diameter)
    dist_to_goal = _bfs_dists(graph, goal)
    path = [start]
    while path[-1] != goal:
        here = dist_to_goal[path[-1]]
        path.append(next(v for v in graph.neighbors(path[-1])
                         if dist_to_goal.get(v) == here - 1))
    return path


@dataclass(frozen=True, order=True)
class DirectedLink:
    source: str
    target: str

    @property
    def id(self) -> str:
        return f"{self.source}->{self.target}"


def derive_link_sets(graph: Graph, path, include_reverse: bool = True
                     ) -> tuple[list[DirectedLink], list[DirectedLink]]:
    """Member links S (the path) and queryable links T (everything else a
    node on the path can forward to).

    include_reverse keeps the links that traverse the path backwards in T;
    turning it off models forwarding that never bounces traffic back.
    """
    path = [str(v) for v in path]
    if not path:
        raise ValueError("path is empty")
    if len(set(path)) != len(path):
        raise ValueError("path revisits a node")
    for v in path:
        if v not in graph:
            raise ValueError(f"path node {v!r} not in graph")
    for a, b in zip(path, path[1:]):
        if b not in graph.neighbors(a):
            raise ValueError(f"path edge ({a!r}, {b!r}) not in graph")
    s_links = [DirectedLink(a, b) for a, b in zip(path, path[1:])]
    s_pairs = {(l.source, l.target) for l in s_links}
    reverse_pairs = {(l.target, l.source) for l in s_links}
    t_links = []
    for u in path:
        for v in graph.neighbors(u):
            pair = (u, v)
            if pair in s_pairs:
                continue
            if not include_reverse and pair in reverse_pairs:
                continue
            t_links.append(DirectedLink(u, v))
    return s_links, t_links


@dataclass(frozen=True)
class PathExperiment:
    """One topology's experiment: fixed link sets, repeated random
    hash allocations.

    Raises ValueError when allocations or k_bf is below 1, or when the
    link ids repeat or S and T share one. Two distinct links can share an
    id: "x"->"y->z" and "x->y"->"z" are both x->y->z.

    The link ids, S's then T's, and their element_to_bytes encodings are
    made once, here, by the yesno._encoded_sets call that checks the link
    sets, and every run_topology_experiment call reuses them; being
    derived from the links, they take no part in == or repr.
    """

    name: str
    s_links: tuple[DirectedLink, ...]
    t_links: tuple[DirectedLink, ...]
    params: YesNoParams = DEFAULT_PARAMS
    k_bf: int = DEFAULT_K_BF
    allocations: int = DEFAULT_ALLOCATIONS
    # (s_ids, t_ids, datas): datas encodes s_ids + t_ids
    _encoded: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.allocations < 1:
            raise ValueError(f"allocations must be >= 1, got {self.allocations}")
        if self.k_bf < 1:
            raise ValueError(f"k_bf must be >= 1, got {self.k_bf}")
        # ids, not links: "x"->"y->z" and "x->y"->"z" share the id x->y->z
        object.__setattr__(self, "_encoded", _encoded_sets(
            [link.id for link in self.s_links], [link.id for link in self.t_links]))

    @classmethod
    def from_graph(cls, name: str, graph: Graph, path=None,
                   include_reverse: bool = True,
                   params: YesNoParams = DEFAULT_PARAMS,
                   k_bf: int = DEFAULT_K_BF,
                   allocations: int = DEFAULT_ALLOCATIONS) -> PathExperiment:
        if path is None:
            path = select_long_path(graph)
        s_links, t_links = derive_link_sets(graph, path, include_reverse)
        return cls(name, tuple(s_links), tuple(t_links), params, k_bf, allocations)


@dataclass(frozen=True, slots=True)
class TopologyResult:
    """Per-topology outcome. ratio is yes-no FPs per classic-BF FP, None
    when the BF saw none; the raw per-allocation counts ride along for
    resampling-style analysis."""

    topology: str
    path_len: int
    t_size: int
    fp_yesno_mean: float
    fp_bf_mean: float
    ratio: float | None
    yesno_counts: tuple[int, ...] = field(repr=False, default=())
    bf_counts: tuple[int, ...] = field(repr=False, default=())


def run_topology_experiment(experiment: PathExperiment, seed: int = 0,
                            mode: str = MODE_RANDOM) -> TopologyResult:
    """Average both structures' false positives over fresh random
    allocations; each allocation's stream comes from (seed, name, index).

    The ids and their encodings are the ones the experiment's set check
    made when it was built, so a run encodes and checks nothing. Each
    allocation is one yesno._trial call, which sketches, builds and
    classifies it, so its yes-no count is that of YesNoFilter.build, then
    classify. Its classic count is that of a BloomFilter(m, k_bf) under
    the same seed and mode holding S, asked about T: one encoded_masks
    call lays S down and one count_within call reads T.
    """
    params = experiment.params
    s_ids, t_ids, datas = experiment._encoded
    s_datas, t_datas = datas[:len(s_ids)], datas[len(s_ids):]
    yn_counts = []
    bf_counts = []
    for index in range(experiment.allocations):
        sk = Sketcher(params, derive_seed(seed, experiment.name, index), mode)
        yn_counts.append(_trial(sk, s_ids, t_ids, datas)[1].fp_count)
        family = HashFamily(experiment.k_bf, params.m, mode=mode, seed=sk.seed)
        bf_mask = reduce(or_, family.encoded_masks(s_datas), 0)
        bf_counts.append(family.count_within(t_datas, bf_mask))
    fp_yesno_mean = sum(yn_counts) / experiment.allocations
    fp_bf_mean = sum(bf_counts) / experiment.allocations
    ratio = fp_yesno_mean / fp_bf_mean if fp_bf_mean > 0 else None
    return TopologyResult(experiment.name, len(experiment.s_links),
                          len(experiment.t_links), fp_yesno_mean, fp_bf_mean,
                          ratio, tuple(yn_counts), tuple(bf_counts))


@dataclass(frozen=True)
class LengthAggregate:
    """False-positive rates pooled over every topology whose selected path
    has the same hop count."""

    n: int
    rate_yesno: float
    rate_bf: float
    ratio: float | None


def aggregate_by_length(results) -> tuple[list[LengthAggregate], int]:
    """Group results by path length, averaging per-query FP rates.

    Topologies with an empty T carry no rate and are excluded; the second
    return value counts them.
    """
    by_length: dict[int, list[TopologyResult]] = {}
    excluded = 0
    for res in results:
        if res.t_size == 0:
            excluded += 1
            continue
        by_length.setdefault(res.path_len, []).append(res)
    aggregates = []
    for n in sorted(by_length):
        group = by_length[n]
        rate_yn = sum(r.fp_yesno_mean / r.t_size for r in group) / len(group)
        rate_bf = sum(r.fp_bf_mean / r.t_size for r in group) / len(group)
        ratio = rate_yn / rate_bf if rate_bf > 0 else None
        aggregates.append(LengthAggregate(n, rate_yn, rate_bf, ratio))
    return aggregates, excluded


TOPOLOGY_CSV_HEADER = ("topology", "path_len", "t_size", "fp_yesno_mean",
                       "fp_bf_mean", "ratio")
AGGREGATE_CSV_HEADER = ("n", "rate_yesno", "rate_bf", "ratio")


def _to_csv(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def topology_results_to_csv(results) -> str:
    """One row per topology, floats at 6 decimals; a name holding a comma
    or a quote is quoted, so every row keeps the header's six fields."""
    return _to_csv(TOPOLOGY_CSV_HEADER, (
        (r.topology, r.path_len, r.t_size, f"{r.fp_yesno_mean:.6f}",
         f"{r.fp_bf_mean:.6f}", f"{r.ratio:.6f}" if r.ratio is not None else "")
        for r in results))


def aggregates_to_csv(aggregates) -> str:
    return _to_csv(AGGREGATE_CSV_HEADER, (
        (a.n, f"{a.rate_yesno:.6f}", f"{a.rate_bf:.6f}",
         f"{a.ratio:.6f}" if a.ratio is not None else "")
        for a in aggregates))
