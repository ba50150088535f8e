"""Deterministic synthetic topologies: rings, grids, geometric graphs.

The default corpus spans selected-path lengths from about 5 to 35 hops with
three structural flavors, which is the range where the link-set experiments
are interesting. Everything is a pure function of its arguments, so the
corpus is identical on every run and machine.
"""

from __future__ import annotations

import random
from pathlib import Path

from .topology import Graph, write_edgelist, write_graphml


def ring_graph(count: int) -> Graph:
    """Cycle of `count` nodes; its diameter path has count // 2 hops."""
    if count < 3:
        raise ValueError(f"a ring needs at least 3 nodes, got {count}")
    width = len(str(count - 1))
    names = [f"n{i:0{width}d}" for i in range(count)]
    edges = [(names[i], names[(i + 1) % count]) for i in range(count)]
    return Graph(names, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    """Rows x cols lattice; corner-to-corner diameter of rows + cols - 2."""
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2 rows and 2 columns")
    name = lambda i, j: f"r{i:02d}c{j:02d}"
    nodes = [name(i, j) for i in range(rows) for j in range(cols)]
    edges = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                edges.append((name(i, j), name(i, j + 1)))
            if i + 1 < rows:
                edges.append((name(i, j), name(i + 1, j)))
    return Graph(nodes, edges)


# Cells are wider than the radius by this relative margin, and there are at
# most _MAX_CELLS to a side, so float rounding can never place two points
# the distance test accepts more than one cell apart.
_CELL_MARGIN = 1e-6
_MAX_CELLS = 1 << 20


def _pairs_within(points, radius: float) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, of points in [0, 1)^2 whose squared
    distance is at most radius squared.

    Points go into square cells at least a radius wide, so only pairs in
    the same or adjacent cells are tested; each with the same float test.
    """
    cells = max(1, min(_MAX_CELLS, int(1 / (radius * (1 + _CELL_MARGIN)))))
    keys = [(int(x * cells), int(y * cells)) for x, y in points]
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, key in enumerate(keys):
        buckets.setdefault(key, []).append(i)
    limit = radius * radius
    pairs = []
    for i, (cx, cy) in enumerate(keys):
        xi, yi = points[i]
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                for j in buckets.get((gx, gy), ()):
                    if j > i:
                        xj, yj = points[j]
                        if (xi - xj) ** 2 + (yi - yj) ** 2 <= limit:
                            pairs.append((i, j))
    return pairs


def random_geometric_graph(count: int, radius: float, seed: int) -> Graph:
    """Uniform points in the unit square, edges within `radius`.

    May be disconnected; path selection works on the largest component, so
    smaller radii trade connectivity for longer, winding paths.
    """
    if count < 2:
        raise ValueError(f"need at least 2 points, got {count}")
    if not radius > 0:  # NaN too
        raise ValueError(f"radius must be positive, got {radius}")
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(count)]
    width = len(str(count - 1))
    names = [f"p{i:0{width}d}" for i in range(count)]
    return Graph(names, [(names[i], names[j]) for i, j in _pairs_within(points, radius)])


def default_corpus() -> list[tuple[str, Graph]]:
    """Named topologies whose selected paths cover short through 35-hop."""
    entries: list[tuple[str, Graph]] = []
    for count in (10, 14, 18, 22, 26, 30):
        entries.append((f"ring{count}", ring_graph(count)))
    for side in (4, 6, 8, 10, 12, 14, 16, 18):
        entries.append((f"grid{side}x{side}", grid_graph(side, side)))
    for count, radius, seed in ((130, 0.16, 11), (200, 0.11, 7),
                                (260, 0.095, 3), (320, 0.082, 19)):
        entries.append((f"rgg{count}", random_geometric_graph(count, radius, seed)))
    return entries


def write_corpus(directory) -> list[Path]:
    """Write the default corpus to files, mixing both on-disk formats."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, graph in default_corpus():
        if name.startswith("grid"):
            path = directory / f"{name}.graphml"
            write_graphml(graph, path)
        else:
            path = directory / f"{name}.edgelist"
            write_edgelist(graph, path)
        paths.append(path)
    return paths
