"""The yes-no Bloom filter written plainly from its definition: the tests'
one oracle, which pytest does not collect. The topology's path choice and
the corpus's geometric graphs are here too, as all-pairs loops.

It reads no yesnobf hashing or filter code. Positions follow the README's
"Hash stream" section, by this module's own encoding and blake2b calls.
Results are the library's value types, so tests compare them with ==.
"""

import random
import struct
from collections import deque
from fractions import Fraction
from hashlib import blake2b
from itertools import product

from hypothesis import strategies as st

from yesnobf.bitcore import MODE_DOUBLE, MODE_RANDOM
from yesnobf.yesno import Classification, ConstructionReport, QueryResult

# every kind of element id: ints past 64 bits and below zero take the
# decimal encoding
ids = st.one_of(st.integers(-2**70, 2**70), st.text(max_size=12),
                st.binary(max_size=12))


def encode(element) -> bytes:
    """The README's encoding: b"i" + 8 bytes little-endian for an int in
    [0, 2**64), b"I" + decimal digits for any other int, b"s" + UTF-8 for
    a str, b"b" + the bytes themselves."""
    if isinstance(element, bytes):
        return b"b" + element
    if isinstance(element, str):
        return b"s" + element.encode("utf-8")
    if 0 <= element < 2**64:
        return b"i" + element.to_bytes(8, "little")
    return b"I" + str(element).encode("ascii")


def positions(count, size, seed, element, mode=MODE_RANDOM) -> list[int]:
    """The count positions in [0, size) of an element, in hash order.

    Random mode: the stream is the 64-byte digests of the encoding + the
    u32 block number for blocks 0, 1, ..., read as little-endian u64
    chunks; chunk i mod size is position i. Double-hashing mode: the one
    16-byte digest of the encoding holds h1 and h2, and position i is
    (h1 % size + i * (h2 % size or 1)) % size.
    """
    data = encode(element)
    if mode == MODE_DOUBLE:
        if not count:
            return []
        key = struct.pack("<QQQB", seed, count, size, 1)
        digest = blake2b(data, key=key, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little")
        start, stride = h1 % size, h2 % size or 1
        return [(start + i * stride) % size for i in range(count)]
    key = struct.pack("<QQQB", seed, count, size, 0)
    chunks = []
    block = 0
    while len(chunks) < count:
        digest = blake2b(data + struct.pack("<I", block), key=key,
                         digest_size=64).digest()
        chunks.extend(int.from_bytes(digest[j:j + 8], "little")
                      for j in range(0, 64, 8))
        block += 1
    return [c % size for c in chunks[:count]]


def mask(bit_positions) -> int:
    """The int mask with the given positions set, repeats once."""
    return sum(1 << pos for pos in set(bit_positions))


def element_mask(count, size, seed, element, mode=MODE_RANDOM) -> int:
    return mask(positions(count, size, seed, element, mode))


def sketch(params, seed, element, mode=MODE_RANDOM) -> tuple[int, int]:
    """(yes part, no part): the element's masks in the k-of-p and the
    k'-of-q families, which share the seed."""
    return (element_mask(params.k, params.p, seed, element, mode),
            element_mask(params.k_prime, params.q, seed, element, mode))


def first_fit(params, member_sketches, candidate_sketches):
    """(yes mask, no masks, ConstructionReport) of a build.

    The yes filter is the OR of the members' yes parts. Each candidate that
    passes it is a yes-stage false positive, and goes into the first
    no-filter that can take it: with the guard on, one that would then
    cover no member's no part, checked by scanning every member.
    """
    yes_mask = 0
    for y, _ in member_sketches:
        yes_mask |= y
    no_masks = [0] * params.r
    loads = [0] * params.r
    f_count = r_count = 0
    for y, fno in candidate_sketches:
        if y & yes_mask != y:
            continue
        f_count += 1
        for j in range(params.r):
            placed = no_masks[j] | fno
            if not params.allow_false_negatives and any(
                    mn & placed == mn for _, mn in member_sketches):
                continue
            no_masks[j] = placed
            loads[j] += 1
            r_count += 1
            break
    report = ConstructionReport(len(member_sketches), len(candidate_sketches),
                                f_count, r_count, f_count - r_count, tuple(loads))
    return yes_mask, no_masks, report


def query(yes_mask, no_masks, element_sketch) -> QueryResult:
    """The two stages: out of the yes filter is no; inside any no-filter
    is no; otherwise yes."""
    y, fno = element_sketch
    if y & yes_mask != y:
        return QueryResult.NEGATIVE_YES_STAGE
    if any(fno & nm == fno for nm in no_masks):
        return QueryResult.NEGATIVE_NO_STAGE
    return QueryResult.POSITIVE


def classify(yes_mask, no_masks, member_pairs, candidate_pairs) -> Classification:
    """S and T, as (element, sketch) pairs, partitioned by query."""
    out = Classification()
    for e, s in member_pairs:
        if query(yes_mask, no_masks, s) is QueryResult.POSITIVE:
            out.true_positives.append(e)
        else:
            out.false_negatives.append(e)
    filed = {QueryResult.NEGATIVE_YES_STAGE: out.yes_stage_negatives,
             QueryResult.NEGATIVE_NO_STAGE: out.no_stage_rejections,
             QueryResult.POSITIVE: out.residual_false_positives}
    for e, s in candidate_pairs:
        filed[query(yes_mask, no_masks, s)].append(e)
    return out


def trial(params, members, candidates, seed, mode=MODE_RANDOM):
    """(ConstructionReport, Classification) of building on members and
    candidates, then classifying the same two sets."""
    member_pairs = [(e, sketch(params, seed, e, mode)) for e in members]
    candidate_pairs = [(e, sketch(params, seed, e, mode)) for e in candidates]
    yes_mask, no_masks, report = first_fit(
        params, [s for _, s in member_pairs], [s for _, s in candidate_pairs])
    return report, classify(yes_mask, no_masks, member_pairs, candidate_pairs)


def sketch_assignments(params, n, t):
    """Every assignment of random-mode sketches to n members and t
    candidates, each equally likely: per element, k yes positions in
    [0, p) and k' no positions in [0, q), ordered, with replacement.
    Yields (member sketches, candidate sketches)."""
    parts = [(mask(yes), mask(no))
             for yes in product(range(params.p), repeat=params.k)
             for no in product(range(params.q), repeat=params.k_prime)]
    for sketches in product(parts, repeat=n + t):
        yield list(sketches[:n]), list(sketches[n:])


def exact_mean_fp(params, n, t) -> Fraction:
    """The expected residual false positives of a random-mode build over
    n members and t candidates: the mean over every sketch assignment of
    first_fit, then query."""
    total = count = 0
    for members, candidates in sketch_assignments(params, n, t):
        yes_mask, no_masks, _ = first_fit(params, members, candidates)
        total += sum(query(yes_mask, no_masks, s) is QueryResult.POSITIVE
                     for s in candidates)
        count += 1
    return Fraction(total, count)


def bfs_dists(graph, source) -> dict[str, int]:
    dists = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in graph.neighbors(u):
            if v not in dists:
                dists[v] = dists[u] + 1
                queue.append(v)
    return dists


def long_path(graph) -> list[str]:
    """select_long_path by its definition: in the first largest component
    (components met in sorted node order), the first pair (u, v) in sorted
    order at the diameter, from one BFS per node; then from u, each step
    to the smallest neighbor one hop nearer v."""
    component: list[str] = []
    for node in graph.nodes:
        comp = sorted(bfs_dists(graph, node))
        if len(comp) > len(component):
            component = comp
    best_d, start, goal = -1, None, None
    for u in component:
        dists = bfs_dists(graph, u)
        for v in component:
            if dists[v] > best_d:
                best_d, start, goal = dists[v], u, v
    dist_to_goal = bfs_dists(graph, goal)
    path = [start]
    while path[-1] != goal:
        path.append(min(v for v in graph.neighbors(path[-1])
                        if dist_to_goal.get(v) == dist_to_goal[path[-1]] - 1))
    return path


def pairs_within(points, radius) -> list[tuple[int, int]]:
    """Every index pair (i, j), i < j, tested: squared distance at most
    radius squared."""
    limit = radius * radius
    pairs = []
    for i in range(len(points)):
        xi, yi = points[i]
        for j in range(i + 1, len(points)):
            xj, yj = points[j]
            if (xi - xj) ** 2 + (yi - yj) ** 2 <= limit:
                pairs.append((i, j))
    return pairs


def geometric_graph(count, radius, seed) -> tuple[tuple, tuple]:
    """(nodes, edges) of random_geometric_graph: count uniform points from
    random.Random(seed), named p0.. zero-padded, joined by pairs_within."""
    rng = random.Random(seed)
    points = [(rng.random(), rng.random()) for _ in range(count)]
    width = len(str(count - 1))
    names = [f"p{i:0{width}d}" for i in range(count)]
    return tuple(names), tuple((names[i], names[j])
                               for i, j in pairs_within(points, radius))
