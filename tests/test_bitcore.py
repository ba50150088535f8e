"""Hash family and classic Bloom filter behavior."""

from fractions import Fraction
from itertools import compress, repeat
from statistics import mean, stdev

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yesnobf.bitcore import (
    _TABLE_SIZE,
    MODE_DOUBLE,
    MODE_RANDOM,
    BloomFilter,
    HashFamily,
    _encode_u64s,
    _shape,
    derive_seed,
    element_to_bytes,
)

import reference

# Pinned worked example: with this seed and element, the 13-bit yes family
# hashes to positions (4, 1, 11) and the 2-bit single-hash family to (1).
FIXTURE_SEED = 0
FIXTURE_ELEMENT = 5063


def test_element_to_bytes_separates_types():
    assert element_to_bytes(5) != element_to_bytes("5")
    assert element_to_bytes("ab") != element_to_bytes(b"ab")
    assert element_to_bytes(2**70) != element_to_bytes(2**70 + 1)
    with pytest.raises(TypeError):
        element_to_bytes(3.5)


@given(reference.ids)
@example(2**64 - 1)
@example(2**64)
@example(-1)
def test_element_to_bytes_is_the_readme_encoding(element):
    assert element_to_bytes(element) == reference.encode(element)


@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
@example([0, 2**63, 2**64 - 1])
def test_bulk_encoding_is_the_readme_encoding(ids):
    assert _encode_u64s(ids) == [reference.encode(i) for i in ids]


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(1, 2, "x") == derive_seed(1, 2, "x")
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed("ab", "c") != derive_seed("a", "bc")


def test_hash_family_positions_deterministic():
    fam1 = HashFamily(4, 160, seed=9)
    fam2 = HashFamily(4, 160, seed=9)
    for element in (0, 17, "link", b"raw"):
        got = reference.positions(4, 160, 9, element)
        assert len(got) == 4
        assert all(0 <= pos < 160 for pos in got)
        assert fam1.element_mask(element) == fam2.element_mask(element) == \
               reference.mask(got)


def test_hash_family_zero_count_yields_no_positions():
    for mode in (MODE_RANDOM, MODE_DOUBLE):
        fam = HashFamily(0, 32, mode=mode, seed=1)
        assert reference.positions(0, 32, 1, "x", mode) == []
        assert fam.element_mask("x") == 0


@pytest.mark.parametrize("count, size, flagged", [
    (-1, 8, "count must be >= 0"),
    (2**64, 8, "count must be below 2\\*\\*64"),
    (3, 0, "range_size must be positive"),
    (3, 2**64, "range_size must be below 2\\*\\*64"),
    (3, 2**64 + 1, "range_size must be below 2\\*\\*64"),
], ids=["negative-count", "count-2**64", "zero-range", "range-2**64", "range-past-2**64"])
def test_hash_family_refuses_a_shape_its_key_cannot_hold(count, size, flagged):
    """The key packs count and range_size as unsigned 64-bit words, so
    either at 2**64 or more raises ValueError, as a negative count does."""
    for mode in (MODE_RANDOM, MODE_DOUBLE):
        with pytest.raises(ValueError, match=flagged):
            HashFamily(count, size, mode=mode, seed=1)
    # the widest range the key holds is still a family
    assert HashFamily(1, 2**64 - 1, seed=1).range_size == 2**64 - 1


@pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_DOUBLE])
def test_a_seen_shape_builds_no_new_readers(mode):
    """A family of a shape already seen, at a new seed, builds no readers:
    it takes the ones _shape built for the shape, as topology's three
    families per allocation do."""
    first = HashFamily(7, 96, mode=mode, seed=1)
    misses = _shape.cache_info().misses
    again = HashFamily(7, 96, mode=mode, seed=2)
    assert _shape.cache_info().misses == misses
    assert again._mask is first._mask
    assert again._within is first._within
    assert again._masks is first._masks
    assert again._count is first._count


def test_hash_family_seed_and_shape_change_stream():
    base = reference.positions(4, 160, 0, 123)
    assert reference.positions(4, 160, 1, 123) != base
    # same seed, different range: independent families by construction
    assert reference.positions(4, 161, 0, 123)[:3] != base[:3]
    for seed, size in ((0, 160), (1, 160), (0, 161)):
        assert HashFamily(4, size, seed=seed).element_mask(123) == \
               reference.element_mask(4, size, seed, 123)


def test_hash_family_pinned_positions():
    yes_positions = reference.positions(3, 13, FIXTURE_SEED, FIXTURE_ELEMENT)
    no_positions = reference.positions(1, 2, FIXTURE_SEED, FIXTURE_ELEMENT)
    assert yes_positions == [4, 1, 11]
    assert no_positions == [1]
    yes_fam = HashFamily(3, 13, seed=FIXTURE_SEED)
    no_fam = HashFamily(1, 2, seed=FIXTURE_SEED)
    assert yes_fam.element_mask(FIXTURE_ELEMENT) == 1 << 1 | 1 << 4 | 1 << 11
    assert no_fam.element_mask(FIXTURE_ELEMENT) == 1 << 1


def test_double_hashing_mode_is_arithmetic_progression():
    fam = HashFamily(5, 97, mode=MODE_DOUBLE, seed=2)
    for element in (b"alpha", b"beta", 42):
        got = reference.positions(5, 97, 2, element, MODE_DOUBLE)
        step = (got[1] - got[0]) % 97
        assert step != 0
        assert got == [(got[0] + i * step) % 97 for i in range(5)]
        assert fam.element_mask(element) == reference.mask(got)


def test_bloom_filter_insert_then_contains():
    bf = BloomFilter(64, 3, seed=5)
    for element in range(20):
        bf.insert(element)
    assert all(bf.contains(element) for element in range(20))
    assert bf.inserted_count == 20
    assert bf.mask.bit_count() <= 3 * 20


def test_bloom_filter_repr_names_the_seed_and_mode_it_compares():
    assert repr(BloomFilter(64, 3, seed=5, mode=MODE_DOUBLE)) == (
        "BloomFilter(bits=64, hashes=3, seed=5, mode='double-hashing', set=0, "
        "inserted=0)")


def test_empty_filter_contains_nothing():
    bf = BloomFilter(64, 3, seed=5)
    assert not any(bf.contains(element) for element in range(100))


def test_reinsert_does_not_change_bits():
    bf = BloomFilter(64, 3, seed=5)
    bf.insert("dup")
    before = bf.mask
    bf.insert("dup")
    assert bf.mask == before
    assert bf.inserted_count == 2


def test_union_equals_sequential_insert():
    # OR-ing two filters' masks gives the bits of inserting both sets
    left = BloomFilter(128, 4, seed=8)
    right = BloomFilter(128, 4, seed=8)
    both = BloomFilter(128, 4, seed=8)
    for element in range(10):
        left.insert(element)
        both.insert(element)
    for element in range(10, 20):
        right.insert(element)
        both.insert(element)
    assert left.mask | right.mask == both.mask
    assert left.mask | BloomFilter(128, 4, seed=8).mask == left.mask


def test_membership_is_subset_of_vector():
    bf = BloomFilter(64, 3, seed=1)
    for element in range(8):
        bf.insert(element)
    for element in range(200):
        element_mask = bf.family.element_mask(element)
        assert bf.contains(element) == (element_mask & bf.mask == element_mask)


def test_small_filter_fp_rate_matches_rational_oracle():
    """One element in an 8-bit filter with two hashes.

    Exact rational arithmetic: a fixed bit stays clear with probability
    (7/8)^2 = 49/64, so a non-member passes with ((1 - 49/64))^2 = 225/4096.
    The empirical rate is averaged over fresh builds because a single
    filter's rate depends on its realized occupancy.
    """
    zero_prob = (Fraction(7, 8)) ** 2
    fp_prob = (1 - zero_prob) ** 2
    assert zero_prob == Fraction(49, 64)
    assert fp_prob == Fraction(225, 4096)

    builds, queries = 200, 5000
    rates = []
    for b in range(builds):
        bf = BloomFilter(8, 2, seed=derive_seed("fp-oracle", b))
        bf.insert(b)  # anything distinct from the probe ids below
        base = (b + 1) * queries
        hits = sum(bf.contains(base + i) for i in range(queries))
        rates.append(hits / queries)
    observed = mean(rates)
    se = stdev(rates) / builds**0.5
    assert abs(observed - float(fp_prob)) <= 3 * se


@pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_DOUBLE])
def test_shape_reads_low_bytes_exactly_where_the_range_divides_256(mode):
    # three digest blocks of bytes that differ from chunk to chunk
    stream = bytes(i * 37 % 251 for i in range(3 * 64))
    for count in (0, 1, 4, 9, 20):
        for size in range(1, 520):
            blocks = _shape(count, size, mode)[2]
            chunks = [read(stream[64 * i:64 * (i + 1)])
                      for i, (_, read) in enumerate(blocks)]
            # a random walk reads eight chunks a block, a double one all
            # count from its one digest; count 0 reads nothing in either
            assert [len(c) for c in chunks] == (
                [count] if mode == MODE_DOUBLE and count
                else [min(8, count - i) for i in range(0, count, 8)])
            byte_reader = mode == MODE_RANDOM and 256 % size == 0
            for i, c in enumerate(chunks):
                assert (c == stream[64 * i:64 * i + 8 * len(c):8]) == byte_reader


# --- properties ----------------------------------------------------------

# Random-mode ranges that divide 256 read each chunk's low byte; 255, 257 and
# 512 unpack whole chunks. Count 9 takes the first chunk of a second block.
RANGE_EXAMPLES = [(count, size) for size in (1, 2, 32, 256, 255, 257, 512)
                  for count in (4, 9, 20)]


def range_examples(**fixed):
    """An @example of every RANGE_EXAMPLES shape in random mode, with the
    other arguments fixed."""
    def add(test):
        for count, size in RANGE_EXAMPLES:
            test = example(count=count, size=size, mode=MODE_RANDOM, **fixed)(test)
        return test
    return add


@settings(max_examples=150, deadline=None)
@given(count=st.integers(0, 20), size=st.integers(1, 300),
       mode=st.sampled_from([MODE_RANDOM, MODE_DOUBLE]),
       seed=st.integers(0, 2**64 - 1), element=reference.ids)
@example(count=20, size=300, mode=MODE_RANDOM, seed=1, element=2**70)
# one digest block, then the first chunk of a second one
@example(count=8, size=300, mode=MODE_RANDOM, seed=5, element="edge")
@example(count=9, size=300, mode=MODE_RANDOM, seed=5, element="edge")
# size 1 makes every h2 % size 0, so the stride is 1; so does h2 % 12 == 0
# for the elements 3, 7 and 37 of the (6, 12, seed 0) family
@example(count=4, size=1, mode=MODE_DOUBLE, seed=0, element=3)
@example(count=6, size=12, mode=MODE_DOUBLE, seed=0, element=3)
@example(count=20, size=257, mode=MODE_DOUBLE, seed=5, element="edge")
# ranges past the shared bit table shift instead
@example(count=9, size=_TABLE_SIZE + 1, mode=MODE_RANDOM, seed=5, element="edge")
@example(count=20, size=3 * _TABLE_SIZE, mode=MODE_DOUBLE, seed=5, element="edge")
@range_examples(seed=5, element="edge")
def test_element_mask_matches_reference_stream(count, size, mode, seed, element):
    fam = HashFamily(count, size, mode=mode, seed=seed)
    expected = reference.positions(count, size, seed, element, mode)
    assert len(expected) == count
    assert fam.element_mask(element) == reference.mask(expected)


@settings(max_examples=150, deadline=None)
@given(count=st.integers(0, 20), size=st.integers(1, 3 * _TABLE_SIZE),
       mode=st.sampled_from([MODE_RANDOM, MODE_DOUBLE]),
       seed=st.integers(0, 2**64 - 1), element=reference.ids)
# no functions; one, two and three digest blocks; ranges past the bit table
@example(count=0, size=32, mode=MODE_RANDOM, seed=3, element="edge")
@example(count=0, size=32, mode=MODE_DOUBLE, seed=3, element="edge")
@example(count=8, size=160, mode=MODE_RANDOM, seed=3, element="edge")
@example(count=9, size=160, mode=MODE_RANDOM, seed=3, element="edge")
@example(count=17, size=256, mode=MODE_RANDOM, seed=3, element="edge")
@example(count=20, size=_TABLE_SIZE + 1, mode=MODE_RANDOM, seed=3, element=2**70)
@example(count=20, size=3 * _TABLE_SIZE, mode=MODE_DOUBLE, seed=3, element=b"raw")
# one digest block per element, then two; stride 1; no functions
@example(count=8, size=500, mode=MODE_RANDOM, seed=5, element=7)
@example(count=9, size=500, mode=MODE_RANDOM, seed=5, element=b"raw")
@example(count=4, size=1, mode=MODE_DOUBLE, seed=0, element=3)
@example(count=0, size=100, mode=MODE_RANDOM, seed=0, element="x")
@example(count=0, size=100, mode=MODE_DOUBLE, seed=0, element="x")
@range_examples(seed=5, element=7)
def test_encoded_mask_matches_reference(count, size, mode, seed, element):
    fam = HashFamily(count, size, mode=mode, seed=seed)
    assert fam.encoded_mask(element_to_bytes(element)) == \
           reference.element_mask(count, size, seed, element, mode)


@settings(max_examples=150, deadline=None)
@given(count=st.integers(0, 20), size=st.integers(1, 1000),
       mode=st.sampled_from([MODE_RANDOM, MODE_DOUBLE]),
       seed=st.integers(0, 2**64 - 1), batch=st.lists(reference.ids, max_size=12),
       stored=st.integers(0, 12), noise=st.integers(0, 2**(4 * _TABLE_SIZE)))
# several digest blocks; ranges past the shared bit table; no functions
@example(count=20, size=500, mode=MODE_RANDOM, seed=5, batch=["edge", 7, b"raw"],
         stored=2, noise=0)
@example(count=9, size=_TABLE_SIZE + 1, mode=MODE_RANDOM, seed=5,
         batch=["edge", 7, b"raw"], stored=1, noise=0)
@example(count=20, size=3 * _TABLE_SIZE, mode=MODE_DOUBLE, seed=5,
         batch=["edge", 7, b"raw"], stored=1, noise=0)
# stride 1 where h2 % size is 0, as in test_element_mask_matches_reference_stream
@example(count=6, size=12, mode=MODE_DOUBLE, seed=0, batch=[3, 7, 37, "edge"],
         stored=1, noise=0)
@example(count=0, size=100, mode=MODE_RANDOM, seed=0, batch=[3, "x"],
         stored=0, noise=0)
@example(count=0, size=100, mode=MODE_DOUBLE, seed=0, batch=[3, "x"],
         stored=0, noise=0)
@range_examples(seed=5, batch=["edge", 7, b"raw", "x", 9], stored=2,
                noise=(1 << 512) // 3)
def test_count_within_is_the_subset_count(count, size, mode, seed, batch,
                                          stored, noise):
    fam = HashFamily(count, size, mode=mode, seed=seed)
    datas = [element_to_bytes(e) for e in batch]
    masks = [reference.element_mask(count, size, seed, e, mode) for e in batch]
    full = (1 << size) - 1
    held = 0  # a classic filter holding the first stored elements
    for mask in masks[:stored]:
        held |= mask
    for mask in (0, full, held, held | noise & full, noise & full):
        assert fam.count_within(datas, mask) == \
               sum(m & mask == m for m in masks)
    assert fam.count_within(datas, held) >= min(stored, len(batch))


@settings(max_examples=150, deadline=None)
@given(count=st.integers(0, 20), size=st.integers(1, 3 * _TABLE_SIZE),
       mode=st.sampled_from([MODE_RANDOM, MODE_DOUBLE]),
       seed=st.integers(0, 2**64 - 1), element=reference.ids,
       noise=st.integers(0, 2**(3 * _TABLE_SIZE)))
# no functions; one digest block, then two
@example(count=0, size=32, mode=MODE_RANDOM, seed=3, element="edge", noise=0)
@example(count=0, size=32, mode=MODE_DOUBLE, seed=3, element="edge", noise=0)
@example(count=8, size=160, mode=MODE_RANDOM, seed=3, element="edge", noise=0)
@example(count=9, size=160, mode=MODE_RANDOM, seed=3, element="edge", noise=0)
@example(count=20, size=160, mode=MODE_DOUBLE, seed=3, element="edge", noise=0)
# ranges past the shared bit table shift instead
@example(count=9, size=_TABLE_SIZE + 1, mode=MODE_RANDOM, seed=3, element=2**70,
         noise=0)
@example(count=20, size=3 * _TABLE_SIZE, mode=MODE_DOUBLE, seed=3, element=b"raw",
         noise=0)
@range_examples(seed=5, element="edge", noise=(1 << 512) // 3)
def test_encoded_within_is_the_one_element_subset_test(count, size, mode, seed,
                                                       element, noise):
    fam = HashFamily(count, size, mode=mode, seed=seed)
    data = element_to_bytes(element)
    own = fam.encoded_mask(data)
    positions = reference.positions(count, size, seed, element, mode)
    # so each answer below is also the reference's
    assert own == reference.mask(positions)
    full = (1 << size) - 1
    # the element's own mask short of its first or its last position makes
    # the walk stop at its first chunk, or at its last unless that position
    # came up earlier
    masks = [0, full, own, noise & full, own | noise & full]
    masks += [own & ~(1 << positions[i]) for i in (0, -1) if positions]
    bf = BloomFilter(size, count, seed=seed, mode=mode) if count else None
    for mask in masks:
        within = own & mask == own
        assert fam.encoded_within(data, mask) == within
        if bf:
            bf.mask = mask
            assert bf.contains(element) == within


@settings(max_examples=60, deadline=None)
@given(st.lists(reference.ids, max_size=40), reference.ids,
       st.integers(min_value=0, max_value=2**32))
def test_no_false_negatives_ever(batch, extra, seed):
    bf = BloomFilter(32, 3, seed=seed)
    for element in batch:
        bf.insert(element)
    bf.insert(extra)
    assert bf.contains(extra)
    assert all(bf.contains(element) for element in batch)


@settings(max_examples=60, deadline=None)
@given(st.lists(reference.ids, max_size=30), st.lists(reference.ids, max_size=30),
       st.integers(min_value=0, max_value=2**32))
def test_insertion_is_monotone(first, second, seed):
    small = BloomFilter(64, 4, seed=seed)
    large = BloomFilter(64, 4, seed=seed)
    for element in first:
        small.insert(element)
        large.insert(element)
    for element in second:
        large.insert(element)
    assert small.mask & large.mask == small.mask


@settings(max_examples=60, deadline=None)
@given(st.lists(reference.ids, max_size=30), st.lists(reference.ids, max_size=30),
       st.integers(min_value=0, max_value=2**32))
def test_union_is_disjunction(first, second, seed):
    left = BloomFilter(64, 4, seed=seed)
    right = BloomFilter(64, 4, seed=seed)
    for element in first:
        left.insert(element)
    for element in second:
        right.insert(element)
    union = BloomFilter(64, 4, seed=seed)
    union.mask = left.mask | right.mask
    for element in first + second:
        assert union.contains(element)


# How a list reader may be handed its elements: a list, or one-shot
# iterators it may read only once.
FEEDS = {"list": list, "iter": iter, "compress": lambda d: compress(d, repeat(1))}


@settings(max_examples=150, deadline=None)
@given(count=st.integers(0, 20),
       size=st.sampled_from([1, 2, 32, 64, 256]) | st.integers(1, 3 * _TABLE_SIZE),
       mode=st.sampled_from([MODE_RANDOM, MODE_DOUBLE]),
       seed=st.integers(0, 2**64 - 1), batch=st.lists(reference.ids, max_size=12),
       stored=st.integers(0, 12), noise=st.integers(0, 2**(3 * _TABLE_SIZE)),
       feed=st.sampled_from(sorted(FEEDS)))
# no elements; no functions; one, two and three digest blocks; a range
# past the bit table; stride 1 where h2 % 12 is 0 for 3, 7 and 37
@example(count=4, size=32, mode=MODE_RANDOM, seed=3, batch=[], stored=0, noise=0,
         feed="compress")
@example(count=0, size=32, mode=MODE_DOUBLE, seed=3, batch=["edge", 7], stored=1,
         noise=0, feed="iter")
@example(count=20, size=256, mode=MODE_RANDOM, seed=3, batch=["edge", 7, b"raw"],
         stored=2, noise=0, feed="compress")
@example(count=17, size=160, mode=MODE_RANDOM, seed=3, batch=["edge", 7, b"raw"],
         stored=1, noise=(1 << 160) // 3, feed="iter")
@example(count=9, size=_TABLE_SIZE + 1, mode=MODE_RANDOM, seed=3,
         batch=["edge", 7, b"raw"], stored=1, noise=0, feed="compress")
@example(count=20, size=3 * _TABLE_SIZE, mode=MODE_DOUBLE, seed=3,
         batch=["edge", 7, b"raw"], stored=1, noise=0, feed="iter")
@example(count=6, size=12, mode=MODE_DOUBLE, seed=0, batch=[3, 7, 37, "edge"],
         stored=1, noise=0, feed="compress")
@range_examples(seed=5, batch=["edge", 7, b"raw", "x", 9], stored=2,
                noise=(1 << 512) // 3, feed="compress")
def test_list_readers_are_the_one_element_readers_in_turn(count, size, mode, seed,
                                                         batch, stored, noise, feed):
    """encoded_masks is encoded_mask of each element, and count_within the
    number of elements encoded_within passes, whatever iterable holds them."""
    fam = HashFamily(count, size, mode=mode, seed=seed)
    datas = [element_to_bytes(e) for e in batch]
    masks = [fam.encoded_mask(d) for d in datas]
    assert fam.encoded_masks(FEEDS[feed](datas)) == masks
    full = (1 << size) - 1
    held = 0  # a classic filter holding the first stored elements
    for mask in masks[:stored]:
        held |= mask
    for mask in (0, full, held, held | noise & full, noise & full):
        assert fam.count_within(FEEDS[feed](datas), mask) == \
               sum(fam.encoded_within(d, mask) for d in datas)
