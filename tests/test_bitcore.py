"""Bit vector, hash family, and classic Bloom filter behavior."""

import struct
from fractions import Fraction
from hashlib import blake2b
from statistics import mean, stdev

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yesnobf.bitcore import (
    MODE_DOUBLE,
    MODE_RANDOM,
    BitVector,
    BloomFilter,
    HashFamily,
    derive_seed,
    element_to_bytes,
    is_subset,
)

# Pinned worked example: with this seed and element, the 13-bit yes family
# hashes to positions (4, 1, 11) and the 2-bit single-hash family to (1).
FIXTURE_SEED = 0
FIXTURE_ELEMENT = 5063


def test_bitvector_from_positions_and_back():
    v = BitVector.from_positions(13, [4, 1, 11])
    assert v.positions() == (1, 4, 11)
    assert v.popcount() == 3
    assert v.get(4) and v.get(1) and v.get(11)
    assert not v.get(0)


def test_bitvector_rejects_bad_shapes():
    with pytest.raises(ValueError):
        BitVector(0)
    with pytest.raises(ValueError):
        BitVector(4, 1 << 4)
    with pytest.raises(ValueError):
        BitVector.from_positions(4, [4])
    with pytest.raises(ValueError):
        BitVector(8).get(8)


def test_bitstring_round_trip():
    v = BitVector.from_positions(10, [0, 3, 9])
    s = v.to_bitstring()
    assert s == "1001000001"
    assert BitVector.from_bitstring(s) == v
    with pytest.raises(ValueError):
        BitVector.from_bitstring("10a1")
    with pytest.raises(ValueError):
        BitVector.from_bitstring("")


def test_subset_is_bitwise_conjunction():
    # b_e is a subset of b_S exactly when b_e AND b_S == b_e
    a = BitVector.from_positions(8, [1, 5])
    b = BitVector.from_positions(8, [1, 3, 5])
    assert is_subset(a, b)
    assert not is_subset(b, a)
    assert (a & b) == a
    zero = BitVector(8)
    assert is_subset(zero, a) and is_subset(zero, zero)
    with pytest.raises(ValueError):
        is_subset(a, BitVector(9))


def test_or_and_require_equal_lengths():
    with pytest.raises(ValueError):
        BitVector(4) | BitVector(5)
    with pytest.raises(ValueError):
        BitVector(4) & BitVector(5)


def test_element_to_bytes_separates_types():
    assert element_to_bytes(5) != element_to_bytes("5")
    assert element_to_bytes("ab") != element_to_bytes(b"ab")
    assert element_to_bytes(2**70) != element_to_bytes(2**70 + 1)
    with pytest.raises(TypeError):
        element_to_bytes(3.5)


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(1, 2, "x") == derive_seed(1, 2, "x")
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed("ab", "c") != derive_seed("a", "bc")


def test_hash_family_positions_deterministic():
    fam1 = HashFamily(4, 160, seed=9)
    fam2 = HashFamily(4, 160, seed=9)
    for element in (0, 17, "link", b"raw"):
        got = fam1.positions(element)
        assert got == fam2.positions(element)
        assert len(got) == 4
        assert all(0 <= pos < 160 for pos in got)


def test_hash_family_zero_count_yields_no_positions():
    assert HashFamily(0, 32, seed=1).positions("x") == []


def test_hash_family_seed_and_shape_change_stream():
    base = HashFamily(4, 160, seed=0).positions(123)
    assert HashFamily(4, 160, seed=1).positions(123) != base
    # same seed, different range: independent families by construction
    assert HashFamily(4, 161, seed=0).positions(123)[:3] != base[:3]


def test_hash_family_pinned_positions():
    yes_fam = HashFamily(3, 13, seed=FIXTURE_SEED)
    no_fam = HashFamily(1, 2, seed=FIXTURE_SEED)
    assert yes_fam.positions(FIXTURE_ELEMENT) == [4, 1, 11]
    assert no_fam.positions(FIXTURE_ELEMENT) == [1]


def test_hash_family_distinct_mode():
    fam = HashFamily(8, 11, seed=3, distinct=True)
    for element in range(50):
        got = fam.positions(element)
        assert len(set(got)) == 8
    with pytest.raises(ValueError):
        HashFamily(12, 11, distinct=True)


def test_distinct_is_rejected_in_double_hashing_mode():
    # an arithmetic progression repeats whenever its stride shares a factor
    # with the range, so distinct cannot be honoured there
    with pytest.raises(ValueError, match="double-hashing"):
        HashFamily(5, 32, mode=MODE_DOUBLE, distinct=True)
    with pytest.raises(ValueError, match="double-hashing"):
        BloomFilter(32, 5, mode=MODE_DOUBLE, distinct=True)


def test_double_hashing_mode_is_arithmetic_progression():
    fam = HashFamily(5, 97, mode=MODE_DOUBLE, seed=2)
    for element in (b"alpha", b"beta", 42):
        got = fam.positions(element)
        step = (got[1] - got[0]) % 97
        assert step != 0
        assert got == [(got[0] + i * step) % 97 for i in range(5)]


def test_bloom_filter_insert_then_contains():
    bf = BloomFilter(64, 3, seed=5)
    for element in range(20):
        bf.insert(element)
    assert all(bf.contains(element) for element in range(20))
    assert bf.inserted_count == 20
    assert bf.vector.popcount() <= 3 * 20


def test_empty_filter_contains_nothing():
    bf = BloomFilter(64, 3, seed=5)
    assert not any(bf.contains(element) for element in range(100))


def test_reinsert_does_not_change_bits():
    bf = BloomFilter(64, 3, seed=5)
    bf.insert("dup")
    before = bf.vector.as_int()
    bf.insert("dup")
    assert bf.vector.as_int() == before
    assert bf.inserted_count == 2


def test_union_equals_sequential_insert():
    left = BloomFilter(128, 4, seed=8)
    right = BloomFilter(128, 4, seed=8)
    both = BloomFilter(128, 4, seed=8)
    for element in range(10):
        left.insert(element)
        both.insert(element)
    for element in range(10, 20):
        right.insert(element)
        both.insert(element)
    assert left.union(right) == both
    assert left.union(left) == left
    empty = BloomFilter(128, 4, seed=8)
    assert left.union(empty) == left
    with pytest.raises(ValueError):
        left.union(BloomFilter(128, 4, seed=9))
    with pytest.raises(ValueError):
        left.union(BloomFilter(64, 4, seed=8))


def test_membership_is_subset_of_vector():
    bf = BloomFilter(64, 3, seed=1)
    for element in range(8):
        bf.insert(element)
    for element in range(200):
        expected = is_subset(bf.element_vector(element), bf.vector)
        assert bf.contains(element) == expected


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


# --- properties ----------------------------------------------------------

elements = st.one_of(st.integers(min_value=0, max_value=2**64 - 1),
                     st.text(max_size=12), st.binary(max_size=12))


def _reference_positions(count, size, seed, distinct, element):
    """Random-mode positions from the definition, one keyed blake2b call per
    block: the stream is the 64-byte digests of the encoded element + u32
    block number for blocks 0, 1, ..., read as little-endian u64 chunks;
    each chunk mod size is a position, skipped under distinct if taken."""
    key = struct.pack("<QQQB", seed, count, size, 2 if distinct else 0)
    if isinstance(element, bytes):
        data = b"b" + element
    elif isinstance(element, str):
        data = b"s" + element.encode("utf-8")
    elif 0 <= element < 2**64:
        data = b"i" + element.to_bytes(8, "little")
    else:
        data = b"I" + str(element).encode("ascii")
    taken = []
    block = 0
    while len(taken) < count:
        digest = blake2b(data + struct.pack("<I", block), key=key,
                         digest_size=64).digest()
        for j in range(0, 64, 8):
            pos = int.from_bytes(digest[j:j + 8], "little") % size
            if len(taken) < count and not (distinct and pos in taken):
                taken.append(pos)
        block += 1
    return taken


@settings(max_examples=150, deadline=None)
@given(count=st.integers(0, 20), size=st.integers(1, 300), distinct=st.booleans(),
       seed=st.integers(0, 2**64 - 1),
       element=st.one_of(st.integers(-2**70, 2**70), st.text(max_size=12),
                         st.binary(max_size=12)))
@example(count=20, size=300, distinct=False, seed=1, element=2**70)
@example(count=16, size=16, distinct=True, seed=3, element="link")
@example(count=9, size=64, distinct=True, seed=0, element=b"raw")
# one digest block, then the first chunk of a second one
@example(count=8, size=300, distinct=False, seed=5, element="edge")
@example(count=9, size=300, distinct=False, seed=5, element="edge")
def test_element_mask_matches_reference_stream(count, size, distinct, seed, element):
    if distinct and count > size:
        count = size
    fam = HashFamily(count, size, seed=seed, distinct=distinct)
    expected = _reference_positions(count, size, seed, distinct, element)
    assert fam.positions(element) == expected
    assert fam.element_mask(element) == sum(1 << pos for pos in set(expected))


@settings(max_examples=60, deadline=None)
@given(st.lists(elements, max_size=40), elements,
       st.integers(min_value=0, max_value=2**32))
def test_no_false_negatives_ever(batch, extra, seed):
    bf = BloomFilter(32, 3, seed=seed)
    for element in batch:
        bf.insert(element)
    bf.insert(extra)
    assert bf.contains(extra)
    assert all(bf.contains(element) for element in batch)


@settings(max_examples=60, deadline=None)
@given(st.lists(elements, max_size=30), st.lists(elements, max_size=30),
       st.integers(min_value=0, max_value=2**32))
def test_insertion_is_monotone(first, second, seed):
    small = BloomFilter(64, 4, seed=seed)
    large = BloomFilter(64, 4, seed=seed)
    for element in first:
        small.insert(element)
        large.insert(element)
    for element in second:
        large.insert(element)
    assert is_subset(small.vector, large.vector)


@settings(max_examples=60, deadline=None)
@given(st.lists(elements, max_size=30), st.lists(elements, max_size=30),
       st.integers(min_value=0, max_value=2**32))
def test_union_is_disjunction(first, second, seed):
    left = BloomFilter(64, 4, seed=seed)
    right = BloomFilter(64, 4, seed=seed)
    for element in first:
        left.insert(element)
    for element in second:
        right.insert(element)
    union = left.union(right)
    assert union.vector.as_int() == (left.vector.as_int() | right.vector.as_int())
    for element in first + second:
        assert union.contains(element)
