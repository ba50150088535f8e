"""Two-stage filter construction, queries, and serialization."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yesnobf import simulate
from yesnobf.bitcore import (
    _TABLE_SIZE,
    MODE_DOUBLE,
    MODE_RANDOM,
    BloomFilter,
    HashFamily,
    derive_seed,
    element_to_bytes,
)
from yesnobf.topology import Graph, PathExperiment, run_topology_experiment
from yesnobf.yesno import (
    QueryResult,
    Sketcher,
    YesNoFilter,
    YesNoParams,
    _sketch_trials,
)

import reference

FIXTURE_SEED = 0
FIXTURE_ELEMENT = 5063
FIXTURE_PARAMS = YesNoParams.of(p=13, q=2, r=2, k=3, k_prime=1)


def test_params_arithmetic_and_fields():
    params = YesNoParams.of(p=160, q=32, r=3, k=4, k_prime=5)
    assert params.m == 160 + 32 * 3
    assert (params.p, params.q, params.r) == (160, 32, 3)
    assert not params.allow_false_negatives


@pytest.mark.parametrize("kwargs", [
    dict(p=0, q=128, r=2, k=4, k_prime=5),    # empty yes-filter
    dict(p=160, q=32, r=-1, k=4, k_prime=5),
    dict(p=64, q=64, r=2, k=4, k_prime=5),    # q must stay below p
    dict(p=160, q=32, r=3, k=0, k_prime=5),
    dict(p=160, q=32, r=3, k=4, k_prime=0),   # r > 0 needs hashes
    dict(p=160, q=32, r=3, k=4, k_prime=-1),
])
def test_params_rejects_bad_geometry(kwargs):
    with pytest.raises(ValueError):
        YesNoParams(**kwargs)


def test_pinned_sketch():
    assert Sketcher(FIXTURE_PARAMS, seed=FIXTURE_SEED).sketch(FIXTURE_ELEMENT) == \
           (reference.mask([1, 4, 11]), reference.mask([1]))


def test_sketch_parts_are_the_family_masks():
    sk = Sketcher(FIXTURE_PARAMS, seed=FIXTURE_SEED)
    p = FIXTURE_PARAMS
    assert sk.sketch(FIXTURE_ELEMENT) == (
        HashFamily(p.k, p.p, seed=FIXTURE_SEED).element_mask(FIXTURE_ELEMENT),
        HashFamily(p.k_prime, p.q, seed=FIXTURE_SEED).element_mask(FIXTURE_ELEMENT))


@settings(max_examples=80, deadline=None)
@given(k=st.integers(1, 12), k_prime=st.integers(1, 12),
       mode=st.sampled_from([MODE_RANDOM, MODE_DOUBLE]),
       seed=st.integers(0, 2**64 - 1), elements=st.lists(reference.ids, max_size=20))
# ids past 64 bits and below zero; k 9 walks two digest blocks per element
@example(k=9, k_prime=8, mode=MODE_RANDOM, seed=1,
         elements=[2**64, 2**64 - 1, -1, 0, "", b"", "link"])
@example(k=4, k_prime=9, mode=MODE_DOUBLE, seed=1, elements=[])
def test_sketch_is_the_walked_digest_stream(k, k_prime, mode, seed, elements):
    params = YesNoParams.of(p=300, q=40, r=1, k=k, k_prime=k_prime)
    sk = Sketcher(params, seed, mode)
    assert [sk.sketch(e) for e in elements] == \
           [reference.sketch(params, seed, e, mode) for e in elements]


def test_sketching_rejects_unsupported_ids():
    sk = Sketcher(FIXTURE_PARAMS, seed=FIXTURE_SEED)
    with pytest.raises(TypeError):
        sk.sketch(2.5)
    # build and classify encode after the disjointness check, before any hashing
    with pytest.raises(TypeError):
        YesNoFilter.build(FIXTURE_PARAMS, [1, 2.5], [3])
    with pytest.raises(TypeError):
        YesNoFilter.build(FIXTURE_PARAMS, [1], [3, 2.5])
    filt, _ = YesNoFilter.build(FIXTURE_PARAMS, [1], [3])
    with pytest.raises(TypeError):
        filt.classify([1], [2.5])


def _sk(yes_bits, no_bits):
    return reference.mask(yes_bits), reference.mask(no_bits)


class TestHandWalkedConstruction:
    """Sketches crafted bit by bit so every placement is checkable by hand."""

    PARAMS = YesNoParams.of(p=8, q=4, r=2, k=2, k_prime=2)

    def _build(self):
        members = [_sk((0, 1), (0, 1)), _sk((2, 3), (2, 3))]
        candidates = [
            _sk((0, 2), (0, 2)),  # placed in no-filter 0
            _sk((1, 3), (1, 3)),  # 0 would swallow member 0 -> filter 1
            _sk((0, 3), (0, 1)),  # both filters guarded -> unmitigated
            _sk((4, 5), (0, 1)),  # fails the yes stage, not an FP
            _sk((1, 2), (0, 2)),  # fits filter 0 without new bits
        ]
        return YesNoFilter.build_from_sketches(self.PARAMS, members, candidates, seed=0)

    def test_report(self):
        _, report = self._build()
        assert (report.n, report.t) == (2, 5)
        assert report.f_count == 4
        assert report.r_count == 3
        assert report.unmitigated == 1
        assert report.per_no_filter_load == (2, 1)

    def test_final_bit_patterns(self):
        filt, _ = self._build()
        assert filt.yes_filter == reference.mask((0, 1, 2, 3))
        assert filt.no_filters == [reference.mask((0, 2)), reference.mask((1, 3))]

    def test_query_outcomes(self):
        filt, _ = self._build()
        assert filt.query_sketch(_sk((0, 1), (0, 1))) is QueryResult.POSITIVE
        assert filt.query_sketch(_sk((4, 5), (0, 1))) is QueryResult.NEGATIVE_YES_STAGE
        assert filt.query_sketch(_sk((0, 2), (0, 2))) is QueryResult.NEGATIVE_NO_STAGE
        # the unmitigated false positive still answers yes
        assert filt.query_sketch(_sk((0, 3), (0, 1))) is QueryResult.POSITIVE

    def test_classification_partition(self):
        filt, _ = self._build()
        member_pairs = [("m0", _sk((0, 1), (0, 1))),
                        ("m1", _sk((2, 3), (2, 3)))]
        candidate_pairs = [("c0", _sk((0, 2), (0, 2))),
                           ("c1", _sk((1, 3), (1, 3))),
                           ("c2", _sk((0, 3), (0, 1))),
                           ("c3", _sk((4, 5), (0, 1))),
                           ("c4", _sk((1, 2), (0, 2)))]
        got = filt.classify_sketches(member_pairs, candidate_pairs)
        assert got.true_positives == ["m0", "m1"]
        assert got.false_negatives == []
        assert got.yes_stage_negatives == ["c3"]
        assert got.no_stage_rejections == ["c0", "c1", "c4"]
        assert got.residual_false_positives == ["c2"]
        assert got.fp_count == 1
        assert got.yes_filter_fp_count == 4


def test_build_rejects_overlap_and_duplicates():
    params = YesNoParams.of(p=13, q=2, r=1, k=3, k_prime=1)
    with pytest.raises(ValueError, match="duplicate"):
        YesNoFilter.build(params, ["a", "a"], ["b"])
    with pytest.raises(ValueError, match="duplicate"):
        YesNoFilter.build(params, ["a"], ["b", "b"])
    with pytest.raises(ValueError, match="overlap"):
        YesNoFilter.build(params, ["a", "b"], ["b", "c"])


@pytest.mark.parametrize("members, candidates", [
    # member 0's no part spills into member 1's guard lane at q=4
    ([(0b1, 1 << 6), (0b1, 0b0011)], [(0b1, 0b0001), (0b1, 0b0010)]),
    ([(1 << 8, 0b1)], []),                  # member yes part wider than p
    ([(0b1, 0b1)], [(0b1, 1 << 4)]),        # yes-stage FP no part wider than q
    ([(0b1, -1)], []),
    # a later FP's, after an earlier FP was placed, and after a yes-stage
    # negative whose missing no part is never read
    ([(0b1, 0b1)], [(0b10, None), (0b1, 0b0010), (0b1, 1 << 4)]),
])
def test_build_rejects_sketches_wider_than_their_filter(members, candidates):
    # with no no-filters too: an int no part is checked even where None may stand
    for r in (1, 0):
        params = YesNoParams.of(p=8, q=4, r=r, k=1, k_prime=2)
        with pytest.raises(ValueError, match="wider"):
            YesNoFilter.build_from_sketches(params, members, candidates, seed=0)


@pytest.mark.parametrize("members, candidates", [
    ([(0b1, 0b1), (0b10, None)], [(0b1, 0b10)]),   # a member
    ([(0b11, 0b1)], [(0b100, None), (0b10, None)]),  # a yes-stage FP
    # a later FP, after an earlier FP was placed, and after a yes-stage
    # negative whose wide no part is never checked
    ([(0b11, 0b1)], [(0b100, 1 << 9), (0b1, 0b10), (0b10, None)]),
])
def test_build_rejects_a_missing_no_part_it_would_read(members, candidates):
    params = YesNoParams.of(p=8, q=4, r=1, k=1, k_prime=2)
    with pytest.raises(ValueError, match="lacks its no part"):
        YesNoFilter.build_from_sketches(params, members, candidates, seed=0)


@pytest.mark.parametrize("guard", [True, False])
def test_build_rejects_an_empty_member_no_part(guard):
    # every no filter covers an empty no part, so the member would answer no
    params = YesNoParams.of(p=16, q=8, r=2, k=2, k_prime=2,
                            allow_false_negatives=not guard)
    members = [(0b11, 0), (0b1100, 0b11)]
    candidates = [(0b11, 0b110000)]
    with pytest.raises(ValueError, match="member no part is empty"):
        YesNoFilter.build_from_sketches(params, members, candidates, seed=0)
    # with no no-filters nothing reads it
    params = YesNoParams.of(p=16, q=8, r=0, k=2, k_prime=0)
    filt, _ = YesNoFilter.build_from_sketches(params, members, candidates, seed=0)
    assert filt.query_sketch(members[0]) is QueryResult.POSITIVE


@pytest.mark.parametrize("r", [0, 1])
def test_build_takes_a_missing_no_part_nothing_reads(r):
    params = YesNoParams.of(p=8, q=4, r=r, k=1, k_prime=2)
    members = [(0b11, None if r == 0 else 0b1)]
    # the last candidate passes the yes stage, so r=1 must give it a no part;
    # the middle one's yes part has a bit past p, outside the yes filter
    candidates = [(0b100, None), (0b1 | 1 << 8, None), (0b10, None if r == 0 else 0b10)]
    filt, report = YesNoFilter.build_from_sketches(params, members, candidates, seed=0)
    assert (report.f_count, report.r_count) == (1, r)
    got = filt.classify_sketches(list(zip("m", members)), list(zip("axb", candidates)))
    assert got.true_positives == ["m"]
    assert got.yes_stage_negatives == ["a", "x"]
    assert (got.no_stage_rejections, got.residual_false_positives) == \
           ((["b"], []) if r else ([], ["b"]))


def test_build_from_sketches_needs_the_seed_by_keyword():
    # a sketch does not hold its seed: a seed-0 default would build a filter
    # whose contains() misses members sketched under any other seed
    params = YesNoParams.of(p=8, q=4, r=1, k=1, k_prime=2)
    members, candidates = [(0b11, 0b1)], [(0b10, 0b10)]
    with pytest.raises(TypeError):
        YesNoFilter.build_from_sketches(params, members, candidates)
    with pytest.raises(TypeError):
        YesNoFilter.build_from_sketches(params, members, candidates, mode=MODE_RANDOM)
    with pytest.raises(TypeError):
        YesNoFilter.build_from_sketches(params, members, candidates, 7)


def test_members_always_positive_with_guard():
    params = YesNoParams.of(p=40, q=8, r=2, k=3, k_prime=3)
    members = [f"name-{i}" for i in range(12)]
    candidates = [f"probe-{i}" for i in range(120)]
    for seed in range(10):
        filt, report = YesNoFilter.build(params, members, candidates, seed=seed)
        assert all(filt.contains(e) for e in members)
        got = filt.classify(members, candidates)
        assert got.false_negatives == []
        assert got.true_positives == members
        # the structure never does worse than its own yes stage
        assert got.fp_count <= got.yes_filter_fp_count == report.f_count
        assert report.r_count == sum(report.per_no_filter_load)
        assert report.unmitigated == report.f_count - report.r_count


def test_guard_keeps_member_patterns_uncovered():
    # tight no-filters (q=2) saturate fast; the guard must still hold the line
    params = YesNoParams.of(p=13, q=2, r=1, k=3, k_prime=1)
    members = [f"m{i}" for i in range(5)]
    candidates = [f"c{i}" for i in range(30)]
    filt, report = YesNoFilter.build(params, members, candidates, seed=0)
    sk = Sketcher(params, seed=0)
    for e in members:
        no_part = sk.sketch(e)[1]
        for nf in filt.no_filters:
            assert no_part & nf != no_part
    assert all(filt.contains(e) for e in members)


def test_without_guard_members_can_be_lost():
    relaxed = YesNoParams.of(p=13, q=2, r=1, k=3, k_prime=1,
                             allow_false_negatives=True)
    members = [f"m{i}" for i in range(5)]
    candidates = [f"c{i}" for i in range(30)]
    filt, report = YesNoFilter.build(relaxed, members, candidates, seed=0)
    # first fit with no guard: everything lands in the first no-filter
    assert report.r_count == report.f_count
    assert report.per_no_filter_load == (report.r_count,)
    got = filt.classify(members, candidates)
    assert len(got.false_negatives) == 5
    assert all(filt.query(e) is QueryResult.NEGATIVE_NO_STAGE
               for e in got.false_negatives)


def test_zero_no_filters_degenerate_to_plain_bloom():
    params = YesNoParams.of(p=64, q=1, r=0, k=3, k_prime=0)
    members = [f"m{i}" for i in range(10)]
    candidates = [f"c{i}" for i in range(200)]
    filt, report = YesNoFilter.build(params, members, candidates, seed=7)
    assert report.r_count == 0
    assert filt.no_filters == []

    reference = BloomFilter(64, 3, seed=7)
    for e in members:
        reference.insert(e)
    assert filt.yes_filter == reference.mask
    for e in members + candidates + [f"fresh-{i}" for i in range(200)]:
        assert filt.contains(e) == reference.contains(e)


def test_repr_names_the_seed_and_mode_it_compares():
    params = YesNoParams.of(p=13, q=2, r=1, k=3, k_prime=1)
    assert repr(YesNoFilter.build(params, [5063], [], 4, MODE_DOUBLE)[0]) == (
        "YesNoFilter(p=13, q=2, r=1, k=3, k_prime=1, seed=4, "
        "mode='double-hashing')")


def test_serialization_round_trip():
    params = YesNoParams.of(p=40, q=8, r=2, k=3, k_prime=3)
    members = [f"name-{i}" for i in range(12)]
    candidates = [f"probe-{i}" for i in range(60)]
    filt, _ = YesNoFilter.build(params, members, candidates, seed=3)
    text = filt.to_bitstring()
    assert len(text) == params.m
    assert set(text) <= {"0", "1"}
    back = YesNoFilter.from_bitstring(params, text, seed=3, mode=MODE_RANDOM)
    assert back == filt
    assert [back.query(e) for e in members + candidates] == \
           [filt.query(e) for e in members + candidates]
    with pytest.raises(ValueError):
        YesNoFilter.from_bitstring(params, text + "0", seed=3, mode=MODE_RANDOM)
    # the bits do not hold the hashing, so a load must name it, by keyword
    for hashing in ({}, {"seed": 3}, {"mode": MODE_RANDOM}):
        with pytest.raises(TypeError):
            YesNoFilter.from_bitstring(params, text, **hashing)
    with pytest.raises(TypeError):
        YesNoFilter.from_bitstring(params, text, 3, MODE_RANDOM)


def test_constructor_validates_part_lengths():
    params = YesNoParams.of(p=8, q=4, r=2, k=2, k_prime=2)
    full_yes, full_no = (1 << 8) - 1, (1 << 4) - 1
    hashing = dict(seed=0, mode=MODE_RANDOM)
    # widest masks that fit
    YesNoFilter(params, full_yes, [full_no, full_no], **hashing)
    with pytest.raises(ValueError):
        YesNoFilter(params, 1 << 8, [0, 0], **hashing)
    with pytest.raises(ValueError):
        YesNoFilter(params, -1, [0, 0], **hashing)
    with pytest.raises(ValueError):
        YesNoFilter(params, 0, [0], **hashing)
    with pytest.raises(ValueError):
        YesNoFilter(params, 0, [0, 1 << 4], **hashing)
    with pytest.raises(ValueError, match="unknown mode"):
        YesNoFilter(params, 0, [0, 0], seed=0, mode="bogus")


def test_constructor_needs_the_seed_and_mode_by_keyword():
    """Masks do not hold their hashing, so a filter made from masks, as a
    loaded or tampered one is, names both rather than defaulting."""
    params = YesNoParams.of(p=8, q=4, r=2, k=2, k_prime=2)
    for hashing in ({}, {"seed": 3}, {"mode": MODE_RANDOM}):
        with pytest.raises(TypeError):
            YesNoFilter(params, 0, [0, 0], **hashing)
    with pytest.raises(TypeError):
        YesNoFilter(params, 0, [0, 0], 3, MODE_RANDOM)
    assert YesNoFilter(params, 0, [0, 0], seed=3, mode=MODE_DOUBLE).mode == MODE_DOUBLE


@pytest.mark.parametrize("bad", ["_", " ", "+", "2"])
def test_from_bitstring_rejects_other_characters(bad):
    # int(text, 2) would take "_" between digits and spaces around them
    params = YesNoParams.of(p=8, q=4, r=2, k=2, k_prime=2)
    for at in (0, 5, params.m - 1):
        text = "1" * at + bad + "1" * (params.m - at - 1)
        with pytest.raises(ValueError):
            YesNoFilter.from_bitstring(params, text, seed=0, mode=MODE_RANDOM)


# --- properties ----------------------------------------------------------

element_sets = st.sets(st.integers(min_value=0, max_value=10**9),
                       min_size=1, max_size=25)


@settings(max_examples=60, deadline=None)
@given(members=element_sets, extra=element_sets, seed=st.integers(0, 2**32 - 1))
def test_property_no_false_negatives(members, extra, seed):
    params = YesNoParams.of(p=48, q=8, r=2, k=3, k_prime=2)
    candidates = sorted(extra - members)
    filt, _ = YesNoFilter.build(params, sorted(members), candidates, seed=seed)
    assert all(filt.contains(e) for e in members)


@settings(max_examples=60, deadline=None)
@given(members=element_sets, extra=element_sets, seed=st.integers(0, 2**32 - 1))
def test_property_round_trip_preserves_answers(members, extra, seed):
    params = YesNoParams.of(p=48, q=8, r=2, k=3, k_prime=2)
    candidates = sorted(extra - members)
    filt, _ = YesNoFilter.build(params, sorted(members), candidates, seed=seed)
    back = YesNoFilter.from_bitstring(params, filt.to_bitstring(), seed=seed,
                                      mode=MODE_RANDOM)
    probes = sorted(members) + candidates + list(range(50))
    assert [back.query(e) for e in probes] == [filt.query(e) for e in probes]


@settings(max_examples=60, deadline=None)
@given(members=element_sets, extra=element_sets, seed=st.integers(0, 2**32 - 1))
def test_property_rejections_never_exceed_yes_stage_fps(members, extra, seed):
    params = YesNoParams.of(p=48, q=8, r=2, k=3, k_prime=2)
    candidates = sorted(extra - members)
    filt, report = YesNoFilter.build(params, sorted(members), candidates, seed=seed)
    got = filt.classify(sorted(members), candidates)
    assert got.yes_filter_fp_count == report.f_count
    # placements made after an element was skipped can cover it anyway,
    # so rejections may exceed r_count but never fall below it
    assert len(got.no_stage_rejections) >= report.r_count
    assert got.fp_count <= report.unmitigated
    assert got.fp_count + len(got.no_stage_rejections) == report.f_count


geometries = st.tuples(st.integers(2, 64), st.integers(1, 12), st.integers(0, 3),
                       st.integers(1, 6), st.integers(1, 4)).filter(
    lambda g: g[1] < g[0])


def _saturating(q_min, q_max, n_max):
    """(p, q, r, k, k', n) with a yes-filter just wider than a no-filter:
    nearly every candidate is a yes-stage false positive, so the no-filters
    fill and the guard refuses often."""
    return st.tuples(st.integers(1, 12), st.integers(q_min, q_max), st.integers(0, 8),
                     st.integers(1, 3), st.integers(1, 4), st.integers(0, n_max)).map(
        lambda g: (g[0] + g[1],) + g[1:])


@settings(max_examples=120, deadline=None)
@given(shape=st.one_of(_saturating(1, 12, 20),
                       # serve-sized: guard lanes straddle 30-bit int digits
                       # and 64-bit words
                       _saturating(24, 70, 80)),
       t=st.integers(0, 400), base=st.integers(0, 2**32),
       seed=st.integers(0, 2**32 - 1),
       mode=st.sampled_from([MODE_RANDOM, MODE_DOUBLE]), guard=st.booleans())
# the serve benchmark's geometry and window: all eight no-filters take false
# positives and a quarter stay unmitigated, so pins are dense, which the
# strategies above rarely reach
@example(shape=(256, 32, 8, 4, 4, 60), t=2000, base=0, seed=5, mode=MODE_RANDOM,
         guard=True)
@example(shape=(256, 32, 8, 4, 4, 60), t=2000, base=0, seed=5, mode=MODE_RANDOM,
         guard=False)
def test_property_build_matches_plain_first_fit(shape, t, base, seed, mode, guard):
    p, q, r, k, k_prime, n = shape
    params = YesNoParams.of(p, q, r, k, k_prime, allow_false_negatives=not guard)
    sk = Sketcher(params, seed, mode)
    members = [sk.sketch(base + i) for i in range(n)]
    candidates = [sk.sketch(base + n + i) for i in range(t)]
    built, report = YesNoFilter.build_from_sketches(params, members, candidates,
                                                    seed=seed, mode=mode)
    yes_mask, no_masks, expected = reference.first_fit(params, members, candidates)
    assert built.yes_filter == yes_mask
    assert built.no_filters == no_masks
    assert report == expected


@pytest.mark.parametrize("p, q, r, exact", [(4, 2, 1, Fraction(21, 32)),
                                             (5, 2, 2, Fraction(27, 50))])
def test_every_sketch_assignment_builds_as_first_fit_to_the_exact_mean_fp(
        p, q, r, exact):
    """At k = k' = 1 and two members and two candidates, every random-mode
    sketch assignment (4,096 and 10,000) builds as the reference first fit
    does, and the mean residual false positives is exact: with the guard,
    the value the enumeration gives; without it, every false positive is
    recorded."""
    for guard in (True, False):
        params = YesNoParams.of(p, q, r, 1, 1, allow_false_negatives=not guard)
        for members, candidates in reference.sketch_assignments(params, 2, 2):
            built, report = YesNoFilter.build_from_sketches(params, members,
                                                            candidates, seed=0)
            assert (built.yes_filter, built.no_filters, report) == \
                   reference.first_fit(params, members, candidates)
        assert reference.exact_mean_fp(params, 2, 2) == (exact if guard else 0)


@settings(max_examples=80, deadline=None)
@given(shape=_saturating(1, 12, 20), t=st.integers(0, 200), base=st.integers(0, 2**32),
       seed=st.integers(0, 2**32 - 1), guard=st.booleans())
def test_property_classify_files_each_element_where_query_sketch_says(
        shape, t, base, seed, guard):
    p, q, r, k, k_prime, n = shape
    params = YesNoParams.of(p, q, r, k, k_prime, allow_false_negatives=not guard)
    sk = Sketcher(params, seed)
    member_pairs = [(base + i, sk.sketch(base + i)) for i in range(n)]
    candidate_pairs = [(base + n + i, sk.sketch(base + n + i)) for i in range(t)]
    filt, _ = YesNoFilter.build_from_sketches(
        params, [s for _, s in member_pairs], [s for _, s in candidate_pairs],
        seed=seed)
    got = filt.classify_sketches(member_pairs, candidate_pairs)
    assert got.true_positives == [e for e, s in member_pairs
                                  if filt.query_sketch(s) is QueryResult.POSITIVE]
    assert got.false_negatives == [e for e, s in member_pairs
                                   if filt.query_sketch(s) is not QueryResult.POSITIVE]
    for outcome, filed in ((QueryResult.NEGATIVE_YES_STAGE, got.yes_stage_negatives),
                           (QueryResult.NEGATIVE_NO_STAGE, got.no_stage_rejections),
                           (QueryResult.POSITIVE, got.residual_false_positives)):
        assert filed == [e for e, s in candidate_pairs
                         if filt.query_sketch(s) is outcome]


def test_classify_obeys_an_overriding_query_sketch():
    class SaysNoTo(YesNoFilter):
        __slots__ = ("refused",)

        def query_sketch(self, s):
            if s == self.refused:
                return QueryResult.NEGATIVE_NO_STAGE
            return super().query_sketch(s)

    params = YesNoParams.of(p=40, q=8, r=2, k=3, k_prime=3)
    members = [f"name-{i}" for i in range(12)]
    candidates = [f"probe-{i}" for i in range(60)]
    filt, _ = YesNoFilter.build(params, members, candidates, seed=3)
    stub = SaysNoTo(params, filt.yes_filter, filt.no_filters, seed=3,
                    mode=MODE_RANDOM)
    stub.refused = Sketcher(params, seed=3).sketch(members[0])
    assert filt.classify(members, candidates).false_negatives == []
    assert stub.classify(members, candidates).false_negatives == [members[0]]

    class Records(YesNoFilter):
        __slots__ = ("shown",)

        def query_sketch(self, s):
            self.shown.append(s)
            return super().query_sketch(s)

    # an override is shown the full sketch, except that a yes-stage
    # negative's no part is None
    yes_mask = filt.yes_filter
    probes = members + candidates
    sk = Sketcher(params, seed=3)
    full = [sk.sketch(e) for e in probes]
    expected = [(y, None if y & yes_mask != y else no) for y, no in full]
    assert 0 < sum(no is None for _, no in expected) < len(probes) - len(members)
    recorder = Records(params, filt.yes_filter, filt.no_filters, seed=3,
                       mode=MODE_RANDOM)
    recorder.shown = []
    recorder.classify(members, candidates)
    assert recorder.shown == expected


def test_classify_picks_the_no_parts_it_hashes_by_the_filters_yes_mask():
    """A filter whose yes filter holds more bits than its members set, as
    a loaded filter can, classifies each element as query answers it."""
    params = YesNoParams.of(p=40, q=8, r=2, k=3, k_prime=3)
    members = [f"name-{i}" for i in range(12)]
    candidates = [f"probe-{i}" for i in range(60)]
    filt, _ = YesNoFilter.build(params, members, candidates, seed=3)
    assert filt.classify(members, candidates).yes_stage_negatives
    wide = YesNoFilter(params, (1 << params.p) - 1, filt.no_filters, seed=3,
                       mode=MODE_RANDOM)
    got = wide.classify(members, candidates)
    assert got.yes_stage_negatives == []
    for outcome, filed in ((QueryResult.NEGATIVE_NO_STAGE, got.no_stage_rejections),
                           (QueryResult.POSITIVE, got.residual_false_positives)):
        assert filed == [e for e in candidates if wide.query(e) is outcome]


@pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_DOUBLE])
def test_a_filter_whose_no_filter_covers_a_member_answers_no_to_it(mode):
    """A fault in the filter's state, as a tampered or mis-loaded filter
    can carry: no-filter 0 holds member 0's no part. Every reader then
    answers no to member 0."""
    params = YesNoParams.of(p=40, q=8, r=2, k=3, k_prime=3)
    members = [f"name-{i}" for i in range(12)]
    candidates = [f"probe-{i}" for i in range(60)]
    filt, _ = YesNoFilter.build(params, members, candidates, seed=3, mode=mode)
    assert all(filt.contains(e) for e in members)
    no_part = Sketcher(params, 3, mode).sketch(members[0])[1]
    assert filt.no_filters[0] | no_part != filt.no_filters[0]
    lossy = YesNoFilter(params, filt.yes_filter,
                        [filt.no_filters[0] | no_part, *filt.no_filters[1:]],
                        seed=3, mode=mode)
    assert lossy.query(members[0]) is QueryResult.NEGATIVE_NO_STAGE
    assert not lossy.contains(members[0])
    lost = lossy.classify(members, candidates).false_negatives
    assert lost[0] == members[0]
    assert lost == [e for e in members if not lossy.contains(e)]


@settings(max_examples=120, deadline=None)
@given(case=st.one_of(
           st.tuples(geometries, element_sets, element_sets).map(
               lambda g: (g[0], sorted(g[1]), sorted(g[2] - g[1]))),
           st.tuples(st.one_of(_saturating(1, 12, 20),
                               # serve-sized: guard lanes straddle 30-bit int
                               # digits and 64-bit words
                               _saturating(24, 70, 80)),
                     st.integers(0, 400), st.integers(0, 2**32)).map(
               lambda g: (g[0][:5], list(range(g[2], g[2] + g[0][5])),
                          list(range(g[2] + g[0][5], g[2] + g[0][5] + g[1]))))),
       seed=st.integers(0, 2**32 - 1), mode=st.sampled_from([MODE_RANDOM, MODE_DOUBLE]),
       guard=st.booleans())
def test_property_kernels_match_the_full_sketch_oracle(case, seed, mode, guard):
    """Construction, classification and queries agree with the reference:
    the cores fed full sketches, and build, classify and query, which hash
    a no part only where it is read."""
    (p, q, r, k, k_prime), members, candidates = case
    params = YesNoParams.of(p, q, r, k, k_prime, allow_false_negatives=not guard)
    member_pairs = [(e, reference.sketch(params, seed, e, mode)) for e in members]
    candidate_pairs = [(e, reference.sketch(params, seed, e, mode)) for e in candidates]
    member_sketches = [s for _, s in member_pairs]
    candidate_sketches = [s for _, s in candidate_pairs]
    yes_mask, no_masks, report = reference.first_fit(params, member_sketches,
                                                     candidate_sketches)
    expected = reference.classify(yes_mask, no_masks, member_pairs, candidate_pairs)

    filt, filt_report = YesNoFilter.build_from_sketches(
        params, member_sketches, candidate_sketches, seed=seed, mode=mode)
    assert (filt.yes_filter, filt.no_filters, filt_report) == \
           (yes_mask, no_masks, report)
    assert filt.classify_sketches(member_pairs, candidate_pairs) == expected
    built, built_report = YesNoFilter.build(params, members, candidates, seed, mode)
    assert (built, built_report) == (filt, report)
    assert built.classify(members, candidates) == expected

    probe_pairs = member_pairs + candidate_pairs + [
        (e, reference.sketch(params, seed, e, mode))
        for e in (f"fresh-{i}" for i in range(20))]
    answers = [reference.query(yes_mask, no_masks, s) for _, s in probe_pairs]
    assert [filt.query_sketch(s) for _, s in probe_pairs] == answers
    assert [built.query(e) for e, _ in probe_pairs] == answers


def _record_walks(monkeypatch):
    """(count, range_size, items) of every walk: each HashFamily.encoded_mask
    or encoded_within call, one item each, and each element of an
    encoded_masks or count_within call, one item each."""
    walks = []
    walk_one = HashFamily.encoded_mask
    test_one = HashFamily.encoded_within
    walk_list = HashFamily.encoded_masks
    test_list = HashFamily.count_within

    def recording_one(family, data):
        walks.append((family.count, family.range_size, 1))
        return walk_one(family, data)

    def recording_test(family, data, mask):
        walks.append((family.count, family.range_size, 1))
        return test_one(family, data, mask)

    def recording_list(family, datas):
        datas = list(datas)
        walks.extend((family.count, family.range_size, 1) for _ in datas)
        return walk_list(family, datas)

    def recording_count(family, datas, mask):
        datas = list(datas)
        walks.extend((family.count, family.range_size, 1) for _ in datas)
        return test_list(family, datas, mask)

    monkeypatch.setattr(HashFamily, "encoded_mask", recording_one)
    monkeypatch.setattr(HashFamily, "encoded_within", recording_test)
    monkeypatch.setattr(HashFamily, "encoded_masks", recording_list)
    monkeypatch.setattr(HashFamily, "count_within", recording_count)
    return walks


@pytest.mark.parametrize("r", [0, 2])
def test_no_family_walks_only_what_a_query_reads(r, monkeypatch):
    params = YesNoParams.of(p=40, q=8, r=r, k=3, k_prime=3 if r else 0)
    members = [f"name-{i}" for i in range(12)]
    candidates = [f"probe-{i}" for i in range(200)]
    walks = _record_walks(monkeypatch)

    def walked():
        """Items each family walked since the last call: (yes, no)."""
        items = [sum(n for _, size, n in walks if size == part)
                 for part in (params.p, params.q)]
        walks.clear()
        return tuple(items)

    filt, report = YesNoFilter.build(params, members, candidates)
    assert 0 < report.f_count < len(candidates)
    hits = len(members) + report.f_count if r else 0
    assert walked() == (len(members) + len(candidates), hits)
    got = filt.classify(members, candidates)
    assert walked() == (len(members) + len(candidates), hits)

    assert not filt.contains(got.yes_stage_negatives[0])
    assert walked() == (1, 0)
    assert filt.contains(members[0])
    assert walked() == (1, 1 if r else 0)


@settings(max_examples=80, deadline=None)
@given(geometry=st.one_of(geometries, _saturating(1, 12, 20).map(lambda g: g[:5])),
       elements=st.lists(reference.ids, max_size=30, unique_by=element_to_bytes),
       n=st.integers(0, 30), seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1,
                                            max_size=4),
       mode=st.sampled_from([MODE_RANDOM, MODE_DOUBLE]),
       yes_masks=st.none() | st.lists(st.integers(0, 2**64 - 1) | st.just(2**64 - 1),
                                      min_size=4, max_size=4))
@example(geometry=(40, 8, 0, 3, 1), elements=list(range(20)), n=5, seeds=[1, 2],
         mode=MODE_RANDOM, yes_masks=None)
@example(geometry=(13, 4, 2, 3, 1), elements=list(range(20)), n=0, seeds=[1, 2],
         mode=MODE_DOUBLE, yes_masks=None)
@example(geometry=(13, 4, 2, 3, 1), elements=list(range(5)), n=5, seeds=[1, 2],
         mode=MODE_RANDOM, yes_masks=None)
@example(geometry=(13, 4, 2, 3, 1), elements=[], n=0, seeds=[1, 2],
         mode=MODE_RANDOM, yes_masks=None)
@example(geometry=(13, 4, 2, 3, 1), elements=list(range(20)), n=5, seeds=[1, 2, 3],
         mode=MODE_DOUBLE, yes_masks=[0, 2**13 - 1, 0b1011011011011, 0])
def test_a_batch_sketches_each_trial_as_a_one_trial_call(
        geometry, elements, n, seeds, mode, yes_masks):
    """Trial i of a batch holds the sketches a one-trial call gives it:
    every yes part, and the no part only with r > 0 and inside the trial's
    yes mask, given or else the OR of its members' yes parts."""
    params = YesNoParams.of(*geometry)
    n = min(n, len(elements))
    datas = [element_to_bytes(e) for e in elements]
    # each trial takes another member set, rotated from the same elements
    trial_elements = [elements[i:] + elements[:i] for i in range(len(seeds))]
    trials = [datas[i:] + datas[:i] for i in range(len(seeds))]
    sketchers = [Sketcher(params, seed, mode) for seed in seeds]
    masks = yes_masks and yes_masks[:len(seeds)]
    batch = _sketch_trials(sketchers, trials, n, masks)
    assert len(batch) == len(seeds)
    for i, (sk, trial, ids) in enumerate(zip(sketchers, trials, trial_elements)):
        [alone] = _sketch_trials([sk], [trial], n, masks and [masks[i]])
        assert batch[i] == alone
        yes_parts = [reference.element_mask(params.k, params.p, sk.seed, e, mode)
                     for e in ids]
        yes_mask = 0
        for y in yes_parts[:n]:
            yes_mask |= y
        if masks:
            yes_mask = masks[i]
        assert batch[i] == [
            (y, reference.element_mask(params.k_prime, params.q, sk.seed, e, mode)
             if params.r and y & yes_mask == y else None)
            for e, y in zip(ids, yes_parts)]


@pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_DOUBLE])
def test_every_walk_reads_the_hasher_through_one_of_two_readers(mode,
                                                                monkeypatch):
    """Each walk's elements pass exactly once through a list reader,
    HashFamily.encoded_masks or count_within, or through a one-element
    reader, HashFamily.encoded_mask or encoded_within, so a walk that reads
    the keyed hasher some other way, or through two readers, fails here."""
    seen = []
    read_list = HashFamily.encoded_masks
    test_list = HashFamily.count_within
    read_one = HashFamily.encoded_mask
    test_one = HashFamily.encoded_within

    def recording_list(family, datas):
        datas = list(datas)
        seen.extend((family.count, family.range_size, d) for d in datas)
        return read_list(family, datas)

    def recording_count(family, datas, mask):
        datas = list(datas)
        seen.extend((family.count, family.range_size, d) for d in datas)
        return test_list(family, datas, mask)

    def recording_one(family, data):
        seen.append((family.count, family.range_size, data))
        return read_one(family, data)

    def recording_test(family, data, mask):
        seen.append((family.count, family.range_size, data))
        return test_one(family, data, mask)

    monkeypatch.setattr(HashFamily, "encoded_masks", recording_list)
    monkeypatch.setattr(HashFamily, "count_within", recording_count)
    monkeypatch.setattr(HashFamily, "encoded_mask", recording_one)
    monkeypatch.setattr(HashFamily, "encoded_within", recording_test)

    def walked(shape=None):
        """(count, range_size, data) walked since the last call, of one
        family shape if given."""
        got = [w for w in seen if shape is None or w[:2] == shape]
        seen.clear()
        return got

    params = YesNoParams.of(p=40, q=8, r=2, k=3, k_prime=2)
    yes, no = (params.k, params.p), (params.k_prime, params.q)
    datas = [element_to_bytes(e) for e in ("a", 7, b"c")]
    fam = HashFamily(5, 64, mode=mode, seed=3)
    fam.count_within(datas, (1 << 64) - 1)
    assert walked() == [(5, 64, d) for d in datas]
    fam.element_mask(7)
    assert walked() == [(5, 64, datas[1])]
    BloomFilter(64, 5, seed=3, mode=mode).contains(7)
    assert walked() == [(5, 64, datas[1])]
    Sketcher(params, 3, mode).sketch("a")
    assert walked() == [(*yes, datas[0]), (*no, datas[0])]

    members = [f"name-{i}" for i in range(12)]
    candidates = [f"probe-{i}" for i in range(200)]
    filt, _ = YesNoFilter.build(params, members, candidates, 3, mode)
    got = filt.classify(members, candidates)
    walked()  # the build's and the classification's walks
    miss = got.yes_stage_negatives[0]
    assert filt.query(miss) is QueryResult.NEGATIVE_YES_STAGE
    assert walked() == [(*yes, element_to_bytes(miss))]
    assert filt.query(members[0]) is QueryResult.POSITIVE
    assert walked() == [(*yes, element_to_bytes(members[0])),
                        (*no, element_to_bytes(members[0]))]

    exp = PathExperiment.from_graph(
        "ring30", Graph(edges=[(f"v{i}", f"v{(i + 1) % 30}") for i in range(30)]),
        params=params, k_bf=4, allocations=3)
    run_topology_experiment(exp, seed=1, mode=mode)
    s_ids = [link.id for link in exp.s_links]
    ids = s_ids + [link.id for link in exp.t_links]
    links = [element_to_bytes(e) for e in ids]
    baseline = [(exp.k_bf, params.m, d) for d in links]
    topology_walks = walked()
    by_shape = {shape: [w for w in topology_walks if w[:2] == shape]
                for shape in ((exp.k_bf, params.m), yes, no)}
    assert by_shape[exp.k_bf, params.m] == baseline * exp.allocations
    # each allocation's yes family walks every link, its no family the
    # yes-stage hits
    assert by_shape[yes] == [(*yes, d) for d in links] * exp.allocations
    hits = []
    for index in range(exp.allocations):
        alloc_seed = derive_seed(1, exp.name, index)
        yes_parts = [reference.element_mask(*yes, alloc_seed, e, mode) for e in ids]
        yes_mask = 0
        for y in yes_parts[:len(s_ids)]:
            yes_mask |= y
        hits += [(*no, d) for d, y in zip(links, yes_parts) if y & yes_mask == y]
    assert by_shape[no] == hits
    assert len(s_ids) * exp.allocations < len(hits) < len(baseline) * exp.allocations

    # a trial's yes family walks every id, its no family the yes-stage hits
    got = simulate.trial_outcome(params, 12, 200, 3, mode)[1]
    members, candidates = simulate.draw_elements(3, 12, 200)
    misses = set(got.yes_stage_negatives)
    assert walked() == (
        [(*yes, element_to_bytes(e)) for e in members + candidates]
        + [(*no, element_to_bytes(e)) for e in members + candidates
           if e not in misses])
    assert 0 < len(misses) < len(candidates)

    # without no-filters a trial's yes family walks every id, and its no
    # family no element
    params = YesNoParams.of(p=40, q=8, r=0, k=3, k_prime=2)
    simulate.trial_outcome(params, 12, 200, 3, mode)
    assert walked() == [(*yes, element_to_bytes(e)) for e in members + candidates]


class _CountingBits:
    """A family's bit table that counts the positions a walk reads."""

    def __init__(self, bits, counts):
        self.bits = bits
        self.counts = counts

    def __getitem__(self, i):
        self.counts["positions"] += 1
        return self.bits[i]


class _CountingHasher:
    """A family's keyed hasher whose copies count the digests taken."""

    def __init__(self, hasher, counts):
        self.hasher = hasher
        self.counts = counts

    def copy(self):
        return _CountingHasher(self.hasher.copy(), self.counts)

    def update(self, data):
        self.hasher.update(data)

    def digest(self):
        self.counts["digests"] += 1
        return self.hasher.digest()


def _count_reads(family):
    """Counters of the positions and digests family reads from now on."""
    counts = {"positions": 0, "digests": 0}
    family._bits = _CountingBits(family._bits, counts)
    family._hasher = _CountingHasher(family._hasher, counts)
    return counts


@pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_DOUBLE])
def test_a_query_reads_what_a_classic_read_reads(mode):
    """The abstract's query claim in counted work: a yes-no query reads as
    many yes positions as a classic filter of p bits and k hashes holding
    the members, up to its first clear bit, and one more digest, the no
    part's, only after the yes stage passes."""
    params = YesNoParams.of(p=160, q=32, r=3, k=4, k_prime=5)
    members = [f"member-{i}" for i in range(30)]
    candidates = [f"candidate-{i}" for i in range(100)]
    fresh = [f"fresh-{i}" for i in range(200)]
    filt, _ = YesNoFilter.build(params, members, candidates, seed=11, mode=mode)
    classic = BloomFilter(params.p, params.k, seed=11, mode=mode)
    for e in members:
        classic.insert(e)
    assert classic.mask == filt.yes_filter
    sk = filt._sketcher
    yes_counts = _count_reads(sk.yes_family)
    no_counts = _count_reads(sk.no_family)
    classic_counts = _count_reads(classic.family)

    stops = 0
    for e in members + candidates + fresh:
        positions = reference.positions(params.k, params.p, 11, e, mode)
        clear = [i for i, pos in enumerate(positions)
                 if not filt.yes_filter >> pos & 1]
        passes = not clear
        stops += clear[:1] == [0]
        for counts in (yes_counts, no_counts, classic_counts):
            counts.update(positions=0, digests=0)
        answer = filt.query(e)
        assert (answer is not QueryResult.NEGATIVE_YES_STAGE) == passes
        assert classic.contains(e) == passes
        assert yes_counts["positions"] == classic_counts["positions"] == \
               (params.k if passes else clear[0] + 1)
        assert yes_counts["digests"] + no_counts["digests"] == 1 + passes
        assert classic_counts["digests"] == 1
    # about half the fill is clear, so reads do stop early
    assert stops > len(fresh) // 2


@pytest.mark.parametrize("count, size, mode", [
    pytest.param(count, size, mode,
                 id=f"{count}-{size}" + (mode == MODE_DOUBLE) * "-double")
    for count, size, mode in [
        (20, 160, MODE_RANDOM), (9, 256, MODE_RANDOM), (4, 256, MODE_RANDOM),
        (9, _TABLE_SIZE + 1, MODE_RANDOM), (20, 160, MODE_DOUBLE), (6, 12, MODE_DOUBLE)]])
def test_a_stopped_read_digests_no_block_past_its_stop(count, size, mode):
    """A read tests one position at a time and digests a block only when
    its walk reaches the block's first chunk: a random-mode family of
    count <= 8, and every double-mode family, digests its one block. So
    does each element of a count_within list, at its own stop."""
    fam = HashFamily(count, size, mode=mode, seed=1)
    data = element_to_bytes("x")
    counts = _count_reads(fam)
    positions = reference.positions(count, size, 1, "x", mode)
    per_block = count if mode == MODE_DOUBLE else 8
    # a counted read of one element is its own single read
    for within in (lambda mask: fam.encoded_within(data, mask),
                   lambda mask: fam.count_within([data], mask) == 1):
        counts.update(positions=0, digests=0)
        assert not within(0)
        assert counts == {"positions": 1, "digests": 1}
        for stop in range(count):
            if positions[stop] in positions[:stop]:
                continue  # set by its first occurrence, so the read passes it
            counts.update(positions=0, digests=0)
            assert not within(reference.mask(positions[:stop]))
            assert counts == {"positions": stop + 1,
                              "digests": stop // per_block + 1}
        counts.update(positions=0, digests=0)
        assert within(reference.mask(positions))
        assert counts == {"positions": count, "digests": -(-count // per_block)}

    # a list read walks each element once: its masks digest every block of
    # each, and its count stops each element at that element's own stop
    elements = ["x", "y", 7, b"z", "x"]
    datas = [element_to_bytes(e) for e in elements]
    counts.update(positions=0, digests=0)
    assert fam.encoded_masks(datas) == [reference.element_mask(count, size, 1, e, mode)
                                        for e in elements]
    assert counts == {"positions": count * len(elements),
                      "digests": -(-count // per_block) * len(elements)}
    walks = [reference.positions(count, size, 1, e, mode) for e in elements]
    for mask in [0, reference.mask(positions)] + [
            reference.mask(positions[:stop] + walks[1][:stop] + walks[2][:-stop])
            for stop in range(1, count)]:
        # each element's positions up to and with its first outside mask,
        # None for one that passes
        read = [next((i + 1 for i, pos in enumerate(walk) if not mask >> pos & 1),
                     None) for walk in walks]
        counts.update(positions=0, digests=0)
        assert fam.count_within(iter(datas), mask) == read.count(None)
        assert counts == {
            "positions": sum(n or count for n in read),
            "digests": sum(-(-(n or count) // per_block) for n in read)}
