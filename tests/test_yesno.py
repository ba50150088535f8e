"""Two-stage filter construction, queries, and serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yesnobf.bitcore import (
    MODE_DOUBLE,
    MODE_RANDOM,
    BitVector,
    BloomFilter,
    HashFamily,
    is_subset,
)
from yesnobf.yesno import (
    ConstructionReport,
    QueryResult,
    Sketcher,
    YesNoFilter,
    YesNoParams,
)

FIXTURE_SEED = 0
FIXTURE_ELEMENT = 5063
FIXTURE_PARAMS = YesNoParams.of(p=13, q=2, r=2, k=3, k_prime=1)


def test_params_arithmetic_and_fields():
    params = YesNoParams.of(p=160, q=32, r=3, k=4, k_prime=5)
    assert params.m == 160 + 32 * 3
    assert (params.p, params.q, params.r) == (160, 32, 3)
    assert not params.allow_false_negatives


@pytest.mark.parametrize("kwargs", [
    dict(m=255, p=160, q=32, r=3, k=4, k_prime=5),   # m != p + q*r
    dict(m=256, p=0, q=128, r=2, k=4, k_prime=5),    # empty yes-filter
    dict(m=256, p=160, q=32, r=-1, k=4, k_prime=5),
    dict(m=192, p=64, q=64, r=2, k=4, k_prime=5),    # q must stay below p
    dict(m=256, p=160, q=32, r=3, k=0, k_prime=5),
    dict(m=256, p=160, q=32, r=3, k=4, k_prime=0),   # r > 0 needs hashes
    dict(m=256, p=160, q=32, r=3, k=4, k_prime=-1),
])
def test_params_rejects_bad_geometry(kwargs):
    with pytest.raises(ValueError):
        YesNoParams(**kwargs)


def test_pinned_sketch():
    yes_part, no_part = Sketcher(FIXTURE_PARAMS, seed=FIXTURE_SEED).sketch(FIXTURE_ELEMENT)
    # BitVector rejects bits beyond its length, so each part fits its filter
    assert BitVector(FIXTURE_PARAMS.p, yes_part).positions() == (1, 4, 11)
    assert BitVector(FIXTURE_PARAMS.q, no_part).positions() == (1,)


def test_sketch_parts_are_the_family_masks():
    sk = Sketcher(FIXTURE_PARAMS, seed=FIXTURE_SEED)
    p = FIXTURE_PARAMS
    assert sk.sketch(FIXTURE_ELEMENT) == (
        HashFamily(p.k, p.p, seed=FIXTURE_SEED).element_mask(FIXTURE_ELEMENT),
        HashFamily(p.k_prime, p.q, seed=FIXTURE_SEED).element_mask(FIXTURE_ELEMENT))


def _sk(p, q, yes_bits, no_bits):
    return (BitVector.from_positions(p, yes_bits).as_int(),
            BitVector.from_positions(q, no_bits).as_int())


class TestHandWalkedConstruction:
    """Sketches crafted bit by bit so every placement is checkable by hand."""

    PARAMS = YesNoParams.of(p=8, q=4, r=2, k=2, k_prime=2)

    def _build(self):
        p, q = 8, 4
        members = [_sk(p, q, (0, 1), (0, 1)), _sk(p, q, (2, 3), (2, 3))]
        candidates = [
            _sk(p, q, (0, 2), (0, 2)),  # placed in no-filter 0
            _sk(p, q, (1, 3), (1, 3)),  # 0 would swallow member 0 -> filter 1
            _sk(p, q, (0, 3), (0, 1)),  # both filters guarded -> unmitigated
            _sk(p, q, (4, 5), (0, 1)),  # fails the yes stage, not an FP
            _sk(p, q, (1, 2), (0, 2)),  # fits filter 0 without new bits
        ]
        return YesNoFilter.build_from_sketches(self.PARAMS, members, candidates)

    def test_report(self):
        _, report = self._build()
        assert (report.n, report.t) == (2, 5)
        assert report.f_count == 4
        assert report.r_count == 3
        assert report.unmitigated == 1
        assert report.per_no_filter_load == (2, 1)

    def test_final_bit_patterns(self):
        filt, _ = self._build()
        assert filt.yes_filter.positions() == (0, 1, 2, 3)
        assert filt.no_filters[0].positions() == (0, 2)
        assert filt.no_filters[1].positions() == (1, 3)

    def test_query_outcomes(self):
        filt, _ = self._build()
        p, q = 8, 4
        assert filt.query_sketch(_sk(p, q, (0, 1), (0, 1))) is QueryResult.POSITIVE
        assert filt.query_sketch(_sk(p, q, (4, 5), (0, 1))) is QueryResult.NEGATIVE_YES_STAGE
        assert filt.query_sketch(_sk(p, q, (0, 2), (0, 2))) is QueryResult.NEGATIVE_NO_STAGE
        # the unmitigated false positive still answers yes
        assert filt.query_sketch(_sk(p, q, (0, 3), (0, 1))) is QueryResult.POSITIVE

    def test_classification_partition(self):
        filt, _ = self._build()
        p, q = 8, 4
        member_pairs = [("m0", _sk(p, q, (0, 1), (0, 1))),
                        ("m1", _sk(p, q, (2, 3), (2, 3)))]
        candidate_pairs = [("c0", _sk(p, q, (0, 2), (0, 2))),
                           ("c1", _sk(p, q, (1, 3), (1, 3))),
                           ("c2", _sk(p, q, (0, 3), (0, 1))),
                           ("c3", _sk(p, q, (4, 5), (0, 1))),
                           ("c4", _sk(p, q, (1, 2), (0, 2)))]
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
])
def test_build_rejects_sketches_wider_than_their_filter(members, candidates):
    params = YesNoParams.of(p=8, q=4, r=1, k=1, k_prime=2)
    with pytest.raises(ValueError, match="wider"):
        YesNoFilter.build_from_sketches(params, members, candidates)


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
        for nf in filt.no_filters:
            assert not is_subset(BitVector(params.q, sk.sketch(e)[1]), nf)
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
    assert filt.yes_filter == reference.vector
    for e in members + candidates + [f"fresh-{i}" for i in range(200)]:
        assert filt.contains(e) == reference.contains(e)


def test_serialization_round_trip():
    params = YesNoParams.of(p=40, q=8, r=2, k=3, k_prime=3)
    members = [f"name-{i}" for i in range(12)]
    candidates = [f"probe-{i}" for i in range(60)]
    filt, _ = YesNoFilter.build(params, members, candidates, seed=3)
    text = filt.to_bitstring()
    assert len(text) == params.m
    assert set(text) <= {"0", "1"}
    back = YesNoFilter.from_bitstring(params, text, seed=3)
    assert back == filt
    assert [back.query(e) for e in members + candidates] == \
           [filt.query(e) for e in members + candidates]
    with pytest.raises(ValueError):
        YesNoFilter.from_bitstring(params, text + "0", seed=3)


def test_constructor_validates_part_lengths():
    params = YesNoParams.of(p=8, q=4, r=2, k=2, k_prime=2)
    yes = BitVector(8)
    good = [BitVector(4), BitVector(4)]
    with pytest.raises(ValueError):
        YesNoFilter(params, BitVector(9), good)
    with pytest.raises(ValueError):
        YesNoFilter(params, yes, [BitVector(4)])
    with pytest.raises(ValueError):
        YesNoFilter(params, yes, [BitVector(4), BitVector(5)])


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
    back = YesNoFilter.from_bitstring(params, filt.to_bitstring(), seed=seed)
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


@settings(max_examples=80, deadline=None)
@given(geometry=geometries, members=element_sets, extra=element_sets,
       seed=st.integers(0, 2**32 - 1), mode=st.sampled_from([MODE_RANDOM, MODE_DOUBLE]),
       guard=st.booleans())
def test_property_build_and_classify_equals_build_then_classify(
        geometry, members, extra, seed, mode, guard):
    p, q, r, k, k_prime = geometry
    params = YesNoParams.of(p, q, r, k, k_prime, allow_false_negatives=not guard)
    members = sorted(members)
    candidates = sorted(extra - set(members))
    filt, report = YesNoFilter.build(params, members, candidates, seed=seed, mode=mode)
    expected = (filt, report, filt.classify(members, candidates))
    assert YesNoFilter.build_and_classify(params, members, candidates, seed, mode) == expected


def _plain_first_fit(params, member_sketches, candidate_sketches):
    """Reference construction: greedy first-fit, where the guard scans every
    member's no-pattern for each placement it considers."""
    yes_mask = 0
    member_no_masks = []
    for y, mn in member_sketches:
        yes_mask |= y
        member_no_masks.append(mn)
    no_masks = [0] * params.r
    loads = [0] * params.r
    f_count = r_count = 0
    for y, fno in candidate_sketches:
        if y & yes_mask != y:
            continue
        f_count += 1
        for j in range(params.r):
            candidate_mask = no_masks[j] | fno
            if not params.allow_false_negatives and any(
                    mn & candidate_mask == mn for mn in member_no_masks):
                continue
            no_masks[j] = candidate_mask
            loads[j] += 1
            r_count += 1
            break
    report = ConstructionReport(len(member_sketches), len(candidate_sketches),
                                f_count, r_count, f_count - r_count, tuple(loads))
    return yes_mask, no_masks, report


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
def test_property_build_matches_plain_first_fit(shape, t, base, seed, mode, guard):
    p, q, r, k, k_prime, n = shape
    params = YesNoParams.of(p, q, r, k, k_prime, allow_false_negatives=not guard)
    sk = Sketcher(params, seed, mode)
    members = [sk.sketch(base + i) for i in range(n)]
    candidates = [sk.sketch(base + n + i) for i in range(t)]
    built, report = YesNoFilter.build_from_sketches(params, members, candidates,
                                                    seed=seed, mode=mode)
    yes_mask, no_masks, expected = _plain_first_fit(params, members, candidates)
    assert built.yes_filter.as_int() == yes_mask
    assert [nf.as_int() for nf in built.no_filters] == no_masks
    assert report == expected


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


def test_classify_and_contains_obey_an_overriding_query_sketch():
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
    stub = SaysNoTo(params, filt.yes_filter, filt.no_filters, seed=3)
    stub.refused = Sketcher(params, seed=3).sketch(members[0])
    assert filt.classify(members, candidates).false_negatives == []
    assert stub.classify(members, candidates).false_negatives == [members[0]]
    assert not stub.contains(members[0])
