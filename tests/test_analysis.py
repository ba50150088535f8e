"""Closed-form probability checks against independent oracles."""

import math
from fractions import Fraction
from statistics import mean, stdev

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yesnobf.analysis import (
    FilterShape,
    bit_zero_prob,
    expected_fp_count,
    f_E_single_no_filter,
    fp_prob_approx,
    fp_prob_exact,
    pr_E,
    pr_E_given_not_S,
    pr_false_positive,
    pr_positive,
)
from yesnobf.bitcore import BloomFilter, derive_seed


def test_shape_validation():
    with pytest.raises(ValueError):
        FilterShape(0, 2, 1)
    with pytest.raises(ValueError):
        FilterShape(8, 0, 1)
    with pytest.raises(ValueError):
        FilterShape(8, 2, -1)


def test_small_shape_against_rational_arithmetic():
    # every factor of (1 - 1/8)^2 and its complement is a dyadic rational,
    # so the float results are exact and comparable with ==
    shape = FilterShape(8, 2, 1)
    assert bit_zero_prob(shape) == float(Fraction(49, 64))
    assert fp_prob_exact(shape) == float(Fraction(225, 4096))


def test_empty_filter_never_false_positives():
    shape = FilterShape(256, 6, 0)
    assert bit_zero_prob(shape) == 1.0
    assert fp_prob_exact(shape) == 0.0
    assert fp_prob_approx(shape) == 0.0


def test_approx_tracks_exact_from_below_and_tightens():
    rel_errors = []
    for m in (64, 256, 1024):
        shape = FilterShape(m, 4, m // 8)
        exact = fp_prob_exact(shape)
        approx = fp_prob_approx(shape)
        assert approx <= exact
        rel_errors.append((exact - approx) / exact)
    assert rel_errors[0] > rel_errors[1] > rel_errors[2]


def test_fp_prob_against_high_precision_oracle():
    with mpmath.workdps(50):
        for m, k, n in ((160, 4, 30), (256, 6, 30), (64, 3, 10)):
            exact = (1 - (1 - mpmath.mpf(1) / m) ** (k * n)) ** k
            approx = (1 - mpmath.e ** (mpmath.mpf(-k * n) / m)) ** k
            shape = FilterShape(m, k, n)
            assert abs(fp_prob_exact(shape) - float(exact)) < 1e-15
            assert abs(fp_prob_approx(shape) - float(approx)) < 1e-15


def test_fp_prob_matches_monte_carlo():
    """Clustered Monte-Carlo: mean FP rate over fresh builds within 3 SE."""
    shape = FilterShape(256, 6, 30)
    builds, queries = 50, 2000
    rates = []
    for b in range(builds):
        bf = BloomFilter(shape.bits, shape.hashes, seed=derive_seed("analysis-mc", b))
        for element in range(shape.elements):
            bf.insert(f"member-{b}-{element}")
        hits = sum(bf.contains(f"probe-{b}-{i}") for i in range(queries))
        rates.append(hits / queries)
    se = stdev(rates) / builds**0.5
    assert abs(mean(rates) - fp_prob_exact(shape)) <= 3 * se


def test_two_stage_hand_arithmetic():
    assert pr_positive(0.5, 0.2) == pytest.approx(0.6, abs=1e-15)
    assert pr_false_positive(0.5, 0.2) == pytest.approx(0.1, abs=1e-15)
    # f_s=0.2, f_r=0.1, pr_r=0.05 with no membership prior:
    # 0.2 - 0.2*0.1 - 0.9*0.05 = 0.9 * (0.2 - 0.05) = 0.135
    got = pr_E(0.0, 0.2, 0.1, 0.05)
    assert got.consistent
    assert got.value == pytest.approx(0.135, abs=1e-12)
    conditional = pr_E_given_not_S(0.2, 0.1, 0.05)
    assert conditional.value == pytest.approx(0.135, abs=1e-12)


def test_inconsistent_priors_flagged_not_clamped():
    got = pr_E(0.5, 0.0, 0.5, 0.0)
    assert not got.consistent
    assert got.value == pytest.approx(-0.25, abs=1e-12)
    also = pr_E_given_not_S(0.0, 0.5, 0.8)
    assert not also.consistent
    assert also.value < 0


def test_probability_inputs_validated():
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            pr_positive(bad, 0.5)
        with pytest.raises(ValueError):
            pr_E(0.1, 0.1, bad, 0.0)
    with pytest.raises(ValueError):
        expected_fp_count(-1, 0.5)
    with pytest.raises(ValueError):
        expected_fp_count(10, 1.5)


def test_single_no_filter_formula_against_oracle():
    with mpmath.workdps(50):
        p, q, k, kp, n = 160, 32, 4, 5, 30
        f_s = (1 - mpmath.e ** (mpmath.mpf(-k * n) / p)) ** k
        f_r = (1 - mpmath.e ** (mpmath.mpf(-kp * n) / q)) ** kp
        oracle = float(f_s * (1 - f_r))
    got = f_E_single_no_filter(160, 32, 4, 5, 30)
    assert got == pytest.approx(oracle, rel=1e-12)


def test_single_no_filter_load_parameter():
    # an empty no-filter cancels nothing; load defaults to n otherwise
    base = fp_prob_approx(FilterShape(160, 4, 30))
    assert f_E_single_no_filter(160, 32, 4, 5, 30, no_filter_load=0) == base
    assert f_E_single_no_filter(160, 32, 4, 5, 30) < base
    light = f_E_single_no_filter(160, 32, 4, 5, 30, no_filter_load=2)
    heavy = f_E_single_no_filter(160, 32, 4, 5, 30, no_filter_load=20)
    assert heavy < light < base


@pytest.mark.parametrize("args, load", [
    ((0, 32, 4, 5, 30), None), ((160, 0, 4, 5, 30), None),
    ((160, 32, 0, 5, 30), None), ((160, 32, 4, 0, 30), None),
    ((160, 32, 4, 5, -1), None), ((160, 32, 4, 5, 30), -1),
])
def test_single_no_filter_rejects_bad_shapes(args, load):
    with pytest.raises(ValueError):
        f_E_single_no_filter(*args, no_filter_load=load)


def test_expected_fp_count_scales_linearly():
    f = float(Fraction(225, 4096))
    assert expected_fp_count(100, f) == pytest.approx(100 * f)
    assert expected_fp_count(0, 0.5) == 0.0


# --- properties ----------------------------------------------------------

probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@settings(max_examples=200)
@given(probs, probs)
def test_pr_E_without_no_stage_is_first_stage_fp(pr_s, f_s):
    assert pr_E(pr_s, f_s, 0.0, 0.0).value == pr_false_positive(pr_s, f_s)


@settings(max_examples=200)
@given(probs, probs, probs)
def test_pr_E_conditional_matches_zero_prior(f_s, f_r, pr_r):
    full = pr_E(0.0, f_s, f_r, pr_r)
    conditional = pr_E_given_not_S(f_s, f_r, pr_r)
    assert abs(full.value - conditional.value) <= 1e-12
    assert full.consistent == conditional.consistent or (
        abs(full.value) <= 1e-12)


@settings(max_examples=200)
@given(probs, probs, probs, probs)
def test_pr_E_never_beats_first_stage(pr_s, f_s, f_r, pr_r):
    assert pr_E(pr_s, f_s, f_r, pr_r).value <= pr_false_positive(pr_s, f_s) + 1e-12


@settings(max_examples=100)
@given(st.integers(min_value=2, max_value=4096), st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=500))
def test_fp_prob_monotone_in_load(m, k, n):
    lighter = fp_prob_exact(FilterShape(m, k, n))
    heavier = fp_prob_exact(FilterShape(m, k, n + 1))
    assert 0.0 <= lighter <= heavier <= 1.0
    assert math.isfinite(heavier)
