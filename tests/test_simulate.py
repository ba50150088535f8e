"""Randomized trials and parameter sweeps."""

import csv
import io
import math
import os
import random
import struct
import subprocess
import sys
import types
from hashlib import blake2b
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yesnobf import simulate
from yesnobf.analysis import FilterShape, expected_fp_count, fp_prob_exact
from yesnobf.bitcore import (
    MODE_DOUBLE,
    MODE_RANDOM,
    BloomFilter,
    HashFamily,
    _encoded_ids,
    derive_seed,
    element_to_bytes,
    mask_rows,
)
from yesnobf.simulate import (
    CSV_HEADER,
    SweepConfig,
    draw_elements,
    optimal_hash_count,
    sweep,
    trial_outcome,
)
from yesnobf.yesno import YesNoParams

import reference

SMALL = YesNoParams.of(p=40, q=8, r=2, k=3, k_prime=3)


def test_draw_elements_shape_and_determinism():
    members, candidates = draw_elements(123, 30, 100)
    again_members, again_candidates = draw_elements(123, 30, 100)
    assert members == again_members
    assert candidates == again_candidates
    assert len(members) == 30 and len(candidates) == 100
    combined = members + candidates
    assert len(set(combined)) == 130
    assert all(0 <= e < 2**64 for e in combined)
    different, _ = draw_elements(124, 30, 100)
    assert different != members


def _draw_one_at_a_time(rng, n, t):
    """draw_elements as first written: one 64-bit draw per loop, repeats
    skipped."""
    drawn, seen = [], set()
    while len(drawn) < n + t:
        value = rng.getrandbits(64)
        if value not in seen:
            seen.add(value)
            drawn.append(value)
    return drawn[:n], drawn[n:]


class _TinyRandom(random.Random):
    """64-bit draws from range(8), so ids repeat. A wide draw is its 64-bit
    draws end to end, low first, as random.Random's is."""

    def getrandbits(self, k):
        assert k % 64 == 0
        draw = super().getrandbits
        return sum(draw(3) << 64 * i for i in range(k // 64))


@pytest.mark.parametrize("n, t", [(0, 0), (1, 0), (0, 3), (30, 100), (7, 300)])
def test_draw_elements_matches_one_draw_at_a_time(n, t):
    for trial_seed in range(20):
        assert draw_elements(trial_seed, n, t) == _draw_one_at_a_time(
            random.Random(trial_seed), n, t)
        # the wide draw leaves the generator where the narrow ones do
        wide, narrow = random.Random(trial_seed), random.Random(trial_seed)
        wide.getrandbits(64 * (n + t))
        for _ in range(n + t):
            narrow.getrandbits(64)
        assert wide.getrandbits(64) == narrow.getrandbits(64)


def test_draw_elements_skips_repeats_like_one_draw_at_a_time(monkeypatch):
    monkeypatch.setattr(simulate, "random", types.SimpleNamespace(Random=_TinyRandom))
    for trial_seed in range(50):
        for n, t in [(3, 5), (8, 0), (2, 2)]:
            members, candidates = draw_elements(trial_seed, n, t)
            assert len(set(members + candidates)) == n + t
            assert (members, candidates) == _draw_one_at_a_time(
                _TinyRandom(trial_seed), n, t)


def test_draw_elements_rejects_negative_sizes():
    with pytest.raises(ValueError):
        draw_elements(0, -1, 10)
    with pytest.raises(ValueError):
        draw_elements(0, 10, -1)


def test_trial_outcome_counts_are_consistent():
    for trial_seed in range(5):
        report, outcome = trial_outcome(SMALL, 10, 60, trial_seed)
        assert (report.n, report.t) == (10, 60)
        assert outcome.false_negatives == []
        assert len(outcome.true_positives) == 10
        assert outcome.yes_filter_fp_count == report.f_count
        assert outcome.fp_count + len(outcome.no_stage_rejections) == report.f_count
        assert len(outcome.yes_stage_negatives) == 60 - report.f_count


def test_trial_fp_count_deterministic_and_bounded():
    first = trial_outcome(SMALL, 10, 60, trial_seed=42)[1].fp_count
    assert trial_outcome(SMALL, 10, 60, trial_seed=42)[1].fp_count == first
    assert 0 <= first <= 60
    assert trial_outcome(SMALL, 10, 0, trial_seed=42)[1].fp_count == 0


def test_zero_no_filters_trial_replays_as_classic_bloom():
    """With r=0 the trial must equal a plain Bloom filter built from the
    same element stream: an independent path through the base layer."""
    params = YesNoParams.of(p=64, q=1, r=0, k=3, k_prime=0)
    for trial_seed in (derive_seed(9, i) for i in range(20)):
        members, candidates = draw_elements(trial_seed, 12, 80)
        reference = BloomFilter(64, 3, seed=trial_seed)
        for e in members:
            reference.insert(e)
        expected = sum(reference.contains(e) for e in candidates)
        assert trial_outcome(params, 12, 80, trial_seed)[1].fp_count == expected


class _KeepsDigests:
    """A family's keyed hasher whose copies keep every digest they give."""

    def __init__(self, hasher, kept):
        self.hasher = hasher
        self.kept = kept

    def copy(self):
        return _KeepsDigests(self.hasher.copy(), self.kept)

    def update(self, data):
        self.hasher.update(data)

    def digest(self):
        self.kept.append(self.hasher.digest())
        return self.kept[-1]


@settings(max_examples=150, deadline=None)
@given(count=st.integers(0, 20), size=st.integers(1, 300),
       mode=st.sampled_from([MODE_RANDOM, MODE_DOUBLE]),
       walks=st.lists(st.tuples(st.integers(0, 2**64 - 1),
                                st.lists(reference.ids, max_size=15)),
                      min_size=1, max_size=3, unique_by=lambda walk: walk[0]))
# count 9 reads a second digest block and 20 a third; sizes above 256 need a
# third byte index bit; size 1 makes every double-mode h2 % size 0
@example(count=9, size=300, mode=MODE_RANDOM, walks=[(5, ["edge", 7, b"raw"])])
@example(count=20, size=100, mode=MODE_RANDOM,
         walks=[(5, ["edge", 7]), (6, []), (7, [b"raw", 8, "x"])])
@example(count=20, size=257, mode=MODE_DOUBLE, walks=[(5, ["edge", 7, b"raw"])])
@example(count=5, size=1, mode=MODE_DOUBLE, walks=[(0, [3, "x"])])
@example(count=0, size=9, mode=MODE_DOUBLE, walks=[(0, [3, "x"]), (1, [4])])
@example(count=4, size=100, mode=MODE_RANDOM, walks=[(0, [])])
def test_numpy_reduction_is_encoded_masks(count, size, mode, walks):
    datas = [[element_to_bytes(e) for e in batch] for _, batch in walks]
    families, streams = [], []
    for seed, _ in walks:
        families.append(HashFamily(count, size, mode=mode, seed=seed))
        streams.append([])
        families[-1]._hasher = _KeepsDigests(families[-1]._hasher, streams[-1])
    # one-shot iterators, as the sweep's no-part walks pass: a shape of
    # several blocks must still digest each element's every block once
    masks = mask_rows((fam, iter(d)) for fam, d in zip(families, datas))
    want = []
    per_element = 64 * -(-count // 8) if mode == MODE_RANDOM else 16 * (count > 0)
    for (seed, _), d, stream in zip(walks, datas, streams):
        fam = HashFamily(count, size, mode=mode, seed=seed)
        own = []
        fam._hasher = _KeepsDigests(fam._hasher, own)
        want += map(fam.encoded_mask, d)
        assert len(b"".join(stream)) == per_element * len(d)
        assert sorted(stream) == sorted(own)
    assert masks == want


def test_numpy_reduction_steps_by_one_where_h2_divides_the_size():
    fam = HashFamily(6, 12, mode=MODE_DOUBLE, seed=0)
    datas = [element_to_bytes(i) for i in range(100)]
    # h2 is the second half of the README's double-mode digest
    key = struct.pack("<QQQB", 0, 6, 12, 1)
    h2s = [int.from_bytes(blake2b(d, key=key, digest_size=16).digest()[8:],
                          "little") for d in datas]
    assert any(h2 % 12 == 0 for h2 in h2s)
    assert mask_rows([(fam, datas)]) == [fam.encoded_mask(d) for d in datas]


@given(st.lists(st.integers(0, 2**64 - 1), max_size=40))
@example([0, 1, 2**63, 2**64 - 1])
def test_encoded_ids_are_element_to_bytes(values):
    assert _encoded_ids(values) == [element_to_bytes(e) for e in values]


# (p, q, r, k, k'): k' may be 0 only without no-filters
pass_geometries = st.tuples(st.integers(1, 30), st.integers(1, 12), st.integers(0, 3),
                            st.integers(1, 6), st.integers(0, 10)).filter(
    lambda g: g[2] == 0 or g[4] > 0).map(lambda g: (g[0] + g[1],) + g[1:])


@settings(max_examples=60, deadline=None)
@given(geometry=pass_geometries, n=st.integers(0, 25), t=st.integers(0, 60),
       seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
       mode=st.sampled_from([MODE_RANDOM, MODE_DOUBLE]), guard=st.booleans())
@example(geometry=(40, 8, 0, 3, 0), n=10, t=40, seeds=[1, 2], mode=MODE_RANDOM,
         guard=True)
@example(geometry=(40, 8, 2, 3, 3), n=0, t=40, seeds=[1, 2], mode=MODE_DOUBLE,
         guard=True)
@example(geometry=(40, 8, 2, 3, 3), n=10, t=0, seeds=[1, 2], mode=MODE_RANDOM,
         guard=False)
def test_batched_pass_equals_one_trial_at_a_time(geometry, n, t, seeds, mode, guard):
    params = YesNoParams.of(*geometry, allow_false_negatives=not guard)
    got = list(simulate._trial_outcomes(params, n, t, seeds, mode))
    assert got == [reference.trial(params, *draw_elements(s, n, t), s, mode)
                   for s in seeds]


@pytest.mark.parametrize("mode", [MODE_RANDOM, MODE_DOUBLE])
def test_batched_pass_crosses_a_chunk_boundary(mode):
    params = YesNoParams.of(p=24, q=6, r=2, k=3, k_prime=2)
    seeds = [derive_seed(4, i) for i in range(simulate._CHUNK_TRIALS + 1)]
    got = list(simulate._trial_outcomes(params, 8, 30, seeds, mode))
    assert got == [reference.trial(params, *draw_elements(s, 8, 30), s, mode)
                   for s in seeds]
    assert any(report.r_count for report, _ in got)


@pytest.mark.parametrize("p, q, r", [(4, 2, 1), (5, 2, 2)])
def test_trial_kernel_holds_the_exact_mean_fp(p, q, r):
    """10,000 trials of n = t = 2 at k = k' = 1: with the guard, the mean
    residual FP lies within 3 standard errors of the exact mean over every
    sketch assignment (21/32 and 27/50); without it, no trial keeps one."""
    trials = 10_000
    for guard in (True, False):
        params = YesNoParams.of(p, q, r, 1, 1, allow_false_negatives=not guard)
        seeds = (derive_seed(26, p, q, r, trial) for trial in range(trials))
        counts = [outcome.fp_count for _, outcome in simulate._trial_outcomes(
            params, 2, 2, seeds, MODE_RANDOM)]
        if not guard:
            assert set(counts) == {0}
            continue
        exact = float(reference.exact_mean_fp(params, 2, 2))
        mean = sum(counts) / trials
        std = math.sqrt(sum((c - mean) ** 2 for c in counts) / (trials - 1))
        assert abs(mean - exact) <= 3 * std / math.sqrt(trials), (mean, exact)


def test_numpy_stays_out_of_filters_and_topology():
    """Importing numpy costs ~12 MB, and statistics ~0.4 MB; only sweeps
    may pay them."""
    script = """
import sys
import yesnobf
import yesnobf.cli  # imports simulate, as every subcommand does
from yesnobf.corpus import default_corpus
from yesnobf.topology import PathExperiment, run_topology_experiment
name, graph = default_corpus()[0]
run_topology_experiment(PathExperiment.from_graph(name, graph, allocations=2), seed=1)
params = yesnobf.YesNoParams.of(p=40, q=8, r=2, k=3, k_prime=3)
filt, _ = yesnobf.YesNoFilter.build(params, range(10), range(10, 60), seed=1)
assert all(filt.contains(e) for e in range(10))
filt.classify(range(10), range(10, 60))
bf = yesnobf.BloomFilter(64, 3, seed=1)
bf.insert("x")
assert bf.contains("x")
loaded = sorted(m for m in sys.modules
                if m.split(".")[0] in ("numpy", "statistics"))
assert not loaded, loaded
"""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", script], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_config_validation():
    good = dict(swept="n", start=10, stop=30, step=10)
    SweepConfig(**good)
    with pytest.raises(ValueError):
        SweepConfig(**{**good, "swept": "banana"})
    with pytest.raises(ValueError):
        SweepConfig(**{**good, "step": 0})
    with pytest.raises(ValueError):
        SweepConfig(swept="n", start=30, stop=10)
    with pytest.raises(ValueError):
        SweepConfig(**{**good, "trials": 0})
    with pytest.raises(ValueError, match="unknown mode"):
        SweepConfig(**{**good, "mode": "x"})
    # also where the k and n sweeps set the baseline's hash count per point
    for swept in simulate.SWEPT_CHOICES:
        with pytest.raises(ValueError, match="k_bf must be >= 1, got 0"):
            SweepConfig(swept, 1, 2, k_bf=0)


def test_config_range_is_inclusive():
    config = SweepConfig(swept="k", start=1, stop=7, step=2)
    assert config.values() == [1, 3, 5, 7]
    assert config.m == 160 + 32 * 3


@pytest.mark.parametrize("guard", [True, False])
@pytest.mark.parametrize("swept, params, n", [
    ("k", (40, 8, 2, 4, 2), 10),
    ("k_prime", (40, 8, 2, 3, 4), 10),
    ("n", (40, 8, 2, 3, 2), 4),
    ("q", (40, 4, 2, 3, 2), 10),
    ("r_fixed_p", (40, 8, 4, 3, 2), 10),
    ("r_fixed_m", (24, 8, 4, 3, 2), 10),  # m = 40 + 8*2 stays 56
])
def test_point_geometry_sets_the_swept_field(swept, params, n, guard):
    config = SweepConfig(swept, 4, 4, p=40, q=8, r=2, k=3, k_prime=2, n=10,
                         allow_false_negatives=not guard)
    want = YesNoParams(*params, allow_false_negatives=not guard)
    assert simulate._point_geometry(config, 4) == (want, n)


def test_sweep_names_a_negative_n_in_its_error_cell():
    result = sweep(_small_sweep(swept="n", start=-1, stop=0, trials=2))
    assert [pt.error for pt in result.points] == ["n must be >= 0, got -1", None]


def _small_sweep(**overrides) -> SweepConfig:
    base = dict(swept="k", start=2, stop=4, p=40, q=8, r=2, k=3, k_prime=3,
                n=10, t=40, trials=30, seed=5)
    base.update(overrides)
    return SweepConfig(**base)


def test_sweep_deterministic():
    config = _small_sweep()
    assert sweep(config).to_csv() == sweep(config).to_csv()


def test_sweep_statistics_are_ordered():
    result = sweep(_small_sweep())
    assert len(result.points) == 3
    for pt in result.points:
        assert pt.error is None
        assert pt.min_fp <= pt.q25 <= pt.median <= pt.q75 <= pt.max_fp
        assert pt.min_fp <= pt.mean_fp <= pt.max_fp
        assert pt.std_fp >= 0.0


@settings(max_examples=40, deadline=None)
@given(trials=st.integers(1, 30), seed=st.integers(0, 2**64 - 1), guard=st.booleans())
@example(trials=1, seed=5, guard=True)
@example(trials=2, seed=5, guard=False)
def test_point_statistics_are_numpys(trials, seed, guard):
    config = _small_sweep(trials=trials, seed=seed, allow_false_negatives=not guard)
    for index, pt in enumerate(sweep(config).points):
        params, n = simulate._point_geometry(config, pt.value)
        seeds = [derive_seed(seed, index, trial) for trial in range(trials)]
        counts = np.array([outcome.fp_count for _, outcome in simulate._trial_outcomes(
            params, n, config.t, seeds, config.mode)])
        assert [pt.q25, pt.median, pt.q75] == [
            float(q) for q in np.quantile(counts, (0.25, 0.5, 0.75))]
        assert [pt.mean_fp, pt.min_fp, pt.max_fp] == [
            float(np.mean(counts)), float(np.min(counts)), float(np.max(counts))]
        assert pt.std_fp == (float(np.std(counts, ddof=1)) if trials > 1 else 0.0)


def test_k_sweep_baseline_follows_swept_value():
    result = sweep(_small_sweep())
    m = 40 + 8 * 2
    for pt in result.points:
        want = expected_fp_count(40, fp_prob_exact(FilterShape(m, pt.value, 10)))
        assert pt.baseline_bf_m == pytest.approx(want)
        same_bits = expected_fp_count(40, fp_prob_exact(FilterShape(40, pt.value, 10)))
        assert pt.baseline_bf_p == pytest.approx(same_bits)


def test_n_sweep_baseline_retunes_hash_count():
    result = sweep(_small_sweep(swept="n", start=5, stop=15, step=5, k_bf=4))
    m = 40 + 8 * 2
    for pt in result.points:
        k_opt = optimal_hash_count(m, pt.value)
        want = expected_fp_count(40, fp_prob_exact(FilterShape(m, k_opt, pt.value)))
        assert pt.baseline_bf_m == pytest.approx(want)
    # the retune actually varies over this range
    assert optimal_hash_count(m, 5) != optimal_hash_count(m, 15)


def test_other_sweeps_baseline_uses_configured_k_bf():
    result = sweep(_small_sweep(swept="k_prime", start=2, stop=3, k_bf=4))
    m = 40 + 8 * 2
    for pt in result.points:
        want = expected_fp_count(40, fp_prob_exact(FilterShape(m, 4, 10)))
        assert pt.baseline_bf_m == pytest.approx(want)


def test_optimal_hash_count_matches_textbook_rule():
    assert optimal_hash_count(256, 30) == 6
    assert optimal_hash_count(256, 60) == 3
    assert optimal_hash_count(256, 256) == 1
    assert optimal_hash_count(64, 10000) == 1  # floor at one hash
    with pytest.raises(ValueError, match=">= 1"):
        optimal_hash_count(256, 0)


def test_clean_sweep_csv_schema():
    text = sweep(_small_sweep()).to_csv()
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) == 1 + 3
    for row in rows[1:]:
        assert row[0] == "k"
        int(row[1])
        for cell in row[2:]:
            float(cell)


def test_sweep_skips_impossible_geometry_and_flags_it():
    # at fixed m = 56, q = 8 the yes-filter shrinks as r grows; r = 6
    # leaves p = 8 = q and r = 7 leaves p = 0, both impossible
    config = _small_sweep(swept="r_fixed_m", start=5, stop=7, k_prime=3,
                          trials=10)
    result = sweep(config)
    assert [pt.error is None for pt in result.points] == [True, False, False]
    bad = result.points[1]
    assert bad.mean_fp is None
    assert "p" in bad.error or "q" in bad.error  # the geometry complaint

    text = result.to_csv()
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == CSV_HEADER + ("error",)
    assert rows[1][-1] == ""            # healthy point, empty error cell
    assert rows[2][-1] == bad.error
    assert all(cell == "" for cell in rows[2][2:-1])


def test_sweep_without_guard_reports_lost_members():
    # without the guard every yes-stage false positive lands in no-filter 0,
    # so mean_fp reads 0 while members are lost; mean_fn is what shows it
    config = _small_sweep(allow_false_negatives=True)
    result = sweep(config)
    assert all(pt.mean_fp == 0 and pt.mean_fn > 0 for pt in result.points)
    for index, pt in enumerate(result.points):
        params = YesNoParams.of(40, 8, 2, pt.value, 3, allow_false_negatives=True)
        lost = sum(len(trial_outcome(params, 10, 40, derive_seed(5, index, trial))[1]
                       .false_negatives) for trial in range(config.trials))
        assert pt.mean_fn == lost / config.trials

    rows = list(csv.reader(io.StringIO(result.to_csv())))
    assert tuple(rows[0]) == CSV_HEADER + ("mean_fn",)
    assert [float(row[-1]) for row in rows[1:]] == pytest.approx(
        [pt.mean_fn for pt in result.points], abs=1e-6)

    guarded = sweep(_small_sweep())
    assert all(pt.mean_fn is None for pt in guarded.points)
    assert list(csv.reader(io.StringIO(guarded.to_csv())))[0] == list(CSV_HEADER)


def test_r_sweep_at_fixed_m_reaches_zero():
    # r=0 keeps all 96 bits in the yes-filter and still runs
    config = _small_sweep(swept="r_fixed_m", start=0, stop=1, trials=10)
    result = sweep(config)
    assert [pt.error for pt in result.points] == [None, None]
