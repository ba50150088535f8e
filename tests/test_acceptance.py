"""Release-gate experiments over the whole package.

Each test prints one `criterion N (...): PASS|FAIL` line on the real stdout
so the verdicts survive pytest's capture, then asserts. Expectations come
from the library's own closed forms plus pinned-seed Monte-Carlo runs; the
only machine-sensitive check is the linear-scaling bound, which gets one
re-timing pass to absorb scheduler noise. The full module takes a few
minutes.
"""

import math
import sys
import time

import numpy as np
import pytest

from yesnobf.analysis import (
    FilterShape,
    f_E_single_no_filter,
    fp_prob_approx,
    fp_prob_exact,
    pr_E,
)
from yesnobf.bitcore import BloomFilter, derive_seed, element_to_bytes
from yesnobf.cli import main
from yesnobf.corpus import default_corpus, ring_graph
from yesnobf.simulate import SweepConfig, draw_elements, sweep, trial_outcome
from yesnobf.topology import (
    PathExperiment,
    aggregate_by_length,
    run_topology_experiment,
    write_edgelist,
)
from yesnobf.yesno import Sketcher, YesNoFilter, YesNoParams

V_DEFAULTS = YesNoParams.of(p=160, q=32, r=3, k=4, k_prime=5)


def _verdict(cap, num: int, label: str, ok: bool, detail: str = "") -> None:
    # cap is any capture fixture; disabling it reaches the real terminal
    with cap.disabled():
        print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
        sys.stdout.flush()
    assert ok, detail or label


def test_criterion_1_classic_fp_rate_matches_closed_form(capfd):
    # 100 builds x 10^4 fresh queries per shape; the spread across builds is
    # the right standard error because one filter's realized occupancy shifts
    # its whole conditional FP rate
    failures = []
    for m, k, n in ((256, 6, 30), (160, 4, 30), (64, 3, 10)):
        f = fp_prob_exact(FilterShape(m, k, n))
        rates = np.empty(100)
        for b in range(rates.size):
            s = derive_seed("acceptance-1", m, k, n, b)
            members, probes = draw_elements(s, n, 10_000)
            bf = BloomFilter(m, k, seed=s)
            for e in members:
                bf.insert(e)
            probe_datas = [element_to_bytes(e) for e in probes]
            rates[b] = bf.family.count_within(probe_datas, bf.mask) / 10_000
        mean = rates.mean()
        se = rates.std(ddof=1) / math.sqrt(rates.size)
        if abs(mean - f) > 3 * se:
            failures.append(f"({m},{k},{n}): mean {mean:.6f} vs {f:.6f}, "
                            f"se {se:.6f}")
        if mean < f - 3 * se:
            failures.append(f"({m},{k},{n}): mean {mean:.6f} below the "
                            f"lower bound {f:.6f}")
    _verdict(capfd, 1, "classic FP rate matches closed form", not failures,
             "; ".join(failures))


@pytest.fixture(scope="module")
def ten_thousand_builds():
    """Per-trial (false negatives, residual FPs, yes-stage FPs) at the
    default geometry; shared by the two zero-tolerance criteria."""
    fn, residual, yes_alone = [], [], []
    for trial in range(10_000):
        s = derive_seed("acceptance-23", trial)
        _, outcome = trial_outcome(V_DEFAULTS, 30, 100, s)
        fn.append(len(outcome.false_negatives))
        residual.append(outcome.fp_count)
        yes_alone.append(outcome.yes_filter_fp_count)
    return fn, residual, yes_alone


def test_criterion_2_no_false_negatives(ten_thousand_builds, capfd):
    fn, _, _ = ten_thousand_builds
    bad = sum(1 for v in fn if v)
    _verdict(capfd, 2, "zero false negatives over 10^4 builds", bad == 0,
             f"{bad} builds lost a member")


def test_criterion_3_no_stage_never_adds_false_positives(ten_thousand_builds, capfd):
    _, residual, yes_alone = ten_thousand_builds
    bad = sum(1 for res, ya in zip(residual, yes_alone) if res > ya)
    _verdict(capfd, 3, "residual FPs <= yes-stage FPs in every build", bad == 0,
             f"{bad} builds got worse after the no stage")


def test_criterion_4_zero_no_filters_equal_classic_filter(capfd):
    params = YesNoParams.of(p=128, q=1, r=0, k=4, k_prime=0)
    mismatches = 0
    checked = 0
    for i in range(1000):
        s = derive_seed("acceptance-4", i)
        members, cands = draw_elements(s, 30, 100)
        fresh = draw_elements(derive_seed(s, "fresh"), 0, 100)[1]
        filt, _ = YesNoFilter.build(params, members, cands, seed=s)
        ref = BloomFilter(128, 4, seed=s)
        for e in members:
            ref.insert(e)
        for e in members + cands + fresh:
            checked += 1
            if filt.contains(e) != ref.contains(e):
                mismatches += 1
    _verdict(capfd, 4, "r=0 answers equal a classic filter's", mismatches == 0,
             f"{mismatches} of {checked} answers differ")


def test_criterion_5_sweep_shapes(capfd):
    problems = []

    k_pts = sweep(SweepConfig("k", 1, 14, trials=1000, seed=0)).points
    means = [pt.mean_fp for pt in k_pts]
    arg = means.index(min(means))
    if not 0 < arg < len(means) - 1:
        problems.append(f"k sweep minimum at edge k={k_pts[arg].value}")
    if not all(pt.mean_fp < pt.baseline_bf_p for pt in k_pts):
        problems.append("k sweep not below the p-length baseline everywhere")

    n_pts = sweep(SweepConfig("n", 10, 90, step=10, trials=1000, seed=0)).points
    n_means = [pt.mean_fp for pt in n_pts]
    if not all(a <= b + 1e-9 for a, b in zip(n_means, n_means[1:])):
        problems.append(f"n sweep not non-decreasing: {n_means}")
    above = [pt.value for pt in n_pts if pt.mean_fp > pt.baseline_bf_m]
    if not above:
        problems.append("n sweep never crosses the m-length baseline")
    else:
        first = above[0]
        suffix = [pt.value for pt in n_pts if pt.value >= first]
        if above != suffix:
            problems.append(f"n sweep crosses the baseline more than once: {above}")
        if not 40 <= first <= 80:
            problems.append(f"n sweep crossing at n={first}, outside [40, 80]")

    r_pts = sweep(SweepConfig("r_fixed_m", 0, 6, trials=1000, seed=0)).points
    r_means = [pt.mean_fp for pt in r_pts]
    arg = r_means.index(min(r_means))
    if not 0 < arg < len(r_means) - 1:
        problems.append(f"r sweep minimum at edge r={r_pts[arg].value}")
    if not r_means[1] < r_means[0]:
        problems.append(f"one no-filter ({r_means[1]:.3f}) does not beat "
                        f"none ({r_means[0]:.3f})")

    _verdict(capfd, 5, "sweep shapes for k, n, and r", not problems, "; ".join(problems))


def _fresh_query_experiment(p, q, k, k_prime, n, t_build, trials):
    """r=1 builds measured on queries never shown at build time, against the
    closed form evaluated at the mean realized no-filter load."""
    params = YesNoParams.of(p=p, q=q, r=1, k=k, k_prime=k_prime)
    total_fp = 0
    total_load = 0
    for i in range(trials):
        s = derive_seed("acceptance-6", p, q, i)
        members, cands = draw_elements(s, n, t_build)
        built, report = YesNoFilter.build(params, members, cands, seed=s)
        fresh = draw_elements(derive_seed(s, "fresh"), 0, 2000)[1]
        outcome = built.classify([], fresh)
        total_fp += outcome.fp_count
        total_load += report.r_count
    formula = f_E_single_no_filter(p, q, k, k_prime, n,
                                   no_filter_load=total_load / trials)
    empirical = total_fp / (trials * 2000)
    factor1 = fp_prob_approx(FilterShape(p, k, n))
    return formula, empirical, factor1, formula / factor1


def test_criterion_6_residual_probability_algebra_and_monte_carlo(capfd):
    problems = []

    rng = np.random.default_rng(derive_seed("acceptance-6", "algebra"))
    for _ in range(10_000):
        pr_s, f_s, f_r = rng.random(3)
        if abs(pr_E(pr_s, f_s, 0.0, 0.0).value - (1.0 - pr_s) * f_s) > 1e-12:
            problems.append(f"no-stage-off identity broke at "
                            f"pr_s={pr_s!r}, f_s={f_s!r}")
            break
        if abs(pr_E(0.0, f_s, f_r, 0.0).value - f_s * (1.0 - f_r)) > 1e-12:
            problems.append(f"zero-prior identity broke at "
                            f"f_s={f_s!r}, f_r={f_r!r}")
            break

    # guard-light geometries: the formula models an unguarded no-filter
    for p, q, k, k_prime, n, t_build in ((192, 160, 3, 3, 20, 3000),
                                         (320, 256, 4, 4, 35, 2500)):
        formula, empirical, factor1, factor2 = _fresh_query_experiment(
            p, q, k, k_prime, n, t_build, trials=120)
        if factor1 <= 0.01 or factor2 <= 0.01:
            problems.append(f"({p},{q}): factors {factor1:.4f}, {factor2:.4f} "
                            f"too small for a meaningful comparison")
            continue
        rel = abs(empirical - formula) / formula
        if rel > 0.25:
            problems.append(f"({p},{q}): formula {formula:.5f} vs measured "
                            f"{empirical:.5f}, off by {rel:.1%}")

    _verdict(capfd, 6, "residual-FP formula, algebra and Monte-Carlo", not problems,
             "; ".join(problems))


def test_criterion_7_topology_corpus_beats_classic_filter(capfd):
    results = []
    for name, graph in default_corpus():
        exp = PathExperiment.from_graph(name, graph, allocations=2000)
        results.append(
            run_topology_experiment(exp, seed=derive_seed("acceptance-7", name)))
    problems = []

    aggregates, _ = aggregate_by_length(results)
    ratios = [a.ratio for a in aggregates if a.n <= 35 and a.ratio is not None]
    mean_ratio = sum(ratios) / len(ratios)
    if not mean_ratio < 0.5:
        problems.append(f"mean per-length ratio {mean_ratio:.3f} >= 0.5")

    # paired bootstrap over allocations, 95% one-sided bounds: no length may
    # be significantly worse, and the pooled difference must be confidently
    # at-or-below zero
    rng = np.random.default_rng(derive_seed("acceptance-7", "bootstrap"))
    resamples = 2000
    star = []
    for res in results:
        if res.t_size == 0:
            continue
        yn = np.asarray(res.yesno_counts, dtype=float)
        bf = np.asarray(res.bf_counts, dtype=float)
        idx = rng.integers(0, yn.size, size=(resamples, yn.size))
        star.append((res.path_len,
                     yn[idx].mean(axis=1) / res.t_size,
                     bf[idx].mean(axis=1) / res.t_size))
    by_length: dict[int, list] = {}
    for length, yn_star, bf_star in star:
        by_length.setdefault(length, []).append((yn_star, bf_star))
    for length in sorted(by_length):
        pairs = by_length[length]
        diff = (np.mean([a for a, _ in pairs], axis=0)
                - np.mean([b for _, b in pairs], axis=0))
        if np.quantile(diff, 0.05) > 0:
            problems.append(f"length {length} significantly worse than the "
                            f"classic filter")
    pooled = (np.mean([a for _, a, _ in star], axis=0)
              - np.mean([b for _, _, b in star], axis=0))
    if np.quantile(pooled, 0.95) > 0:
        problems.append("pooled rate difference not confidently <= 0")

    _verdict(capfd, 7, "topology corpus beats the classic filter", not problems,
             "; ".join(problems))


def test_criterion_8_construction_time_scales_linearly(capfd):
    s = derive_seed("acceptance-8")
    members, pool = draw_elements(s, 30, 100_000)
    sk = Sketcher(V_DEFAULTS, s)
    member_sketches = [sk.sketch(e) for e in members]
    pool_sketches = [sk.sketch(e) for e in pool]
    pairs = ((1000, 2000), (2000, 4000), (4000, 8000), (8000, 16000),
             (16000, 32000), (32000, 64000), (50000, 100000))

    def time_pair(a, b, best=(float("inf"), float("inf"))):
        # the two sizes alternate back to back, so a slow spell of the
        # machine slows both sides of the ratio rather than one
        best = list(best)
        for _ in range(3):
            for side, size in enumerate((a, b)):
                cands = pool_sketches[:size]
                t0 = time.perf_counter()
                YesNoFilter.build_from_sketches(V_DEFAULTS, member_sketches,
                                                cands, seed=s)
                best[side] = min(best[side], time.perf_counter() - t0)
        return tuple(best)

    def failing(times):
        return [(a, b, tb / ta) for (a, b), (ta, tb) in times.items() if tb / ta > 2.5]

    times = {pair: time_pair(*pair) for pair in pairs}
    bad = failing(times)
    if bad:  # one re-timing pass absorbs a scheduler stall
        times = {pair: time_pair(*pair, times[pair]) for pair in pairs}
        bad = failing(times)
    detail = "; ".join(f"{a}->{b} took {ratio:.2f}x" for a, b, ratio in bad)
    _verdict(capfd, 8, "doubling the scanned set at most 2.5x's build time",
             not bad, detail)


def test_criterion_9_cli_byte_identical_reruns(tmp_path, capsys):
    graph_file = tmp_path / "ring12.edgelist"
    write_edgelist(ring_graph(12), graph_file)
    commands = (
        ["analyze", "--m", "256", "--k", "6", "--n", "30", "--t", "100"],
        ["sweep", "--var", "k", "--range", "2:4", "--trials", "25",
         "--seed", "3", "--p", "40", "--q", "8", "--r", "2",
         "--k-prime", "3", "--n", "10", "--t", "40"],
        ["topology", str(graph_file), "--allocations", "40", "--seed", "5"],
        ["demo", "--seed", "1"],
    )
    problems = []
    for argv in commands:
        outs = []
        for _ in range(2):
            rc = main(list(argv))
            captured = capsys.readouterr()
            if rc != 0:
                problems.append(f"{argv[0]} exited {rc}")
            outs.append(captured.out)
        if not outs[0]:
            problems.append(f"{argv[0]} printed nothing")
        if outs[0] != outs[1]:
            problems.append(f"{argv[0]} output changed between runs")
    _verdict(capsys, 9, "CLI reruns byte-identical", not problems, "; ".join(problems))
