"""Monte-Carlo parameter sweeps for the yes-no filter.

Each trial draws fresh random member/query sets and a fresh hash allocation,
builds a yes-no filter, and counts the residual false positives among the
queried non-members. A sweep repeats that over a range of one parameter and
reports mean, spread, and the analytic expectations of two classic-Bloom
baselines: one of the same total length m, one the size of the yes-filter
alone.

Trials are independent; trial i of point j draws its PRNG stream from
(seed, j, i), so results do not depend on scheduling. numpy is imported
only when a trial or a sweep runs, so building and querying filters, and
topology experiments, never load it.
"""

from __future__ import annotations

import csv
import io
import math
import random
import struct
from dataclasses import dataclass
from itertools import islice

from .analysis import FilterShape, expected_fp_count, fp_prob_exact
from .bitcore import _MODES, MODE_RANDOM, _encoded_ids, derive_seed, mask_rows
from .yesno import (
    Classification,
    ConstructionReport,
    Sketcher,
    YesNoParams,
    _build_and_classify,
    _sketch_trials,
)

# The names a sweep can vary: SweepConfig.swept and `sweep --var` take
# exactly these, and the CSV's swept column prints them.
SWEPT_CHOICES = ("k", "k_prime", "n", "q", "r_fixed_p", "r_fixed_m")

CSV_HEADER = ("swept", "value", "mean_fp", "std_fp", "min", "q25", "median",
              "q75", "max", "baseline_bf_m", "baseline_bf_p")

# Trials sketched in one batched pass. The pass holds its trials' ids,
# hash streams, mask rows and sketches at once, ~58 KB a trial at the default
# geometry (tracemalloc's peak over one chunk), so this bounds a point's
# memory whatever its trial count.
# 16 trials already spread numpy's per-call cost over ~2,000 elements; at
# 128 a sweep's peak RSS rose by a third.
_CHUNK_TRIALS = 16


def draw_elements(trial_seed: int, n: int, t: int) -> tuple[list[int], list[int]]:
    """n member ids and t queryable ids: distinct random 64-bit ints."""
    if n < 0 or t < 0:
        raise ValueError("n and t must be >= 0")
    rng = random.Random(trial_seed)
    total = n + t
    # one wide draw is total 64-bit draws end to end, low word first, and
    # leaves the generator where total getrandbits(64) calls would
    wide = rng.getrandbits(64 * total).to_bytes(8 * total, "little")
    # a dict keeps first occurrences in order, and storing a repeat again
    # leaves it where it was
    unique = dict.fromkeys(struct.unpack(f"<{total}Q", wide))
    while len(unique) < total:  # collisions are ~never, but determinism is cheap
        unique[rng.getrandbits(64)] = None
    drawn = list(unique)
    return drawn[:n], drawn[n:]


def _trial_outcomes(params: YesNoParams, n: int, t: int, trial_seeds,
                    mode: str):
    """Yield the (report, classification) of the trial at each seed, in
    order.

    The trials pass in chunks of _CHUNK_TRIALS. Each trial draws its ids,
    distinct by construction, so nothing re-checks them as
    YesNoFilter.build does. yesno._sketch_trials sketches the chunk's
    trials in one batch, reducing their hash walks with bitcore.mask_rows,
    and each trial then builds and classifies through
    yesno._build_and_classify, so the outcomes are those of
    YesNoFilter.build, then classify, of the same two sets.
    """
    trial_seeds = iter(trial_seeds)
    while seeds := list(islice(trial_seeds, _CHUNK_TRIALS)):
        drawn = [draw_elements(trial_seed, n, t) for trial_seed in seeds]
        encoded = iter(_encoded_ids([e for members, candidates in drawn
                                     for e in members + candidates]))
        trials = [list(islice(encoded, n + t)) for _ in seeds]
        sketchers = [Sketcher(params, trial_seed, mode) for trial_seed in seeds]
        for sk, (members, candidates), sketches in zip(
                sketchers, drawn, _sketch_trials(sketchers, trials, n, mask_rows)):
            yield _build_and_classify(sk, members, candidates, sketches)


def trial_outcome(params: YesNoParams, n: int, t: int, trial_seed: int,
                  mode: str = MODE_RANDOM
                  ) -> tuple[ConstructionReport, Classification]:
    """One randomized build, fully classified: a one-trial run of the
    batched pass a sweep point makes."""
    return next(_trial_outcomes(params, n, t, (trial_seed,), mode))


@dataclass(frozen=True)
class SweepConfig:
    """One swept parameter over an inclusive range, everything else fixed.

    The base geometry is p + q*r = m bits (defaults 160 + 32*3 = 256).
    Sweeping q or r_fixed_p recomputes m; r_fixed_m holds m and recomputes
    p = m - q*r. k_bf is the hash count of the analytic m-sized baseline,
    except in the k sweep, where that baseline follows the swept k, and the
    n sweep, where it is retuned to the optimum round(m/n * ln 2) so the
    comparison at each load is against the BF someone would deploy there.
    Raises ValueError on an unknown swept name or mode, an empty range, a
    step, trial count or k_bf below 1 (whatever is swept), or a negative n
    or t.
    """

    swept: str
    start: int
    stop: int
    step: int = 1
    p: int = 160
    q: int = 32
    r: int = 3
    k: int = 4
    k_prime: int = 5
    n: int = 30
    t: int = 100
    trials: int = 10_000
    seed: int = 0
    k_bf: int = 6
    mode: str = MODE_RANDOM
    allow_false_negatives: bool = False

    def __post_init__(self):
        if self.swept not in SWEPT_CHOICES:
            raise ValueError(f"swept must be one of {SWEPT_CHOICES}, got {self.swept!r}")
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
        if self.start > self.stop:
            raise ValueError(f"empty range {self.start}..{self.stop}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.k_bf < 1:
            raise ValueError(f"k_bf must be >= 1, got {self.k_bf}")
        if self.t < 0 or self.n < 0:
            raise ValueError("n and t must be >= 0")
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def m(self) -> int:
        return self.p + self.q * self.r

    def values(self) -> list[int]:
        return list(range(self.start, self.stop + 1, self.step))


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """Summary of all trials at one swept value; error set iff the derived
    geometry was invalid, in which case the statistics are None. mean_fn,
    the members lost per trial, is set only for sweeps that allow false
    negatives."""

    swept: str
    value: int
    mean_fp: float | None = None
    std_fp: float | None = None
    min_fp: float | None = None
    q25: float | None = None
    median: float | None = None
    q75: float | None = None
    max_fp: float | None = None
    baseline_bf_m: float | None = None
    baseline_bf_p: float | None = None
    mean_fn: float | None = None
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    points: tuple[SweepPoint, ...]

    def to_csv(self) -> str:
        """Fixed-schema CSV, floats at 6 decimals. A mean_fn column is
        appended only for sweeps that allow false negatives, and an error
        column only when some point failed, so guarded clean sweeps keep
        the plain header."""
        with_fn = self.config.allow_false_negatives
        with_errors = any(pt.error is not None for pt in self.points)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER + ("mean_fn",) * with_fn + ("error",) * with_errors)
        for pt in self.points:
            if pt.error is not None:
                row = [pt.swept, pt.value] + [""] * (9 + with_fn) + [pt.error]
            else:
                stats = (pt.mean_fp, pt.std_fp, pt.min_fp, pt.q25, pt.median,
                         pt.q75, pt.max_fp, pt.baseline_bf_m, pt.baseline_bf_p)
                row = [pt.swept, pt.value] + [
                    f"{v:.6f}" for v in stats + (pt.mean_fn,) * with_fn]
                if with_errors:
                    row.append("")
            writer.writerow(row)
        return buf.getvalue()


def _point_geometry(config: SweepConfig, value: int) -> tuple[YesNoParams, int]:
    """Derived (params, n) at one swept value: the base geometry with the
    swept field (r for both r sweeps) set to value. r_fixed_m also sets
    p = m - q*r, so the total length stays put and the yes-filter gives up
    the bits. Raises ValueError when the geometry is impossible."""
    c = config
    fields = dict(p=c.p, q=c.q, r=c.r, k=c.k, k_prime=c.k_prime, n=c.n)
    if c.swept == "n" and value < 0:
        raise ValueError(f"n must be >= 0, got {value}")
    fields[c.swept.partition("_fixed_")[0]] = value
    if c.swept == "r_fixed_m":
        fields["p"] = c.m - c.q * value
    n = fields.pop("n")
    return YesNoParams(**fields, allow_false_negatives=c.allow_false_negatives), n


def optimal_hash_count(m: int, n: int) -> int:
    """Hash count minimizing the classic-BF false positive rate at (m, n)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    return max(1, round(m / n * math.log(2)))


def _comparison_hashes(config: SweepConfig, params: YesNoParams, value: int,
                       n: int) -> int:
    """Hash count for the same-length baseline: the comparison filter at each
    point is the classic BF someone would deploy there. Sweeping k compares
    against a BF with that k; sweeping n retunes the BF's k for the load;
    everywhere else the configured k_bf stands."""
    if config.swept == "k":
        return value
    if config.swept == "n":
        return optimal_hash_count(params.m, max(1, n))
    return config.k_bf


def sweep(config: SweepConfig) -> SweepResult:
    """Run the full sweep; geometry errors become per-point error entries."""
    # numpy is confined to sweeps (std_fp here, the mask_rows pass in
    # _trial_outcomes): importing it costs ~12 MB, which building and
    # querying filters, topology experiments included, never pay. statistics
    # loads fractions and decimal, ~0.4 MB, so it waits here too.
    import statistics

    import numpy as np

    points = []
    for index, value in enumerate(config.values()):
        try:
            params, n = _point_geometry(config, value)
        except ValueError as exc:
            points.append(SweepPoint(config.swept, value, error=str(exc)))
            continue
        counts = []
        fn_total = 0
        seeds = (derive_seed(config.seed, index, trial)
                 for trial in range(config.trials))
        for _, outcome in _trial_outcomes(params, n, config.t, seeds, config.mode):
            counts.append(outcome.fp_count)
            fn_total += len(outcome.false_negatives)
        # of integer counts, np.quantile's linear rule and the inclusive
        # method both give exact quarters, so the floats are equal; one
        # count is every quartile, where quantiles would raise
        quartiles = (statistics.quantiles(counts, n=4, method="inclusive")
                     if config.trials > 1 else counts * 3)
        k_m = _comparison_hashes(config, params, value, n)
        points.append(SweepPoint(
            swept=config.swept,
            value=value,
            mean_fp=sum(counts) / config.trials,
            std_fp=float(np.std(counts, ddof=1)) if config.trials > 1 else 0.0,
            min_fp=float(min(counts)),
            q25=float(quartiles[0]),
            median=float(quartiles[1]),
            q75=float(quartiles[2]),
            max_fp=float(max(counts)),
            baseline_bf_m=expected_fp_count(
                config.t, fp_prob_exact(FilterShape(params.m, k_m, n))),
            baseline_bf_p=expected_fp_count(
                config.t, fp_prob_exact(FilterShape(params.p, params.k, n))),
            mean_fn=(fn_total / config.trials
                     if config.allow_false_negatives else None),
        ))
    return SweepResult(config, tuple(points))

