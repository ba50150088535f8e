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
from itertools import compress, islice, repeat

from .analysis import FilterShape, expected_fp_count, fp_prob_exact
from .bitcore import _MODES, MODE_DOUBLE, MODE_RANDOM, derive_seed
from .yesno import (
    Classification,
    ConstructionReport,
    Sketcher,
    YesNoFilter,
    YesNoParams,
)

# The names a sweep can vary: SweepConfig.swept and `sweep --var` take
# exactly these, and the CSV's swept column prints them.
SWEPT_CHOICES = ("k", "k_prime", "n", "q", "r_fixed_p", "r_fixed_m")

CSV_HEADER = ("swept", "value", "mean_fp", "std_fp", "min", "q25", "median",
              "q75", "max", "baseline_bf_m", "baseline_bf_p")

_UNIVERSE = 1 << 64

# Trials sketched in one batched pass. The pass holds its trials' ids,
# digests, mask rows and sketches at once, ~85 KB a trial at the default
# geometry, so this bounds a point's memory whatever its trial count.
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


def _hash_rows(stream: bytes, items: int, count: int, size: int, mode: str):
    """The masks of items elements as uint8 rows of ceil(size/8) bytes,
    bit i of a row (byte 0 lowest) set for position i.

    stream is the elements' HashFamily.digests streams joined end to end,
    for a family of this count, range size and mode; the rows are the
    masks HashFamily.encoded_masks reduces from the same streams.
    """
    import numpy as np

    width = (size + 7) // 8
    rows = np.zeros(items * width, np.uint8)
    if count and items:
        chunks = np.frombuffer(stream, "<u8").reshape(items, -1)
        size = np.uint64(size)
        if mode == MODE_DOUBLE:
            # chunk i is h1 % size + i * stride, stride = h2 % size or 1,
            # as HashFamily's reader gives; each is below count * size
            stride = chunks[:, 1:] % size
            stride[stride == 0] = 1
            chunks = chunks[:, :1] % size + np.arange(count, dtype=np.uint64) * stride
        positions = chunks[:, :count] % size
        # .at ORs a position repeated within an element once, as the int
        # walk does
        np.bitwise_or.at(
            rows,
            (positions >> 3).astype(np.intp)
            + np.arange(0, items * width, width)[:, None],
            np.left_shift(1, positions & 7).astype(np.uint8))
    return rows.reshape(items, width)


def _row_ints(rows) -> list[int]:
    """Each uint8 row, byte 0 lowest, as the int it holds."""
    # a bytes-string view drops a row's trailing zero bytes, which are its
    # high zeros, so each value is unchanged
    width = rows.shape[-1]
    return list(map(int.from_bytes, rows.view(f"S{width}").ravel().tolist(),
                    repeat("little")))


def _encoded_ids(ids) -> list[bytes]:
    """element_to_bytes of each 64-bit id, in one numpy pass: the tag
    b"i", then the id's 8 bytes little-endian."""
    import numpy as np

    records = np.empty((len(ids), 9), np.uint8)
    records[:, 0] = ord("i")
    records[:, 1:] = np.array(ids, "<u8").view(np.uint8).reshape(-1, 8)
    return records.view("V9").ravel().tolist()


def _trial_outcomes(params: YesNoParams, n: int, t: int, trial_seeds,
                    mode: str):
    """Yield the (report, classification) of the trial at each seed, in
    order.

    The trials pass in chunks of _CHUNK_TRIALS. Each trial draws its ids,
    distinct by construction, so nothing re-checks them as
    YesNoFilter.build does, and its yes family walks all of them with one
    digest walk. numpy reduces the chunk's
    digests to yes masks, ORs each trial's members into its yes mask and
    picks out the yes-stage hits; each trial's no family walks only its
    hits, reduced the same way. Every trial then builds and classifies
    through build_from_sketches and classify_sketches with the sketches
    Sketcher._sketch_sets gives, so the outcomes are those of
    YesNoFilter.build, then classify, of the same two sets.
    """
    import numpy as np

    items = n + t
    trial_seeds = iter(trial_seeds)
    while seeds := list(islice(trial_seeds, _CHUNK_TRIALS)):
        drawn = [draw_elements(trial_seed, n, t) for trial_seed in seeds]
        encoded = _encoded_ids([e for members, candidates in drawn
                                for e in members + candidates])
        datas = [encoded[i * items:(i + 1) * items] for i in range(len(seeds))]
        sketchers = [Sketcher(params, trial_seed, mode) for trial_seed in seeds]
        rows = _hash_rows(
            b"".join([stream for sk, d in zip(sketchers, datas)
                      for stream in sk.yes_family.digests(d)]),
            len(seeds) * items, params.k, params.p, mode)
        yes_parts = _row_ints(rows)
        if params.r:
            rows = rows.reshape(len(seeds), items, rows.shape[1])
            yes_masks = np.bitwise_or.reduce(rows[:, :n], axis=1)
            hit_rows = ~(rows & ~yes_masks[:, None]).any(axis=2)
            hits = hit_rows.tolist()
            no_parts = iter(_row_ints(_hash_rows(
                b"".join([stream for sk, d, h in zip(sketchers, datas, hits)
                          for stream in sk.no_family.digests(compress(d, h))]),
                int(hit_rows.sum()), params.k_prime, params.q, mode)))
        for i, (trial_seed, (members, candidates)) in enumerate(zip(seeds, drawn)):
            trial_yes = yes_parts[i * items:(i + 1) * items]
            if params.r:
                sketches = [(y, next(no_parts)) if hit else (y, None)
                            for y, hit in zip(trial_yes, hits[i])]
            else:
                sketches = list(zip(trial_yes, repeat(None)))
            member_sketches, candidate_sketches = sketches[:n], sketches[n:]
            built, report = YesNoFilter.build_from_sketches(
                params, member_sketches, candidate_sketches,
                seed=trial_seed, mode=mode)
            yield report, built.classify_sketches(
                list(zip(members, member_sketches)),
                list(zip(candidates, candidate_sketches)))


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
    # numpy is confined to sweeps (the statistics here, the batched pass in
    # _trial_outcomes): importing it costs ~12 MB, which building and
    # querying filters, topology experiments included, never pay
    import numpy as np

    points = []
    for index, value in enumerate(config.values()):
        try:
            params, n = _point_geometry(config, value)
        except ValueError as exc:
            points.append(SweepPoint(config.swept, value, error=str(exc)))
            continue
        counts = np.empty(config.trials, dtype=np.int64)
        fn_total = 0
        seeds = (derive_seed(config.seed, index, trial)
                 for trial in range(config.trials))
        outcomes = _trial_outcomes(params, n, config.t, seeds, config.mode)
        for trial, (_, outcome) in enumerate(outcomes):
            counts[trial] = outcome.fp_count
            fn_total += len(outcome.false_negatives)
        quartiles = np.quantile(counts, (0.25, 0.5, 0.75))
        k_m = _comparison_hashes(config, params, value, n)
        points.append(SweepPoint(
            swept=config.swept,
            value=value,
            mean_fp=float(counts.mean()),
            std_fp=float(counts.std(ddof=1)) if config.trials > 1 else 0.0,
            min_fp=float(counts.min()),
            q25=float(quartiles[0]),
            median=float(quartiles[1]),
            q75=float(quartiles[2]),
            max_fp=float(counts.max()),
            baseline_bf_m=expected_fp_count(
                config.t, fp_prob_exact(FilterShape(params.m, k_m, n))),
            baseline_bf_p=expected_fp_count(
                config.t, fp_prob_exact(FilterShape(params.p, params.k, n))),
            mean_fn=(fn_total / config.trials
                     if config.allow_false_negatives else None),
        ))
    return SweepResult(config, tuple(points))

