"""Run one yesnobf benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ./src. With
--trace 0 the last stdout line is a JSON object holding every end-to-end
metric, measured with no tracing and given at nominal machine speed (see
REFERENCE_NS below). With --trace 1 the run first measures the workload
untraced for a share of --seconds, then wraps the library's layer functions
in place, replays the same batches and reports the per-layer metrics; a
batch whose output differs from its untraced twin counts as failed. Lines
above the JSON name every metric with its unit and raw clock reading, the
workload's own name for its op rate, sample counts and machine facts.
Results and spans are written under perfbench/out/.

Everything runs in this one process and thread. Workloads, metrics and the
layer each metric belongs to are described in perfbench/layers.json.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from hashlib import blake2b
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 5
# A traced run measures untraced for this share of --seconds, then replays.
TRACE_UNTRACED_SHARE = 0.5
# The replay stops at the first batch boundary past this many spans.
MAX_SPANS = 1_000_000

# On shared 2-vCPU x86-64 hosts the CPU was seen to change speed by up to a
# quarter within seconds, with process CPU time slowing as much as the wall
# clock, so waiting for a quiet machine does not help. Instead every batch
# is timed between two passes of a fixed reference loop, and its times are
# reported at nominal speed: multiplied by REFERENCE_NS over the mean
# reference time around it. Raw figures are kept beside them. The loop has
# a hashing half and an interpreter half because hashing-bound ops and
# construction-bound builds were seen to slow by different amounts.
REFERENCE_HASHES = 750
REFERENCE_SCANS = 70
REFERENCE_NS = 2_000_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "rebuild_ms_p50": "ms",
    "rebuild_ms_p99": "ms",
    "lookups_per_s": "1/s",
}

PER_LAYER_UNITS = {
    "bitcore.element_mask_us": "us",
    "bitcore.element_mask_calls": "count",
    "yesno.sketch_us": "us",
    "yesno.sketch_calls": "count",
    "yesno.construct_us_per_build": "us",
    "yesno.construct_us_per_candidate": "us",
    "yesno.fp_found": "count",
    "yesno.fp_recorded": "count",
    "yesno.record_ratio": "ratio",
    "yesno.classify_us_per_query": "us",
    "yesno.query_us_per_lookup": "us",
    "simulate.draw_us_per_trial": "us",
    "simulate.aggregate_ms_per_point": "ms",
    "topology.bf_baseline_us_per_alloc": "us",
    "topology.select_path_ms": "ms",
    "corpus.build_ms": "ms",
    "simulate.share": "ratio",
    "bitcore.share": "ratio",
    "yesno.share": "ratio",
    "topology.share": "ratio",
    "corpus.share": "ratio",
    "analysis.share": "ratio",
    "trace.overhead_ratio": "ratio",
}

LAYERS = ("simulate", "bitcore", "yesno", "topology", "corpus", "analysis")


def use_checkout_source() -> float:
    """Import yesnobf from this checkout's src/; return the import time in s."""
    src = ROOT / "src"
    if not (src / "yesnobf" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no yesnobf sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import yesnobf.corpus
    import yesnobf.simulate
    import yesnobf.topology
    elapsed = time.perf_counter() - t0
    if Path(yesnobf.__file__).resolve().parent != src / "yesnobf":
        raise SystemExit(f"perfbench: yesnobf imported from {yesnobf.__file__}, not {src}")
    return elapsed


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def machine_facts(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "seed": seed,
    }


class _Part:
    __slots__ = ("mask",)

    def __init__(self, mask: int):
        self.mask = mask

    def as_int(self) -> int:
        return self.mask


_REFERENCE_PARTS = [_Part(i * 2654435761 % (1 << 160)) for i in range(100)]


def reference_ns() -> int:
    """Time one pass of a fixed loop doing the library's two kinds of work:
    blake2b over small ids, as sketching does, and method calls and subset
    tests on int masks, as construction and queries do."""
    t0 = time.perf_counter_ns()
    seen = set()
    for i in range(REFERENCE_HASHES):
        x = int.from_bytes(blake2b(i.to_bytes(8, "little"), digest_size=16).digest(),
                           "little")
        seen.add(x & 1023)
    for _ in range(REFERENCE_SCANS):
        mask = 0
        for part in _REFERENCE_PARTS:
            y = part.as_int()
            if y & mask != y:
                mask |= y
    return time.perf_counter_ns() - t0


def speed_scale(before_ns: int, after_ns: int) -> float:
    """Factor turning raw ns into ns at nominal speed, from the reference
    times measured on both sides of the timed work."""
    return 2 * REFERENCE_NS / (before_ns + after_ns)


def run_batches(workload, state, indices, keep_going) -> list:
    """Run the batches in `indices` while keep_going(), at least one, each
    timed between two reference passes."""
    batches = []
    before = reference_ns()
    for index in indices:
        if batches and not keep_going():
            break
        batch = workload.run_batch(state, index)
        after = reference_ns()
        batch.scale = speed_scale(before, after)
        before = after
        batches.append(batch)
    return batches


def timed_setup(workload, seed: int):
    """Run the workload's set-up once; return (state, raw s, scaled s)."""
    before = reference_ns()
    t0 = time.perf_counter()
    state = workload.setup(seed)
    elapsed = time.perf_counter() - t0
    return state, elapsed, elapsed * speed_scale(before, reference_ns())


def end_to_end(batches, setup_s: float, scaled: bool) -> dict:
    """The end-to-end metrics of an untraced run, at nominal speed when
    `scaled`, else as the clock read them."""
    def scale(b):
        return b.scale if scaled else 1.0

    rebuild_ns = [ns * scale(b) for b in batches for ns in b.rebuild_ns]
    looked_up = [b for b in batches if b.lookups]
    if not rebuild_ns or not looked_up:
        raise RuntimeError("the workload made no builds or no lookups")
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_per_s": statistics.median(b.ops * 1e9 / (b.elapsed_ns * scale(b))
                                       for b in batches),
        "rebuild_ms_p50": statistics.median(rebuild_ns) / 1e6,
        "rebuild_ms_p99": statistics.quantiles(rebuild_ns, n=100,
                                               method="inclusive")[98] / 1e6,
        "lookups_per_s": statistics.median(b.lookups * 1e9 / (b.lookup_ns * scale(b))
                                           for b in looked_up),
    }


def instrument(tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    from yesnobf import bitcore, corpus, simulate, topology, yesno

    def count_build(counters, args, result):
        report = result[1]
        counters["candidates"] += report.t
        counters["fp_found"] += report.f_count
        counters["fp_recorded"] += report.r_count

    def count_classify(counters, args, result):
        counters["classified"] += (len(result.true_positives)
                                   + len(result.false_negatives)
                                   + len(result.yes_stage_negatives)
                                   + len(result.no_stage_rejections)
                                   + len(result.residual_false_positives))

    def count_points(counters, args, result):
        counters["points"] += len(result.points)

    def count_allocations(counters, args, result):
        counters["allocations"] += len(result.yesno_counts)

    wrap = tracer.wrap
    wrap(bitcore.HashFamily, "element_mask", "bitcore.element_mask")
    wrap(simulate, "derive_seed", "bitcore.derive_seed")
    wrap(topology, "derive_seed", "bitcore.derive_seed")
    wrap(yesno.Sketcher, "sketch", "yesno.sketch")
    wrap(yesno.YesNoFilter, "build_from_sketches", "yesno.build_from_sketches",
         count_build)
    wrap(yesno.YesNoFilter, "classify_sketches", "yesno.classify_sketches",
         count_classify)
    wrap(yesno.YesNoFilter, "contains", "yesno.contains")
    wrap(simulate, "draw_elements", "simulate.draw_elements")
    wrap(simulate, "trial_outcome", "simulate.trial_outcome")
    wrap(simulate, "sweep", "simulate.sweep", count_points)
    wrap(simulate, "fp_prob_exact", "analysis.fp_prob_exact")
    wrap(simulate, "expected_fp_count", "analysis.expected_fp_count")
    wrap(topology, "select_long_path", "topology.select_long_path")
    wrap(topology, "run_topology_experiment", "topology.run_topology_experiment",
         count_allocations)
    wrap(corpus, "default_corpus", "corpus.default_corpus")


def per_layer(summary: dict, counters: dict, traced_ns: float) -> dict:
    """The per-layer metrics of a traced run, times as the clock read them."""
    def span(name, key):
        return summary.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call(name, key, ns_per_unit):
        return ratio(span(name, key), span(name, "calls")) / ns_per_unit

    bf_ns = (span("topology.run_topology_experiment", "self_ns")
             + span("topology.run_topology_experiment > bitcore.element_mask", "incl_ns"))
    values = {
        "bitcore.element_mask_us": per_call("bitcore.element_mask", "self_ns", 1e3),
        "bitcore.element_mask_calls": span("bitcore.element_mask", "calls"),
        "yesno.sketch_us": per_call("yesno.sketch", "self_ns", 1e3),
        "yesno.sketch_calls": span("yesno.sketch", "calls"),
        "yesno.construct_us_per_build":
            per_call("yesno.build_from_sketches", "self_ns", 1e3),
        "yesno.construct_us_per_candidate":
            ratio(span("yesno.build_from_sketches", "self_ns"),
                  counters["candidates"]) / 1e3,
        "yesno.fp_found": counters["fp_found"],
        "yesno.fp_recorded": counters["fp_recorded"],
        "yesno.record_ratio": ratio(counters["fp_recorded"],
                                    counters["fp_found"]),
        "yesno.classify_us_per_query":
            ratio(span("yesno.classify_sketches", "self_ns"),
                  counters["classified"]) / 1e3,
        "yesno.query_us_per_lookup": per_call("yesno.contains", "incl_ns", 1e3),
        "simulate.draw_us_per_trial":
            per_call("simulate.draw_elements", "incl_ns", 1e3),
        "simulate.aggregate_ms_per_point":
            ratio(span("simulate.sweep", "self_ns"), counters["points"]) / 1e6,
        "topology.bf_baseline_us_per_alloc":
            ratio(bf_ns, counters["allocations"]) / 1e3,
        "topology.select_path_ms":
            per_call("topology.select_long_path", "incl_ns", 1e6),
        "corpus.build_ms": per_call("corpus.default_corpus", "incl_ns", 1e6),
    }
    for layer in LAYERS:
        own = sum(v["self_ns"] for k, v in summary.items()
                  if k.split(".", 1)[0] == layer and "self_ns" in v)
        values[f"{layer}.share"] = ratio(own, traced_ns)
    return values


def _outcome(batches, metrics: dict, raw: dict, samples: dict) -> dict:
    failed = sum(b.failed for b in batches)
    return {"correct": failed == 0, "attempted": sum(b.ops for b in batches),
            "failed": failed, "metrics": metrics, "raw": raw, "samples": samples}


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up and measure one workload; return the result record.

    The record holds "correct", "attempted", "failed", "metrics" (at
    nominal speed), "raw" (the same as the clock read them), "samples" and,
    for a traced run, the tracer under "tracer".
    """
    import spans

    def until(deadline):
        return lambda: time.perf_counter() < deadline

    if workload.probe is not None:
        workload.probe.install()
    try:
        if not trace:
            setups = [timed_setup(workload, seed) for _ in range(SETUP_REPEATS)]
            state = setups[-1][0]
            batches = run_batches(workload, state, itertools.count(),
                                  until(time.perf_counter() + seconds))
            samples = {"setup_repeats": SETUP_REPEATS, "batches": len(batches),
                       "rebuilds": sum(len(b.rebuild_ns) for b in batches),
                       "lookups": sum(b.lookups for b in batches)}
            return _outcome(
                batches,
                end_to_end(batches, statistics.median(s[2] for s in setups), True),
                end_to_end(batches, statistics.median(s[1] for s in setups), False),
                samples)

        state = workload.setup(seed)
        untraced = run_batches(workload, state, itertools.count(),
                               until(time.perf_counter() + seconds * TRACE_UNTRACED_SHARE))
        tracer = spans.Tracer()
        instrument(tracer)
        try:
            t0 = time.perf_counter_ns()
            state = workload.setup(seed)
            setup_ns = time.perf_counter_ns() - t0
            replayed = run_batches(workload, state, [b.index for b in untraced],
                                   lambda: len(tracer) <= MAX_SPANS)
        finally:
            tracer.restore()
    finally:
        if workload.probe is not None:
            workload.probe.remove()

    for batch, twin in zip(replayed, untraced):
        if batch.output != twin.output:
            batch.failed = batch.ops
    raw = per_layer(tracer.summary(), tracer.counters,
                    setup_ns + sum(b.elapsed_ns for b in replayed))
    scale = statistics.median(b.scale for b in replayed)
    metrics = {name: value * scale if PER_LAYER_UNITS[name] in ("us", "ms") else value
               for name, value in raw.items()}
    metrics["trace.overhead_ratio"] = raw["trace.overhead_ratio"] = (
        sum(b.elapsed_ns * b.scale for b in replayed)
        / sum(b.elapsed_ns * b.scale for b in untraced[:len(replayed)]))
    samples = {"batches_untraced": len(untraced), "batches_replayed": len(replayed),
               "spans": len(tracer)}
    result = _outcome(untraced + replayed, metrics, raw, samples)
    result["tracer"] = tracer
    return result


def result_line(result: dict, trace: bool) -> dict:
    """The object the last stdout line holds."""
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "topology", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_s = use_checkout_source()
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
    tracer = result.pop("tracer", None)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    # Reported beside setup_s, not in it: it happens once per process, so it
    # cannot be repeated for a median, and it is mostly numpy's import.
    result["samples"]["import_s"] = import_s

    facts = machine_facts(args.seed)
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "facts": facts, **result}
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}.npz")

    print(f"# workload {args.workload}, op = one {workload.op}, "
          f"seed {args.seed}, trace {args.trace}")
    print("# facts " + json.dumps(facts, sort_keys=True))
    print("# samples " + json.dumps(result["samples"], sort_keys=True))
    for name, value in result["metrics"].items():
        alias = f" = {workload.op}s_per_s" if name == "ops_per_s" else ""
        print(f"{name}{alias} = {value:.6g} {units[name]}"
              f"  (raw {result['raw'][name]:.6g})")
    print(f"ops_attempted = {result['attempted']} count")
    print(f"ops_failed = {result['failed']} count")
    print(json.dumps(result_line(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
