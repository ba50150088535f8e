"""The three benchmark workloads, their correctness checks and the probe.

Every workload has the same shape: `setup(seed)` builds what the timed loop
needs (timed on its own, it is the `setup_s` metric), and `run_batch(state,
index)` runs one batch of ops and returns a `Batch`. A batch is a pure
function of (seed, index), so a traced run can replay the batches of an
untraced run and compare their outputs exactly.

- sweep: one batch is one `simulate.sweep` call over r_fixed_m 0..6 at the
  default geometry; an op is one trial.
- topology: one batch is one pass of `run_topology_experiment` over the
  default corpus; an op is one hash allocation.
- serve: one batch is ten rounds of a closed loop with one client; a round
  (the op) is one write, a rebuild over a sliding window of known flows,
  then the reads.

Batches are short (tens of ms) so that the measuring loop can correct each
one for the machine speed measured next to it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter_ns

from yesnobf import corpus, simulate, topology
from yesnobf.yesno import Sketcher, YesNoFilter, YesNoParams

from spans import wrap_attr

# The checks classify with the method as the library defines it, so the
# probe and the tracer never see (or time) the benchmark's own checking.
_classify = YesNoFilter.classify_sketches


def report_ok(report) -> bool:
    """A construction report adds up."""
    return (report.f_count == report.r_count + report.unmitigated
            and sum(report.per_no_filter_load) == report.r_count)


def point_ok(pt) -> bool:
    """A sweep point has statistics, in order."""
    return (pt.error is None
            and pt.min_fp <= pt.q25 <= pt.median <= pt.q75 <= pt.max_fp)


def classification_ok(outcome, report) -> bool:
    """Members all answer yes, and the candidates classified after a build
    split its yes-stage false positives into no-stage rejections and
    residuals, with every recorded one among the rejections."""
    rejected = len(outcome.no_stage_rejections)
    return (not outcome.false_negatives
            and rejected + len(outcome.residual_false_positives) == report.f_count
            and rejected >= report.r_count)


@dataclass
class Batch:
    """What one batch did. elapsed_ns covers the timed part only; scale is
    set by the measuring loop (see run.py) and turns raw ns into ns at the
    nominal machine speed."""

    index: int
    ops: int
    failed: int
    elapsed_ns: int
    rebuild_ns: list[int]
    lookups: int
    lookup_ns: int
    output: object = field(repr=False, default=None)
    scale: float = 1.0


class Probe:
    """Times and checks every construction and classification a batch makes.

    sweep and topology build and query inside library calls, so their
    rebuild latency, lookup rate and per-op checks are taken at the two
    public boundaries they share: YesNoFilter.build_from_sketches and
    YesNoFilter.classify_sketches. One clock pair per call.
    """

    def __init__(self):
        self._reports: dict[int, tuple] = {}
        self._undo: list = []
        self.reset()

    def reset(self) -> None:
        self.rebuild_ns: list[int] = []
        self.lookups = 0
        self.lookup_ns = 0
        self.failures = 0
        self._reports.clear()

    def install(self) -> None:
        def decorate_build(func):
            def build(cls, *args, **kwargs):
                t0 = perf_counter_ns()
                built, report = func(cls, *args, **kwargs)
                self.rebuild_ns.append(perf_counter_ns() - t0)
                if not report_ok(report):
                    self.failures += 1
                self._reports[id(built)] = (built, report)
                return built, report
            return build

        def decorate_classify(func):
            def classify(filt, member_pairs, candidate_pairs):
                t0 = perf_counter_ns()
                outcome = func(filt, member_pairs, candidate_pairs)
                self.lookup_ns += perf_counter_ns() - t0
                self.lookups += len(member_pairs) + len(candidate_pairs)
                built = self._reports.pop(id(filt), None)
                if built is None or not classification_ok(outcome, built[1]):
                    self.failures += 1
                return outcome
            return classify

        self._undo.append(wrap_attr(YesNoFilter, "build_from_sketches", decorate_build))
        self._undo.append(wrap_attr(YesNoFilter, "classify_sketches", decorate_classify))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def batch(self, index: int, ops: int, failed: int, elapsed_ns: int,
              output) -> Batch:
        """Close a batch with what the probe saw since the last reset."""
        failed = min(ops, failed + self.failures)
        return Batch(index, ops, failed, elapsed_ns, self.rebuild_ns,
                     self.lookups, self.lookup_ns, output)


def _sub_seed(seed: int, index: int) -> int:
    """The seed of batch or round `index` of a run seeded with `seed`."""
    return seed * 1_000_003 + index


class Sweep:
    """simulate.sweep, r_fixed_m over 0..6 at the default geometry
    (p=160, q=32, r=3, k=4, k'=5, n=30, t=100), random hash mode."""

    op = "trial"

    def __init__(self, trials_per_point: int = 5, stop: int = 6):
        self.trials = trials_per_point
        self.stop = stop
        self.probe = Probe()

    def config(self, seed: int, trials: int) -> simulate.SweepConfig:
        return simulate.SweepConfig("r_fixed_m", 0, self.stop, trials=trials, seed=seed)

    def setup(self, seed: int):
        """The smallest sweep: one trial at every point."""
        simulate.sweep(self.config(seed, 1))
        return seed

    def run_batch(self, seed: int, index: int) -> Batch:
        self.probe.reset()
        t0 = perf_counter_ns()
        result = simulate.sweep(self.config(_sub_seed(seed, index), self.trials))
        elapsed = perf_counter_ns() - t0
        failed = sum(self.trials for pt in result.points if not point_ok(pt))
        return self.probe.batch(index, len(result.points) * self.trials, failed,
                                elapsed, result.points)


class Topology:
    """run_topology_experiment over corpus.default_corpus() at
    DEFAULT_PARAMS (p=192, q=32, r=2, k=4, k'=3) with k_bf=6."""

    op = "allocation"

    def __init__(self, allocations_per_graph: int = 4, graphs: int | None = None):
        self.allocations = allocations_per_graph
        self.graphs = graphs
        self.probe = Probe()

    def setup(self, seed: int):
        """Generate the corpus and select each graph's path."""
        entries = corpus.default_corpus()[:self.graphs]
        return seed, [topology.PathExperiment.from_graph(
                          name, graph, params=topology.DEFAULT_PARAMS,
                          k_bf=topology.DEFAULT_K_BF, allocations=self.allocations)
                      for name, graph in entries]

    def run_batch(self, state, index: int) -> Batch:
        seed, experiments = state
        self.probe.reset()
        seed = _sub_seed(seed, index)
        t0 = perf_counter_ns()
        results = tuple(topology.run_topology_experiment(exp, seed=seed)
                        for exp in experiments)
        elapsed = perf_counter_ns() - t0
        failed = sum(self.allocations for res in results
                     if len(res.yesno_counts) != self.allocations)
        return self.probe.batch(index, len(results) * self.allocations, failed,
                                elapsed, results)


SERVE_PARAMS = YesNoParams.of(p=256, q=32, r=8, k=4, k_prime=4)


@dataclass
class ServeState:
    seed: int
    route_pairs: list
    flow_ring: list  # the flow pool, then its head again: windows never wrap


class Serve:
    """Closed loop, one client. Each round rebuilds the filter for the
    current member routes over a window of known flows, then reads: a third
    members, a third window flows, a third ids never seen.

    The window slides along the flow pool by `slide` flows a round. Each
    write serves a member set drawn afresh from a larger pool of known
    routes, as if every write came from another ingress router. Rebuild
    cost follows the yes-filter's false-positive count, which depends on
    which routes are members, so each rebuild's cost is an independent draw
    and the tail percentile is not set by the few member sets a seed picks.
    """

    op = "round"
    probe = None  # the loop below times and checks its own calls

    def __init__(self, members: int = 60, routes: int = 6000, pool: int = 6000,
                 window: int = 2000, slide: int = 20, reads: int = 60,
                 rounds_per_batch: int = 10):
        if members > routes or window > pool or reads % 3:
            raise ValueError("members and window must fit their pools, "
                             "and reads must split in thirds")
        self.members = members
        self.routes = routes
        self.pool = pool
        self.window = window
        self.slide = slide
        self.reads = reads
        self.rounds = rounds_per_batch

    def setup(self, seed: int) -> ServeState:
        """Sketch the known routes and the known flows once."""
        rng = random.Random(seed)
        routes = [f"route-{i}-{rng.getrandbits(32):08x}" for i in range(self.routes)]
        flows = [f"flow-{i}-{rng.getrandbits(32):08x}" for i in range(self.pool)]
        sketcher = Sketcher(SERVE_PARAMS, seed)
        route_pairs = [(e, sketcher.sketch(e)) for e in routes]
        flow_pairs = [(e, sketcher.sketch(e)) for e in flows]
        return ServeState(seed, route_pairs, flow_pairs + flow_pairs[:self.window])

    def round_inputs(self, state: ServeState, index: int):
        """The members, the window and the reads (element, kind) of a round."""
        rng = random.Random(_sub_seed(state.seed, index))
        members = rng.sample(state.route_pairs, self.members)
        start = index * self.slide % self.pool
        window = state.flow_ring[start:start + self.window]
        third = self.reads // 3
        reads = [(e, "member") for e, _ in rng.sample(members, third)]
        reads += [(e, "window") for e, _ in rng.sample(window, third)]
        reads += [(f"probe-{index}-{j}-{rng.getrandbits(32):08x}", "new")
                  for j in range(third)]
        return members, window, reads

    def run_batch(self, state: ServeState, index: int) -> Batch:
        batch = Batch(index, self.rounds, 0, 0, [], 0, 0, [])
        for i in range(index * self.rounds, (index + 1) * self.rounds):
            members, window, reads = self.round_inputs(state, i)
            member_sketches = [s for _, s in members]
            window_sketches = [s for _, s in window]
            t0 = perf_counter_ns()
            filt, report = YesNoFilter.build_from_sketches(
                SERVE_PARAMS, member_sketches, window_sketches, seed=state.seed)
            t1 = perf_counter_ns()
            answers = tuple(filt.contains(e) for e, _ in reads)
            t2 = perf_counter_ns()
            if not check_round(filt, report, members, window, reads, answers):
                batch.failed += 1
            batch.elapsed_ns += t2 - t0
            batch.rebuild_ns.append(t1 - t0)
            batch.lookups += len(reads)
            batch.lookup_ns += t2 - t1
            batch.output.append((report, answers))
        return batch


def check_round(filt, report, member_pairs, window_pairs, reads, answers) -> bool:
    """One serve round is right: the report adds up, every member answers
    yes, the window's classification matches the report, and each read of a
    member or window flow agrees with that classification."""
    if not report_ok(report):
        return False
    outcome = _classify(filt, member_pairs, window_pairs)
    if not classification_ok(outcome, report):
        return False
    residual = set(outcome.residual_false_positives)
    for (element, kind), answer in zip(reads, answers, strict=True):
        if kind == "member" and not answer:
            return False
        if kind == "window" and answer != (element in residual):
            return False
    return True


WORKLOADS = {"sweep": Sweep, "topology": Topology, "serve": Serve}
