"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench
"""

import json

import pytest

import run

run.use_checkout_source()

import workloads  # noqa: E402  (needs the checkout's src on sys.path)
from yesnobf.yesno import QueryResult, YesNoFilter  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((run.HERE / "layers.json").read_text())


def tiny(name):
    if name == "sweep":
        return workloads.Sweep(trials_per_point=2, stop=2)
    if name == "topology":
        return workloads.Topology(allocations_per_graph=1, graphs=2)
    return workloads.Serve(members=40, routes=80, pool=300, window=100, slide=5,
                           reads=6, rounds_per_batch=2)


class MemberSaysNo(YesNoFilter):
    """A built filter whose answer for one member sketch is forced to no."""

    __slots__ = ("forced",)

    @classmethod
    def of(cls, filt, sketch):
        out = cls(filt.params, filt.yes_filter, filt.no_filters,
                  seed=filt.seed, mode=filt.mode)
        out.forced = sketch
        return out

    def query_sketch(self, s):
        if s == self.forced:
            return QueryResult.NEGATIVE_NO_STAGE
        return super().query_sketch(s)


def test_benchmark_json_names_what_run_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for key, units in (("end_to_end", run.END_TO_END_UNITS),
                       ("per_layer", run.PER_LAYER_UNITS)):
        assert {m["name"]: m["unit"] for m in BENCHMARK[key]} == units
        assert set(units) == set(LAYERS[key])
    assert set(LAYERS["workloads"]) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_appears_with_its_unit(name, trace):
    result = run.run_workload(tiny(name), seed=3, seconds=0.05, trace=trace)
    line = run.result_line(result, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert line["metrics"] == {
        m["name"]: {"value": line["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in listed}
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_replay_that_differs_fails_its_ops():
    class Drifting:
        """Outputs that change on every call, as if a wrapper changed behaviour."""
        op = "call"
        probe = None
        calls = 0

        def setup(self, seed):
            return seed

        def run_batch(self, state, index):
            self.calls += 1
            return workloads.Batch(index, 2, 0, 1000, [1000], 1, 1000, self.calls)

    result = run.run_workload(Drifting(), seed=1, seconds=0.01, trace=True)
    replayed = result["samples"]["batches_replayed"]
    assert replayed == result["samples"]["batches_untraced"] >= 1
    assert result["failed"] == 2 * replayed
    assert result["correct"] is False


def test_check_round_rejects_a_member_answering_no():
    serve = tiny("serve")
    state = serve.setup(3)
    members, window, reads = serve.round_inputs(state, 0)
    filt, report = YesNoFilter.build_from_sketches(
        workloads.SERVE_PARAMS, [s for _, s in members], [s for _, s in window],
        seed=state.seed)
    answers = tuple(filt.contains(e) for e, _ in reads)
    assert workloads.check_round(filt, report, members, window, reads, answers)
    stub = MemberSaysNo.of(filt, members[0][1])
    assert not workloads.check_round(stub, report, members, window, reads, answers)


@pytest.mark.parametrize("name", ["sweep", "serve"])
def test_a_member_answering_no_fails_every_op(name, monkeypatch):
    real = vars(YesNoFilter)["build_from_sketches"].__func__

    def build_forcing_no(cls, params, member_sketches, candidate_sketches, **kwargs):
        filt, report = real(cls, params, member_sketches, candidate_sketches, **kwargs)
        return MemberSaysNo.of(filt, member_sketches[0]), report

    monkeypatch.setattr(YesNoFilter, "build_from_sketches",
                        classmethod(build_forcing_no))
    result = run.run_workload(tiny(name), seed=3, seconds=0.01, trace=False)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
