"""Command-line behavior: output shape, determinism, exit codes."""

import argparse
import csv
import dataclasses
import inspect
import io
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from yesnobf.analysis import FilterShape, expected_fp_count, fp_prob_exact
from yesnobf.cli import _HASH_MODES, build_parser, main
from yesnobf.simulate import CSV_HEADER, SWEPT_CHOICES, SweepConfig
from yesnobf.topology import (
    AGGREGATE_CSV_HEADER,
    DEFAULT_ALLOCATIONS,
    DEFAULT_K_BF,
    DEFAULT_PARAMS,
    TOPOLOGY_CSV_HEADER,
    Graph,
    run_topology_experiment,
    write_edgelist,
)
from yesnobf.yesno import YesNoParams

SMALL_GEOMETRY = ["--p", "40", "--q", "8", "--r", "2", "--k", "3",
                  "--k-prime", "3", "--n", "10", "--t", "40"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_defaults(capsys):
    code, out, err = run_cli(capsys, "analyze")
    assert code == 0 and err == ""
    lines = out.splitlines()
    names = [line.split()[0] for line in lines]
    assert names == ["f_s_exact", "f_s_approx", "pr_positive",
                     "pr_false_positive", "f_r_approx", "pr_E",
                     "f_E_single_no_filter", "expected_fp_count"]
    assert "OK" in lines[5]


def test_analyze_matches_library_values(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--m", "256", "--k", "6",
                           "--n", "30", "--t", "100")
    assert code == 0
    want = expected_fp_count(100, fp_prob_exact(FilterShape(256, 6, 30)))
    row = next(line for line in out.splitlines()
               if line.startswith("expected_fp_count"))
    assert row.split()[1] == f"{want:.6f}"


def test_analyze_empty_set_zeroes_everything(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--n", "0")
    assert code == 0
    for line in out.splitlines():
        assert line.split()[1] == "0.000000"


def test_analyze_flags_impossible_priors(capsys):
    # a saturated no-filter cannot cancel more than the yes stage admits
    code, out, _ = run_cli(capsys, "analyze", "--pr-r", "0.05")
    assert code == 0
    row = next(line for line in out.splitlines() if line.startswith("pr_E"))
    assert row.endswith("INCONSISTENT")
    assert "-" in row  # the negative value is reported, not clamped


def test_analyze_notes_geometry_mismatch(capsys):
    code, out, _ = run_cli(capsys, "analyze", "--m", "200")
    assert code == 0
    assert "differs from m = 200" in out.splitlines()[-1]
    code, out, _ = run_cli(capsys, "analyze")
    assert "differs" not in out


def test_analyze_rejects_bad_shape(capsys):
    code, out, err = run_cli(capsys, "analyze", "--m", "0")
    assert code == 1
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("flag", ["--m", "--k", "--q", "--k-prime", "--p"])
def test_analyze_names_the_zero_flag(capsys, flag):
    code, out, err = run_cli(capsys, "analyze", flag, "0")
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == (
        f"yesnobf analyze: error: argument {flag}: must be positive, got 0")


@pytest.mark.parametrize("flag", ["--n", "--t", "--r", "--no-filter-load"])
def test_analyze_names_a_negative_count_flag(capsys, flag):
    code, out, err = run_cli(capsys, "analyze", flag, "-1")
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == (
        f"yesnobf analyze: error: argument {flag}: must be >= 0, got -1")
    assert run_cli(capsys, "analyze", flag, "0")[0] == 0


@pytest.mark.parametrize("flag", ["--p", "--q", "--k", "--r", "--k-prime"])
@pytest.mark.parametrize("command", ["sweep", "topology"])
def test_geometry_flags_name_the_flag(capsys, command, flag):
    # a count of no-filters or of their hashes may be 0
    least = 0 if flag in ("--r", "--k-prime") else 1
    rest = ["--var", "k", "--range", "1:2"] if command == "sweep" else ["net.graphml"]
    code, out, err = run_cli(capsys, command, *rest, flag, str(least - 1))
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == (
        f"yesnobf {command}: error: argument {flag}: must be "
        f"{'positive' if least else '>= 0'}, got {least - 1}")


@pytest.mark.parametrize("value", ["2", "-0.5", "nan"])
@pytest.mark.parametrize("flag", ["--pr-s", "--pr-r"])
def test_analyze_names_a_prior_flag_outside_the_unit_interval(capsys, flag, value):
    code, out, err = run_cli(capsys, "analyze", flag, value)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == (
        f"yesnobf analyze: error: argument {flag}: must be in [0, 1], "
        f"got {float(value)}")
    assert run_cli(capsys, "analyze", flag, "0")[0] == 0


def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys)[0] == 1
    assert run_cli(capsys, "frobnicate")[0] == 1
    assert run_cli(capsys, "sweep", "--var", "k")[0] == 1  # missing --range


def _sweep_args(*extra):
    return ["sweep", "--var", "k", "--range", "2:4", "--trials", "20",
            "--seed", "5", *SMALL_GEOMETRY, *extra]


def test_sweep_csv_to_stdout(capsys):
    code, out, err = run_cli(capsys, *_sweep_args())
    assert code == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out)))
    assert tuple(rows[0]) == CSV_HEADER
    assert [row[1] for row in rows[1:]] == ["2", "3", "4"]


def test_sweep_deterministic_across_runs(capsys):
    _, first, _ = run_cli(capsys, *_sweep_args())
    _, second, _ = run_cli(capsys, *_sweep_args())
    assert first == second


def test_sweep_output_file_matches_stdout(capsys, tmp_path):
    _, out, _ = run_cli(capsys, *_sweep_args())
    target = tmp_path / "sweep.csv"
    code, silent, _ = run_cli(capsys, *_sweep_args("--output", str(target)))
    assert code == 0 and silent == ""
    assert target.read_text() == out


def test_sweep_var_names_which_length_stays_fixed(capsys):
    for swept in ("r_fixed_m", "r_fixed_p"):
        code, out, _ = run_cli(capsys, "sweep", "--var", swept, "--range", "0:1",
                               "--trials", "5", *SMALL_GEOMETRY)
        assert code == 0
        assert out.splitlines()[1].startswith(f"{swept},0,")


def test_sweep_takes_only_the_swept_names(capsys):
    # no r alias and no --mode: "mode" means only the hash mode
    code, _, err = run_cli(capsys, "sweep", "--var", "r", "--range", "0:1",
                           "--trials", "5")
    assert code == 1
    assert "invalid choice: 'r'" in err
    code, _, err = run_cli(capsys, *_sweep_args("--mode", "fixed_p"))
    assert code == 1
    assert "--mode" in err


def test_sweep_var_choices_are_the_swept_names():
    subcommands = next(a for a in build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    var = next(a for a in subcommands.choices["sweep"]._actions if a.dest == "var")
    assert tuple(var.choices) == SWEPT_CHOICES


def test_sweep_and_topology_defaults_are_the_library_defaults():
    args = build_parser().parse_args(["sweep", "--var", "k", "--range", "0:1"])
    config = SweepConfig("k", 0, 1)
    for field in dataclasses.fields(SweepConfig):
        if field.name not in ("swept", "start", "stop", "step", "mode"):
            assert getattr(args, field.name) == getattr(config, field.name), field
    assert _HASH_MODES[args.hash_mode] == config.mode

    args = build_parser().parse_args(["topology", "net.graphml"])
    assert YesNoParams(args.p, args.q, args.r, args.k, args.k_prime) == DEFAULT_PARAMS
    assert args.k_bf == DEFAULT_K_BF
    assert args.allocations == DEFAULT_ALLOCATIONS
    run = inspect.signature(run_topology_experiment).parameters
    assert args.seed == run["seed"].default


@pytest.mark.parametrize("bad_range", ["7", "1:2:3:4", "a:b", "4:2"])
def test_sweep_rejects_malformed_ranges(capsys, bad_range):
    code, _, err = run_cli(capsys, "sweep", "--var", "k",
                           "--range", bad_range, "--trials", "5")
    assert code == 1
    assert "error" in err


def test_sweep_range_may_start_negative_without_equals(capsys):
    spaced = run_cli(capsys, "sweep", "--var", "n", "--range", "-1:12:4", "--trials", "5")
    joined = run_cli(capsys, "sweep", "--var", "n", "--range=-1:12:4", "--trials", "5")
    assert spaced == joined
    assert spaced[0] == 0
    assert "n must be >= 0, got -1" in spaced[1]


def test_sweep_reports_impossible_points_in_csv(capsys):
    # at fixed m=56, q=8: r=6 leaves p=q and r=7 leaves p=0
    args = ["sweep", "--var", "r_fixed_m", "--range", "5:7", "--trials", "5",
            *SMALL_GEOMETRY]
    code, out, err = run_cli(capsys, *args)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][-1] == "error"
    assert rows[1][-1] == ""
    assert rows[2][-1] != "" and rows[3][-1] != ""


def _write_toy_graphs(tmp_path):
    ring = Graph(edges=[(f"v{i}", f"v{(i + 1) % 8}") for i in range(8)])
    chain = Graph(edges=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"),
                         ("e", "f"), ("b", "x"), ("c", "y"), ("d", "z")])
    ring_file = tmp_path / "ring8.edgelist"
    chain_file = tmp_path / "chain.edgelist"
    write_edgelist(ring, ring_file)
    write_edgelist(chain, chain_file)
    return ring_file, chain_file


def _topology_args(*files, **kw):
    allocations = kw.pop("allocations", "30")
    return ["topology", *map(str, files), "--allocations", allocations,
            "--seed", "3", *SMALL_GEOMETRY[:10]]  # geometry only, no --n/--t


def test_topology_both_csvs_to_stdout(capsys, tmp_path):
    ring_file, chain_file = _write_toy_graphs(tmp_path)
    code, out, err = run_cli(capsys, *_topology_args(ring_file, chain_file))
    assert code == 0 and err == ""
    per_topology, aggregate = out.split("\n\n", 1)
    top_rows = list(csv.reader(io.StringIO(per_topology)))
    assert tuple(top_rows[0]) == TOPOLOGY_CSV_HEADER
    assert [row[0] for row in top_rows[1:]] == ["ring8", "chain"]
    agg_rows = list(csv.reader(io.StringIO(aggregate)))
    assert tuple(agg_rows[0]) == AGGREGATE_CSV_HEADER
    assert len(agg_rows) == 1 + 2  # lengths 4 and 5


def test_topology_quotes_names_that_need_it(capsys, tmp_path):
    ring_file, chain_file = _write_toy_graphs(tmp_path)
    odd_file = tmp_path / 'lab,north "a".edgelist'
    odd_file.write_text(ring_file.read_text())
    code, out, err = run_cli(capsys, *_topology_args(odd_file, chain_file))
    assert code == 0 and err == ""
    per_topology, _ = out.split("\n\n", 1)
    rows = list(csv.reader(io.StringIO(per_topology)))
    assert [len(row) for row in rows] == [6, 6, 6]
    assert [row[0] for row in rows[1:]] == ['lab,north "a"', "chain"]
    assert per_topology.splitlines()[2].startswith("chain,")


def test_topology_deterministic(capsys, tmp_path):
    files = _write_toy_graphs(tmp_path)
    _, first, _ = run_cli(capsys, *_topology_args(*files))
    _, second, _ = run_cli(capsys, *_topology_args(*files))
    assert first == second


def test_topology_writes_files(capsys, tmp_path):
    files = _write_toy_graphs(tmp_path)
    per_file = tmp_path / "per.csv"
    agg_file = tmp_path / "agg.csv"
    code, out, _ = run_cli(capsys, *_topology_args(*files), "--output",
                           str(per_file), "--aggregate-output", str(agg_file))
    assert code == 0 and out == ""
    assert per_file.read_text().startswith(",".join(TOPOLOGY_CSV_HEADER))
    assert agg_file.read_text().startswith(",".join(AGGREGATE_CSV_HEADER))


def test_topology_path_override(capsys, tmp_path):
    triangle = tmp_path / "triangle.edgelist"
    write_edgelist(Graph(edges=[("a", "b"), ("b", "c"), ("a", "c")]), triangle)
    code, out, _ = run_cli(capsys, *_topology_args(triangle), "--path", "a,b")
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[:3] == ["triangle", "1", "3"]

    code, out, _ = run_cli(capsys, *_topology_args(triangle), "--path", "a,b",
                           "--exclude-reverse")
    assert out.splitlines()[1].split(",")[:3] == ["triangle", "1", "2"]


def test_topology_continues_past_bad_files(capsys, tmp_path):
    ring_file, _ = _write_toy_graphs(tmp_path)
    broken = tmp_path / "broken.edgelist"
    broken.write_text("only-one-token\n")
    code, out, err = run_cli(capsys, *_topology_args(
        broken, ring_file, tmp_path / "missing.edgelist"))
    assert code == 0
    assert out.splitlines()[1].startswith("ring8,")
    assert "broken.edgelist:1" in err
    assert "missing.edgelist" in err


def test_topology_fails_when_nothing_loads(capsys, tmp_path):
    broken = tmp_path / "broken.edgelist"
    broken.write_text("only-one-token\n")
    code, out, err = run_cli(capsys, *_topology_args(broken))
    assert code == 2
    assert "no topology produced a result" in err


@pytest.mark.parametrize("flag", ["--k-bf", "--allocations"])
def test_topology_names_a_non_positive_flag_before_reading_files(capsys, tmp_path,
                                                                 flag):
    files = _write_toy_graphs(tmp_path)
    code, out, err = run_cli(capsys, *_topology_args(*files), flag, "0")
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == (
        f"yesnobf topology: error: argument {flag}: must be positive, got 0")
    assert not any(line.startswith("error:") for line in err.splitlines())


def test_sweep_names_a_non_positive_k_bf(capsys):
    code, out, err = run_cli(capsys, *_sweep_args("--k-bf", "0"))
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == (
        "yesnobf sweep: error: argument --k-bf: must be positive, got 0")


@pytest.mark.parametrize("flag, low", [("--trials", 1), ("--n", 0), ("--t", 0)])
def test_sweep_names_a_count_flag_below_its_bound(capsys, flag, low):
    bound = "positive" if low else ">= 0"
    code, out, err = run_cli(capsys, *_sweep_args(flag, str(low - 1)))
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == (
        f"yesnobf sweep: error: argument {flag}: must be {bound}, got {low - 1}")
    assert run_cli(capsys, *_sweep_args(flag, str(low)))[0] == 0


@pytest.mark.parametrize("step", ["0", "-2"])
def test_sweep_names_the_range_for_a_step_below_one(capsys, step):
    code, out, err = run_cli(capsys, "sweep", "--var", "k",
                             "--range", f"2:4:{step}", "--trials", "5")
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == (
        f"yesnobf sweep: error: argument --range: step must be >= 1, got {step}")


@pytest.mark.parametrize("flag, message", [
    ("--q", "q (200) must be smaller than p (160)"),
    ("--k-prime", "k_prime must be >= 1 when there are no-filters"),
])
def test_sweep_fails_when_no_point_can_run(capsys, flag, message):
    # --q 0 fails as it is parsed, so --q takes a value only YesNoParams refuses
    value = "200" if flag == "--q" else "0"
    code, out, err = run_cli(capsys, "sweep", "--var", "k", "--range", "1:2",
                             "--trials", "5", flag, value)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == f"yesnobf: error: {message}"


@pytest.mark.parametrize("flag, message", [
    ("--p", f"range_size must be below 2**64, got {2**64 + 1}"),
    ("--k", f"count must be below 2**64, got {2**64}"),
], ids=["--p", "--k"])
def test_sweep_names_a_hash_shape_past_64_bits(capsys, flag, message):
    value = str(2**64 + 1 if flag == "--p" else 2**64)
    code, out, err = run_cli(capsys, "sweep", "--var", "n", "--range", "1:1",
                             "--trials", "1", flag, value)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == f"yesnobf: error: {message}"


@pytest.mark.parametrize("flags, message", [
    (["--p", str(2**64 + 1)], f"range_size must be below 2**64, got {2**64 + 1}"),
    (["--k-bf", str(2**64 + 1)], f"count must be below 2**64, got {2**64 + 1}"),
    # m = p + q*r = 2**64 with each flag below it
    (["--p", str(2**63), "--q", str(2**62), "--r", "2"],
     f"range_size must be below 2**64, got {2**64}"),
], ids=["--p", "--k-bf", "m"])
def test_topology_names_a_hash_shape_past_64_bits_as_a_usage_error(
        capsys, tmp_path, flags, message):
    ring_file, _ = _write_toy_graphs(tmp_path)
    code, out, err = run_cli(capsys, *_topology_args(ring_file), *flags)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"yesnobf: error: {message}"]


HUGE = str(10**400)


@pytest.mark.parametrize("argv", [
    *(["analyze", flag, HUGE] for flag in ("--m", "--k", "--n", "--t", "--q",
                                           "--k-prime", "--no-filter-load")),
    ["sweep", "--var", "n", "--range", "1:1", "--trials", "1", "--t", str(10**30)],
    ["sweep", "--var", "n", "--range", f"{HUGE}:{HUGE}", "--trials", "1"],
], ids=lambda argv: " ".join(a if len(a) < 20 else f"<{len(a)} chars>"
                             for a in argv))
def test_a_number_too_large_to_compute_with_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("yesnobf: error: ")


# Exit codes over edge values of every numeric flag. Hash counts stay at
# most 64 and filter lengths and counts at most 2**16, so no example
# compiles huge readers or allocates huge masks; trials and allocations
# stay at most 2.
EDGES = (-1, 0, 1, 2, 2**64 - 1, 2**64 + 1, 10**400)


def _edge(cap=None):
    values = EDGES if cap is None else [v for v in EDGES if v <= cap] + [cap]
    return st.sampled_from(values).map(str)


@st.composite
def _flags(draw, **strategies):
    """argv pieces: up to three of the flags, each given its drawn value,
    so that a good share of examples run to the end."""
    chosen = draw(st.lists(st.sampled_from(sorted(strategies)), max_size=3,
                           unique=True))
    return [a for flag in chosen for a in (flag, draw(strategies[flag]))]


_HASHES, _LENGTHS = _edge(64), _edge(2**16)
_PRIORS = st.sampled_from(["-1", "0", "0.5", "1", "2", "nan", "inf"])
_GEOMETRY = {"--p": _LENGTHS, "--q": _LENGTHS, "--r": _LENGTHS,
             "--k": _HASHES, "--k-prime": _HASHES}
_SWEPT_CAPS = {"k": 64, "k_prime": 64, "n": None, "q": 2**16,
               "r_fixed_p": 2**16, "r_fixed_m": 2**16}


def _exit_code(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


_property = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_property
@given(_flags(**{"--m": _edge(), "--k": _edge(), "--n": _edge(), "--t": _edge(),
                 "--p": _edge(), "--q": _edge(), "--r": _edge(),
                 "--k-prime": _edge(), "--no-filter-load": _edge(),
                 "--pr-s": _PRIORS, "--pr-r": _PRIORS}))
@example(["--m", HUGE])
def test_analyze_exits_zero_or_one(flags):
    assert _exit_code(["analyze", *flags])[0] in (0, 1)


@st.composite
def _sweeps(draw):
    var = draw(st.sampled_from(SWEPT_CHOICES))
    value = draw(_edge(_SWEPT_CAPS[var]))
    flags = draw(_flags(**_GEOMETRY, **{
        "--seed": _edge(), "--n": _edge(), "--t": _edge(), "--k-bf": _HASHES,
        "--hash-mode": st.sampled_from(sorted(_HASH_MODES))}))
    guard = draw(st.sampled_from([[], ["--allow-false-negatives"]]))
    return ["--var", var, "--range", f"{value}:{value}",
            "--trials", draw(_edge(2)), *flags, *guard]


@_property
@given(_sweeps())
@example(["--var", "n", "--range", "1:1", "--trials", "1", "--t", str(10**30)])
@example(["--var", "n", "--range", f"{HUGE}:{HUGE}", "--trials", "1"])
def test_sweep_exits_zero_or_one(argv):
    assert _exit_code(["sweep", *argv])[0] in (0, 1)


@pytest.fixture(scope="module")
def tiny_graph_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "tiny.edgelist"
    write_edgelist(Graph(edges=[("a", "b"), ("b", "c"), ("c", "d"), ("b", "x")]), path)
    return str(path)


@_property
@given(allocations=_edge(2), exclude_reverse=st.booleans(),
       flags=_flags(**_GEOMETRY, **{"--seed": _edge(), "--k-bf": _HASHES}))
def test_topology_exits_two_only_naming_a_file(tiny_graph_file, allocations,
                                               exclude_reverse, flags):
    code, err = _exit_code(["topology", tiny_graph_file, "--allocations", allocations,
                            *flags, *["--exclude-reverse"] * exclude_reverse])
    assert code != 2 or tiny_graph_file in err


@_property
@given(_edge())
def test_demo_exits_zero_at_any_seed(seed):
    assert _exit_code(["demo", "--seed", seed])[0] == 0


def test_readme_sweep_example_prints_its_csv(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n$ yesnobf sweep ", 1)[1].split("\n```", 1)[0]
    command, want = block.split("\n", 1)
    code, out, err = run_cli(capsys, "sweep", *shlex.split(command))
    assert code == 0 and err == ""
    assert out == want + "\n"


def test_demo_tells_the_whole_story(capsys):
    code, out, err = run_cli(capsys, "demo")
    assert code == 0 and err == ""
    assert "negative_no_stage" in out
    assert "round-trip intact: True" in out
    assert "unmitigated: 0" in out


def test_console_script_is_installed():
    proc = subprocess.run([sys.executable, "-m", "yesnobf.cli", "demo"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "two-stage filter" in proc.stdout
