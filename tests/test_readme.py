"""The README holds to the code: its examples run, and its prose names no
internals and quotes no timings or sizes."""

import re
import shlex
from pathlib import Path

import pytest

from yesnobf.cli import build_parser

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
# a number with a unit of time or size; "u64s" and "2^64" are not numbers
TIMING_OR_SIZE = re.compile(
    r"(?<![\w.^])\d+(?:\.\d+)?\s?(?:ns|[µμu]s|ms|s|KB|MB|%)(?!\w)")


def section(title: str) -> str:
    """The text under the '## title' heading, up to the next heading."""
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def command_lines() -> list[str]:
    return [line.removeprefix("$ ")
            for _, body in FENCED.findall(section("Command line"))
            for line in body.splitlines()
            if line.startswith(("yesnobf ", "$ yesnobf "))]


def test_quick_start_runs_and_its_answers_hold(capsys):
    (code,) = [body for lang, body in FENCED.findall(section("Quick start"))
               if lang == "python"]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out
    # every line commented "# True" answers True
    claimed = [line.split("#", 1)[0] for line in code.splitlines()
               if line.partition("#")[2].strip().startswith("True")]
    assert claimed and all(eval(expr, namespace) is True for expr in claimed)
    assert 'filt.contains("route-3")' in "".join(claimed)
    # the report adds up: found = recorded + unmitigated
    report = namespace["report"]
    assert report.f_count == report.r_count + report.unmitigated
    assert sum(report.per_no_filter_load) == report.r_count
    assert str(report) in printed
    assert namespace["params"].m == 256


@pytest.mark.parametrize("line", command_lines(), ids=lambda line: line.split()[1])
def test_command_line_examples_parse(line):
    try:
        build_parser().parse_args(shlex.split(line, comments=True)[1:])
    except SystemExit:
        pytest.fail(f"README command does not parse: {line}")


def test_command_line_section_shows_every_subcommand():
    assert {line.split()[1] for line in command_lines()} == {
        "analyze", "sweep", "topology", "demo"}


def test_prose_names_no_private_name():
    # fenced blocks go first: a backtick inside one would shift the pairing
    spans = re.findall(r"`([^`]*)`", FENCED.sub("", README))
    assert spans
    assert [span for span in spans if re.search(r"(?<!\w)_\w", span)] == []


def test_states_no_timing_or_size():
    assert TIMING_OR_SIZE.findall(README) == []
