"""Command-line front end.

Subcommands: analyze (closed-form table), sweep (Monte-Carlo CSV),
topology (experiment CSVs over graph files), demo (narrated small build).
Exit codes: 0 success, 1 usage, 2 input data failure. Floats print with 6
decimals and outputs are byte-identical across reruns of one command.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import analysis, corpus, simulate, topology
from .bitcore import MODE_DOUBLE, MODE_RANDOM, HashFamily
from .yesno import Sketcher, YesNoFilter, YesNoParams

_HASH_MODES = {"random": MODE_RANDOM, "double": MODE_DOUBLE}


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage; this CLI uses 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _write_output(text: str, destination: str | None) -> None:
    if destination in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")


def _add_geometry_flags(parser, base):
    """--p, --q, --r, --k and --k-prime, defaulting to base's geometry. A
    value out of its own range names its flag; YesNoParams still refuses
    bad combinations, such as q >= p."""
    positive, nonnegative = _number_in(int, 1), _number_in(int, 0)
    parser.add_argument("--p", type=positive, default=base.p, help="yes-filter bits")
    parser.add_argument("--q", type=positive, default=base.q, help="bits per no-filter")
    parser.add_argument("--r", type=nonnegative, default=base.r,
                        help="number of no-filters")
    parser.add_argument("--k", type=positive, default=base.k, help="yes-filter hash count")
    parser.add_argument("--k-prime", type=nonnegative, default=base.k_prime,
                        help="no-filter hash count")


def _number_in(kind, low, high=math.inf):
    """An argparse type refusing numbers outside [low, high], NaN among
    them, in an error naming the flag."""
    bound = (f"in [{low}, {high}]" if high < math.inf
             else "positive" if low == 1 else f">= {low}")

    def parse(text: str):
        value = kind(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    # argparse reports text that kind refuses as an invalid __name__ value
    parse.__name__ = kind.__name__
    return parse


def _parse_range(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"range must be LO:HI or LO:HI:STEP, got {text!r}")
    try:
        numbers = [int(part) for part in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range parts must be integers, got {text!r}") from None
    start, stop, step = numbers if len(numbers) == 3 else (*numbers, 1)
    if step < 1:
        raise argparse.ArgumentTypeError(f"step must be >= 1, got {step}")
    return start, stop, step


def _cmd_analyze(args) -> int:
    shape = analysis.FilterShape(args.m, args.k, args.n)
    f_s_exact = analysis.fp_prob_exact(shape)
    f_s_approx = analysis.fp_prob_approx(shape)
    load = args.n if args.no_filter_load is None else args.no_filter_load
    f_r = analysis.fp_prob_approx(analysis.FilterShape(args.q, args.k_prime, load))
    pr_e = analysis.pr_E(args.pr_s, f_s_exact, f_r, args.pr_r)
    rows = [
        ("f_s_exact", _fmt(f_s_exact), ""),
        ("f_s_approx", _fmt(f_s_approx), ""),
        ("pr_positive", _fmt(analysis.pr_positive(args.pr_s, f_s_exact)), ""),
        ("pr_false_positive", _fmt(analysis.pr_false_positive(args.pr_s, f_s_exact)), ""),
        ("f_r_approx", _fmt(f_r), ""),
        ("pr_E", _fmt(pr_e.value), "OK" if pr_e.consistent else "INCONSISTENT"),
        ("f_E_single_no_filter",
         _fmt(analysis.f_E_single_no_filter(args.p, args.q, args.k, args.k_prime,
                                            args.n, args.no_filter_load)), ""),
        ("expected_fp_count", _fmt(analysis.expected_fp_count(args.t, f_s_exact)), ""),
    ]
    lines = [f"{name:<22}{value}" + (f"  {note}" if note else "")
             for name, value, note in rows]
    if args.p + args.q * args.r != args.m:
        lines.append(f"note: p + q*r = {args.p + args.q * args.r} "
                     f"differs from m = {args.m}; two-stage rows use p and q as given")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_sweep(args) -> int:
    config = simulate.SweepConfig(
        args.var, *args.range, p=args.p, q=args.q, r=args.r, k=args.k,
        k_prime=args.k_prime, n=args.n, t=args.t, trials=args.trials,
        seed=args.seed, k_bf=args.k_bf, mode=_HASH_MODES[args.hash_mode],
        allow_false_negatives=args.allow_false_negatives)
    result = simulate.sweep(config)
    if all(pt.error is not None for pt in result.points):
        raise ValueError(result.points[0].error)
    _write_output(result.to_csv(), args.output)
    return 0


def _cmd_topology(args) -> int:
    params = YesNoParams.of(args.p, args.q, args.r, args.k, args.k_prime)
    # a hash shape the key cannot hold is the flags' fault, not a file's:
    # its ValueError leaves before any file is read
    Sketcher(params)
    HashFamily(args.k_bf, params.m)
    fmt = None if args.format == "auto" else args.format
    path_override = args.path.split(",") if args.path else None
    results = []
    for file_name in args.files:
        try:
            graph = topology.load_graph(file_name, fmt)
            experiment = topology.PathExperiment.from_graph(
                Path(file_name).stem, graph, path=path_override,
                include_reverse=not args.exclude_reverse, params=params,
                k_bf=args.k_bf, allocations=args.allocations)
            results.append(topology.run_topology_experiment(experiment, args.seed))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
    if not results:
        print("error: no topology produced a result", file=sys.stderr)
        return 2
    aggregates, excluded = topology.aggregate_by_length(results)
    if excluded:
        print(f"note: {excluded} topologies with empty T excluded from aggregates",
              file=sys.stderr)
    per_topology = topology.topology_results_to_csv(results)
    aggregate = topology.aggregates_to_csv(aggregates)
    if args.output in (None, "-") and args.aggregate_output in (None, "-"):
        sys.stdout.write(per_topology + "\n" + aggregate)
    else:
        _write_output(per_topology, args.output)
        _write_output(aggregate, args.aggregate_output)
    return 0


def _cmd_demo(args) -> int:
    params = YesNoParams.of(p=20, q=8, r=2, k=3, k_prime=2)
    members = ["frog", "newt", "toad", "axolotl", "olm", "siren"]
    birds = ["heron", "stork", "crane", "egret", "ibis", "spoonbill",
             "pelican", "shoebill", "bittern", "flamingo", "avocet", "godwit"]
    built, report = YesNoFilter.build(params, members, birds, seed=args.seed)
    print(f"two-stage filter: p={params.p} q={params.q} r={params.r} "
          f"k={params.k} k'={params.k_prime} (m={params.m} bits), seed={args.seed}")
    print(f"members stored: {len(members)}; queryable non-members: {len(birds)}")
    print(f"yes-stage false positives found: {report.f_count}; "
          f"recorded in no-filters: {report.r_count}; "
          f"unmitigated: {report.unmitigated}")
    print(f"no-filter loads: {list(report.per_no_filter_load)}")
    print("query outcomes:")
    for element in members + birds:
        print(f"  {element:<10} {built.query(element).value}")
    bits = built.to_bitstring()
    back = YesNoFilter.from_bitstring(params, bits, seed=args.seed, mode=MODE_RANDOM)
    round_trip = back == built
    print(f"serialized to {len(bits)} bits; round-trip intact: {round_trip}")
    shape = analysis.FilterShape(params.p, params.k, len(members))
    expected = analysis.expected_fp_count(len(birds), analysis.fp_prob_exact(shape))
    print(f"analytic yes-stage expectation over these queries: {_fmt(expected)}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="yesnobf",
                     description="Yes-no Bloom filters: analysis, simulation, "
                                 "and topology experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    positive, nonnegative = _number_in(int, 1), _number_in(int, 0)
    probability = _number_in(float, 0, 1)
    p_an = sub.add_parser("analyze", help="closed-form probabilities")
    p_an.add_argument("--m", type=positive, default=256, help="filter bits")
    p_an.add_argument("--k", type=positive, default=6, help="hash count")
    p_an.add_argument("--n", type=nonnegative, default=30, help="stored elements")
    p_an.add_argument("--t", type=nonnegative, default=100, help="queried non-members")
    p_an.add_argument("--p", type=positive, default=160,
                      help="yes-filter bits for the two-stage rows")
    p_an.add_argument("--q", type=positive, default=32, help="bits per no-filter")
    p_an.add_argument("--r", type=nonnegative, default=3, help="number of no-filters")
    p_an.add_argument("--k-prime", type=positive, default=5,
                      help="no-filter hash count")
    p_an.add_argument("--pr-s", type=probability, default=0.0, help="membership prior")
    p_an.add_argument("--pr-r", type=probability, default=0.0,
                      help="prior of being a recorded false positive")
    p_an.add_argument("--no-filter-load", type=nonnegative, default=None,
                      help="elements stored per no-filter (default n)")
    p_an.set_defaults(func=_cmd_analyze)

    p_sw = sub.add_parser("sweep", help="Monte-Carlo sweep to CSV")
    # swept, start and stop have no default; the rest are the sweep's
    base = simulate.SweepConfig(simulate.SWEPT_CHOICES[0], 0, 0)
    p_sw.add_argument("--var", required=True, choices=simulate.SWEPT_CHOICES)
    p_sw.add_argument("--range", required=True, type=_parse_range,
                      metavar="LO:HI[:STEP]", help="inclusive integer range")
    p_sw.add_argument("--trials", type=positive, default=base.trials)
    p_sw.add_argument("--seed", type=int, default=base.seed)
    _add_geometry_flags(p_sw, base)
    p_sw.add_argument("--n", type=nonnegative, default=base.n)
    p_sw.add_argument("--t", type=nonnegative, default=base.t)
    p_sw.add_argument("--k-bf", type=positive, default=base.k_bf,
                      help="hash count of the analytic m-length baseline "
                           "(sweeping k or n sets it per point)")
    p_sw.add_argument("--hash-mode", choices=sorted(_HASH_MODES), default="random")
    p_sw.add_argument("--allow-false-negatives", action="store_true")
    p_sw.add_argument("--output", default=None, metavar="FILE")
    p_sw.set_defaults(func=_cmd_sweep)

    p_tp = sub.add_parser("topology", help="experiments over topology files")
    p_tp.add_argument("files", nargs="+", help="graph files (.graphml or edge list)")
    p_tp.add_argument("--format", choices=["auto", "graphml", "edgelist"],
                      default="auto")
    p_tp.add_argument("--allocations", type=positive,
                      default=topology.DEFAULT_ALLOCATIONS)
    p_tp.add_argument("--seed", type=int, default=0)
    p_tp.add_argument("--path", default=None, metavar="A,B,C",
                      help="use this node path instead of the selected one")
    p_tp.add_argument("--exclude-reverse", action="store_true",
                      help="drop reverse-path links from the queryable set")
    _add_geometry_flags(p_tp, topology.DEFAULT_PARAMS)
    p_tp.add_argument("--k-bf", type=positive, default=topology.DEFAULT_K_BF,
                      help="hash count of the classic-BF comparison structure")
    p_tp.add_argument("--output", default=None, metavar="FILE",
                      help="per-topology CSV (default stdout)")
    p_tp.add_argument("--aggregate-output", default=None, metavar="FILE",
                      help="per-length aggregate CSV (default stdout)")
    p_tp.set_defaults(func=_cmd_topology)

    p_dm = sub.add_parser("demo", help="narrated small end-to-end build")
    p_dm.add_argument("--seed", type=int, default=0)
    p_dm.set_defaults(func=_cmd_demo)

    return parser


def _attach_range_value(argv: list[str]) -> list[str]:
    """argparse takes a value such as -1:12:4 for an option, so a --range
    followed by one is passed on as --range=-1:12:4."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--range" and token[:1] == "-" and token[1:2].isdigit():
            out[-1] = f"--range={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_range_value(
            sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (ValueError, OverflowError) as exc:  # a number too large is usage too
        print(f"yesnobf: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"yesnobf: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
