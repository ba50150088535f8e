"""Pinned digests of the sweep and topology CSVs, of saturated builds and
of serialized filters.

The CSV digests were taken from the code as it stood before the trial
kernel was shared, the guard-off sweep's before the batched pass took
its no-part rule from Sketcher, the saturated-build digest from the
plain first-fit loop before refused no-bits were cached, and the
bit-string digests from the filter as it stood when its parts were
bit-vector objects. So any change to hashing, construction,
classification, CSV formatting or the bit-string layout shows here. A
change that alters these outputs on purpose updates the digest and says
why in CHANGES.md.
"""

import hashlib
import random

import pytest

from yesnobf.bitcore import MODE_DOUBLE, MODE_RANDOM
from yesnobf.corpus import default_corpus
from yesnobf.simulate import SweepConfig, sweep
from yesnobf.topology import (
    PathExperiment,
    run_topology_experiment,
    topology_results_to_csv,
)
from yesnobf.yesno import Sketcher, YesNoFilter, YesNoParams

SWEEP_DIGESTS = {
    ("r_fixed_m", MODE_RANDOM):
        "c9a4b0680b60df0e8624584f1fe29aef2d79699ac7d28b7c330354954e4679f7",
    ("r_fixed_m", MODE_DOUBLE):
        "52e089f19ee7ead2d3375658acd7bda4a3ccd0891511c519bafd200ac2900d6c",
    ("k", MODE_RANDOM):
        "8020c65f0551ce4efcb392e485c3857faac1dee136706d97be24e4a888f1b6ed",
    ("k", MODE_DOUBLE):
        "b6c778f459e47f5f2af6e5834887ad81a0ff611d375b4655be0e92f04a5398ad",
    # k' 8 -> 9 takes the no family from one digest block to two
    ("k_prime", MODE_RANDOM):
        "d85ed0162b4f29c8efbbe14063cb72dfa5aa84786ef1bd8ee88ba3e11403f8d4",
    ("k_prime", MODE_DOUBLE):
        "e93e14c52d1451150c21548a2a0470da535217d7a2c138e46c20b23269f1debe",
}

# sweep q 8..48 step 8 with the member guard off, so the CSV carries the
# mean_fn column
GUARD_OFF_DIGESTS = {
    MODE_RANDOM: "555422f7ecc3f510784bee822786b913dc31418ab2c0bca624409506bf45ea15",
    MODE_DOUBLE: "26f1991342c10133509d6ea05c09d0428ff7bfbce57de0473cae0ac4d93c65d9",
}

TOPOLOGY_DIGESTS = {
    MODE_RANDOM: "5a6ae78dc4bf13aa97cfa0b98b486622aa3e07e3268c1cddef6adc477d6b1e06",
    MODE_DOUBLE: "0b143dfab76d0cc57607739f035f64cbfbaaa017249b89ec9f613ac895e03c23",
}

SATURATED_DIGEST = "dac0356a9a2944d739ddc8dccfc5d5951ab2178b6c4b84eef551009d0f1cb612"

# (geometry, seed, mode) -> digest of to_bitstring(). A round trip alone
# would pass a layout that reversed the bit order on both sides.
DEMO_BUILD = (YesNoParams.of(p=20, q=8, r=2, k=3, k_prime=2),
              ["frog", "newt", "toad", "axolotl", "olm", "siren"],
              ["heron", "stork", "crane", "egret", "ibis", "spoonbill",
               "pelican", "shoebill", "bittern", "flamingo", "avocet", "godwit"])
ROUND_TRIP_BUILD = (YesNoParams.of(p=40, q=8, r=2, k=3, k_prime=3),
                    [f"name-{i}" for i in range(12)],
                    [f"probe-{i}" for i in range(60)])
BITSTRING_DIGESTS = {
    ("demo", 0, MODE_RANDOM):
        "d2dd3634ce5c23ddb661f42338dea81821dd14f90f8e823ecc6ea3ca7fc48406",
    ("demo", 7, MODE_RANDOM):
        "078e4effd6dd23d984fecd7aa27f3e9ab16dbd923f22e81a9f559ae2e113918f",
    ("round_trip", 3, MODE_RANDOM):
        "d99a233ed098da5eb78dffbd750d055de0cf4a5f4d6c6522bdd43dbfa07fe6d8",
    ("round_trip", 3, MODE_DOUBLE):
        "56ebfe4b856dcd1f629337c5542a91331dd93a657b85964222bb33ec8ba1ed21",
}

SWEEP_RANGES = {"r_fixed_m": (0, 6), "k": (1, 10), "k_prime": (1, 10)}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("swept, mode", sorted(SWEEP_DIGESTS))
def test_sweep_csv_is_pinned(swept, mode):
    start, stop = SWEEP_RANGES[swept]
    config = SweepConfig(swept, start, stop, trials=20, seed=11, mode=mode)
    assert _digest(sweep(config).to_csv()) == SWEEP_DIGESTS[swept, mode]


@pytest.mark.parametrize("mode", sorted(GUARD_OFF_DIGESTS))
def test_guard_off_sweep_csv_is_pinned(mode):
    config = SweepConfig("q", 8, 48, step=8, trials=20, seed=11, mode=mode,
                         allow_false_negatives=True)
    text = sweep(config).to_csv()
    assert text.partition("\n")[0].endswith(",mean_fn")
    assert _digest(text) == GUARD_OFF_DIGESTS[mode]


@pytest.mark.parametrize("mode", sorted(TOPOLOGY_DIGESTS))
def test_topology_csv_is_pinned(mode):
    results = [run_topology_experiment(
                   PathExperiment.from_graph(name, graph, allocations=10),
                   seed=13, mode=mode)
               for name, graph in default_corpus()]
    assert _digest(topology_results_to_csv(results)) == TOPOLOGY_DIGESTS[mode]


def test_saturated_builds_are_pinned():
    # the serve benchmark's geometry: 60 members against a 2000-flow window
    # that slides 100 flows per build fill the eight 32-bit no-filters, so
    # the member guard refuses most placements
    params = YesNoParams.of(p=256, q=32, r=8, k=4, k_prime=4)
    sk = Sketcher(params, seed=17)
    routes = [sk.sketch(f"route-{i}") for i in range(600)]
    flows = [sk.sketch(f"flow-{i}") for i in range(4000)]
    rng = random.Random(17)
    rows = []
    for b in range(20):
        built, report = YesNoFilter.build_from_sketches(
            params, rng.sample(routes, 60), flows[b * 100:b * 100 + 2000], seed=17)
        rows.append((report.f_count, report.r_count, report.per_no_filter_load,
                     built.yes_filter, tuple(built.no_filters)))
    assert all(f_count > r_count for f_count, r_count, *_ in rows)  # saturated
    assert _digest(repr(rows)) == SATURATED_DIGEST


@pytest.mark.parametrize("geometry, seed, mode", sorted(BITSTRING_DIGESTS))
def test_bitstrings_are_pinned(geometry, seed, mode):
    params, members, candidates = {"demo": DEMO_BUILD,
                                   "round_trip": ROUND_TRIP_BUILD}[geometry]
    built, _ = YesNoFilter.build(params, members, candidates, seed=seed, mode=mode)
    text = built.to_bitstring()
    assert _digest(text) == BITSTRING_DIGESTS[geometry, seed, mode]
    assert YesNoFilter.from_bitstring(params, text, seed=seed, mode=mode) == built
