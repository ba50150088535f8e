"""Pinned digests of the sweep and topology CSVs and of saturated builds.

The CSV digests were taken from the code as it stood before the trial
kernel was shared, and the saturated-build digest from the plain first-fit
loop before refused no-bits were cached, so any change to hashing,
construction, classification or CSV formatting shows here. A change that
alters these outputs on purpose updates the digest and says why in
CHANGES.md.
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

TOPOLOGY_DIGESTS = {
    MODE_RANDOM: "5a6ae78dc4bf13aa97cfa0b98b486622aa3e07e3268c1cddef6adc477d6b1e06",
    MODE_DOUBLE: "0b143dfab76d0cc57607739f035f64cbfbaaa017249b89ec9f613ac895e03c23",
}

SATURATED_DIGEST = "dac0356a9a2944d739ddc8dccfc5d5951ab2178b6c4b84eef551009d0f1cb612"

SWEEP_RANGES = {"r_fixed_m": (0, 6), "k": (1, 10), "k_prime": (1, 10)}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("swept, mode", sorted(SWEEP_DIGESTS))
def test_sweep_csv_is_pinned(swept, mode):
    start, stop = SWEEP_RANGES[swept]
    config = SweepConfig(swept, start, stop, trials=20, seed=11, mode=mode)
    assert _digest(sweep(config).to_csv()) == SWEEP_DIGESTS[swept, mode]


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
                     built.yes_filter.as_int(),
                     tuple(nf.as_int() for nf in built.no_filters)))
    assert all(f_count > r_count for f_count, r_count, *_ in rows)  # saturated
    assert _digest(repr(rows)) == SATURATED_DIGEST
