"""The workload generators: determinism, fixed class proportions, and
inputs that belong to the class they were drawn for.

    python -m pytest bench/tests
"""

import itertools
import math
from collections import Counter

import pytest

import workloads
from dirspaces import Verdict, is_vertical_translation, symbol
from dirspaces.compose import admissibility_certificate


def take(workload, seed, n_cycles=3):
    return list(itertools.islice(workloads.cycles(workload, seed), n_cycles))


def shape(cycle):
    """What the seed must not change: the class, size and measure of each slot."""
    return [(r["cls"], r.get("c0"), r.get("N"), r.get("alpha"), r.get("expect")) for r in cycle]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert take(workload, 11) == take(workload, 11)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_other_inputs_same_proportions(workload):
    a, b = take(workload, 11), take(workload, 12)
    assert a != b
    for ca, cb in zip(a, b):
        assert shape(ca) == shape(cb)
        assert Counter(r["cls"] for r in ca) == Counter(r["cls"] for r in cb)


EXPECTED_CERTIFICATE = {
    "translation": Verdict.CERTIFIED_YES,
    "dominated": Verdict.CERTIFIED_YES,
    "certified_c0_0": Verdict.CERTIFIED_YES,
    "isometry_defect": Verdict.CERTIFIED_YES,
    "refuted": Verdict.CERTIFIED_NO,
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_symbols_match_their_class(seed):
    for req in itertools.chain.from_iterable(take("classify", seed)):
        sym = symbol(req["c0"], {n: complex(re, im) for n, re, im in req["terms"]})
        assert admissibility_certificate(sym).verdict is EXPECTED_CERTIFICATE[req["cls"]], req
        assert (is_vertical_translation(sym) is not None) == (req["cls"] == "translation"), req


def test_norms_polynomials_have_no_zero_on_the_torus():
    for req in itertools.chain.from_iterable(take("norms", 5)):
        if "terms" in req:
            (_, re1, im1), *tail = req["terms"]
            assert math.hypot(re1, im1) > sum(math.hypot(re, im) for _, re, im in tail)


def test_cli_invalid_slots_expect_clean_errors():
    expect = {"bad_json": 2, "bad_measure_type": 2, "bad_alpha": 2, "divergent_kernel": 3}
    for req in take("cli_cold", 3, 1)[0]:
        assert req["expect"] == expect.get(req["cls"], 0)
