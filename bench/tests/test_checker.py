"""Tests of the benchmark's reference checker and input generators.

Run from the root of a checkout with ``python3 -m pytest bench/tests``; they
are outside the package's own test paths.
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(HERE, "..", "..", "src")]

import checker  # noqa: E402
import workloads  # noqa: E402
from unidisc import UnitaryOperator, build_protocol, required_runs  # noqa: E402
from unidisc.core import random_unitary  # noqa: E402
from unidisc.io import dumps_artifact, protocol_to_json  # noqa: E402


def _build(pair):
    dims = (pair.d, pair.d)
    return build_protocol(UnitaryOperator(pair.u, dims), UnitaryOperator(pair.v, dims),
                          seed=pair.build_seed)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(dumps_artifact(payload))
    return str(path)


def test_generator_matches_library_haar_sampler():
    for d, seed in ((2, 1), (4, 10001), (9, 12345)):
        assert np.array_equal(workloads.random_unitary(d, seed),
                              random_unitary(d, seed).matrix)


@pytest.mark.parametrize("box_uses", [1, 2, 3, 7, 40, 300])
def test_arc_unitary_sets_the_run_budget(box_uses):
    rng = np.random.default_rng(box_uses)
    w = workloads.arc_unitary(5, box_uses, rng)
    eye = np.eye(5, dtype=complex)
    assert checker.required_box_uses(eye, w) == box_uses
    n = required_runs(UnitaryOperator(eye, (5,)), UnitaryOperator(w, (5,)))
    assert n + 1 == box_uses


PAIRS = [workloads.ia_pair(3, 5, np.random.default_rng(1), "Alice"),
         workloads.ia_pair(2, 2, np.random.default_rng(2), "Alice"),
         workloads.ib_pair(3, np.random.default_rng(3), 0),
         workloads.ib_pair(2, np.random.default_rng(4), 1),
         workloads.ic_pair(4, np.random.default_rng(5)),
         workloads.acceptance_pair("IIA", 2, 0)]


@pytest.mark.parametrize("pair", PAIRS, ids=lambda p: f"{p.case}-d{p.d}")
def test_accepts_built_protocols(pair, tmp_path):
    proto = _build(pair)
    assert checker.check_protocol(proto, pair.u, pair.v, pair.factors) == []
    path = _write(tmp_path, "p.json", protocol_to_json(proto))
    assert checker.check_artifact(path, pair.u, pair.v) == []


def test_rejects_a_run_count_off_the_budget():
    pair = PAIRS[0]
    proto = _build(pair)
    a, a_prime = pair.factors
    wider = (a, a_prime @ a_prime)   # doubles the arc, so fewer runs suffice
    assert checker.required_box_uses(*wider) < proto.box_uses
    problems = checker.check_protocol(proto, pair.u, pair.v, wider)
    assert any("box uses" in p for p in problems)


def test_rejects_a_measurement_in_the_conjugate_basis():
    pair = PAIRS[0]
    proto = _build(pair)
    plan = proto.measurement
    problems = checker.check([(r.alice_op, r.bob_op, r.box) for r in proto.runs],
                             proto.input_alice.amplitudes, proto.input_bob.amplitudes,
                             plan.party, plan.basis.conj(), plan.decision,
                             pair.u, pair.v)
    assert any("decides right" in p for p in problems)


@pytest.mark.parametrize("kind", workloads.CORRUPTIONS)
@pytest.mark.parametrize("base", range(2))
def test_rejects_each_replay_corruption(kind, base, tmp_path):
    pair = workloads.corruption_bases()[base]
    payload = protocol_to_json(_build(pair))
    path = _write(tmp_path, "p.json", workloads.corrupt(payload, kind))
    problems = checker.check_artifact(path, pair.u, pair.v)
    assert problems, kind
    assert checker.check_artifact(_write(tmp_path, "ok.json", payload),
                                  pair.u, pair.v) == []
