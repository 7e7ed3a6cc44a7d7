"""Tests for independent protocol simulation and certification."""

import numpy as np
import pytest

from unidisc.core import UnitaryOperator, basis_state, identity_operator, \
    state
from unidisc.engine import build_protocol
from unidisc.locality import swap_operator
from unidisc.protocol import (ALICE, BOB, FORWARD, LoccProtocol,
                              MeasurementPlan, Run)
from unidisc.verifier import outcome_probabilities, simulate, verify

from conftest import SZ, haar_two_qudit, product_operator


def _plan(dim=2):
    return MeasurementPlan(ALICE, np.eye(dim, dtype=complex))


def _bare(runs, alice, bob, label="IA"):
    return LoccProtocol(label, runs, alice, bob, _plan(alice.dim))


def test_simulate_empty_protocol_returns_input(eye4):
    proto = _bare((), basis_state(0, (2,)), basis_state(1, (2,)))
    out = simulate(proto, eye4)
    np.testing.assert_allclose(out.amplitudes,
                               basis_state(1, (2, 2)).amplitudes, atol=1e-15)


def test_simulate_single_swap_run(swap2):
    eye = np.eye(2, dtype=complex)
    proto = _bare((Run(eye, eye, FORWARD),),
                  basis_state(0, (2,)), basis_state(1, (2,)), label="IB")
    out = simulate(proto, swap2)
    np.testing.assert_allclose(out.amplitudes,
                               basis_state(2, (2, 2)).amplitudes, atol=1e-15)


def test_simulate_pauli_branch(eye4):
    # local identity run with box sz (x) I on |+>|0>
    eye = np.eye(2, dtype=complex)
    sz_i = UnitaryOperator(np.kron(SZ, np.eye(2)), (2, 2))
    plus = state([1, 1], (2,))
    proto = _bare((Run(eye, eye, FORWARD),), plus, basis_state(0, (2,)))
    out = simulate(proto, sz_i)
    want = np.kron(np.array([1, -1]) / np.sqrt(2), [1, 0])
    np.testing.assert_allclose(out.amplitudes, want, atol=1e-15)


def test_verify_passes_and_reports_for_ib(eye4, swap2):
    proto = build_protocol(eye4, swap2)
    report = verify(proto, eye4, swap2)
    assert report.passed
    assert report.overlap <= 1e-12
    assert report.schmidt_second_max <= 1e-12
    assert report.measurement_ok
    assert report.box_uses == 1
    assert report.norm_deviation <= 1e-10
    assert len(report.per_run_trace) == 2 * len(proto.runs)


def test_verify_is_independent_of_cached_certificate(eye4, swap2):
    proto = build_protocol(eye4, swap2)
    fake = proto.with_certificate(None)
    report = verify(fake, eye4, swap2)
    assert report.passed


def test_verify_flags_corrupted_protocol():
    # for the phase-rotation pair the aux operations commute away, so the
    # corruption also moves the input onto a common eigenvector, after which
    # the branches coincide and the verifier must fail the protocol
    eye4 = identity_operator((2, 2))
    rot = UnitaryOperator(np.kron(np.diag([1.0, np.exp(1j * np.pi / 3)]),
                                  np.eye(2)), (2, 2))
    proto = build_protocol(rot, eye4)
    assert proto.certificate.passed
    eye = np.eye(2, dtype=complex)
    corrupted = LoccProtocol(
        proto.case_label,
        tuple(Run(eye, eye, r.box) for r in proto.runs),
        basis_state(0, (2,)), basis_state(0, (2,)), proto.measurement)
    report = verify(corrupted, rot, eye4)
    assert not report.passed
    assert report.overlap > 0.5


def test_outcome_probabilities_resolve_identity(eye4, swap2):
    proto = build_protocol(eye4, swap2)
    p_u = outcome_probabilities(proto, eye4)
    p_v = outcome_probabilities(proto, swap2)
    assert abs(np.sum(p_u) - 1.0) < 1e-10
    assert abs(np.sum(p_v) - 1.0) < 1e-10
    assert abs(p_u[0] - 1.0) < 1e-10
    assert abs(p_v[1] - 1.0) < 1e-10


def test_measurement_basis_completeness(eye4, swap2):
    proto = build_protocol(eye4, swap2)
    basis = proto.measurement.basis
    resolution = basis @ basis.conj().T
    assert np.linalg.norm(resolution - np.eye(basis.shape[0])) < 1e-10


def _with_plan(proto, plan):
    return LoccProtocol(proto.case_label, proto.runs, proto.input_alice,
                        proto.input_bob, plan, notes=proto.notes)


def test_verify_fails_flipped_decision_and_wrong_party(eye4):
    # only Alice's marginal outputs separate for sz (x) I against I
    sz_i = UnitaryOperator(np.kron(SZ, np.eye(2)), (2, 2))
    proto = build_protocol(sz_i, eye4)
    plan = proto.measurement
    assert plan.party == ALICE and verify(proto, sz_i, eye4).passed
    flipped = MeasurementPlan(plan.party, plan.basis, {0: "V", 1: "U"})
    wrong_party = MeasurementPlan(BOB, plan.basis, plan.decision)
    for bad in (flipped, wrong_party):
        report = verify(_with_plan(proto, bad), sz_i, eye4)
        assert report.overlap <= 1e-9 and report.schmidt_second_max <= 1e-9
        assert not report.measurement_ok
        assert not report.passed
        assert report.summary().startswith("FAIL")


def test_verify_accepts_plan_party_when_both_parties_separate():
    # identity vs swap on |0>|1>: outputs |0>|1> and |1>|0>, so both
    # parties' marginals are orthogonal and a Bob plan decides with certainty
    eye4, swap2 = identity_operator((2, 2)), swap_operator(2)
    proto = build_protocol(eye4, swap2)
    bob = _with_plan(proto, MeasurementPlan(BOB, np.array([[0, 1], [1, 0]],
                                                          dtype=complex)))
    np.testing.assert_allclose(outcome_probabilities(bob, eye4), [1, 0], atol=1e-12)
    np.testing.assert_allclose(outcome_probabilities(bob, swap2), [0, 1], atol=1e-12)
    report = verify(bob, eye4, swap2)
    assert report.measuring_party == BOB
    assert report.measurement_ok and report.passed


def _corrupt(proto, kind):
    """Copy of ``proto`` with one defect: its first Alice operation scaled,
    zeroed or given a NaN entry, or a one-column measurement basis."""
    runs = list(proto.runs)
    first = runs[0].alice_op.copy()
    if kind == "one_column_basis":
        plan = proto.measurement
        return _with_plan(proto, MeasurementPlan(plan.party, plan.basis[:, :1],
                                                 plan.decision))
    if kind == "nan_entry":
        first[0, 0] = np.nan
    else:
        first = {"scaled_1e-6": 1e-6, "scaled_2": 2.0, "zero_layer": 0.0}[kind] * first
    runs[0] = Run(first, runs[0].bob_op, runs[0].box)
    return LoccProtocol(proto.case_label, tuple(runs), proto.input_alice,
                        proto.input_bob, proto.measurement, notes=proto.notes)


CORRUPTIONS = ["scaled_1e-6", "scaled_2", "zero_layer", "nan_entry",
               "one_column_basis"]


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_verify_fails_corrupted_layers_and_bases(kind):
    # a case-IA protocol, and a case-IIA one whose layers sit between Haar gates
    for u, v in ((UnitaryOperator(np.kron(SZ, np.eye(2)), (2, 2)),
                  identity_operator((2, 2))),
                 (product_operator(2, 1), haar_two_qudit(2, 10001))):
        proto = build_protocol(u, v)
        assert verify(proto, u, v).passed
        report = verify(_corrupt(proto, kind), u, v)
        assert not report.passed and not report.measurement_ok
        assert report.summary().startswith("FAIL")


def test_verify_fails_decision_outside_the_basis(eye4, swap2):
    proto = build_protocol(eye4, swap2)
    plan = proto.measurement
    bad = MeasurementPlan(plan.party, plan.basis, {0: "U", 7: "V"})
    report = verify(_with_plan(proto, bad), eye4, swap2)
    assert not report.measurement_ok and not report.passed
