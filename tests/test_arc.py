"""Tests for the spectral arc and single-run discrimination."""

import numpy as np
import pytest

from unidisc.arc import discriminating_state, single_run_discriminable, theta
from unidisc.core import UnitaryOperator, identity_operator, random_unitary
from unidisc.exceptions import NotSingleRunDiscriminable, OperatorsEqual

from conftest import SX, SZ, arc_brute_force


def diag_op(phases):
    return UnitaryOperator(np.diag(np.exp(1j * np.asarray(phases))),
                           (len(phases),))


def test_theta_single_eigenvalue():
    assert theta(identity_operator((2,))).theta == 0.0


def test_theta_antipodal_pair():
    assert abs(theta(diag_op([0.0, np.pi])).theta - np.pi) < 1e-12


def test_theta_two_phase_separation():
    assert abs(theta(diag_op([0.0, np.pi / 3])).theta - np.pi / 3) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cluster_across_zero_merges_to_one_representative_at_zero(d):
    # +-3e-9 lie within the classification tolerance across the wrap point,
    # so they form one cluster whose mean sits at (not below or at) zero
    others = [1.0, 2.5][:d - 2]
    arc = theta(diag_op([-3e-9, 3e-9] + others))
    reps = arc.eigenphases
    assert len(reps) == d - 1
    assert reps[0] == 0.0
    assert list(reps) == sorted(reps)
    assert all(0.0 <= r < 2 * np.pi for r in reps)
    assert abs(arc.theta - (others[-1] if others else 0.0)) < 1e-8


def test_theta_three_phases():
    # gaps pi/2, pi/2, pi; largest gap pi, so theta = pi
    assert abs(theta(diag_op([0.0, np.pi / 2, np.pi])).theta - np.pi) < 1e-12


def test_theta_brute_force_equivalence():
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = rng.integers(2, 7)
        phases = rng.uniform(0.0, 2 * np.pi, size=m)
        got = theta(diag_op(phases)).theta
        want = arc_brute_force(phases)
        assert abs(got - want) < 1e-12


def test_theta_conjugation_invariance():
    for k in range(10):
        u = diag_op([0.0, 0.7, 2.0])
        w = random_unitary(3, k)
        conj = UnitaryOperator(w.matrix @ u.matrix @ w.matrix.conj().T, (3,))
        assert abs(theta(conj).theta - theta(u).theta) < 1e-9


def test_theta_phase_invariance():
    rng = np.random.default_rng(7)
    u = diag_op([0.2, 1.1, 2.9])
    for _ in range(10):
        phi = rng.uniform(0, 2 * np.pi)
        shifted = UnitaryOperator(np.exp(1j * phi) * u.matrix, (3,))
        assert abs(theta(shifted).theta - theta(u).theta) < 1e-9


def test_theta_merges_degenerate_phases():
    u = diag_op([0.0, 1e-12, np.pi / 4])
    arc = theta(u)
    assert len(arc.eigenphases) == 2
    assert abs(arc.theta - np.pi / 4) < 1e-9


def test_single_run_criterion_examples():
    eye = identity_operator((2,))
    assert single_run_discriminable(eye, UnitaryOperator(SZ, (2,)))
    assert not single_run_discriminable(eye, diag_op([0.0, np.pi / 4]))
    # eigenphases of sx.sz are +-pi/2, so theta = pi
    assert single_run_discriminable(UnitaryOperator(SX, (2,)),
                                    UnitaryOperator(SZ, (2,)))


def test_single_run_rejects_equal_operators():
    u = random_unitary(2, 3)
    shifted = UnitaryOperator(np.exp(0.4j) * u.matrix, (2,))
    with pytest.raises(OperatorsEqual):
        single_run_discriminable(u, shifted)


def test_discriminating_state_identity_vs_pauli_z():
    psi = discriminating_state(identity_operator((2,)), UnitaryOperator(SZ, (2,)))
    np.testing.assert_allclose(np.abs(psi.amplitudes),
                               [1 / np.sqrt(2)] * 2, atol=1e-12)
    overlap = abs(np.vdot(psi.amplitudes, SZ @ psi.amplitudes))
    assert overlap < 1e-12


def test_discriminating_state_qutrit_roots_of_unity():
    # equal weights solve sum p_j lambda_j = 0 by symmetry
    omega = np.exp(2j * np.pi / 3)
    v = diag_op([0.0, 2 * np.pi / 3, 4 * np.pi / 3])
    psi = discriminating_state(identity_operator((3,)), v)
    np.testing.assert_allclose(np.abs(psi.amplitudes),
                               [1 / np.sqrt(3)] * 3, atol=1e-9)
    overlap = abs(np.vdot(psi.amplitudes, v.matrix @ psi.amplitudes))
    assert overlap <= 1e-12
    del omega


def test_discriminating_state_refuses_small_arc():
    with pytest.raises(NotSingleRunDiscriminable):
        discriminating_state(identity_operator((2,)), diag_op([0.0, np.pi / 4]))


def test_discriminating_state_certificate_property():
    rng = np.random.default_rng(11)
    count = 0
    for k in range(60):
        u = random_unitary(3, 2 * k)
        v = random_unitary(3, 2 * k + 1)
        try:
            if not single_run_discriminable(u, v):
                continue
        except OperatorsEqual:
            continue
        psi = discriminating_state(u, v)
        w = u.matrix.conj().T @ v.matrix
        assert abs(np.vdot(psi.amplitudes, w @ psi.amplitudes)) <= 1e-6
        count += 1
    assert count > 10
    del rng
