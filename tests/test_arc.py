"""Tests for the spectral arc and single-run discrimination."""

import numpy as np
import pytest
import scipy.linalg

from unidisc.arc import (_arc_of_phases, _widest_gap, discriminating_state,
                         single_run_discriminable, theta, zero_hull_state)
from unidisc.core import (DEFAULT_TOLERANCES, TWO_PI, UnitaryOperator,
                          _canonical_vector_phase, identity_operator,
                          random_unitary, unitary_eig)
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


@pytest.mark.parametrize("d", range(2, 10))
def test_widest_gap_closes_at_the_arc_start(d):
    # arcs below pi; every other one starts less than its length below
    # 2 pi, so that it wraps through phase 0
    rng = np.random.default_rng(200 + d)
    wrapped = 0
    for trial in range(300):
        arc = rng.uniform(0.01, np.pi - 0.01)
        lo = TWO_PI - arc if trial % 2 else 0.0
        start = rng.uniform(lo, TWO_PI)
        offsets = np.concatenate([[0.0, arc], arc * rng.uniform(0.0, 1.0, d - 2)])
        ends = np.mod(start + offsets[:2], TWO_PI)
        phases = np.sort(np.mod(start + offsets, TWO_PI))
        wrapped += ends[1] < ends[0]
        k, gap = _widest_gap(phases)
        assert (phases[k], phases[k - 1]) == tuple(ends)
        assert abs(gap - (TWO_PI - arc)) <= 1e-12
        if np.diff(phases, append=phases[0] + TWO_PI).min() > DEFAULT_TOLERANCES.classification:
            theta_val, largest, _ = _arc_of_phases(phases, DEFAULT_TOLERANCES.classification)
            assert largest == gap and theta_val == TWO_PI - gap
    assert wrapped >= 100


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


def _schur_eig(m):
    """unitary_eig's phases and vectors from a complex Schur form instead."""
    t, z = scipy.linalg.schur(m, output="complex")
    phases = np.mod(np.angle(np.diagonal(t)), 2 * np.pi)
    phases[phases > 2 * np.pi - 1e-12] = 0.0
    order = np.argsort(phases, kind="stable")
    return phases[order], np.array([_canonical_vector_phase(z[:, j]) for j in order]).T


def _support(phases, vectors):
    """Eigen-indices and amplitudes of the zero-hull state, or None."""
    found = zero_hull_state(phases, vectors, DEFAULT_TOLERANCES)
    if found is None:
        return None
    weights = np.abs(vectors.conj().T @ found[0]) ** 2
    return tuple(np.flatnonzero(weights > 1e-12)), weights, found[0]


@pytest.mark.parametrize("d", [4, 6, 8])
def test_zero_hull_state_agrees_across_eigensolvers(d):
    # evenly spaced phases over 1.25 pi, the one-use IA shape whose mirror
    # triples tie to rounding
    for seed in range(10):
        q = random_unitary(d, seed).matrix
        shift = np.random.default_rng(seed).uniform(0.0, 2 * np.pi)
        w = (q * np.exp(1j * (np.linspace(0.0, 1.25 * np.pi, d) + shift))) @ q.conj().T
        cayley, schur = _support(*unitary_eig(w)), _support(*_schur_eig(w))
        assert cayley[0] == schur[0], seed
        np.testing.assert_allclose(cayley[2], schur[2], rtol=0, atol=1e-9)


@pytest.mark.parametrize("d", range(3, 10))
def test_zero_hull_state_ignores_one_ulp(d):
    rng = np.random.default_rng(d)
    for phases in (np.linspace(0.0, 1.25 * np.pi, d),
                   np.sort(rng.uniform(0.0, 2 * np.pi, d)),
                   np.sort(rng.uniform(0.0, 2 * np.pi, d))):
        want = _support(phases, np.eye(d))
        for direction in (np.inf, -np.inf):
            got = _support(np.nextafter(phases, direction), np.eye(d))
            assert (got is None) == (want is None)
            if want is not None:
                assert got[0] == want[0]


@pytest.mark.parametrize("d", range(2, 10))
def test_zero_hull_state_sweep(d):
    rng = np.random.default_rng(100 + d)
    tol = DEFAULT_TOLERANCES
    seen = set()
    for _ in range(300):
        phases = np.sort(rng.uniform(0.0, 2 * np.pi, d))
        arc = theta(diag_op(phases)).theta
        found = _support(phases, np.eye(d))
        if arc >= np.pi:
            indices, weights, _ = found
            assert len(indices) <= 3
            assert weights.min() >= 0.0 and abs(weights.sum() - 1.0) <= 1e-12
            assert abs(np.sum(weights * np.exp(1j * phases))) <= 1e-12
            seen.add(True)
        elif arc < np.pi - tol.classification:
            assert found is None
            seen.add(False)
    assert seen == ({True, False} if d >= 3 else {False})
    # an arc 5e-9 short of pi: the endpoint pair, at the boundary
    phases = np.concatenate([[0.0], np.sort(rng.uniform(0.5, 2.5, d - 2)),
                             [np.pi - 5e-9]])
    indices, weights, psi = _support(phases, np.eye(d))
    assert indices == (0, d - 1)
    assert abs(np.vdot(psi, np.exp(1j * phases) * psi)) <= tol.orthogonality
    # an exactly antipodal pair inside an arc wider than pi
    if d >= 4:
        phases = np.concatenate([[0.0, 1.0, 2.5, 1.0 + np.pi],
                                 np.linspace(4.5, 4.9, d - 4)])
        assert theta(diag_op(phases)).theta > np.pi + 0.1
        assert _support(phases, np.eye(d))[0] == (1, 3)
