"""Tests for run budgets and sequential-scheme synthesis."""

import numpy as np
import pytest

from unidisc.arc import theta, zero_hull_state
from unidisc.core import (DEFAULT_TOLERANCES, PureState, UnitaryOperator,
                          identity_operator, random_unitary, unitary_eig)
from unidisc.exceptions import DimensionMismatch, OperatorsEqual
from unidisc.sequential import (SequentialScheme, evaluate_scheme,
                                find_sequential_scheme, required_runs)

from conftest import SZ


def diag_op(phases):
    return UnitaryOperator(np.diag(np.exp(1j * np.asarray(phases))),
                           (len(phases),))


def test_required_runs_formula():
    eye = identity_operator((2,))
    # Theta = pi/3 -> N = 2
    assert required_runs(eye, diag_op([0.0, np.pi / 3])) == 2
    # Theta = pi -> single run
    assert required_runs(eye, UnitaryOperator(SZ, (2,))) == 0
    # Theta = 2 pi / 5 -> ceil(2.5) - 1 = 2
    assert required_runs(eye, diag_op([0.0, 2 * np.pi / 5])) == 2
    # one use once Theta >= pi - 1e-8, the classification tolerance
    for gap, runs in ((2e-9, 0), (5e-9, 0), (9e-9, 0), (2e-8, 1)):
        assert required_runs(eye, diag_op([0.0, np.pi - gap])) == runs


def test_required_runs_rejects_equal():
    u = random_unitary(2, 1)
    with pytest.raises(OperatorsEqual):
        required_runs(u, u)


def test_scheme_single_run_reduces_to_state():
    eye = identity_operator((2,))
    scheme = find_sequential_scheme(eye, UnitaryOperator(SZ, (2,)))
    assert len(scheme.aux_ops) == 0
    assert scheme.uses == 1
    np.testing.assert_allclose(np.abs(scheme.input.amplitudes),
                               [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert scheme.overlap <= 1e-12


def test_scheme_rot60_needs_two_aux():
    eye = identity_operator((2,))
    scheme = find_sequential_scheme(eye, diag_op([0.0, np.pi / 3]))
    assert len(scheme.aux_ops) == 2
    assert scheme.overlap <= 1e-6


def test_scheme_rejects_equal_pair():
    u = random_unitary(3, 4)
    with pytest.raises(OperatorsEqual):
        find_sequential_scheme(u, u)


def test_evaluate_scheme_examples():
    eye = identity_operator((2,))
    sz = UnitaryOperator(SZ, (2,))
    # hand-built scheme: psi = |+>, no aux -> <psi|sz|psi> = 0
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    from unidisc.core import PureState
    hand = SequentialScheme((), PureState(psi, (2,)), 0.0)
    assert evaluate_scheme(hand, eye, sz) < 1e-12
    # identical branches with identity aux give overlap 1
    aux = (identity_operator((2,)),)
    silly = SequentialScheme(aux, PureState(psi, (2,)), 1.0)
    assert abs(evaluate_scheme(silly, eye, eye) - 1.0) < 1e-12
    with pytest.raises(DimensionMismatch, match="mismatched dims"):
        evaluate_scheme(hand, identity_operator((3,)), identity_operator((3,)))


def test_one_use_scheme_takes_no_polar_factor(monkeypatch):
    # N = 0 has no aux op, so U^dag is never made exactly unitary
    svd, calls = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    scheme = find_sequential_scheme(identity_operator((3,)), diag_op([0.0, 2.0, 4.0]))
    assert scheme.uses == 1 and not calls
    assert find_sequential_scheme(identity_operator((2,)), diag_op([0.0, 1.0])).uses == 4
    assert calls


def _arc_pair(d, arc, seed):
    """(U, U W) with W of the given arc in a random basis."""
    u = random_unitary(d, seed).matrix
    q = random_unitary(d, seed + 1).matrix
    phases = 0.7 + np.linspace(0.0, arc, d)
    w = (q * np.exp(1j * phases)) @ q.conj().T
    return UnitaryOperator(u, (d,)), UnitaryOperator(u @ w, (d,))


def _long_chain_pair(d, box_uses, seed):
    """(U, U W) with W of arc pi / (box_uses - 0.5) in a random basis."""
    return _arc_pair(d, np.pi / (box_uses - 0.5), seed)


def test_evaluate_matches_certificate():
    eye = identity_operator((2,))
    pairs = [(eye, diag_op([0.0, delta]))
             for delta in [np.pi / 2, np.pi / 3, 2 * np.pi / 5]]
    # degenerate A = U^dag V at d=4: any basis of each eigenspace is valid
    delta = 2 * np.pi / 7
    pairs.append((identity_operator((4,)), diag_op([0.0, 0.0, delta, delta])))
    # 255 auxiliary unitaries at d=9
    pairs.append(_long_chain_pair(9, 256, 77))
    for k, (u, v) in enumerate(pairs):
        scheme = find_sequential_scheme(u, v)
        assert len(scheme.aux_ops) == required_runs(u, v)
        assert evaluate_scheme(scheme, u, v) <= 1e-6
        assert abs(evaluate_scheme(scheme, u, v) - scheme.overlap) < 1e-9
    assert len(scheme.aux_ops) == 255


def test_scheme_is_closed_form():
    # every aux op but a capped last one is one shared U^dag
    u, v = _long_chain_pair(9, 256, 77)
    aux = find_sequential_scheme(u, v).aux_ops
    assert len(aux) == 255 and len({id(x) for x in aux}) <= 2
    for x in aux[1:-1]:
        assert np.array_equal(x.matrix, aux[0].matrix)
    assert np.max(np.abs(aux[0].matrix - u.matrix.conj().T)) <= 1e-12
    # (N + 1) Theta = pi: nothing is capped
    u = random_unitary(2, 5)
    v = UnitaryOperator(u.matrix @ np.diag([1.0, np.exp(1j * np.pi / 3)]), (2,))
    aux = find_sequential_scheme(u, v).aux_ops
    assert len(aux) == 2 and np.array_equal(aux[0].matrix, aux[1].matrix)


@pytest.mark.parametrize("box_uses, distinct", [(255.5, 2), (256, 1)],
                         ids=["capped", "uncapped"])
def test_stacked_chain_matches_two_separate_chains(box_uses, distinct):
    # U's and V's chains carried apart as (U X) @ left give the same bits
    u, v = _arc_pair(9, np.pi / box_uses, 77)
    scheme = find_sequential_scheme(u, v)
    assert scheme.uses == 256 and len({id(x) for x in scheme.aux_ops}) == distinct
    left, right = u.matrix, v.matrix
    for x in scheme.aux_ops:
        left = u.matrix @ x.matrix @ left
        right = v.matrix @ x.matrix @ right
    w = left.conj().T @ right
    psi, _ = zero_hull_state(*unitary_eig(w), DEFAULT_TOLERANCES)
    assert np.array_equal(scheme.input.amplitudes, PureState(psi, u.dims).amplitudes)
    assert scheme.overlap == float(abs(np.vdot(psi, w @ psi)))


@pytest.mark.parametrize("d", range(2, 10))
def test_capped_last_op_puts_extremes_pi_apart(d):
    # 60 arcs from 1e-3 (3141 aux ops) to 0.999 pi, none a divisor of pi
    worst_gap = worst_overlap = 0.0
    for k, arc in enumerate(np.geomspace(1e-3, 0.999 * np.pi, 60)):
        seed = 1000 * d + 2 * k
        u, v = _arc_pair(d, arc, seed)
        scheme = find_sequential_scheme(u, v)
        n = len(scheme.aux_ops)
        assert n == required_runs(u, v) and (n + 1) * arc > np.pi + 1e-9
        left, right = u.matrix, v.matrix
        for x in scheme.aux_ops:
            left = u.matrix @ x.matrix @ left
            right = v.matrix @ x.matrix @ right
        # W keeps the plane of the extreme eigenvectors of U^dag V
        ends = random_unitary(d, seed + 1).matrix[:, [0, -1]]
        lam = np.linalg.eigvals(ends.conj().T @ left.conj().T @ right @ ends)
        gap = abs(abs(np.angle(lam[0] * np.conj(lam[1]))) - np.pi)
        worst_gap = max(worst_gap, gap)
        worst_overlap = max(worst_overlap, evaluate_scheme(scheme, u, v))
    assert worst_gap <= 1e-11
    assert worst_overlap <= 1e-11


def test_scheme_never_exceeds_budget_and_is_monotone():
    for d in (2, 3):
        for k in range(12):
            u = random_unitary(d, 5 * k)
            v = random_unitary(d, 5 * k + 3)
            n = required_runs(u, v)
            scheme = find_sequential_scheme(u, v)
            assert len(scheme.aux_ops) <= n
            assert evaluate_scheme(scheme, u, v) <= 1e-6
            # arc of the effective operator never regresses along the chain
            left, right = u.matrix.copy(), v.matrix.copy()
            arcs = [theta(UnitaryOperator(left.conj().T @ right, u.dims)).theta]
            for x in scheme.aux_ops:
                left = u.matrix @ x.matrix @ left
                right = v.matrix @ x.matrix @ right
                arcs.append(theta(UnitaryOperator(left.conj().T @ right,
                                                  u.dims, tol=1e-8)).theta)
            for prev, nxt in zip(arcs, arcs[1:]):
                assert nxt >= prev - 1e-9
            # every uncapped step grows the arc by exactly Theta(U^dag V)
            delta = arcs[0]
            for j, arc in enumerate(arcs):
                if (j + 1) * delta <= np.pi:
                    assert abs(arc - (j + 1) * delta) <= 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_scheme_random_pairs_certified(d):
    for k in range(8):
        u = random_unitary(d, 100 + k)
        v = random_unitary(d, 200 + k)
        scheme = find_sequential_scheme(u, v)
        assert evaluate_scheme(scheme, u, v) <= 1e-6
        assert scheme.uses == len(scheme.aux_ops) + 1


def test_scheme_determinism():
    u = random_unitary(2, 42)
    v = random_unitary(2, 43)
    s1 = find_sequential_scheme(u, v)
    s2 = find_sequential_scheme(u, v)
    assert len(s1.aux_ops) == len(s2.aux_ops)
    for a, b in zip(s1.aux_ops, s2.aux_ops):
        assert np.array_equal(a.matrix, b.matrix)
    assert np.array_equal(s1.input.amplitudes, s2.input.amplitudes)


def test_two_qudit_global_scheme():
    # sequential synthesis also covers composite spaces
    u = UnitaryOperator(random_unitary(4, 300).matrix, (2, 2))
    v = UnitaryOperator(random_unitary(4, 301).matrix, (2, 2))
    scheme = find_sequential_scheme(u, v)
    assert evaluate_scheme(scheme, u, v) <= 1e-6


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("eps", [1e-11, 1e-10, 3e-10, 1e-9, 3e-9])
def test_scheme_with_a_start_cluster_straddling_phase_zero(d, eps):
    # eigenphases -eps and +eps form one cluster across phase 0: the arc
    # starts at -eps, its lowest member on the circle, not at +eps, the
    # lowest member in [0, 2 pi).  At an exact pi/k arc the final W holds a
    # pair pi apart to rounding and, through the other member of the
    # cluster, a pair off antipodal by a few eps: the input must take the
    # first one
    eye = identity_operator((d,))
    arcs = ((0.4 * np.pi / 3, 8), (0.7, 5), (2.0, 2),
            (np.pi / 4, 4), (np.pi / 7, 7), (np.pi / 15, 15))
    for k, (arc, uses) in enumerate(arcs):
        q = random_unitary(d, 12 + k).matrix
        phases = np.concatenate([[-eps, eps], np.linspace(arc, 0.0, d - 2, endpoint=False)])
        v = UnitaryOperator((q * np.exp(1j * phases)) @ q.conj().T, (d,))
        scheme = find_sequential_scheme(eye, v)
        assert scheme.uses == uses
        assert evaluate_scheme(scheme, eye, v) <= 1e-13
