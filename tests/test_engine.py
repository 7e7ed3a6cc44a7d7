"""Tests for LOCC protocol construction across the case families."""

import numpy as np
import pytest
from scipy.optimize._numdiff import approx_derivative

import unidisc.engine
from unidisc.core import (DEFAULT_TOLERANCES, UnitaryOperator, basis_state,
                          identity_operator, random_unitary, state, tensor)
from unidisc.engine import (_case_iii_label, _direction_patterns,
                            _SynthesisProblem, build_protocol,
                            controlled_sequential, identify,
                            identity_vs_other, multi_discriminate)
from unidisc.exceptions import OperatorsEqual, ValidationError
from unidisc.locality import canonical_xx_operator, conjugation_set, \
    extract_canonical_xx
from unidisc.protocol import (ALICE, BOB, CASE_IA, CASE_IB, CASE_IC,
                              CASE_IDENTITY, CASE_IIA, CASE_IIB, FORWARD,
                              REVERSE)
from unidisc.verifier import outcome_probabilities, simulate

from conftest import SZ, haar_two_qudit, product_operator, swap_type_operator


def test_rejects_equal_pair(eye4):
    other = UnitaryOperator(np.exp(0.3j) * np.eye(4), (2, 2))
    with pytest.raises(OperatorsEqual):
        build_protocol(eye4, other)


def test_case_ib_identity_vs_swap(eye4, swap2):
    proto = build_protocol(eye4, swap2)
    assert proto.case_label == CASE_IB
    assert proto.box_uses == 1
    np.testing.assert_allclose(proto.input_alice.amplitudes, [1, 0], atol=1e-12)
    np.testing.assert_allclose(proto.input_bob.amplitudes, [0, 1], atol=1e-12)
    out_u = simulate(proto, eye4).amplitudes
    out_v = simulate(proto, swap2).amplitudes
    np.testing.assert_allclose(out_u, basis_state(1, (2, 2)).amplitudes,
                               atol=1e-12)   # |0>|1>
    np.testing.assert_allclose(out_v, basis_state(2, (2, 2)).amplitudes,
                               atol=1e-12)   # |1>|0>
    assert proto.certificate.passed


def test_case_ia_pauli_example(eye4):
    sz_i = UnitaryOperator(np.kron(SZ, np.eye(2)), (2, 2))
    proto = build_protocol(sz_i, eye4)
    assert proto.case_label == CASE_IA
    assert proto.box_uses == 1   # theta = pi, single run
    np.testing.assert_allclose(np.abs(proto.input_alice.amplitudes),
                               [1 / np.sqrt(2)] * 2, atol=1e-9)
    report = proto.certificate
    assert report.passed and report.measuring_party == "Alice"
    p_u = np.array([1.0, 0.0])
    np.testing.assert_allclose(outcome_probabilities(proto, sz_i)[:2], p_u,
                               atol=1e-9)
    np.testing.assert_allclose(outcome_probabilities(proto, eye4)[:2],
                               p_u[::-1], atol=1e-9)


@pytest.mark.parametrize("d", [2, 3])
def test_case_ia_bob_side_decides_with_certainty(d):
    # Alice's factors agree, so only Bob's marginal outputs separate
    alice = random_unitary(d, 701).matrix
    u = UnitaryOperator(np.kron(alice, random_unitary(d, 711).matrix), (d, d))
    v = UnitaryOperator(np.kron(alice, random_unitary(d, 721).matrix), (d, d))
    proto = build_protocol(u, v)
    assert proto.case_label == CASE_IA
    assert proto.measurement.party == BOB
    assert proto.certificate.passed and proto.certificate.measurement_ok
    decision = proto.measurement.decision
    idx_u = next(k for k, h in decision.items() if h == "U")
    idx_v = next(k for k, h in decision.items() if h == "V")
    assert abs(outcome_probabilities(proto, u)[idx_u] - 1.0) <= 1e-9
    assert abs(outcome_probabilities(proto, v)[idx_v] - 1.0) <= 1e-9


def test_case_ic_swap_pair():
    u = swap_type_operator(2, 21)
    v = swap_type_operator(2, 22)
    proto = build_protocol(u, v, seed=3)
    assert proto.case_label == CASE_IC
    assert proto.box_uses % 2 == 0   # each wrap costs forward + reverse
    assert proto.certificate.passed


def test_case_ii_product_vs_entangling():
    u = haar_two_qudit(2, 91)
    v = product_operator(2, 92)
    proto = build_protocol(u, v, seed=4)
    assert proto.case_label == CASE_IIA
    assert proto.certificate.passed
    assert proto.certificate.schmidt_second_max <= 1e-6


def test_case_iib_swap_vs_entangling():
    u = swap_type_operator(2, 93)
    v = haar_two_qudit(2, 94)
    proto = build_protocol(u, v, seed=5)
    assert proto.case_label == CASE_IIB
    assert proto.certificate.passed


def test_case_iii_cnot_vs_cz(cnot, cz):
    proto = build_protocol(cnot, cz, seed=0)
    assert proto.case_label.startswith("III")
    report = proto.certificate
    assert report.passed
    assert report.overlap <= 1e-5
    assert report.schmidt_second_max <= 1e-5


def test_case_iiib_scaled_label():
    u = canonical_xx_operator(2, 1.0)
    v = canonical_xx_operator(2, 0.4)
    proto = build_protocol(u, v, seed=6)
    assert proto.case_label.startswith("III")
    assert proto.certificate.passed


def test_identity_vs_other_entry():
    w = haar_two_qudit(2, 95)
    proto = identity_vs_other(w, seed=7)
    assert proto.case_label == CASE_IDENTITY
    assert "underlying case" in proto.notes
    assert proto.certificate.passed


def test_no_entanglement_trace_everywhere():
    u = haar_two_qudit(2, 96)
    v = haar_two_qudit(2, 97)
    proto = build_protocol(u, v, seed=8)
    for _, _, s2 in proto.certificate.per_run_trace:
        assert s2 <= 1e-6


def test_factorized_orthogonality_and_box_accounting():
    u = product_operator(2, 98)
    v = haar_two_qudit(2, 99)
    proto = build_protocol(u, v, seed=9)
    report = proto.certificate
    assert report.measurement_ok
    assert report.box_uses == len(proto.runs) == proto.box_uses


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("case", ["IIA", "IIIA"])
def test_synthesis_jacobian_matches_central_differences(d, case):
    if case == "IIA":
        u, v = product_operator(d, 1), haar_two_qudit(d, 10001)
        chains = (False, True)
    else:
        u, v = haar_two_qudit(d, 11001), haar_two_qudit(d, 12001)
        chains = (True, True)
    rng = np.random.default_rng(d)
    for n in (1, 2, 3):
        for pattern in _direction_patterns(n):
            for party in (ALICE, BOB):
                problem = _SynthesisProblem(d, u.matrix, v.matrix, chains,
                                            pattern, party)
                x = rng.standard_normal(problem.n_params)
                exact = problem.jacobian(x)
                numeric = approx_derivative(problem.residual, x,
                                            method="3-point")
                assert exact.shape == (problem.n_residuals, problem.n_params)
                err = np.abs(exact - numeric).max() / np.abs(numeric).max()
                assert err <= 1e-6, (n, pattern, party, err)


def test_synthesis_jacobian_after_residual_reuses_layers_exactly():
    # least_squares asks for the Jacobian at the point of its last residual;
    # reusing that point's eigendecompositions must not change a bit
    u, v = haar_two_qudit(2, 11001), haar_two_qudit(2, 12001)
    args = (2, u.matrix, v.matrix, (True, True), (FORWARD, REVERSE), BOB)
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((2, _SynthesisProblem(*args).n_params))
    want_res = _SynthesisProblem(*args).residual(x)
    want_jac = _SynthesisProblem(*args).jacobian(x)
    problem = _SynthesisProblem(*args)
    assert np.array_equal(problem.residual(x), want_res)
    assert np.array_equal(problem.jacobian(x), want_jac)
    problem.residual(y)
    assert np.array_equal(problem.jacobian(x), want_jac)
    assert np.array_equal(problem.residual(x), want_res)


@pytest.mark.parametrize("s", range(4))
def test_case_iii_label_of_criterion7_haar_pairs(s):
    u, v = haar_two_qudit(2, 2 * s + 11001), haar_two_qudit(2, 2 * s + 12001)
    assert _case_iii_label(u, v, DEFAULT_TOLERANCES, s, 8) == (
        "IIIA", "f(V) outside the canonical family")


@pytest.mark.parametrize("d", [2, 3])
def test_case_iii_label_equal_up_to_phase(d):
    # at d=2 the extracted x is 1 - pi, since E(x + pi) = -E(x)
    u = canonical_xx_operator(d, 1.0)
    v = UnitaryOperator(np.exp(2.5j) * u.matrix, (d, d))
    assert _case_iii_label(u, v, DEFAULT_TOLERANCES, 0, 8) == (
        "IIIB_EQUAL", "f(V) matches f(U) on the canonical family")


def test_case_iii_label_ignores_global_phase():
    u = canonical_xx_operator(2, 1.0)
    v = UnitaryOperator(np.exp(0.3j) * canonical_xx_operator(2, 0.4).matrix, (2, 2))
    assert _case_iii_label(u, v, DEFAULT_TOLERANCES, 0, 8) == (
        "IIIB_SCALED", "f(V) canonical with x=0.400000")


def test_controlled_sequential_examples(cnot):
    # control |1>: CNOT acts as sigma_x on the target
    out = controlled_sequential(cnot, [], basis_state(1, (2,)),
                                basis_state(0, (2,)))
    np.testing.assert_allclose(out.amplitudes,
                               basis_state(3, (2, 2)).amplitudes, atol=1e-12)
    # aux [H]: output |1> (x) (X H X)|0>
    had = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    out = controlled_sequential(cnot, [had], basis_state(1, (2,)),
                                basis_state(0, (2,)))
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    want = np.kron([0, 1], sx @ had @ sx @ np.array([1, 0]))
    np.testing.assert_allclose(out.amplitudes, want, atol=1e-12)
    # control |0>: identity branch, target gets the aux chain only
    out = controlled_sequential(cnot, [had], basis_state(0, (2,)),
                                basis_state(0, (2,)))
    want = np.kron([1, 0], had @ np.array([1, 0]))
    np.testing.assert_allclose(out.amplitudes, want, atol=1e-12)


def test_controlled_sequential_identity_random_aux(cnot):
    rng = np.random.default_rng(12)
    for n_aux in range(5):
        aux = [random_unitary(2, 500 + 10 * n_aux + j).matrix
               for j in range(n_aux)]
        phi = state(rng.standard_normal(2) + 1j * rng.standard_normal(2), (2,))
        out = controlled_sequential(cnot, aux, basis_state(1, (2,)), phi)
        # the assertion inside controlled_sequential enforces the identity
        assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12


def test_controlled_sequential_rejects_non_controlled(swap2):
    with pytest.raises(ValidationError):
        controlled_sequential(swap2, [], basis_state(1, (2,)),
                              basis_state(0, (2,)))


def test_conjugation_wrap_cancels_canonical_family():
    # A E(x) A^dag E(x) = I for every conjugator once extraction succeeds
    for d in (2, 3):
        for x in (0.3, 1.0, -0.7):
            op = canonical_xx_operator(d, x)
            assert extract_canonical_xx(op) is not None
            for a in conjugation_set(d):
                f = a @ op.matrix @ a.conj().T @ op.matrix
                assert np.linalg.norm(f - np.eye(d * d)) < 1e-6


def test_multi_discriminate_pair_matches_build(eye4, swap2):
    tree = multi_discriminate([eye4, swap2])
    assert len(tree.protocols) == 1
    direct = build_protocol(eye4, swap2)
    assert tree.protocols[(0, 1)].case_label == direct.case_label


def test_multi_discriminate_three_hypotheses(eye4, swap2):
    sz_i = UnitaryOperator(np.kron(SZ, np.eye(2)), (2, 2))
    ops = [eye4, swap2, sz_i]
    tree = multi_discriminate(ops)
    for truth, op in enumerate(ops):
        outcome = identify(tree, op)
        assert set(outcome) == {truth}
        assert abs(sum(outcome.values()) - 1.0) < 1e-9


def test_multi_discriminate_four_products():
    ops = [product_operator(2, 400 + k) for k in range(4)]
    tree = multi_discriminate(ops, seed=2)
    for proto in tree.protocols.values():
        assert proto.certificate.passed
    for truth, op in enumerate(ops):
        outcome = identify(tree, op)
        assert set(outcome) == {truth}


def _product_set(m):
    return [UnitaryOperator(tensor(random_unitary(2, 100 + k),
                                   random_unitary(2, 500 + k)).matrix, (2, 2))
            for k in range(m)]


def _tree_walk(tree, box, m):
    """Reference: the elimination tree walked path by path.  The node of
    (i, j, rest) runs protocol (i, j) and continues with (i, rest) on the
    "U" outcome and with (j, rest) otherwise."""
    results = {}

    def walk(indices, weight):
        if weight <= 1e-12:
            return
        if len(indices) == 1:
            results[indices[0]] = results.get(indices[0], 0.0) + weight
            return
        i, j, rest = indices[0], indices[1], indices[2:]
        proto = tree.protocols[(i, j)]
        probs = outcome_probabilities(proto, box)
        idx_u = next((k for k, h in proto.measurement.decision.items() if h == "U"), 0)
        p_u = float(probs[idx_u])
        walk((i,) + rest, weight * p_u)
        walk((j,) + rest, weight * (1.0 - p_u))

    walk(tuple(range(m)), 1.0)
    return results


def _assert_matches_tree_walk(tree, box, m):
    got, want = identify(tree, box), _tree_walk(tree, box, m)
    assert set(got) == set(want)
    for k in want:
        assert abs(got[k] - want[k]) <= 1e-9


def test_identify_matches_tree_walk_three_hypotheses(eye4, swap2):
    ops = [eye4, swap2, UnitaryOperator(np.kron(SZ, np.eye(2)), (2, 2))]
    tree = multi_discriminate(ops)
    for op in ops:
        _assert_matches_tree_walk(tree, op, 3)


def test_identify_matches_tree_walk_six_products():
    ops = _product_set(6)
    tree = multi_discriminate(ops)
    # an operator outside the set spreads its weight over several champions
    for op in ops + [product_operator(2, 77)]:
        _assert_matches_tree_walk(tree, op, 6)


def test_identify_runs_each_pair_at_most_once(monkeypatch):
    ops = _product_set(10)
    tree = multi_discriminate(ops)
    assert len(tree.protocols) == 45
    calls = []

    def spy(proto, box):
        calls.append(proto)
        return outcome_probabilities(proto, box)

    monkeypatch.setattr(unidisc.engine, "outcome_probabilities", spy)
    for truth, op in enumerate(ops):
        calls.clear()
        outcome = identify(tree, op)
        assert set(outcome) == {truth}
        assert abs(outcome[truth] - 1.0) < 1e-9
        assert len(calls) <= 45


def test_multi_rejects_equal_hypotheses(eye4):
    with pytest.raises(OperatorsEqual):
        multi_discriminate([eye4, identity_operator((2, 2))])
