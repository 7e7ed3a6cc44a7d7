"""Tests for locality classification, witnesses, and the canonical XX form."""

import numpy as np
import pytest
import scipy.linalg

from unidisc.core import (UnitaryOperator, phase_distance, random_unitary,
                          schmidt_coefficients, tensor)
from unidisc.exceptions import DimensionMismatch, ValidationError
from unidisc.locality import (IMPRIMITIVE, PRODUCT_LOCAL, SWAP_LOCAL,
                              canonical_xx_matrix, canonical_xx_operator,
                              classify, conjugation_set, embedded_pauli,
                              imprimitivity_witness, extract_canonical_xx,
                              makhlin_invariants, operator_schmidt,
                              swap_operator, xx_generator)

from conftest import HAD, SX, SY, SZ, haar_two_qudit, product_operator, \
    random_hermitian, swap_type_operator


def test_operator_schmidt_product_rank_one(cnot):
    op = product_operator(2, 9)
    s, a_list, b_list = operator_schmidt(op)
    assert abs(s[0] - 2.0) < 1e-9
    assert s[1] < 1e-9
    recon = sum(si * np.kron(a, b) for si, a, b in zip(s, a_list, b_list))
    assert np.linalg.norm(recon - op.matrix) < 1e-9


def test_operator_schmidt_cnot_rank_two(cnot):
    s, _, _ = operator_schmidt(cnot)
    assert np.sum(s > 1e-9) == 2
    np.testing.assert_allclose(s[:2], np.sqrt(2), atol=1e-12)


def test_operator_schmidt_swap_maximal(swap2):
    s, _, _ = operator_schmidt(swap2)
    np.testing.assert_allclose(s, np.ones(4), atol=1e-12)


def test_classify_product_with_factors():
    op = tensor(UnitaryOperator(SX, (2,)), UnitaryOperator(HAD, (2,)))
    result = classify(UnitaryOperator(op.matrix, (2, 2)))
    assert result.kind == PRODUCT_LOCAL
    a, b = result.factors
    assert phase_distance(a, UnitaryOperator(SX, (2,))) < 1e-9
    assert phase_distance(b, UnitaryOperator(HAD, (2,))) < 1e-9


def test_classify_swap_is_swap_local(swap2):
    result = classify(swap2)
    assert result.kind == SWAP_LOCAL
    a, b = result.factors
    assert phase_distance(a.matrix, np.eye(2)) < 1e-9
    assert phase_distance(b.matrix, np.eye(2)) < 1e-9


def test_classify_cnot_witness(cnot):
    result = classify(cnot)
    assert result.kind == IMPRIMITIVE
    want = np.zeros(4, dtype=complex)
    want[0] = want[2] = 1 / np.sqrt(2)     # |+>|0>
    np.testing.assert_allclose(result.witness.amplitudes, want, atol=1e-12)
    out = cnot.matrix @ result.witness.amplitudes
    np.testing.assert_allclose(schmidt_coefficients(out, (2, 2)),
                               [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_witness_examples_cz_and_xx(cz):
    w = imprimitivity_witness(cz)
    want = np.full(4, 0.5, dtype=complex)   # |+>|+>
    np.testing.assert_allclose(w.amplitudes, want, atol=1e-12)
    out = cz.matrix @ w.amplitudes
    # SVD oracle: reshape is [[1,1],[1,-1]]/2, i.e. Hadamard/sqrt(2), so the
    # image is maximally entangled
    np.testing.assert_allclose(schmidt_coefficients(out, (2, 2)),
                               [1 / np.sqrt(2)] * 2, atol=1e-12)

    exx = UnitaryOperator(scipy.linalg.expm(1j * np.pi / 4 * np.kron(SX, SX)),
                          (2, 2), tol=1e-9)
    w = imprimitivity_witness(exx)
    np.testing.assert_allclose(w.amplitudes, np.eye(4)[:, 0], atol=1e-12)
    out = exx.matrix @ w.amplitudes
    # closed form: cos(pi/4)|00> + i sin(pi/4)|11>, maximally entangled
    np.testing.assert_allclose(schmidt_coefficients(out, (2, 2)),
                               [1 / np.sqrt(2)] * 2, atol=1e-12)


def test_witness_refused_for_primitive():
    with pytest.raises(ValidationError):
        imprimitivity_witness(product_operator(2, 5))


@pytest.mark.parametrize("d", [2, 3])
def test_classification_oracle(d):
    for k in range(30):
        assert classify(product_operator(d, 11 * k)).kind == PRODUCT_LOCAL
        assert classify(swap_type_operator(d, 13 * k)).kind == SWAP_LOCAL
        got = classify(haar_two_qudit(d, 17 * k))
        assert got.kind == IMPRIMITIVE
        assert got.witness is not None


def test_swap_product_exclusive_flags_product_first():
    # U and U P both product only if ... never for these; identity is product
    eye = UnitaryOperator(np.eye(4), (2, 2))
    assert classify(eye).kind == PRODUCT_LOCAL


@pytest.mark.parametrize("d", [2, 3, 4])
def test_canonical_xx_roundtrip(d):
    rng = np.random.default_rng(d)
    for _ in range(50):
        x = rng.uniform(-np.pi, np.pi)
        op = canonical_xx_operator(d, x)
        ext = extract_canonical_xx(op)
        assert ext is not None
        assert abs(np.mod(ext.x - x + np.pi, 2 * np.pi) - np.pi) < 1e-8
        assert ext.residual <= 1e-8


@pytest.mark.parametrize("d", [2, 3, 4])
def test_canonical_xx_rejects_perturbations(d):
    rng = np.random.default_rng(100 + d)
    g = np.kron(xx_generator(d), xx_generator(d))
    g_unit = g / np.linalg.norm(g)
    for _ in range(50):
        x = rng.uniform(-np.pi, np.pi)
        h = random_hermitian(d * d, int(rng.integers(1 << 30)))
        h -= g_unit * np.trace(g_unit.conj().T @ h).real  # remove the canonical span
        h *= 1e-3 / np.linalg.norm(h)
        op = UnitaryOperator(scipy.linalg.expm(1j * (x * g + h)), (d, d), tol=1e-8)
        assert extract_canonical_xx(op) is None


@pytest.mark.parametrize("d", [2, 3])
def test_canonical_xx_up_to_global_phase(d):
    op = UnitaryOperator(np.exp(0.3j) * canonical_xx_operator(d, 0.4).matrix, (d, d))
    ext = extract_canonical_xx(op)
    assert ext is not None and abs(ext.x - 0.4) < 1e-12
    assert ext.residual <= 1e-12


def test_canonical_xx_identity_gives_zero():
    ext = extract_canonical_xx(UnitaryOperator(np.eye(9), (3, 3)))
    assert ext is not None and abs(ext.x) < 1e-10


def test_canonical_xx_rejects_cnot(cnot):
    # the sigma_y-based conjugator breaks the inversion identity for CNOT
    # (the sigma_z-based one commutes with it, so it alone would not reject)
    a = conjugation_set(2)[1]
    assert np.linalg.norm(cnot.matrix.conj().T
                          - a @ cnot.matrix @ a.conj().T) > 1e-3
    assert extract_canonical_xx(cnot) is None


def test_conjugation_inversion_fact_both_directions():
    # B = -A B A^dag  implies  A e^{iB} A^dag = (e^{iB})^dag, and random
    # pairs without the anticommutation property fail the identity
    rng = np.random.default_rng(5)
    for d in (3, 4):
        a = np.kron(embedded_pauli(SZ, d), np.eye(d))
        for k in range(50):
            b = random_hermitian(d * d, 1000 + k)
            b = (b - a @ b @ a.conj().T) / 2.0
            u = scipy.linalg.expm(1j * b)
            assert np.linalg.norm(a @ u @ a.conj().T - u.conj().T) < 1e-9
        for k in range(50):
            b = random_hermitian(d * d, 2000 + k)
            u = scipy.linalg.expm(1j * b)
            if np.linalg.norm(b + a @ b @ a.conj().T) > 1e-6:
                assert np.linalg.norm(a @ u @ a.conj().T - u.conj().T) > 1e-8
    del rng


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_anticommuting_structure_fact(d):
    # Hermitian B with B = -A B A^dag for both conjugators is c sigma_x (+) 0
    a1 = embedded_pauli(SZ, d)
    a2 = embedded_pauli(SY, d)
    for k in range(25):
        b = random_hermitian(d, 300 + k)
        for _ in range(60):
            b = (b - a1 @ b @ a1.conj().T) / 2.0
            b = (b - a2 @ b @ a2.conj().T) / 2.0
        assert np.linalg.norm(b + a1 @ b @ a1.conj().T) < 1e-10
        assert np.linalg.norm(b + a2 @ b @ a2.conj().T) < 1e-10
        c = b[0, 1].real
        want = c * embedded_pauli(SX, d)
        want[2:, 2:] = 0.0
        assert np.linalg.norm(b - want) < 1e-8


def test_canonical_xx_matrix_periodicity():
    m1 = canonical_xx_matrix(2, 0.3)
    m2 = canonical_xx_matrix(2, 0.3 + 2 * np.pi)
    assert np.linalg.norm(m1 - m2) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_canonical_xx_closed_form_matches_expm(d):
    g = np.kron(xx_generator(d), xx_generator(d))
    for x in (-2.5, -0.7, 0.0, 0.3, 1.0, 3.1):
        want = scipy.linalg.expm(1j * x * g)
        assert np.abs(canonical_xx_matrix(d, x) - want).max() <= 1e-14


def test_makhlin_invariants_of_known_gates():
    # (G1, G2) = (1, 3) for local gates, (0, 1) for CNOT, (-1, -3) for SWAP
    cnot = np.eye(4)[[0, 1, 3, 2]]
    local = np.kron(random_unitary(2, 1).matrix, random_unitary(2, 2).matrix)
    for gate, want in ((local, [1, 3]), (cnot, [0, 1]),
                       (swap_operator(2).matrix, [-1, -3])):
        assert np.abs(makhlin_invariants(np.exp(0.4j) * gate) - want).max() <= 1e-12
    with pytest.raises(DimensionMismatch):
        makhlin_invariants(np.eye(9))
