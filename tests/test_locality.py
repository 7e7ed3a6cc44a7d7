"""Tests for locality classification, witnesses, and the canonical XX form."""

import numpy as np
import pytest
import scipy.linalg

from unidisc.core import (DEFAULT_TOLERANCES, UnitaryOperator, phase_distance,
                          random_unitary, schmidt_coefficients, tensor)
from unidisc.exceptions import DimensionMismatch, ValidationError
from unidisc.locality import (IMPRIMITIVE, PRODUCT_LOCAL, SWAP_LOCAL,
                              _extract_factors, _realign,
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


def _near_product(d, seed, eps):
    """(A (x) B) exp(i eps G) for a random Hermitian G of unit norm."""
    h = random_hermitian(d * d, seed)
    w, q = np.linalg.eigh(h / np.linalg.norm(h))
    return UnitaryOperator(product_operator(d, seed).matrix
                           @ (q * np.exp(1j * eps * w)) @ q.conj().T, (d, d))


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the matrices passed to np.linalg.svd while the test runs."""
    shapes = []
    svd = np.linalg.svd

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return shapes


def _classify_counting(shapes, u):
    """classify(u) and the number of d^2 x d^2 SVDs it made."""
    before, d = len(shapes), u.dims[0]
    return classify(u), shapes[before:].count((d * d, d * d))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 9])
def test_rank_one_step_decides_as_the_svd_ratio(d, svd_shapes):
    # near-product gates on both sides of tol and of d^2 tol: the kind is
    # the SVD ratio test's, and a gate in the band between the bounds takes
    # exactly one SVD
    tol = DEFAULT_TOLERANCES.classification
    verdicts, svds = [], []
    for k, eps in enumerate(np.geomspace(1e-12, 1e-4, 40)):
        u = _near_product(d, 100 * d + k, eps)
        s = operator_schmidt(u)[0]
        got, count = _classify_counting(svd_shapes, u)
        assert got.kind != SWAP_LOCAL
        assert (got.kind == PRODUCT_LOCAL) == (s[1] / s[0] <= tol), (eps, s[1] / s[0])
        verdicts.append(got.kind == PRODUCT_LOCAL)
        svds.append(count)
    assert any(verdicts) and not all(verdicts)
    assert set(svds) == {0, 1}


@pytest.mark.parametrize("d", [2, 3, 9])
def test_clear_gates_make_no_big_svd(d, svd_shapes):
    for make in (product_operator, swap_type_operator, haar_two_qudit):
        assert _classify_counting(svd_shapes, make(d, 7))[1] == 0


@pytest.mark.parametrize("d", range(2, 10))
def test_factors_rebuild_the_gate(d):
    p = swap_operator(d).matrix
    for k in range(5):
        u = product_operator(d, 31 * k + d)
        got = classify(u)
        assert got.kind == PRODUCT_LOCAL
        a, b = (f.matrix for f in got.factors)
        assert np.linalg.norm(np.kron(a, b) - u.matrix) <= 1e-12
        u = swap_type_operator(d, 37 * k + d)
        got = classify(u)
        assert got.kind == SWAP_LOCAL
        a, b = (f.matrix for f in got.factors)
        assert np.linalg.norm(np.kron(a, b) - u.matrix @ p) <= 1e-12


def test_d2_factor_phase_does_not_follow_rounding():
    # every 2 x 2 unitary ties |a00| = |a11| and |a01| = |a10|, so the phase
    # reference must not depend on the last bits of the singular vectors
    for k in range(300):
        u = product_operator(2, 1000 + k)
        left, _, right = np.linalg.svd(_realign(u.matrix, 2))
        a, b = _extract_factors(u.matrix, 2, left[:, 0], right[0, :])
        got = classify(u).factors
        assert np.abs(got[0].matrix - a).max() <= 1e-12, k
        assert np.abs(got[1].matrix - b).max() <= 1e-12, k


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
