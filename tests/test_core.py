"""Tests for the matrix substrate: tensor, distances, spectra, sampling."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg

import unidisc

from unidisc.core import (PureState, UnitaryOperator, basis_state,
                          identity_operator, phase_distance, random_unitary,
                          schmidt_second, state, tensor, unitary_eig)
from unidisc.exceptions import (DimensionMismatch, EigendecompositionError,
                                ValidationError)

from conftest import HAD, SX, SZ


def test_unitary_validation_rejects_nonunitary():
    with pytest.raises(ValidationError):
        UnitaryOperator(np.array([[2, 0], [0, 1]], dtype=complex), (2,))


def test_unitary_validation_rejects_bad_dims():
    with pytest.raises(ValidationError):
        UnitaryOperator(np.eye(4), (2, 3))


def test_state_normalization_contract():
    with pytest.raises(ValidationError):
        PureState(np.array([1.0, 1.0]), (2,))
    psi = state([1.0, 1.0], (2,))
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-15


def test_tensor_identity_case():
    out = tensor(identity_operator((2,)), identity_operator((2,)))
    assert np.array_equal(out.matrix, np.eye(4))
    assert out.dims == (2, 2)


def test_tensor_basis_permutation():
    op = tensor(UnitaryOperator(SX, (2,)), identity_operator((2,)))
    out = op.matrix @ basis_state(0, (2, 2)).amplitudes
    np.testing.assert_allclose(out, basis_state(2, (2, 2)).amplitudes)  # |1>|0>


def test_tensor_hadamard_pair_uniform():
    # oracle: direct 4x4 matrix-vector product
    h2 = np.kron(HAD, HAD)
    expected = h2 @ np.eye(4)[:, 0]
    op = tensor(UnitaryOperator(HAD, (2,)), UnitaryOperator(HAD, (2,)))
    out = op.matrix @ basis_state(0, (2, 2)).amplitudes
    np.testing.assert_allclose(out, expected, atol=1e-15)
    np.testing.assert_allclose(np.abs(out), 0.5, atol=1e-15)


def test_tensor_associativity_up_to_flattening():
    a = random_unitary(2, 1)
    b = random_unitary(3, 2)
    c = random_unitary(2, 3)
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert np.max(np.abs(left.matrix - right.matrix)) < 1e-12


def test_tensor_rejects_states():
    psi = basis_state(0, (2,))
    with pytest.raises(DimensionMismatch):
        tensor(psi, psi)
    with pytest.raises(DimensionMismatch):
        tensor(identity_operator((2,)), psi)


def test_phase_distance_phase_invariance():
    u = random_unitary(3, 5)
    shifted = UnitaryOperator(np.exp(1.3j) * u.matrix, (3,))
    assert phase_distance(u, shifted) < 1e-12


def test_phase_distance_pauli_values():
    eye = identity_operator((2,))
    assert abs(phase_distance(eye, UnitaryOperator(SX, (2,))) - 2.0) < 1e-12
    assert abs(phase_distance(eye, UnitaryOperator(SZ, (2,))) - 2.0) < 1e-12


def test_phase_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        phase_distance(identity_operator((2,)), identity_operator((3,)))


def test_phase_distance_pseudometric():
    rng = np.random.default_rng(0)
    for k in range(20):
        a = random_unitary(3, 3 * k).matrix
        b = random_unitary(3, 3 * k + 1).matrix
        c = random_unitary(3, 3 * k + 2).matrix
        assert abs(phase_distance(a, b) - phase_distance(b, a)) < 1e-10
        assert phase_distance(a, c) <= phase_distance(a, b) + phase_distance(b, c) + 1e-10
    del rng


def test_unitary_eig_identity_and_pauli_z():
    phases, _ = unitary_eig(identity_operator((2,)))
    np.testing.assert_allclose(phases, [0.0, 0.0], atol=1e-12)
    phases, vectors = unitary_eig(UnitaryOperator(SZ, (2,)))
    np.testing.assert_allclose(phases, [0.0, np.pi], atol=1e-12)
    np.testing.assert_allclose(np.abs(vectors[:, 0]), [1, 0], atol=1e-12)
    np.testing.assert_allclose(np.abs(vectors[:, 1]), [0, 1], atol=1e-12)


def test_unitary_eig_hadamard_involution():
    phases, vectors = unitary_eig(UnitaryOperator(HAD, (2,)))
    np.testing.assert_allclose(phases, [0.0, np.pi], atol=1e-9)
    recon = (vectors * np.exp(1j * phases)) @ vectors.conj().T
    assert np.linalg.norm(recon - HAD) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 9])
def test_unitary_eig_reconstruction_property(d):
    for k in range(25):
        u = random_unitary(d, 1000 * d + k)
        phases, vectors = unitary_eig(u)
        assert np.all(np.diff(phases) >= 0)
        assert np.all((phases >= 0) & (phases < 2 * np.pi))
        recon = (vectors * np.exp(1j * phases)) @ vectors.conj().T
        assert np.linalg.norm(recon - u.matrix, ord="fro") < 1e-9
        gram = vectors.conj().T @ vectors
        assert np.linalg.norm(gram - np.eye(d), ord="fro") < 1e-9


def _with_phases(phases, seed):
    """Q diag(e^{i phases}) Q^dag for a Haar Q of matching size."""
    q = random_unitary(len(phases), seed).matrix
    return (q * np.exp(1j * np.asarray(phases))) @ q.conj().T


def _cluster(width):
    # four phases at 2.0 split by width, among spread-out singles
    return [0.4, 2.0, 2.0 + width, 2.0 + 2 * width, 2.0 + 3 * width, 3.3, 5.9]


HARD_SPECTRA = {
    "exact-degenerate": lambda: _with_phases([1.0] * 3 + [2.5] * 2 + [4.0], 1),
    "split-1e-12": lambda: _with_phases(_cluster(1e-12), 2),
    "split-1e-9": lambda: _with_phases(_cluster(1e-9), 3),
    "split-1e-6": lambda: _with_phases(_cluster(1e-6), 4),
    "antipodal": lambda: _with_phases([0.7, 0.7, 0.7 + np.pi, 0.7 + np.pi], 5),
    "minus-identity": lambda: -np.eye(3),
    "phase-identity": lambda: np.exp(0.3j) * np.eye(4),
    "D=1": lambda: np.array([[np.exp(5.0j)]]),
    "D=81": lambda: random_unitary(81, 6).matrix,
    "D=81-clusters": lambda: _with_phases(
        np.repeat([0.2, 1.9, 1.9 + 1e-9, 3.6, 5.1], [20, 15, 15, 20, 11]), 7),
}


@pytest.mark.parametrize("name", HARD_SPECTRA)
def test_unitary_eig_hard_spectra_match_schur(name):
    m = HARD_SPECTRA[name]()
    phases, vectors = unitary_eig(m)
    d = m.shape[0]
    assert np.abs(vectors.conj().T @ vectors - np.eye(d)).max() <= 1e-12
    recon = (vectors * np.exp(1j * phases)) @ vectors.conj().T
    assert np.linalg.norm(recon - m, ord="fro") <= 1e-9
    # the complex Schur form of a normal matrix is diagonal: the oracle
    t, _ = scipy.linalg.schur(m, output="complex")
    want = np.mod(np.angle(np.diagonal(t)), 2 * np.pi)
    want[want > 2 * np.pi - 1e-12] = 0.0
    np.testing.assert_allclose(phases, np.sort(want), rtol=0, atol=1e-12)


def test_unitary_eig_linalg_failure_is_an_eigendecomposition_error(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(EigendecompositionError, match="did not converge"):
        unitary_eig(identity_operator((2,)))


def test_random_unitary_determinism_and_residual():
    a = random_unitary(2, 7)
    b = random_unitary(2, 7)
    assert np.array_equal(a.matrix, b.matrix)
    m = random_unitary(3, 1).matrix
    assert np.linalg.norm(m.conj().T @ m - np.eye(3), ord="fro") <= 1e-12


def test_random_unitary_haar_trace_moment():
    # E |tr U|^2 = 1 for Haar measure on U(2); direct sampling oracle
    total = 0.0
    n = 10_000
    for seed in range(n):
        total += abs(np.trace(random_unitary(2, seed).matrix)) ** 2
    assert abs(total / n - 1.0) < 0.05


def test_schmidt_second_flags_entanglement():
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert abs(schmidt_second(bell, (2, 2)) - 1 / np.sqrt(2)) < 1e-12
    assert schmidt_second(np.eye(4)[:, 0], (2, 2)) < 1e-15


def test_import_leaves_scipy_unloaded():
    # the library runs on numpy alone; a fresh interpreter shows whether any
    # module of the package pulls in scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(unidisc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, unidisc, unidisc.cli; "
            "sys.exit(int(any(m.split('.')[0] == 'scipy' for m in sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert result.returncode == 0
