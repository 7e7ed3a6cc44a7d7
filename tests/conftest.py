"""Shared gates and generators for the test suite."""

import numpy as np
import pytest

from unidisc.core import (TWO_PI, PureState, UnitaryOperator,
                          gram_schmidt_basis, identity_operator,
                          random_unitary, tensor)
from unidisc.locality import swap_operator
from unidisc.protocol import ALICE, BOB, FORWARD, LoccProtocol, MeasurementPlan, Run

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
HAD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

CNOT_MAT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                    dtype=complex)
CZ_MAT = np.diag([1, 1, 1, -1]).astype(complex)
ISWAP_MAT = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]])


def split_iswap_protocol(dims):
    """One forward run with identity layers telling I from iSWAP on C^4
    under the party split ``dims`` ((1, 4) or (4, 1)), not the gates' (2, 2).

    The input (e_i + i e_{-i}) / sqrt 2, from iSWAP's eigenvectors for +i
    and -i, has second Schmidt coefficient 1/sqrt 2 across 2 x 2; the party
    holding all of C^4 measures a basis that starts with the two outputs.
    """
    e_plus = np.array([0, 1, 1, 0]) / np.sqrt(2)
    e_minus = np.array([0, 1, -1, 0]) / np.sqrt(2)
    psi = (e_plus + 1j * e_minus) / np.sqrt(2)
    basis = gram_schmidt_basis([psi, ISWAP_MAT @ psi], 4)
    whole, unit = PureState(psi, (4,)), PureState(np.ones(1), (1,))
    layers = (np.eye(1), np.eye(4)) if dims[0] == 1 else (np.eye(4), np.eye(1))
    inputs, party = ((unit, whole), BOB) if dims[0] == 1 else ((whole, unit), ALICE)
    return LoccProtocol("IIA", (Run(*layers, FORWARD),), *inputs,
                        MeasurementPlan(party, basis))


@pytest.fixture
def cnot():
    return UnitaryOperator(CNOT_MAT, (2, 2))


@pytest.fixture
def cz():
    return UnitaryOperator(CZ_MAT, (2, 2))


@pytest.fixture
def swap2():
    return swap_operator(2)


@pytest.fixture
def eye4():
    return identity_operator((2, 2))


def product_operator(d, seed):
    """Random A (x) B as a two-qudit operator."""
    pair = tensor(random_unitary(d, seed), random_unitary(d, seed + 50021))
    return UnitaryOperator(pair.matrix, (d, d))


def swap_type_operator(d, seed):
    """Random (A (x) B) P as a two-qudit operator."""
    return UnitaryOperator(product_operator(d, seed).matrix
                           @ swap_operator(d).matrix, (d, d))


def haar_two_qudit(d, seed):
    """Haar two-qudit unitary (imprimitive with probability one)."""
    return UnitaryOperator(random_unitary(d * d, seed).matrix, (d, d))


# acceptance-criterion-7 style entangling pairs by case, at d and generator
# seed s; tests and the benchmark's entangling workload build them with seed s
ENTANGLING_PAIRS = {
    "IIA": lambda d, s: (product_operator(d, 2 * s + 1),
                         haar_two_qudit(d, 2 * s + 10001)),
    "IIB": lambda d, s: (swap_type_operator(d, 2 * s + 1),
                         haar_two_qudit(d, 2 * s + 10001)),
    "IIIA": lambda d, s: (haar_two_qudit(d, 2 * s + 11001),
                          haar_two_qudit(d, 2 * s + 12001)),
}


def random_hermitian(d, seed, scale=1.0):
    """Gaussian Hermitian matrix, deterministic per seed."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * (g + g.conj().T) / 2.0


def arc_brute_force(phases):
    """Exhaustive-search oracle for the arc length of explicit phases.

    Tries every phase as the arc start and takes the smallest arc that
    covers all phases.  O(m^2); used to cross-check ``theta``.
    """
    phases = np.mod(np.asarray(phases, dtype=float), TWO_PI)
    best = TWO_PI
    for start in phases:
        span = np.max(np.mod(phases - start, TWO_PI))
        best = min(best, span)
    return float(best if phases.size > 1 else 0.0)
