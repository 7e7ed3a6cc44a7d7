"""Classification of two-qudit unitaries: product, swap-type, or entangling.

A two-qudit unitary maps every product state to a product state exactly when
it equals A (x) B or (A (x) B) P with P the swap; anything else entangles
some product input.  The product test reads the operator Schmidt rank, 1
exactly for A (x) B, from one power step on the realigned matrix, with a
full SVD only in a narrow band (see :func:`classify`).

The module also recognizes the canonical two-qudit form exp(i x u1 (x) u2)
with u1 = u2 = sigma_x (+) 0_{d-2}, up to a global phase, via a conjugation
test: the form is the unique family inverted by conjugation with each of
  (sigma_z (+) I) (x) I,  (sigma_y (+) I) (x) I,
  I (x) (sigma_z (+) I),  I (x) (sigma_y (+) I).
"""

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_TOLERANCES, PureState, TWO_PI, UnitaryOperator,
                   phase_distance, random_pure_state, schmidt_second)
from .exceptions import DimensionMismatch, ValidationError, WitnessNotFound

PRODUCT_LOCAL = "ProductLocal"
SWAP_LOCAL = "SwapLocal"
IMPRIMITIVE = "Imprimitive"

_WITNESS_SEED = 0x5EED
_WITNESS_RANDOM_BUDGET = 64

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# magic basis: columns |Phi+>, i|Phi->, i|Psi+>, |Psi->
_MAGIC = np.array([[1, 1j, 0, 0], [0, 0, 1j, 1], [0, 0, 1j, -1], [1, -1j, 0, 0]]) / np.sqrt(2.0)


@dataclass(frozen=True)
class LocalityClass:
    """Result of :func:`classify`.

    kind            one of ProductLocal / SwapLocal / Imprimitive
    factors         (A, B) single-qudit unitaries for the primitive kinds
    witness         product input whose image is entangled (Imprimitive only)
    """

    kind: str
    factors: tuple = None
    witness: PureState = None


@dataclass(frozen=True)
class CanonicalXX:
    """Canonical form exp(i x u1 (x) u2) recognized by :func:`extract_canonical_xx`."""

    x: float
    residual: float


def swap_operator(d):
    """The swap P with P |x>|y> = |y>|x> on d (x) d."""
    p = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            p[j * d + i, i * d + j] = 1.0
    return UnitaryOperator(p, (d, d))


def embedded_pauli(sigma, d):
    """sigma (+) I_{d-2} on a d-dimensional qudit."""
    m = np.eye(d, dtype=complex)
    m[:2, :2] = sigma
    return m


def xx_generator(d):
    """u1 = u2 = sigma_x (+) 0_{d-2}."""
    m = np.zeros((d, d), dtype=complex)
    m[:2, :2] = SIGMA_X
    return m


def canonical_xx_matrix(d, x):
    """exp(i x u1 (x) u2) as a raw matrix on d (x) d, in closed form: the
    generator g = u1 (x) u2 has eigenvalues +-1 and 0, so g^3 = g and
    exp(i x g) = I + (cos x - 1) g^2 + i sin x g."""
    g = np.kron(xx_generator(d), xx_generator(d))
    return np.eye(d * d) + (np.cos(x) - 1) * (g @ g) + 1j * np.sin(x) * g


def canonical_xx_operator(d, x):
    return UnitaryOperator(canonical_xx_matrix(d, x), (d, d))


def makhlin_invariants(u):
    """Makhlin's local invariants [G1, G2] of a two-qubit unitary (QIP 1, 243
    (2002)): for m = U_B^T U_B, U_B = Q^dag U Q in the magic basis Q,
    G1 = tr(m)^2 / (16 det U) and G2 = (tr(m)^2 - tr(m^2)) / (4 det U).  They
    agree exactly for gates equal up to local unitaries and global phase.
    """
    mu = u.matrix if isinstance(u, UnitaryOperator) else np.asarray(u, dtype=complex)
    if mu.shape != (4, 4):
        raise DimensionMismatch(f"Makhlin invariants need a 4 x 4 matrix, got {mu.shape}")
    ub = _MAGIC.conj().T @ mu @ _MAGIC
    m = ub.T @ ub
    tr, det = np.trace(m), np.linalg.det(mu)
    return np.array([tr * tr / (16 * det), (tr * tr - np.trace(m @ m)) / (4 * det)])


def conjugation_set(d):
    """The four conjugators used by the canonical-form test, in fixed order."""
    zi = embedded_pauli(SIGMA_Z, d)
    yi = embedded_pauli(SIGMA_Y, d)
    eye = np.eye(d, dtype=complex)
    return (
        np.kron(zi, eye),
        np.kron(yi, eye),
        np.kron(eye, zi),
        np.kron(eye, yi),
    )


def _realign(matrix, d):
    """U_{(i,j),(k,l)} -> R_{(i,k),(j,l)}; rank-1 exactly for A (x) B."""
    t = matrix.reshape(d, d, d, d)
    return t.transpose(0, 2, 1, 3).reshape(d * d, d * d)


def operator_schmidt(u):
    """Operator Schmidt decomposition U = sum_m s_m A_m (x) B_m.

    Returns nonincreasing singular values and the Frobenius-normalized
    factor lists; ``sum s_m kron(A_m, B_m)`` reconstructs U.
    """
    d = u.require_two_party()
    r = _realign(u.matrix, d)
    left, s, right = np.linalg.svd(r)
    # rows of `right` are v_m^H, so B_m[j,l] = conj(v_m)[jl] = right[m, jl]
    a_list = [left[:, m].reshape(d, d) for m in range(s.size)]
    b_list = [right[m, :].reshape(d, d) for m in range(s.size)]
    return s, a_list, b_list


def _unitarize(m):
    """Nearest unitary (polar factor)."""
    w, _, vh = np.linalg.svd(m)
    return w @ vh


def _extract_factors(matrix, d, left, right):
    """(A, B) with kron(A, B) ~ matrix, assuming operator Schmidt rank 1.

    ``left`` and ``right`` are the top left and conjugated right singular
    vectors of the realigned ``matrix``, at any scale and phase.  The first
    entry of A, in flat order, within 1e-8 of its largest magnitude is made
    real positive (every 2 x 2 unitary ties two pairs of magnitudes); the
    residual global phase is absorbed into B so that kron(A, B) matches
    ``matrix`` itself, not merely its phase class.
    """
    a = _unitarize(left.reshape(d, d))
    b = _unitarize(right.reshape(d, d))
    mag = np.abs(a).ravel()
    a = a * np.exp(-1j * np.angle(a.flat[np.flatnonzero(mag >= mag.max() - 1e-8)[0]]))
    b = b * np.exp(1j * np.angle(np.vdot(np.kron(a, b), matrix)))
    return a, b


def _product_factors(matrix, d, tol):
    """(A, B) with kron(A, B) ~ matrix when s2 / s1 <= tol for the operator
    Schmidt values of ``matrix``, else None; see :func:`classify`."""
    r = _realign(matrix, d)
    x = r.conj().T @ r[:, np.argmax(np.linalg.norm(r, axis=0))]
    v = x / np.linalg.norm(x)
    rv = r @ v
    rho = np.linalg.norm(r - np.outer(rv, v.conj()))
    if rho <= tol * np.linalg.norm(rv):
        return _extract_factors(matrix, d, rv, v.conj())
    if rho > d * d * tol * np.linalg.norm(r):
        return None
    left, s, right = np.linalg.svd(r)
    if s[1] / s[0] <= tol:
        return _extract_factors(matrix, d, left[:, 0], right[0, :])
    return None


def classify(u, tol=DEFAULT_TOLERANCES):
    """Decide ProductLocal / SwapLocal / Imprimitive with certificates.

    Product is checked first, then swap-type via U P, and an imprimitive
    verdict carries a product witness whose image is entangled.  Each test
    decides s2 / s1 <= t = tol.classification for the operator Schmidt
    values of its matrix.  From the longest column r_j of the realigned
    d^2 x d^2 matrix R, one power step gives the unit v ~ R^H r_j and the
    remainder rho = ||R - (R v) v^H||_F:

    * rho <= t ||R v||: product, since rho >= s2 for any unit v
      (Eckart-Young) and ||R v|| <= s1.  The factors come from (R v, v).
    * rho > d^2 t ||R||_F: not product.  r_j carries at least 1 / d^2 of
      ||R||_F^2, so s2 / s1 <= t with d^2 t^2 <= 1/2 gives
      rho <= d t s1 <= d t ||R||_F, a margin of d >= 2; for larger t the
      threshold exceeds ||R||_F >= rho and never fires.
    * In between, a full SVD of R decides; its top vectors give the factors.
    """
    d = u.require_two_party()
    kind, factors = PRODUCT_LOCAL, _product_factors(u.matrix, d, tol.classification)
    if factors is None:
        # U P: column (i, j) is U's column (j, i)
        up = u.matrix[:, np.arange(d * d).reshape(d, d).T.ravel()]
        kind, factors = SWAP_LOCAL, _product_factors(up, d, tol.classification)
    if factors is None:
        return LocalityClass(IMPRIMITIVE, witness=_scan_witness(u, d, tol))
    return LocalityClass(kind, factors=tuple(UnitaryOperator(f, (d,)) for f in factors))


def _local_scan_states(d):
    """Deterministic single-qudit scan states: basis, then pair superpositions."""
    basis = [np.eye(d, dtype=complex)[:, j] for j in range(d)]
    sups = []
    for a in range(d):
        for b in range(a + 1, d):
            for amp in (1.0, 1.0j):
                v = np.zeros(d, dtype=complex)
                v[a], v[b] = 1.0, amp
                sups.append(v / np.sqrt(2.0))
    return basis, sups


def imprimitivity_witness(u, tol=DEFAULT_TOLERANCES):
    """Product state whose image under u has second Schmidt coefficient > tol.

    The witness of ``classify(u, tol)``; raises ValidationError when u is
    primitive.
    """
    witness = classify(u, tol).witness
    if witness is None:
        raise ValidationError("operator is primitive; no witness exists")
    return witness


def _scan_witness(u, d, tol):
    """Scans a fixed grid of product inputs (computational-basis products,
    then products involving pair superpositions), then a fixed budget of
    seeded random products, so the result is deterministic."""

    def entangles(vec):
        return schmidt_second(u.matrix @ vec, (d, d)) > tol.classification

    basis, sups = _local_scan_states(d)
    grid = [(a, b) for a in basis for b in basis]
    grid += [(a, b) for a in sups for b in basis + sups]
    grid += [(a, b) for a in basis for b in sups]
    for a, b in grid:
        vec = np.kron(a, b)
        if entangles(vec):
            return PureState(vec, (d, d))
    for k in range(_WITNESS_RANDOM_BUDGET):
        a = random_pure_state(d, _WITNESS_SEED + 2 * k).amplitudes
        b = random_pure_state(d, _WITNESS_SEED + 2 * k + 1).amplitudes
        vec = np.kron(a, b)
        if entangles(vec):
            return PureState(vec, (d, d))
    raise WitnessNotFound(
        "no entangling product input found within the scan budget")


def extract_canonical_xx(u, tol=DEFAULT_TOLERANCES):
    """Recognize U = exp(i x u1 (x) u2) up to a global phase.

    Checks U^dag = A U A^dag up to a phase for every conjugator.  For
    U = e^{i phi} exp(i x u1 (x) u2) the probes omega (x) omega and
    omega^- (x) omega (omega, omega^- the +1 and -1 eigenvectors of u1) have
    matrix elements e^{i(phi + x)} and e^{i(phi - x)}, so x is half their
    phase difference, up to pi.  The first candidate in [-pi, pi) that
    passes the reconstruction check is returned as :class:`CanonicalXX`;
    otherwise ``None``.
    """
    d = u.require_two_party()
    m = u.matrix
    md = m.conj().T
    for a in conjugation_set(d):
        if phase_distance(md, a @ m @ a.conj().T) > tol.classification:
            return None
    omega = np.zeros(d, dtype=complex)
    omega[0] = omega[1] = 1.0 / np.sqrt(2.0)
    omega_minus = omega.copy()
    omega_minus[1] = -omega_minus[1]
    plus, minus = np.kron(omega, omega), np.kron(omega_minus, omega)
    base = 0.5 * (np.angle(np.vdot(plus, m @ plus)) - np.angle(np.vdot(minus, m @ minus)))
    for cand in (base, base + np.pi):
        x = float(np.mod(cand + np.pi, TWO_PI) - np.pi)
        residual = phase_distance(canonical_xx_matrix(d, x), m)
        if residual <= tol.classification:
            return CanonicalXX(x=x, residual=float(residual))
    return None
