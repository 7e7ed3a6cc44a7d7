"""Dense complex-matrix primitives: validated unitaries and pure states,
tensor composition, phase-invariant distance, spectra, Haar sampling.

Conventions used by every module in the package:

* Composite indices are row-major with the first (Alice) factor most
  significant, exactly as produced by ``numpy.kron``.
* Global phase carries no meaning; operator equality is always tested
  through :func:`phase_distance`.
* Eigenphases are canonicalized to ``[0, 2*pi)`` and sorted ascending.

All values are immutable after construction and every operation is a pure
function, so everything here is safe for concurrent use.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionMismatch, EigendecompositionError, ValidationError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the package.

    unitarity       bound on ||M^dag M - I||_F accepted for a unitary
    orthogonality   bound certifying that two states are orthogonal / product
    classification  threshold for merging eigenphases and for class decisions
    compile         accepted phase distance between a compiled word and its target
    """

    unitarity: float = 1e-9
    orthogonality: float = 1e-6
    classification: float = 1e-8
    compile: float = 1e-6

    def __post_init__(self):
        for name in ("unitarity", "orthogonality", "classification", "compile"):
            value = getattr(self, name)
            if not (0.0 < value < 1e-2):
                raise ValidationError(
                    f"tolerance {name!r} must lie in (0, 1e-2), got {value}"
                )


DEFAULT_TOLERANCES = Tolerances()


def _as_complex_matrix(matrix):
    """Coerce to a finite, square complex ndarray (copy, read-only)."""
    m = np.array(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix contains non-finite entries")
    m.setflags(write=False)
    return m


def _normalize_dims(dims, size):
    dims = (size,) if dims is None else tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValidationError(f"subsystem dimensions must be positive, got {dims}")
    if int(np.prod(dims)) != size:
        raise ValidationError(f"dims {dims} do not multiply to dimension {size}")
    return dims


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """A validated unitary matrix with declared subsystem dimensions.

    ``dims`` has length 1 for a single qudit and length 2 (equal entries)
    for a two-qudit operator.  ``residual`` records ||M^dag M - I||_F.
    """

    matrix: np.ndarray
    dims: tuple = None
    tol: float = DEFAULT_TOLERANCES.unitarity
    residual: float = field(init=False, default=0.0)

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix)
        dims = _normalize_dims(self.dims, m.shape[0])
        residual = float(
            np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0]), ord="fro")
        )
        if residual > self.tol:
            raise ValidationError(
                f"matrix is not unitary: residual {residual:.3e} exceeds {self.tol:.1e}"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "residual", residual)

    @property
    def is_two_party(self):
        return len(self.dims) == 2

    def require_two_party(self):
        if not (self.is_two_party and self.dims[0] == self.dims[1]):
            raise ValidationError("two-party operators require equal dimensions")
        return self.dims[0]


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized state vector with declared subsystem dimensions."""

    amplitudes: np.ndarray
    dims: tuple = None

    _NORM_TOL = 1e-12

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if not np.all(np.isfinite(v)):
            raise ValidationError("state contains non-finite entries")
        norm = np.linalg.norm(v)
        if abs(norm - 1.0) > self._NORM_TOL:
            raise ValidationError(f"state norm {norm!r} is not 1 within 1e-12")
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)
        object.__setattr__(self, "dims", _normalize_dims(self.dims, v.size))

    @property
    def dim(self):
        return self.amplitudes.size


def state(vector, dims=None):
    """Normalize ``vector`` and wrap it as a :class:`PureState`."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValidationError("cannot normalize the zero vector")
    return PureState(v / norm, dims)


def basis_state(index, dims):
    dims = tuple(dims)
    v = np.zeros(int(np.prod(dims)), dtype=complex)
    v[index] = 1.0
    return PureState(v, dims)


def identity_operator(dims):
    dims = tuple(dims)
    return UnitaryOperator(np.eye(int(np.prod(dims))), dims)


def tensor(a, b):
    """Kronecker product of two operators.

    The composite index is row-major: the first factor is most significant.
    Subsystem dimension lists concatenate.
    """
    if not (isinstance(a, UnitaryOperator) and isinstance(b, UnitaryOperator)):
        raise DimensionMismatch("tensor requires two operators")
    return UnitaryOperator(np.kron(a.matrix, b.matrix), a.dims + b.dims,
                           max(a.tol, b.tol))


def phase_distance(u, v):
    """min over phi of ||U - e^{i phi} V||_F = sqrt(2 D - 2 |tr(U^dag V)|).

    Zero exactly when U and V agree up to a global phase.  The minimizer is
    phi* = arg tr(U^dag V); evaluating the norm directly at phi* keeps full
    accuracy near zero, where the closed form loses half the digits to
    cancellation.  Accepts :class:`UnitaryOperator` or raw matrices.
    """
    mu = u.matrix if isinstance(u, UnitaryOperator) else np.asarray(u, dtype=complex)
    mv = v.matrix if isinstance(v, UnitaryOperator) else np.asarray(v, dtype=complex)
    if mu.shape != mv.shape:
        raise DimensionMismatch(f"shape {mu.shape} vs {mv.shape}")
    trace = np.trace(mu.conj().T @ mv)
    phi = -np.angle(trace) if abs(trace) > 0.0 else 0.0
    return float(np.linalg.norm(mu - np.exp(1j * phi) * mv, ord="fro"))


def _canonical_vector_phase(v):
    """Rotate the unit vector v so its first significant component is real
    positive."""
    first = np.flatnonzero(np.abs(v) > 1e-8)[0]
    return v * np.exp(-1j * np.angle(v[first]))


def unitary_eig(u):
    """Eigenphases in [0, 2 pi) and orthonormal eigenvectors of a unitary.

    ``W = e^{i turn} U`` puts the middle of the widest gap between the
    eigenvalues at -1, so the Cayley transform ``i (I - W)(I + W)^{-1}`` is
    Hermitian with eigenvalues ``t = tan(theta / 2)``, theta the phases of
    W; ``eigh`` keeps the vectors orthonormal under degeneracy, and U's
    phases are ``2 arctan(t) - turn``.  Phases are sorted ascending; ties
    are broken by the lexicographic order of the phase-canonicalized
    eigenvectors.

    Returns
    -------
    phases : (D,) float array
    vectors : (D, D) complex array, column j belongs to phases[j]
    """
    m = u.matrix if isinstance(u, UnitaryOperator) else _as_complex_matrix(u)
    eye = np.eye(m.shape[0])
    try:
        angles = np.sort(np.angle(np.linalg.eigvals(m)))
        gaps = np.diff(angles, append=angles[0] + TWO_PI)
        turn = np.pi - angles[np.argmax(gaps)] - gaps.max() / 2
        w = np.exp(1j * turn) * m
        h = 1j * np.linalg.solve(eye + w, eye - w)
        t, z = np.linalg.eigh((h + h.conj().T) / 2)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"eigendecomposition failed: {exc}") from exc
    phases = np.mod(2 * np.arctan(t) - turn, TWO_PI)
    # values within 1e-12 of 2 pi wrap to 0
    phases[phases > TWO_PI - 1e-12] = 0.0
    vectors = np.array([_canonical_vector_phase(z[:, j]) for j in range(z.shape[1])]).T

    order = np.argsort(phases, kind="stable")
    phases, vectors = phases[order], vectors[:, order]
    # deterministic tie-break inside degenerate groups
    j = 0
    while j < phases.size:
        k = j
        while k + 1 < phases.size and phases[k + 1] - phases[j] <= 1e-12:
            k += 1
        if k > j:
            keys = sorted(
                range(j, k + 1),
                key=lambda c: tuple(np.round(np.concatenate(
                    [vectors[:, c].real, vectors[:, c].imag]), 10)),
            )
            vectors[:, j:k + 1] = vectors[:, keys]
        j = k + 1

    recon = (vectors * np.exp(1j * phases)) @ vectors.conj().T
    err = np.linalg.norm(recon - m, ord="fro")
    if err > 1e-9:
        raise EigendecompositionError(
            f"eigendecomposition reconstruction error {err:.3e} exceeds 1e-9"
        )
    return phases, vectors


def random_unitary(d, seed):
    """Haar-distributed d x d unitary, deterministic per seed.

    QR of a complex Ginibre matrix with the R-diagonal phases absorbed, which
    yields Haar measure.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    q = q * (diag / np.abs(diag))
    return UnitaryOperator(q, (d,), tol=1e-12)


def random_pure_state(d, seed):
    """Haar-random state vector of dimension d, deterministic per seed."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return state(v, (d,))


def hermitian_basis(d):
    """Real-linear basis of the d x d Hermitian matrices, shape (d*d, d, d).

    The diagonal units E_kk come first, then for each i < j (row-major) the
    pair E_ij + E_ji, i E_ij - i E_ji, so ``tensordot(params, basis, 1)``
    puts params[k] on the diagonal and params[re] + i params[im] at (i, j).
    """
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    k = d
    for i in range(d):
        for j in range(i + 1, d):
            basis[k, i, j] = basis[k, j, i] = 1.0
            basis[k + 1, i, j], basis[k + 1, j, i] = 1j, -1j
            k += 2
    return basis


def schmidt_coefficients(vector, dims):
    """Schmidt coefficients (descending singular values) of a bipartite vector."""
    da, db = dims
    v = np.asarray(vector, dtype=complex).reshape(da, db)
    return np.linalg.svd(v, compute_uv=False)


def schmidt_second(vector, dims):
    """Second Schmidt coefficient; zero iff the state is a product state."""
    s = schmidt_coefficients(vector, dims)
    return float(s[1]) if s.size > 1 else 0.0


def schmidt_split(vector, dims):
    """Dominant Schmidt factors (alice, bob) of a bipartite vector."""
    da, db = dims
    v = np.asarray(vector, dtype=complex).reshape(da, db)
    left, _, right = np.linalg.svd(v)
    # v = left diag(s) right, so the dominant term is outer(left[:, 0], right[0, :])
    return (_canonical_vector_phase(left[:, 0]),
            _canonical_vector_phase(right[0, :]))


def gram_schmidt_basis(seeds, dim):
    """Orthonormal basis of C^dim extending the given seed vectors.

    Seeds are orthonormalized in order (near-duplicates dropped), then the
    canonical basis vectors fill the remaining directions deterministically.
    """
    basis = []
    candidates = [np.asarray(s, dtype=complex).reshape(-1) for s in seeds]
    candidates += [np.eye(dim)[:, j].astype(complex) for j in range(dim)]
    for c in candidates:
        v = c.copy()
        for b in basis:
            v -= b * (b.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            basis.append(v / norm)
        if len(basis) == dim:
            break
    return np.array(basis).T
