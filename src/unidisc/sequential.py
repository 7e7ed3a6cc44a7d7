"""Sequential discrimination schemes: interleave the unknown operation with
auxiliary unitaries so the two hypothesis outputs become orthogonal.

For different U, V with arc Theta(U^dag V) = delta, N = ceil(pi/delta) - 1
auxiliary operations X_1..X_N suffice:

    U X_N U ... X_1 U |psi>   is orthogonal to   V X_N V ... X_1 V |psi>.

The synthesizer grows the arc of the effective operator
W_k = (U X_k ... X_1 U)^dag (V X_k ... X_1 V) by exactly delta per step:
writing W_k = Y^dag A Y W_{k-1} with A = U^dag V and Y = X_k L_{k-1} free,
mapping the arc-ordered eigenbasis of W_{k-1} onto that of A adds the two
arc lengths.  On the final step a rotation in the plane of the two extreme
eigenvectors is root-found so the extreme eigenphases land exactly pi
apart, and the input state comes from the antipodal pair.  Every scheme is
certified by directly recomputing the overlap.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .arc import _arc_of_phases, theta, zero_hull_state
from .core import (DEFAULT_TOLERANCES, PureState, TWO_PI, UnitaryOperator,
                   hermitian_basis, phase_distance, unitary_eig)
from .exceptions import DimensionMismatch, OperatorsEqual, SynthesisFailed

_CEIL_NUDGE = 1e-9  # protects exact ratios like pi / (pi/3) from float drift


@dataclass(frozen=True)
class SequentialScheme:
    """Auxiliary operations, input state, and certified overlap."""

    aux_ops: tuple
    input: PureState
    overlap: float

    @property
    def uses(self):
        """Number of black-box applications (= len(aux_ops) + 1)."""
        return len(self.aux_ops) + 1


def required_runs(u, v, tol=DEFAULT_TOLERANCES):
    """N = ceil(pi / Theta(U^dag V)) - 1 auxiliary operations."""
    if u.dims != v.dims:
        raise DimensionMismatch(f"dims {u.dims} vs {v.dims}")
    if phase_distance(u, v) <= tol.classification:
        raise OperatorsEqual("operators agree up to a global phase")
    arc = theta(UnitaryOperator(u.matrix.conj().T @ v.matrix, u.dims), tol)
    if arc.theta <= tol.classification:
        raise OperatorsEqual("Theta(U^dag V) vanishes within tolerance")
    return max(int(np.ceil(np.pi / arc.theta - _CEIL_NUDGE)) - 1, 0)


def _arc_order(matrix):
    """Eigendata of a unitary ordered along its spectral arc.

    Returns (phases_ordered, vectors_ordered, arc_start, arc_length) with
    phases expressed as unwrapped offsets from the arc start.  Raw phases
    are used; offsets within 1e-9 of a full turn are folded back to zero so
    numerically split degenerate eigenvalues stay at the arc start.
    """
    phases, vectors = unitary_eig(matrix)
    _, _, start, _, _ = _arc_of_phases(phases, 1e-12)
    offsets = np.mod(phases - start, TWO_PI)
    offsets[offsets > TWO_PI - 1e-9] = 0.0
    order = np.argsort(offsets, kind="stable")
    return offsets[order], vectors[:, order], start, float(offsets[order][-1])


def _capped_rotation(delta, th_w, start_a, start_w):
    """Rotation angle t making the extreme eigenphase spread exactly pi.

    The two extreme slots of Y(t)^dag A Y(t) W form a 2x2 block
    R(t)^dag diag(a_s, a_e) R(t) diag(w_s, w_e) whose determinant is fixed,
    so h(t) = Re(exp(-i sigma/2) tr) = 2 cos(spread/2) and the cap is the
    root of h on [0, pi/2].
    """
    a_s, a_e = start_a + 0.0, start_a + delta
    w_s, w_e = start_w + 0.0, start_w + th_w
    sigma = a_s + a_e + w_s + w_e
    da = np.diag(np.exp(1j * np.array([a_s, a_e])))
    dw = np.diag(np.exp(1j * np.array([w_s, w_e])))

    def h(t):
        c, s = np.cos(t), np.sin(t)
        r = np.array([[c, -s], [s, c]])
        block = r.T @ da @ r @ dw
        return float(np.real(np.exp(-0.5j * sigma) * np.trace(block)))

    lo, hi = 0.0, np.pi / 2.0
    if h(lo) >= 0.0:
        return 0.0
    return float(scipy.optimize.brentq(h, lo, hi, xtol=1e-15))


def find_sequential_scheme(u, v, tol=DEFAULT_TOLERANCES, seed=0, restarts=8):
    """Construct a certified sequential scheme with N = required_runs aux ops.

    The analytic arc-growth pass is exact and deterministic; if its
    certificate unexpectedly misses the orthogonality tolerance, a joint
    least-squares pass over all auxiliary operations and the input state is
    tried from seeded restarts before reporting SynthesisFailed.
    """
    n = required_runs(u, v, tol)
    dims = u.dims
    a_mat = u.matrix.conj().T @ v.matrix
    _, va_ord, start_a, delta = _arc_order(a_mat)

    left = u.matrix.copy()
    right = v.matrix.copy()
    aux = []
    for _ in range(n):
        w = left.conj().T @ right
        _, vw_ord, start_w, th_w = _arc_order(w)
        dim = w.shape[0]
        if th_w + delta <= np.pi + 1e-12:
            t = 0.0
        else:
            t = _capped_rotation(delta, th_w, start_a, start_w)
        rot = np.eye(dim)
        if dim >= 2 and t != 0.0:
            c, s = np.cos(t), np.sin(t)
            rot[0, 0] = c
            rot[0, dim - 1] = -s
            rot[dim - 1, 0] = s
            rot[dim - 1, dim - 1] = c
        y = va_ord @ rot @ vw_ord.conj().T
        x = y @ left.conj().T
        # polar cleanup keeps the accumulated product exactly unitary
        uu, _, vh = np.linalg.svd(x)
        x = uu @ vh
        aux.append(UnitaryOperator(x, dims, tol=1e-9))
        left = u.matrix @ x @ left
        right = v.matrix @ x @ right

    w = left.conj().T @ right
    phases, vectors = unitary_eig(w)
    found = zero_hull_state(phases, vectors, tol)
    if found is not None:
        psi = found[0]
        overlap = float(abs(np.vdot(psi, w @ psi)))
        if overlap <= tol.orthogonality:
            return SequentialScheme(tuple(aux), PureState(psi, dims), overlap)

    return _joint_synthesis(u, v, n, tol, seed, restarts, aux)


def _joint_synthesis(u, v, n, tol, seed, restarts, warm_aux):
    """Least-squares fallback over all aux operations and the input state."""
    dim = u.matrix.shape[0]
    n_h = dim * dim
    basis = hermitian_basis(dim)

    def unpack(params):
        xs = []
        for k in range(n):
            h = np.tensordot(params[k * n_h:(k + 1) * n_h], basis, axes=1)
            xs.append(scipy.linalg.expm(1j * h))
        raw = params[n * n_h:]
        psi = raw[:dim] + 1j * raw[dim:]
        norm = np.linalg.norm(psi)
        psi = psi / norm if norm > 1e-9 else np.eye(dim)[:, 0].astype(complex)
        return xs, psi

    def residual(params):
        xs, psi = unpack(params)
        lv, rv = u.matrix @ psi, v.matrix @ psi
        for x in xs:
            lv = u.matrix @ (x @ lv)
            rv = v.matrix @ (x @ rv)
        z = np.vdot(lv, rv)
        return np.array([z.real, z.imag])

    rng = np.random.default_rng(seed)
    best = None
    starts = []
    if warm_aux:
        warm = np.concatenate(
            [_params_from_hermitian(-1j * scipy.linalg.logm(x.matrix), dim)
             for x in warm_aux] + [np.ones(2 * dim) / np.sqrt(2 * dim)])
        starts.append(warm)
    for _ in range(restarts):
        starts.append(rng.standard_normal(n * n_h + 2 * dim))
    for p0 in starts:
        res = scipy.optimize.least_squares(residual, p0, method="trf",
                                           xtol=1e-15, ftol=1e-15, gtol=1e-15,
                                           max_nfev=2000)
        overlap = float(np.linalg.norm(res.fun))
        if best is None or overlap < best[0]:
            xs, psi = unpack(res.x)
            best = (overlap, xs, psi)
        if overlap <= tol.orthogonality:
            break
    overlap, xs, psi = best
    if overlap > tol.orthogonality:
        raise SynthesisFailed(
            f"budget {n} exhausted; best overlap {overlap:.3e}",
            best_overlap=overlap)
    aux = tuple(UnitaryOperator(x, u.dims, tol=1e-8) for x in xs)
    return SequentialScheme(aux, PureState(psi, u.dims), overlap)


def _params_from_hermitian(h, dim):
    """Coordinates of Hermitian h in ``hermitian_basis(dim)`` (its inverse)."""
    basis = hermitian_basis(dim)
    gram = np.einsum("kij,kij->k", basis.conj(), basis).real
    return np.einsum("kij,ij->k", basis.conj(), h).real / gram


def evaluate_scheme(scheme, u, v):
    """Recompute the scheme overlap by explicit matrix-vector products.

    Independent of any value cached inside the scheme.
    """
    if u.dims != v.dims or u.dims != scheme.input.dims:
        raise DimensionMismatch("scheme and operators have mismatched dims")
    lv = u.matrix @ scheme.input.amplitudes
    rv = v.matrix @ scheme.input.amplitudes
    for x in scheme.aux_ops:
        lv = u.matrix @ (x.matrix @ lv)
        rv = v.matrix @ (x.matrix @ rv)
    return float(abs(np.vdot(lv, rv)))
