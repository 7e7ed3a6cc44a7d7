"""Sequential discrimination schemes: interleave the unknown operation with
auxiliary unitaries so the two hypothesis outputs become orthogonal.

For different U, V with arc Theta(U^dag V) = delta, N = ceil(pi/delta) - 1
auxiliary operations X_1..X_N suffice:

    U X_N U ... X_1 U |psi>   is orthogonal to   V X_N V ... X_1 V |psi>.

The synthesizer grows the arc of the effective operator
W_k = (U X_k ... X_1 U)^dag (V X_k ... X_1 V) by exactly delta per step:
writing W_k = Y^dag A Y W_{k-1} with A = U^dag V and Y = X_k L_{k-1} free,
mapping the arc-ordered eigenbasis of W_{k-1} onto that of A adds the two
arc lengths.  That basis is A's own on every step (W_k = A^{k+1} until the
cap), so the arc data is carried analytically and A is diagonalized once.
On the final step a rotation in the plane of the two extreme eigenvectors
is root-found so the extreme eigenphases land exactly pi apart, and the
input state comes from one eigendecomposition of the final W.  Every scheme
is certified by directly recomputing the overlap; there is no numerical
fallback, a certificate above tolerance raises SynthesisFailed.
"""

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .arc import _arc_of_phases, theta, zero_hull_state
from .core import (DEFAULT_TOLERANCES, PureState, TWO_PI, UnitaryOperator,
                   phase_distance, unitary_eig)
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

    The arc data of W_k is carried analytically: on every uncapped step
    W_k = A^{k+1}, so its arc-ordered eigenbasis stays that of A, its arc
    start advances by A's and its arc length by delta.  Only the last step
    can be capped, and nothing reads the eigendata of its output except the
    final eigendecomposition of the real product, which yields the input
    state and the recomputed overlap.  The pass is exact and
    deterministic; a certificate above the orthogonality tolerance raises
    SynthesisFailed.  ``seed`` and ``restarts`` are accepted for
    compatibility and do not change the result.
    """
    n = required_runs(u, v, tol)
    dims = u.dims
    a_mat = u.matrix.conj().T @ v.matrix
    _, va_ord, start_a, delta = _arc_order(a_mat)
    dim = a_mat.shape[0]

    # W_0 = A; on each uncapped step W_k = A^{k+1} keeps A's eigenbasis
    start_w, th_w = start_a, delta
    left = u.matrix.copy()
    right = v.matrix.copy()
    aux = []
    for _ in range(n):
        # Y = V_A rot V_W^dag with V_W = V_A: the identity unless capped
        x = left.conj().T
        if th_w + delta > np.pi + 1e-12:
            t = _capped_rotation(delta, th_w, start_a, start_w)
            c, s = np.cos(t), np.sin(t)
            rot = np.eye(dim)
            rot[0, 0] = c
            rot[0, dim - 1] = -s
            rot[dim - 1, 0] = s
            rot[dim - 1, dim - 1] = c
            x = va_ord @ rot @ va_ord.conj().T @ x
        # polar cleanup keeps the accumulated product exactly unitary
        uu, _, vh = np.linalg.svd(x)
        x = uu @ vh
        aux.append(UnitaryOperator(x, dims, tol=1e-9))
        left = u.matrix @ x @ left
        right = v.matrix @ x @ right
        start_w = (start_w + start_a) % TWO_PI
        th_w += delta

    w = left.conj().T @ right
    phases, vectors = unitary_eig(w)
    found = zero_hull_state(phases, vectors, tol)
    overlap = np.inf if found is None else float(abs(np.vdot(found[0], w @ found[0])))
    if overlap > tol.orthogonality:
        raise SynthesisFailed(
            f"arc growth over {n} aux ops missed orthogonality; "
            f"overlap {overlap:.3e}", best_overlap=overlap)
    return SequentialScheme(tuple(aux), PureState(found[0], dims), overlap)


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
