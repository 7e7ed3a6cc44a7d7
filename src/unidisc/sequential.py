"""Sequential discrimination schemes: interleave the unknown operation with
auxiliary unitaries so the two hypothesis outputs become orthogonal.

For different U, V with arc Theta(U^dag V) = delta, N = ceil(pi/delta) - 1
auxiliary operations X_1..X_N suffice:

    U X_N U ... X_1 U |psi>   is orthogonal to   V X_N V ... X_1 V |psi>.

The scheme is closed form.  With X_k = U^dag the effective operator
W_k = (U X_k ... X_1 U)^dag (V X_k ... X_1 V) equals A^{k+1}, A = U^dag V,
whose arc is (k + 1) delta.  Since N delta < pi only the last op can
overshoot: when (N + 1) delta > pi it becomes V_A rot(t) V_A^dag U^dag, a
rotation in the plane of A's two extreme eigenvectors root-found so that the
extreme eigenphases of W_N land exactly pi apart.  A scheme thus holds N - 1
copies of one U^dag and one possibly capped last op.  The input state comes
from one eigendecomposition of the final W, recomputed from the real aux
matrices; every scheme is certified by recomputing the overlap directly,
and one above tolerance raises SynthesisFailed.
"""

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .arc import _arc_of_phases, _relative_spectrum, zero_hull_state
from .core import DEFAULT_TOLERANCES, PureState, TWO_PI, UnitaryOperator, unitary_eig
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


def _runs_for_arc(theta_val, tol):
    """N = ceil(pi / theta) - 1 for the arc theta of U^dag V."""
    if theta_val <= tol.classification:
        raise OperatorsEqual("Theta(U^dag V) vanishes within tolerance")
    return max(int(np.ceil(np.pi / theta_val - _CEIL_NUDGE)) - 1, 0)


def required_runs(u, v, tol=DEFAULT_TOLERANCES):
    """N = ceil(pi / Theta(U^dag V)) - 1 auxiliary operations."""
    return _runs_for_arc(_relative_spectrum(u, v, tol)[3], tol)


def _arc_order(phases, vectors):
    """Eigenvectors of a unitary ordered along its spectral arc.

    Returns (vectors_ordered, arc_start, arc_length), the order being that
    of the phase offsets from the arc start.  Raw phases are used; offsets
    within 1e-9 of a full turn are folded back to zero so numerically split
    degenerate eigenvalues stay at the arc start.
    """
    start = _arc_of_phases(phases, 1e-12)[2]
    offsets = np.mod(phases - start, TWO_PI)
    offsets[offsets > TWO_PI - 1e-9] = 0.0
    order = np.argsort(offsets, kind="stable")
    return vectors[:, order], start, float(offsets[order][-1])


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


def _unitary_factor(x, dims):
    """Polar factor of x as a validated operator, so that chain products
    stay exactly unitary."""
    w, _, vh = np.linalg.svd(x)
    return UnitaryOperator(w @ vh, dims, tol=1e-9)


def find_sequential_scheme(u, v, tol=DEFAULT_TOLERANCES):
    """Construct a certified sequential scheme with N = required_runs aux ops.

    The first N - 1 aux ops are one shared operator U^dag, so that
    W_k = A^{k+1} with A = U^dag V.  The last is U^dag too unless
    (N + 1) delta exceeds pi; then it is V_A rot(t) V_A^dag U^dag, the
    rotation capping the extreme eigenphases of W_N exactly pi apart.  The
    input state and the overlap come from the eigendecomposition of W_N
    recomputed from the real aux matrices; a certificate above the
    orthogonality tolerance raises SynthesisFailed.
    """
    _, phases_a, vectors_a, theta_a = _relative_spectrum(u, v, tol)
    n = _runs_for_arc(theta_a, tol)
    dims = u.dims
    va_ord, start_a, delta = _arc_order(phases_a, vectors_a)
    u_dag = _unitary_factor(u.matrix.conj().T, dims)
    aux = [u_dag] * n
    # N delta < pi, so only the last step can overshoot
    if n and (n + 1) * delta > np.pi + 1e-12:
        t = _capped_rotation(delta, n * delta, start_a, (n * start_a) % TWO_PI)
        c, s = np.cos(t), np.sin(t)
        rot = np.eye(va_ord.shape[0])
        rot[0, 0], rot[0, -1], rot[-1, 0], rot[-1, -1] = c, -s, s, c
        aux[-1] = _unitary_factor(va_ord @ rot @ va_ord.conj().T @ u_dag.matrix, dims)

    left, right = u.matrix, v.matrix
    for x in aux:
        left = u.matrix @ x.matrix @ left
        right = v.matrix @ x.matrix @ right
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
