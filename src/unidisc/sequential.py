"""Sequential discrimination schemes: interleave the unknown operation with
auxiliary unitaries so the two hypothesis outputs become orthogonal.

For different U, V with arc Theta(U^dag V) = delta, N = ceil(pi/delta) - 1
auxiliary operations X_1..X_N suffice (:func:`arc._runs_for_arc`):

    U X_N U ... X_1 U |psi>   is orthogonal to   V X_N V ... X_1 V |psi>.

The scheme is closed form.  With X_k = U^dag the effective operator
W_k = (U X_k ... X_1 U)^dag (V X_k ... X_1 V) equals A^{k+1}, A = U^dag V,
whose arc is (k + 1) delta.  Since N delta < pi only the last op can
overshoot: when (N + 1) delta > pi it becomes V_A rot(t) V_A^dag U^dag, a
rotation in the plane of A's two extreme eigenvectors by the closed-form
angle that puts the extreme eigenphases of W_N exactly pi apart.  A scheme
thus holds N - 1 copies of one U^dag and one possibly capped last op.  The
input state comes from one eigendecomposition of the final W, recomputed
from the real aux matrices; every scheme is certified by recomputing the
overlap directly, and one above tolerance raises SynthesisFailed.  N = 0
makes no aux op and takes A's zero-hull state: every one-use input.
"""

from dataclasses import dataclass

import numpy as np

from .arc import _relative_spectrum, _runs_for_arc, _widest_gap, zero_hull_state
from .core import DEFAULT_TOLERANCES, PureState, TWO_PI, UnitaryOperator, unitary_eig
from .exceptions import DimensionMismatch, SynthesisFailed
from .locality import _unitarize


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
    return _runs_for_arc(_relative_spectrum(u, v, tol)[3], tol)


def _capped_rotation(delta, n):
    """Rotation angle t making the extreme eigenphase spread exactly pi.

    The two extreme slots of Y(t)^dag A Y(t) A^n form a 2x2 block
    R(t)^dag diag(a_s, a_e) R(t) diag(w_s, w_e) whose determinant is fixed;
    the arc starts cancel in h(t) = Re(exp(-i sigma/2) tr) = 2 cos(spread/2)
    = 2 cos^2 t cos((n+1) delta/2) + 2 sin^2 t cos((n-1) delta/2).  Capping
    means (n+1) delta > pi > (n-1) delta, so h vanishes at
    t = arctan sqrt(-cos((n+1) delta/2) / cos((n-1) delta/2)) in (0, pi/2).
    """
    return float(np.arctan(np.sqrt(-np.cos(0.5 * (n + 1) * delta)
                                   / np.cos(0.5 * (n - 1) * delta))))


def _plane_rotation(vectors, j, k, t):
    """Rotation by t in the plane of columns j and k of the unitary
    ``vectors``, identity on their orthogonal complement."""
    c, s = np.cos(t), np.sin(t)
    rot = np.eye(vectors.shape[0])
    rot[j, j], rot[j, k], rot[k, j], rot[k, k] = c, -s, s, c
    return vectors @ rot @ vectors.conj().T


def _unitary_factor(x, dims):
    """Polar factor of x as a validated operator, so that chain products
    stay exactly unitary."""
    return UnitaryOperator(_unitarize(x), dims, tol=1e-9)


def find_sequential_scheme(u, v, tol=DEFAULT_TOLERANCES, spectrum=None):
    """Construct a certified sequential scheme with N = required_runs aux ops.

    The first N - 1 aux ops are one shared operator U^dag, so that
    W_k = A^{k+1} with A = U^dag V.  The last is U^dag too unless
    (N + 1) delta exceeds pi; then it is V_A rot(t) V_A^dag U^dag, the
    rotation in the plane of A's arc ends that caps the extreme eigenphases
    of W_N exactly pi apart.  N >= 1 puts the arc below pi, so its ends,
    read from the one gap wider than pi, admit no float tie.  The input
    state and the overlap come from the eigendecomposition of W_N
    recomputed from the real aux matrices (with no aux op W_N is A, and no
    U^dag is formed); a certificate above tolerance raises SynthesisFailed.
    ``spectrum`` is ``_relative_spectrum(u, v, tol)`` when the caller has
    already computed it, and is then not computed again.
    """
    if spectrum is None:
        spectrum = _relative_spectrum(u, v, tol)
    w, phases, vectors, theta_a = spectrum
    n = _runs_for_arc(theta_a, tol)
    dims, aux = u.dims, []
    if n:
        k = _widest_gap(phases)[0]   # A's arc: phases[k] round to phases[k - 1]
        delta = float(np.mod(phases[k - 1] - phases[k], TWO_PI))
        u_dag = _unitary_factor(u.matrix.conj().T, dims)
        aux = [u_dag] * n
        # N delta < pi, so only the last step can overshoot
        if (n + 1) * delta > np.pi + 1e-12:
            # columns rolled into arc order: the ends are first and last
            rot = _plane_rotation(np.roll(vectors, -k, axis=1), 0, -1,
                                  _capped_rotation(delta, n))
            aux[-1] = _unitary_factor(rot @ u_dag.matrix, dims)
        # U's and V's chains as one stack, one (U X, V X) step per distinct X
        stack = chain = np.stack([u.matrix, v.matrix])
        step = stack @ u_dag.matrix
        for _ in aux[:-1]:
            chain = step @ chain
        chain = stack @ aux[-1].matrix @ chain
        w = chain[0].conj().T @ chain[1]
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
