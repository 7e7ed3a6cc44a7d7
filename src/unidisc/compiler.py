"""Compilation of a target two-qudit unitary into a word of local layers
interleaved with uses of a fixed entangling black box (forward or reverse).

A word looks like

    L_0  Q  L_1  Q  ...  Q  L_n        (applied left to right)

with every ``L_k = a_k (x) b_k`` a pair of single-qudit unitaries and each
``Q`` slot either the box or its inverse.  Compilation is iterative
deepening on the box count.  For each direction pattern the layers
exp(i H_A) (x) exp(i H_B) and a global phase phi are fitted to the target T
by least squares on vec(W - e^{i phi} T): ``_RESTARTS`` seeded restarts run
in lockstep through one Levenberg-Marquardt loop (:func:`_solve_lockstep`)
on the exact Jacobian, which carries the layer derivatives of
:func:`_layer_kernel` through prefix and suffix products of the word.  The
solve ends as soon as one restart has converged, and a restart that stalls
above the pass threshold stops early.  The engine's entangling synthesis
runs on the same kernel and solver.

At d=2 one box reaches T exactly when the box or its inverse is locally
equivalent to T, which Makhlin's invariants decide in closed form.
"""

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_TOLERANCES, UnitaryOperator, hermitian_basis,
                   phase_distance)
from .exceptions import CompileFailed, DimensionMismatch, ValidationError
from .locality import makhlin_invariants
from .protocol import FORWARD, REVERSE

_RESTARTS = 12
_LM_ITERATIONS = 200
_STALL_WINDOW = 10      # a failing row stops unless, over this many iterations,
_STALL_GAIN = 0.01      # its cost fell by at least this fraction
_SYNTH_PASS = 1e-8      # max residual at which a restart is taken
_ONE_BOX_GAP = 1e-3     # Makhlin-invariant gap above which one box cannot reach


@dataclass(frozen=True)
class LocalLayer:
    """A product layer a (x) b of single-qudit unitaries."""

    a: np.ndarray
    b: np.ndarray

    def matrix(self):
        return np.kron(self.a, self.b)


@dataclass(frozen=True)
class Box:
    """One use of the black box, forward or reverse."""

    direction: str = FORWARD

    def __post_init__(self):
        if self.direction not in (FORWARD, REVERSE):
            raise ValidationError(f"unknown box direction {self.direction!r}")


@dataclass(frozen=True)
class CircuitWord:
    """Alternating local layers and box slots, ending and starting local."""

    items: tuple
    achieved_error: float = 0.0

    def __post_init__(self):
        items = tuple(self.items)
        if not items or not isinstance(items[0], LocalLayer) \
                or not isinstance(items[-1], LocalLayer):
            raise ValidationError("a word must start and end with a LocalLayer")
        for first, second in zip(items, items[1:]):
            if isinstance(first, Box) == isinstance(second, Box):
                raise ValidationError("layers and boxes must alternate")
        object.__setattr__(self, "items", items)

    @property
    def box_uses(self):
        return sum(1 for item in self.items if isinstance(item, Box))

    @property
    def directions(self):
        return [item.direction for item in self.items if isinstance(item, Box)]


def evaluate_word(word, q):
    """Multiply the word, substituting q / q^dag into the box slots.

    Items are in application order: the first item acts first.
    """
    mq = q.matrix if isinstance(q, UnitaryOperator) else np.asarray(q, dtype=complex)
    dim = mq.shape[0]
    out = np.eye(dim, dtype=complex)
    for item in word.items:
        if isinstance(item, Box):
            step = mq if item.direction == FORWARD else mq.conj().T
        else:
            step = item.matrix()
            if step.shape[0] != dim:
                raise DimensionMismatch(
                    f"layer dimension {step.shape[0]} vs box {dim}")
        out = step @ out
    if isinstance(q, UnitaryOperator):
        return UnitaryOperator(out, q.dims, tol=1e-8)
    return out


def _direction_patterns(n):
    """All forward, then the last use reversed.  The engine's list has no
    reversed one-box word, which targets such as q^dag need."""
    return [(FORWARD,) * n, (FORWARD,) * (n - 1) + (REVERSE,)]


def _layer_kernel(coords, basis):
    """Layers exp(i H) of the Hermitian matrices with coordinates ``coords``
    (R, 2m, d*d) in ``basis``, paired as Alice's at 2k and Bob's at 2k + 1,
    from one stacked eigendecomposition.

    Returns the layers (R, 2m, d, d), the Kronecker layer matrices
    L_k = A_k (x) B_k (R, m, d*d, d*d) and their derivatives
    (R, m, 2 d*d, d*d, d*d), along A_k's coordinates (dA (x) B) and then
    B_k's (A (x) dB).
    """
    h = np.tensordot(coords, basis, axes=1)
    w, v = np.linalg.eigh(h)
    vh = v.conj().swapaxes(-1, -2)
    ops = (v * np.exp(1j * w)[..., None, :]) @ vh
    # Daleckii-Krein: d exp(iH)[E] = V ((V^dag E V) o G) V^dag, G the
    # divided differences of e^{iw}, written to stay exact at ties
    w_i, w_j = w[..., :, None], w[..., None, :]
    g = 1j * np.exp(0.5j * (w_i + w_j)) * np.sinc(0.5 * (w_i - w_j) / np.pi)
    v, vh = v[:, :, None], vh[:, :, None]
    dops = v @ ((vh @ basis @ v) * g[:, :, None]) @ vh
    a, b, da, db = ops[:, 0::2], ops[:, 1::2], dops[:, 0::2], dops[:, 1::2]
    dim = basis.shape[-1] ** 2

    def kron(x, y):                 # x (x) y over stacks, by broadcasting
        out = x[..., :, None, :, None] * y[..., None, :, None, :]
        return out.reshape(out.shape[:-4] + (dim, dim))

    dkron = np.concatenate([kron(da, b[:, :, None]), kron(a[:, :, None], db)], axis=2)
    return ops, kron(a, b), dkron


def _damped_steps(normal, g):
    """Steps -N^{-1} g for a stack of damped normal matrices N (R, P, P)
    and gradients g (R, P).  When the batched solve meets an exactly
    singular N it is redone row by row: the other rows get the same steps,
    and a singular row gets a zero step, which the caller rejects."""
    try:
        return -np.linalg.solve(normal, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = np.zeros_like(g)
        for r in range(len(g)):
            try:
                step[r] = -np.linalg.solve(normal[r], g[r, :, None])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return step


def _solve_lockstep(problem, x0):
    """Levenberg-Marquardt on a stack of restarts x0 (R, n_params) of one
    problem (``problem.evaluate`` gives stacked residuals and Jacobians), in
    lockstep: one stacked evaluation and one batched linear solve per
    iteration.

    Damping is Marquardt-scaled (by the running maximum of diag(J^T J))
    and follows Nielsen's update.  Nothing bounds the damping from below,
    so a damped normal matrix with an exact null direction can be singular
    in floating point; that row's step is then zero (:func:`_damped_steps`)
    and, like any step that does not lower the cost, rejected, so its
    damping grows by nu.  A row stops when max|f| <= 1e-15, when
    an accepted step lowers its cost by a relative amount below 1e-9, when
    its damping passes 1e10, when max|f| > ``_SYNTH_PASS`` and its cost fell
    by less than ``_STALL_GAIN`` over the last ``_STALL_WINDOW``
    iterations, or after ``_LM_ITERATIONS``.  The solve ends as soon as any
    row with max|f| <= ``_SYNTH_PASS`` has stopped, or when every row has.
    Returns the rows' last points and their max|f|.
    """
    x = np.array(x0, dtype=float)
    f, jac = problem.evaluate(x)
    cost, err = 0.5 * np.sum(f * f, axis=1), np.abs(f).max(axis=1)
    damping, nu = np.full(len(x), 1e-3), np.full(len(x), 2.0)
    scale = np.full_like(x, 1e-12)
    live, past = err > 1e-15, [cost.copy()]
    diag = np.arange(x.shape[1])
    for _ in range(_LM_ITERATIONS):
        if not live.any() or (~live & (err <= _SYNTH_PASS)).any():
            break
        rows = np.flatnonzero(live)
        j, g = jac[rows], np.einsum("rij,ri->rj", jac[rows], f[rows])
        normal = j.swapaxes(1, 2) @ j
        scale[rows] = np.maximum(scale[rows], normal[:, diag, diag])
        damp = damping[rows, None] * scale[rows]
        normal[:, diag, diag] += damp
        step = _damped_steps(normal, g)
        f_new, jac_new = problem.evaluate(x[rows] + step)
        cost_new = 0.5 * np.sum(f_new * f_new, axis=1)
        gain = cost[rows] - cost_new
        predicted = 0.5 * np.sum(step * (damp * step - g), axis=1)
        ok = (gain > 0) & (predicted > 0)
        rho = gain[ok] / predicted[ok]
        took = rows[ok]
        live[took[gain[ok] < 1e-9 * cost[took]]] = False
        x[took] += step[ok]
        f[took], jac[took] = f_new[ok], jac_new[ok]
        cost[took] = cost_new[ok]
        err[took] = np.abs(f_new[ok]).max(axis=1)
        damping[took] *= np.maximum(1 / 3, 1 - (2 * rho - 1) ** 3)
        nu[took] = 2.0
        damping[rows[~ok]] *= nu[rows[~ok]]
        nu[rows[~ok]] *= 2.0
        live &= (err > 1e-15) & (damping <= 1e10)
        past.append(cost.copy())
        if len(past) > _STALL_WINDOW:
            live &= (err <= _SYNTH_PASS) | (cost < (1 - _STALL_GAIN) * past[-1 - _STALL_WINDOW])
    return x, err


class _CompileProblem:
    """Residuals vec(W - e^{i phi} T), real then imaginary parts, of the word
    W = L_n Q_{n-1} ... Q_0 L_0 through the box slots ``boxes``, and their
    exact Jacobian, for a stack of parameter points at once.

    Parameters: per layer k the coordinates of H_A, then of H_B, in
    ``hermitian_basis(d)`` (L_k = exp(i H_A) (x) exp(i H_B)), then phi.
    Along layer k the word moves by S_k dL_k P_k, for the prefix
    P_k = Q_{k-1} L_{k-1} ... Q_0 L_0 and the suffix S_k = L_n Q_{n-1} ...
    L_{k+1} Q_k.
    """

    def __init__(self, d, boxes, target):
        self.d, self.n, self.boxes, self.target = d, len(boxes), boxes, target
        self.basis = hermitian_basis(d)
        self.n_params = 2 * (self.n + 1) * d * d + 1

    def layers(self, x):
        """:func:`_layer_kernel` at the layer coordinates of the rows of x."""
        return _layer_kernel(x[:, :-1].reshape(len(x), 2 * (self.n + 1), -1),
                             self.basis)

    def word(self, kron, dkron=None):
        """Words W (R, D, D) from the layer matrices and, given their
        derivatives ``dkron``, dW (R, n_params - 1, D, D)."""
        prefix, suffix = [np.eye(len(self.target))], [np.eye(len(self.target))]
        for k, box in enumerate(self.boxes):
            prefix.append(box @ kron[:, k] @ prefix[-1])
            suffix.insert(0, suffix[0] @ kron[:, self.n - k] @ self.boxes[-1 - k])
        w = kron[:, -1] @ prefix[-1]
        if dkron is None:
            return w
        dw = [suffix[k][..., None, :, :] @ dkron[:, k] @ prefix[k][..., None, :, :]
              for k in range(self.n + 1)]
        return w, np.concatenate(dw, axis=1)

    def evaluate(self, x):
        """Residuals (R, 2 D^2) and Jacobians (R, 2 D^2, n_params) at the
        rows of x (R, n_params)."""
        count, target = len(x), self.target.ravel()
        _, kron, dkron = self.layers(x)
        w, dw = self.word(kron, dkron)
        phase = np.exp(1j * x[:, -1])[:, None]
        z = w.reshape(count, -1) - phase * target
        dz = np.concatenate([dw.reshape(count, self.n_params - 1, -1),
                             (-1j * phase * target)[:, None]], axis=1)
        f = np.concatenate([z.real, z.imag], axis=1)
        jac = np.concatenate([dz.real, dz.imag], axis=2).swapaxes(1, 2)
        return f, jac


def _one_box_gap(box, target):
    """Makhlin-invariant gap, zero iff L1 box L0 = T up to phase for some L0, L1."""
    return float(np.abs(makhlin_invariants(box) - makhlin_invariants(target)).max())


def compile_word(q, target, max_boxes, tol=DEFAULT_TOLERANCES, seed=0):
    """Find a circuit word through q matching the target matrix (an ndarray
    or a UnitaryOperator) up to global phase.

    Iterative deepening on the box count n; at each n the all-forward
    pattern, then the one with its last use reversed, gets one lockstep
    solve of ``_RESTARTS`` starts (restart 0 at the identity layers, the
    rest from ``default_rng([seed, n, pattern])``; phi = arg tr(T^dag W)).
    Of the restarts within the compile tolerance when the solve ends, the
    lowest index gives the word.
    At d=2, box count 1 is skipped when a larger one is in the budget and
    both Makhlin-invariant gaps (of q and of q^dag) exceed ``_ONE_BOX_GAP``.

    Raises
    ------
    CompileFailed
        carrying the best error and word found, when the budget is spent.
    """
    d = q.require_two_party()
    t_mat = target.matrix if isinstance(target, UnitaryOperator) \
        else np.asarray(target, dtype=complex)
    if t_mat.shape != (d * d, d * d):
        raise DimensionMismatch("target dimension does not match the box")
    if max_boxes < 1:
        raise ValidationError("max_boxes must be at least 1")
    if seed < 0:
        raise ValidationError("seed must be non-negative")

    mq = q.matrix
    slots = {FORWARD: mq, REVERSE: mq.conj().T}
    one_box_out = d == 2 and max_boxes > 1 and min(
        _one_box_gap(mq, t_mat), _one_box_gap(slots[REVERSE], t_mat)) > _ONE_BOX_GAP
    best_err, best_word = np.inf, None
    for n in range(2 if one_box_out else 1, max_boxes + 1):
        for p_idx, pattern in enumerate(_direction_patterns(n)):
            problem = _CompileProblem(d, [slots[p] for p in pattern], t_mat)
            x0 = np.random.default_rng([seed, n, p_idx]).standard_normal(
                (_RESTARTS, problem.n_params))
            x0[0] = 0.0                  # the identity layers
            w0 = problem.word(problem.layers(x0)[1])
            x0[:, -1] = np.angle(np.einsum("ij,rij->r", t_mat.conj(), w0))
            x, _ = _solve_lockstep(problem, x0)
            ops, kron, _ = problem.layers(x)
            errs = [phase_distance(w, t_mat) for w in problem.word(kron)]
            r = next((r for r, e in enumerate(errs) if e <= tol.compile),
                     int(np.argmin(errs)))
            if errs[r] < best_err:       # every earlier best failed
                best_err, best_word = errs[r], _assemble_word(ops[r], pattern, errs[r])
                if best_err <= tol.compile:
                    return best_word
    raise CompileFailed(f"no word within tolerance at max_boxes={max_boxes}; "
                        f"best error {best_err:.3e}",
                        best_error=float(best_err), best_word=best_word)


def _assemble_word(ops, pattern, err):
    """The word of the layers ``ops`` (2(n+1), d, d), paired (a_k, b_k)."""
    items = [LocalLayer(ops[0].copy(), ops[1].copy())]
    for k, direction in enumerate(pattern, start=1):
        items += [Box(direction), LocalLayer(ops[2 * k].copy(), ops[2 * k + 1].copy())]
    return CircuitWord(tuple(items), achieved_error=float(err))
