"""Compilation of a target two-qudit unitary into a word of local layers
interleaved with uses of a fixed entangling black box (forward or reverse).

A word looks like

    L_0  Q  L_1  Q  ...  Q  L_n        (applied left to right)

with every ``L_k = a_k (x) b_k`` a pair of single-qudit unitaries and each
``Q`` slot either the box or its inverse.  Compilation is iterative
deepening on the box count; for each direction pattern the local layers are
optimized by cyclic polar sweeps: with all layers but one frozen the
objective |tr(T^dag W)| is linear in the free layer, and its optimal pair
(a, b) follows from alternating unitary polar factors (closed form at d=2,
SVD at d >= 3).  The sweep increases the objective monotonically and
converges to machine precision near an exact word.  The restarts of both
direction patterns of a box count sweep in lockstep as one stack, each with
its own box slots and stopping rule; a sweep builds the
suffix environments once and carries the prefix forward (O(n) products),
forming a (x) b by broadcasting, not ``np.kron``.
"""

from dataclasses import dataclass

import numpy as np

from .core import (DEFAULT_TOLERANCES, UnitaryOperator, phase_distance,
                   random_unitary)
from .exceptions import CompileFailed, DimensionMismatch, ValidationError
from .protocol import FORWARD, REVERSE

_SWEEPS = 80
_INNER = 6
_RESTARTS = 12
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


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
    """All forward, then the last use reversed."""
    return [(FORWARD,) * n, (FORWARD,) * (n - 1) + (REVERSE,)]


def _kron(a, b):
    """a (x) b for stacks of d x d matrices, by broadcasting."""
    r, d = a.shape[0], a.shape[-1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(r, d * d, d * d)


def _polar(g):
    """Unitary polar factor u @ vh of every g = u s vh in an (R, d, d) stack.

    At d=2 it is W = (g + e^{i arg det g} adj(g)^dag) / sqrt(|g|_F^2 + 2 |det g|),
    which is also unitary (a valid polar factor) at rank 1; a zero g, where
    every unitary is one, gets the identity.  d >= 3 takes the SVD.
    """
    if g.shape[-1] != 2:
        u, _, vh = np.linalg.svd(g)
        return u @ vh
    det = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    scale = np.sqrt(np.sum(g.real ** 2 + g.imag ** 2, axis=(1, 2)) + 2 * np.abs(det))
    adj_dag = g[:, ::-1, ::-1].conj() * _ADJ_SIGNS      # adj(g)^dag
    w = g + np.exp(1j * np.angle(det))[:, None, None] * adj_dag
    if not scale.all():
        zero = scale == 0
        w[zero], scale[zero] = np.eye(2), 1.0
    return w / scale[:, None, None]


def _sweep_layers(a, b, boxes, target, d):
    """One cyclic pass of layer updates on the (R, n+1, d, d) factor stacks
    ``a``, ``b`` (in place), each row with its own (n, d*d, d*d) box slots in
    ``boxes`` (R, n, d*d, d*d); returns the (R, d*d, d*d) words."""
    count, n, dim = len(a), boxes.shape[1], d * d
    # right[k] = T^dag L_n Q_{n-1} ... L_{k+1} Q_k; for the prefix P before layer
    # k and G = P right[k], tr(T^dag W) = tr(G L_k) = sum e[ik,jl] a[i,k] b[j,l]
    right = [np.broadcast_to(target.conj().T, (count, dim, dim))]
    for k in range(n - 1, -1, -1):
        right.insert(0, right[0] @ _kron(a[:, k + 1], b[:, k + 1]) @ boxes[:, k])
    prefix = np.eye(dim, dtype=complex)
    for idx in range(n + 1):
        e = (prefix @ right[idx]).reshape(count, d, d, d, d)
        e = e.transpose(0, 3, 1, 4, 2).reshape(count, dim, dim)  # e[ik,jl] = G[kl,ij]
        la, lb, live = a[:, idx], b[:, idx], np.ones((count, 1, 1), dtype=bool)
        for _ in range(_INNER):
            # x = conj(u vh) maximizes Re tr(g^T x) over unitaries, for g = u s vh
            a_new = _polar((e @ lb.reshape(count, dim, 1)).reshape(count, d, d)).conj()
            b_new = _polar((a_new.reshape(count, 1, dim) @ e).reshape(count, d, d)).conj()
            step = (np.linalg.norm(a_new - la, axis=(1, 2))
                    + np.linalg.norm(b_new - lb, axis=(1, 2)))
            la, lb = np.where(live, a_new, la), np.where(live, b_new, lb)
            live &= (step >= 1e-14)[:, None, None]
            if not live.any():
                break
        a[:, idx], b[:, idx] = la, lb
        prefix = _kron(la, lb) @ prefix
        if idx < n:
            prefix = boxes[:, idx] @ prefix
    return prefix


def compile_word(q, target, max_boxes, tol=DEFAULT_TOLERANCES, seed=0):
    """Find a circuit word through q matching the target matrix (an ndarray
    or a UnitaryOperator) up to global phase.

    Iterative deepening on the box count n; at each n the all-forward
    pattern, then the one with its last use reversed, gets ``_RESTARTS``
    seeded starts of the n+1 local layers, and the starts of both patterns
    are polar-swept in lockstep as one stack.  The first restart in order
    (all-forward before reversed) whose phase distance to the target is
    within the compile tolerance gives the word.

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
    best_err, best_word = np.inf, None
    for n in range(1, max_boxes + 1):
        patterns = _direction_patterns(n)
        starts, boxes = [], []
        for p_idx, pattern in enumerate(patterns):
            # restart r > 0 starts layer k at the draws seeded base + 2 (r + k) (+ 1)
            base = (seed * 1_000_003 + n * 10_007 + p_idx * 101) * 2
            draws = np.array([[random_unitary(d, base + 2 * j + side).matrix
                               for side in (0, 1)] for j in range(_RESTARTS + n)])
            starts.append(draws[np.arange(_RESTARTS)[:, None] + np.arange(n + 1)])
            boxes += [[mq if direction == FORWARD else mq.conj().T
                       for direction in pattern]] * _RESTARTS
        # rows: pattern 0's restarts, then pattern 1's, swept as one stack;
        # restart 0 of each pattern starts from identity layers
        starts, boxes = np.concatenate(starts), np.array(boxes)
        a, b = starts[:, :, 0], starts[:, :, 1]
        a[::_RESTARTS] = b[::_RESTARTS] = np.eye(d)
        rows = len(a)
        err, prev = np.full(rows, np.nan), np.full(rows, -1.0)
        live, first = np.arange(rows), 0
        for sweep in range(_SWEEPS):
            la, lb = a[live], b[live]
            w = _sweep_layers(la, lb, boxes[live], t_mat, d)
            a[live], b[live] = la, lb
            score = np.abs(np.einsum("ij,rij->r", t_mat.conj(), w))
            done = (score - prev[live] < 1e-15) | (sweep == _SWEEPS - 1)
            prev[live] = score
            err[live[done]] = [phase_distance(w_r, t_mat) for w_r in w[done]]
            live = live[~done]
            # end once the first passing restart and all before it stopped
            while first < rows and err[first] > tol.compile:
                first += 1
            if first == rows or err[first] <= tol.compile:
                break
        if first < rows:
            return _assemble_word(a[first], b[first], patterns[first // _RESTARTS],
                                  err[first])
        for r in range(rows):
            if err[r] < best_err:
                best_err, best_word = err[r], _assemble_word(
                    a[r], b[r], patterns[r // _RESTARTS], err[r])
    raise CompileFailed(f"no word within tolerance at max_boxes={max_boxes}; "
                        f"best error {best_err:.3e}",
                        best_error=float(best_err), best_word=best_word)


def _assemble_word(a, b, pattern, err):
    items = [LocalLayer(a[0].copy(), b[0].copy())]
    for k, direction in enumerate(pattern):
        items += [Box(direction), LocalLayer(a[k + 1].copy(), b[k + 1].copy())]
    return CircuitWord(tuple(items), achieved_error=float(err))
