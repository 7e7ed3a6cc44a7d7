"""Compilation of a target two-qudit unitary into a word of local layers
interleaved with uses of a fixed entangling black box (forward or reverse).

A word looks like

    L_0  Q  L_1  Q  ...  Q  L_n        (applied left to right)

with every ``L_k = a_k (x) b_k`` a pair of single-qudit unitaries and each
``Q`` slot either the box or its inverse.  Compilation is iterative
deepening on the box count; for each direction pattern the local layers are
optimized by cyclic polar sweeps: with all layers but one frozen the
objective |tr(T^dag W)| is linear in the free layer, and its optimal pair
(a, b) follows from alternating SVD polar factors.  The sweep increases the
objective monotonically and converges to machine precision near an exact
word.  Restarts sweep in lockstep as one stack, each with its own stopping
rule; a sweep builds the suffix environments once and carries the prefix
forward (O(n) products), forming a (x) b by broadcasting, not ``np.kron``.
"""

from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np

from .core import (DEFAULT_TOLERANCES, UnitaryOperator, phase_distance,
                   random_unitary)
from .exceptions import CompileFailed, DimensionMismatch, ValidationError
from .locality import canonical_xx_matrix
from .protocol import FORWARD, REVERSE

_SWEEPS = 80
_INNER = 6
_RESTARTS = 24


@dataclass(frozen=True)
class LocalLayer:
    """A product layer a (x) b of single-qudit unitaries."""

    a: np.ndarray
    b: np.ndarray

    def matrix(self):
        return np.kron(self.a, self.b)

    def dagger(self):
        return LocalLayer(self.a.conj().T, self.b.conj().T)


@dataclass(frozen=True)
class Box:
    """One use of the black box, forward or reverse."""

    direction: str = FORWARD

    def __post_init__(self):
        if self.direction not in (FORWARD, REVERSE):
            raise ValidationError(f"unknown box direction {self.direction!r}")

    def flipped(self):
        return Box(REVERSE if self.direction == FORWARD else FORWARD)


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


@dataclass(frozen=True)
class ExactMatrix:
    """Compile toward an explicit unitary matrix."""

    matrix: np.ndarray


@dataclass(frozen=True)
class ControlledFormTarget:
    """Canonical controlled unitary |0><0| (x) I + (I - |0><0|) (x) Z_d,
    Z_d = diag(-1, 1, ..., 1)."""


@dataclass(frozen=True)
class CanonicalXXTarget:
    """exp(i x u1 (x) u2) with u1 = u2 = sigma_x (+) 0."""

    x: float = 1.0


def controlled_form_matrix(d):
    p0 = np.diag(np.eye(d, dtype=complex)[0])          # |0><0|, and Z_d = I - 2 p0
    return np.kron(p0, np.eye(d)) + np.kron(np.eye(d) - p0, np.eye(d) - 2 * p0)


def target_matrix(target, d):
    if isinstance(target, ExactMatrix):
        m = target.matrix
        return m.matrix if isinstance(m, UnitaryOperator) else np.asarray(m, dtype=complex)
    if isinstance(target, ControlledFormTarget):
        return controlled_form_matrix(d)
    if isinstance(target, CanonicalXXTarget):
        return canonical_xx_matrix(d, target.x)
    raise ValidationError(f"unknown compile target {target!r}")


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


def word_adjoint(word):
    """Word evaluating to the adjoint: reversed, layers daggered, boxes flipped."""
    items = [item.flipped() if isinstance(item, Box) else item.dagger()
             for item in reversed(word.items)]
    return CircuitWord(tuple(items), word.achieved_error)


def _direction_patterns(n):
    return sorted(iter_product((FORWARD, REVERSE), repeat=n),
                  key=lambda p: (sum(x == REVERSE for x in p), p))


def _kron(a, b):
    """a (x) b for stacks of d x d matrices, by broadcasting."""
    r, d = a.shape[0], a.shape[-1]
    return (a[:, :, None, :, None] * b[:, None, :, None, :]).reshape(r, d * d, d * d)


def _sweep_layers(a, b, boxes, target, d):
    """One cyclic pass of layer updates on the (R, n+1, d, d) factor stacks
    ``a``, ``b`` (in place); returns the (R, d*d, d*d) words."""
    count, n, dim = len(a), len(boxes), d * d
    # right[k] = T^dag L_n Q_{n-1} ... L_{k+1} Q_k; for the prefix P before layer
    # k and G = P right[k], tr(T^dag W) = tr(G L_k) = sum e[ik,jl] a[i,k] b[j,l]
    right = [np.broadcast_to(target.conj().T, (count, dim, dim))]
    for k in range(n - 1, -1, -1):
        right.insert(0, right[0] @ _kron(a[:, k + 1], b[:, k + 1]) @ boxes[k])
    prefix = np.eye(dim, dtype=complex)
    for idx in range(n + 1):
        e = (prefix @ right[idx]).reshape(count, d, d, d, d)
        e = e.transpose(0, 3, 1, 4, 2).reshape(count, dim, dim)  # e[ik,jl] = G[kl,ij]
        la, lb, live = a[:, idx], b[:, idx], np.ones((count, 1, 1), dtype=bool)
        for _ in range(_INNER):
            # x = conj(u vh) maximizes Re tr(g^T x) over unitaries, for g = u s vh
            u, _, vh = np.linalg.svd((e @ lb.reshape(count, dim, 1)).reshape(count, d, d))
            a_new = (u @ vh).conj()
            u, _, vh = np.linalg.svd((a_new.reshape(count, 1, dim) @ e).reshape(count, d, d))
            b_new = (u @ vh).conj()
            step = (np.linalg.norm(a_new - la, axis=(1, 2))
                    + np.linalg.norm(b_new - lb, axis=(1, 2)))
            la, lb = np.where(live, a_new, la), np.where(live, b_new, lb)
            live &= (step >= 1e-14)[:, None, None]
            if not live.any():
                break
        a[:, idx], b[:, idx] = la, lb
        prefix = _kron(la, lb) @ prefix
        if idx < n:
            prefix = boxes[idx] @ prefix
    return prefix


def compile_word(q, target, max_boxes=None, tol=DEFAULT_TOLERANCES, seed=0,
                 restarts=_RESTARTS, box_parity=None, max_patterns=8):
    """Find a circuit word through q matching the target up to global phase.

    Iterative deepening on the box count n; direction patterns are searched
    in order of increasing reverse-use count; each pattern gets ``restarts``
    seeded starts of the n+1 local layers, polar-swept in lockstep.  The
    first restart in order whose phase distance to the target is within the
    compile tolerance gives the word.  ``box_parity="even"`` restricts n to
    even values.

    Raises
    ------
    CompileFailed
        carrying the best error and word found, when the budget is spent.
    """
    d = q.require_two_party()
    t_mat = target_matrix(target, d)
    if t_mat.shape[0] != d * d:
        raise DimensionMismatch("target dimension does not match the box")
    if max_boxes is None:
        max_boxes = 8 if d == 2 else 16
    if max_boxes < 1:
        raise ValidationError("max_boxes must be at least 1")

    mq = q.matrix
    best_err, best_word = np.inf, None
    depths = [n for n in range(1, max_boxes + 1)
              if box_parity != "even" or n % 2 == 0]
    for n in depths:
        for p_idx, pattern in enumerate(_direction_patterns(n)[:max_patterns]):
            boxes = np.array([mq if direction == FORWARD else mq.conj().T
                              for direction in pattern])
            # restart r > 0 starts layer k at the draws seeded base + 2 (r + k) (+ 1)
            base = (seed * 1_000_003 + n * 10_007 + p_idx * 101) * 2
            draws = np.array([[random_unitary(d, base + 2 * j + side).matrix
                               for side in (0, 1)] for j in range(restarts + n)])
            window = np.arange(restarts)[:, None] + np.arange(n + 1)
            a, b = draws[window, 0], draws[window, 1]
            a[:1] = b[:1] = np.eye(d)
            err, prev = np.full(restarts, np.nan), np.full(restarts, -1.0)
            live, first = np.arange(restarts), 0
            for sweep in range(_SWEEPS):
                la, lb = a[live], b[live]
                w = _sweep_layers(la, lb, boxes, t_mat, d)
                a[live], b[live] = la, lb
                score = np.abs(np.einsum("ij,rij->r", t_mat.conj(), w))
                done = (score - prev[live] < 1e-15) | (sweep == _SWEEPS - 1)
                prev[live] = score
                err[live[done]] = [phase_distance(w_r, t_mat) for w_r in w[done]]
                live = live[~done]
                # end once the first passing restart and all before it stopped
                while first < restarts and err[first] > tol.compile:
                    first += 1
                if first == restarts or err[first] <= tol.compile:
                    break
            if first < restarts:
                return _assemble_word(a[first], b[first], pattern, err[first])
            for r in range(restarts):
                if err[r] < best_err:
                    best_err, best_word = err[r], _assemble_word(a[r], b[r], pattern, err[r])
    raise CompileFailed(f"no word within tolerance at max_boxes={max_boxes}; "
                        f"best error {best_err:.3e}",
                        best_error=float(best_err), best_word=best_word)


def _assemble_word(a, b, pattern, err):
    items = [LocalLayer(a[0].copy(), b[0].copy())]
    for k, direction in enumerate(pattern):
        items += [Box(direction), LocalLayer(a[k + 1].copy(), b[k + 1].copy())]
    return CircuitWord(tuple(items), achieved_error=float(err))
