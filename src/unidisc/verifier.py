"""Independent simulation and certification of LOCC protocols.

The verifier never trusts values cached inside a protocol.  It first
checks the protocol's own contract: every box split as the protocol's
parties, every local operation unitary, the measurement basis complete.
Then one stacked pass carries both hypothesis branches through the runs
together, with no Kronecker product, and keeps every post-run state.  From
these it takes the second Schmidt coefficient after every run in one
batched SVD (the no-entanglement audit covers the whole process, not just
the endpoints), the final overlap, and the outcome probabilities of the
declared measurement plan, which must be {1, 0}.  The engine calls the two
halves of ``verify`` itself and reads its plan off the states this kernel
computed in the same call.  The kernel shares no code with the engine's
synthesis kernel, so a bug in one cannot certify the other's output.
"""

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOLERANCES, PureState, UnitaryOperator, \
    schmidt_split
from .exceptions import DimensionMismatch
from .protocol import ALICE, BOB, FORWARD


@dataclass(frozen=True)
class VerificationReport:
    """Recomputed certificate for one protocol and one operator pair.

    ``passed`` is exactly: every local operation unitary within
    tol.unitarity, overlap <= tol, schmidt_second_max <= tol,
    norm_deviation <= tol (orthogonality tolerance; a box that shrinks
    states would make the first two vacuous) and ``measurement_ok``, which
    holds when the basis is complete, the plan names a party whose outputs
    separate and only outcomes of its basis, and U lands on the outcomes
    the decision map sends to "U" and V on every other outcome, each with
    probability at least 1 - tol.  When a local operation is not unitary
    nothing is simulated and the numeric fields are NaN.
    """

    overlap: float
    schmidt_second_max: float
    measuring_party: str
    box_uses: int
    per_run_trace: tuple
    passed: bool
    measurement_ok: bool
    norm_deviation: float

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} overlap={self.overlap:.3e} "
                f"schmidt2_max={self.schmidt_second_max:.3e} "
                f"party={self.measuring_party} boxes={self.box_uses}")


def _box_matrix(box, dims):
    """A box's matrix; an operator must be split as the protocol, ``dims``."""
    if isinstance(box, UnitaryOperator) and box.dims != dims:
        raise DimensionMismatch(f"operator dims {list(box.dims)} vs protocol dims {list(dims)}")
    return box.matrix if isinstance(box, UnitaryOperator) else np.asarray(box, dtype=complex)


def _all_unitary(mats, dim, tol):
    """Whether every matrix is dim x dim and unitary within tol.unitarity,
    in one stacked check; NaN or infinite entries fail the comparison."""
    if any(m.shape != (dim, dim) for m in mats):
        return False
    stack = np.array(mats).reshape(-1, dim, dim)
    gram = np.swapaxes(stack.conj(), 1, 2) @ stack
    return bool(np.all(np.linalg.norm(gram - np.eye(dim), axis=(1, 2)) <= tol.unitarity))


def _propagate(protocol, boxes):
    """The input and every post-run state of each branch, in one pass.

    ``boxes`` holds one box matrix per branch.  All branches start from the
    product input and travel together as a (branches, da, db) stack S
    (amplitude of |i>|j> at S[b, i, j]), so a run maps S to box @ vec(A S B^T)
    and no Kronecker product is formed.  Returns an (n_runs + 1, branches,
    da, db) array whose entry 0 is the input.
    """
    da, db = protocol.dims
    size = da * db
    for box in boxes:
        if box.shape != (size, size):
            raise DimensionMismatch(f"box shape {box.shape} vs input dimension {size}")
    forward = np.array(boxes)
    reverse = forward.conj().transpose(0, 2, 1)
    k = len(boxes)
    states = np.empty((len(protocol.runs) + 1, k, da, db), dtype=complex)
    states[0] = np.outer(protocol.input_alice.amplitudes, protocol.input_bob.amplitudes)
    for r, run in enumerate(protocol.runs, 1):
        s = run.alice_op @ states[r - 1] @ run.bob_op.T
        box = forward if run.box == FORWARD else reverse
        states[r] = (box @ s.reshape(k, size, 1)).reshape(k, da, db)
    return states


def _probabilities(final, plan):
    """Outcome probabilities of the plan's measurement on a final (da, db)
    state matrix, normalized first."""
    m = final / np.linalg.norm(final)
    if plan.party == ALICE:
        amps = plan.basis.conj().T @ m          # (outcomes, bob)
    else:
        amps = (m @ plan.basis.conj()).T        # (outcomes, alice)
    return np.sum(np.abs(amps) ** 2, axis=1)


def simulate(protocol, box):
    """Final two-qudit state of the protocol for a given black box."""
    final = _propagate(protocol, [_box_matrix(box, protocol.dims)])[-1, 0].reshape(-1)
    return PureState(final / np.linalg.norm(final), protocol.dims)


def outcome_probabilities(protocol, box):
    """Probability of each measurement outcome for a given black box."""
    final = _propagate(protocol, [_box_matrix(box, protocol.dims)])[-1, 0]
    return _probabilities(final, protocol.measurement)


def _branches(protocol, u, v, tol):
    """Branch half of :func:`verify`: both branches' states from one pass,
    or None when a local operation is not unitary."""
    dims = protocol.dims
    boxes = [_box_matrix(u, dims), _box_matrix(v, dims)]
    if not (_all_unitary([run.alice_op for run in protocol.runs], dims[0], tol)
            and _all_unitary([run.bob_op for run in protocol.runs], dims[1], tol)):
        return None
    return _propagate(protocol, boxes)


def _report(protocol, states, tol):
    """Report half of :func:`verify`, read off :func:`_branches`' states."""
    dims, plan = protocol.dims, protocol.measurement
    if states is None:
        nan = float("nan")
        return VerificationReport(
            overlap=nan, schmidt_second_max=nan, measuring_party=plan.party,
            box_uses=protocol.box_uses, per_run_trace=(), passed=False,
            measurement_ok=False, norm_deviation=nan)
    after = states[1:]                                  # (n, 2, da, db)
    if min(dims) > 1:
        second = np.linalg.svd(after, compute_uv=False)[..., 1]
    else:
        second = np.zeros(after.shape[:2])
    trace = [(idx, branch, value) for b, branch in enumerate(("U", "V"))
             for idx, value in enumerate(second[:, b].tolist())]
    schmidt_max = float(second.max(initial=0.0))
    norm_dev = float(np.abs(np.linalg.norm(after, axis=(2, 3)) - 1.0).max(initial=0.0))

    out_u, out_v = states[-1]
    overlap = float(abs(np.vdot(out_u, out_v)))

    (a_u, b_u), (a_v, b_v) = (schmidt_split(f, dims) for f in (out_u, out_v))
    overlaps = {ALICE: abs(np.vdot(a_u, a_v)), BOB: abs(np.vdot(b_u, b_v))}
    separating = [p for p in (plan.party, ALICE, BOB)
                  if overlaps[p] <= tol.orthogonality]
    party = separating[0] if separating else min((ALICE, BOB), key=overlaps.get)

    dim = dims[0] if plan.party == ALICE else dims[1]
    says_u = np.array([plan.decision.get(k) == "U" for k in range(dim)])
    measurement_ok = (plan.party == party and _all_unitary([plan.basis], dim, tol)
                      and set(plan.decision) <= set(range(dim)))
    if measurement_ok:
        # U must land on the outcomes mapped to "U", V on all the others
        p_u, p_v = _probabilities(out_u, plan), _probabilities(out_v, plan)
        measurement_ok = (p_u[says_u].sum() >= 1.0 - tol.orthogonality
                          and p_v[~says_u].sum() >= 1.0 - tol.orthogonality)

    passed = bool(overlap <= tol.orthogonality and schmidt_max <= tol.orthogonality
                  and norm_dev <= tol.orthogonality and measurement_ok)
    return VerificationReport(
        overlap=overlap, schmidt_second_max=schmidt_max, measuring_party=party,
        box_uses=protocol.box_uses, per_run_trace=tuple(trace), passed=passed,
        measurement_ok=bool(measurement_ok), norm_deviation=norm_dev)


def verify(protocol, u, v, tol=DEFAULT_TOLERANCES):
    """Re-derive every certificate of a protocol from scratch: the layer
    and basis contracts, both branches, the per-run second Schmidt
    coefficients, the final overlap, the measuring party (the plan's when
    its outputs separate, else Alice first) and the plan.  A failed check is
    encoded in the report; a box of another dimension or party split than
    the protocol's raises DimensionMismatch."""
    return _report(protocol, _branches(protocol, u, v, tol), tol)
