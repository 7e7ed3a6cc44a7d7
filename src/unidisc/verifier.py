"""Independent simulation and certification of LOCC protocols.

The verifier never trusts values cached inside a protocol: it re-simulates
both hypothesis branches run by run, traces the second Schmidt coefficient
after every run (the no-entanglement audit covers the whole process, not
just the endpoints), recomputes the final overlap, and checks that the
declared measurement plan resolves the two branch outputs with outcome
probabilities {1, 0}.  It first checks the protocol's own contract: every
local operation unitary, the measurement basis complete.
"""

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOLERANCES, PureState, UnitaryOperator, \
    schmidt_second, schmidt_split
from .exceptions import DimensionMismatch
from .protocol import ALICE, BOB, FORWARD


@dataclass(frozen=True)
class VerificationReport:
    """Recomputed certificate for one protocol and one operator pair.

    ``passed`` is exactly: every local operation unitary within
    tol.unitarity, overlap <= tol, schmidt_second_max <= tol (orthogonality
    tolerance) and ``measurement_ok``, which holds when the basis is
    complete, the plan names a party whose outputs separate and its outcome
    probabilities name each hypothesis with certainty.  When a local
    operation is not unitary nothing is simulated and the numeric fields
    are NaN.
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


def _box_matrix(box):
    return box.matrix if isinstance(box, UnitaryOperator) else np.asarray(box, dtype=complex)


def _all_unitary(mats, dim, tol):
    """Whether every matrix is dim x dim and unitary within tol.unitarity,
    in one stacked check; NaN or infinite entries fail the comparison."""
    if any(m.shape != (dim, dim) for m in mats):
        return False
    stack = np.array(mats).reshape(-1, dim, dim)
    gram = np.swapaxes(stack.conj(), 1, 2) @ stack
    return bool(np.all(np.linalg.norm(gram - np.eye(dim), axis=(1, 2)) <= tol.unitarity))


def _branch_states(protocol, box_mat):
    """States after every run (local layer then box application)."""
    state = protocol.input_state()
    if box_mat.shape[0] != state.size:
        raise DimensionMismatch(
            f"box dimension {box_mat.shape[0]} vs input {state.size}")
    states = []
    box_dag = box_mat.conj().T
    for run in protocol.runs:
        state = run.local_matrix() @ state
        state = (box_mat if run.box == FORWARD else box_dag) @ state
        states.append(state)
    return states


def simulate(protocol, box):
    """Final two-qudit state of the protocol for a given black box."""
    states = _branch_states(protocol, _box_matrix(box))
    final = states[-1] if states else protocol.input_state()
    return PureState(final / np.linalg.norm(final), protocol.dims)


def outcome_probabilities(protocol, box):
    """Probability of each measurement outcome for a given black box."""
    out = simulate(protocol, box).amplitudes
    plan = protocol.measurement
    da, db = protocol.dims
    m = out.reshape(da, db)
    if plan.party == ALICE:
        amps = plan.basis.conj().T @ m          # (outcomes, bob)
    else:
        amps = (m @ plan.basis.conj())          # (alice, outcomes)
        amps = amps.T
    return np.sum(np.abs(amps) ** 2, axis=1)


def verify(protocol, u, v, tol=DEFAULT_TOLERANCES):
    """Re-derive every certificate of a protocol from scratch.

    Checks that every local operation is unitary and the measurement basis
    complete, simulates both branches, traces per-run second Schmidt
    coefficients, recomputes the final overlap, identifies the measuring
    party (the plan's party when its outputs separate, else Alice first),
    and validates the measurement plan.  Failures are encoded in the report,
    never raised.
    """
    dims, plan = protocol.dims, protocol.measurement
    if not (_all_unitary([run.alice_op for run in protocol.runs], dims[0], tol)
            and _all_unitary([run.bob_op for run in protocol.runs], dims[1], tol)):
        nan = float("nan")
        return VerificationReport(
            overlap=nan, schmidt_second_max=nan, measuring_party=plan.party,
            box_uses=protocol.box_uses, per_run_trace=(), passed=False,
            measurement_ok=False, norm_deviation=nan)
    mu, mv = _box_matrix(u), _box_matrix(v)
    states_u = _branch_states(protocol, mu)
    states_v = _branch_states(protocol, mv)

    trace = []
    schmidt_max = 0.0
    norm_dev = 0.0
    for branch, states in (("U", states_u), ("V", states_v)):
        for idx, state in enumerate(states):
            s2 = schmidt_second(state, dims)
            trace.append((idx, branch, float(s2)))
            schmidt_max = max(schmidt_max, s2)
            norm_dev = max(norm_dev, abs(np.linalg.norm(state) - 1.0))

    out_u = states_u[-1] if states_u else protocol.input_state()
    out_v = states_v[-1] if states_v else protocol.input_state()
    overlap = float(abs(np.vdot(out_u, out_v)))

    a_u, b_u = schmidt_split(out_u, dims)
    a_v, b_v = schmidt_split(out_v, dims)
    overlaps = {ALICE: abs(np.vdot(a_u, a_v)), BOB: abs(np.vdot(b_u, b_v))}
    separating = [p for p in (plan.party, ALICE, BOB)
                  if overlaps[p] <= tol.orthogonality]
    party = separating[0] if separating else min((ALICE, BOB), key=overlaps.get)

    dim = dims[0] if plan.party == ALICE else dims[1]
    idx_u = next((k for k, h in plan.decision.items() if h == "U"), 0)
    idx_v = next((k for k, h in plan.decision.items() if h == "V"), 1)
    measurement_ok = (plan.party == party and _all_unitary([plan.basis], dim, tol)
                      and 0 <= idx_u < dim and 0 <= idx_v < dim)
    if measurement_ok:
        p_u = outcome_probabilities(protocol, u)
        p_v = outcome_probabilities(protocol, v)
        measurement_ok = (abs(p_u[idx_u] - 1.0) <= tol.orthogonality
                          and p_v[idx_u] <= tol.orthogonality
                          and abs(p_v[idx_v] - 1.0) <= tol.orthogonality)

    passed = bool(overlap <= tol.orthogonality
                  and schmidt_max <= tol.orthogonality
                  and measurement_ok)
    return VerificationReport(
        overlap=overlap,
        schmidt_second_max=float(schmidt_max),
        measuring_party=party,
        box_uses=protocol.box_uses,
        per_run_trace=tuple(trace),
        passed=passed,
        measurement_ok=bool(measurement_ok),
        norm_deviation=float(norm_dev),
    )
