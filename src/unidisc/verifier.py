"""Independent simulation and certification of LOCC protocols.

The verifier never trusts values cached inside a protocol: it re-simulates
both hypothesis branches run by run, traces the second Schmidt coefficient
after every run (the no-entanglement audit covers the whole process, not
just the endpoints), recomputes the final overlap, and checks that the
declared measurement plan resolves the two branch outputs with outcome
probabilities {1, 0}.
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

    ``passed`` is exactly: overlap <= tol, schmidt_second_max <= tol
    (orthogonality tolerance) and ``measurement_ok``, which holds when the
    plan names the party whose outputs separate and its outcome
    probabilities name each hypothesis with certainty.
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

    Simulates both branches, traces per-run second Schmidt coefficients,
    recomputes the final overlap, identifies the measuring party (Alice
    checked first on ties), and validates the measurement plan.  Failures
    are encoded in the report, never raised.
    """
    mu, mv = _box_matrix(u), _box_matrix(v)
    dims = protocol.dims
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
    alice_overlap = abs(np.vdot(a_u, a_v))
    bob_overlap = abs(np.vdot(b_u, b_v))
    if alice_overlap <= tol.orthogonality:
        party = ALICE
    elif bob_overlap <= tol.orthogonality:
        party = BOB
    else:
        party = ALICE if alice_overlap <= bob_overlap else BOB

    plan = protocol.measurement
    measurement_ok = plan.party == party
    if measurement_ok:
        p_u = outcome_probabilities(protocol, u)
        p_v = outcome_probabilities(protocol, v)
        idx_u = next((k for k, h in plan.decision.items() if h == "U"), 0)
        idx_v = next((k for k, h in plan.decision.items() if h == "V"), 1)
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
