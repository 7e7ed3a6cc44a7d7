"""Reference checker for LOCC discrimination protocols, written with numpy
only so that it shares no code with ``unidisc`` (in particular never
``unidisc.verifier``).

A protocol is given as plain arrays: a list of runs ``(alice_op, bob_op,
direction)``, the two input vectors and a measurement plan ``(party, basis,
decision)``.  :func:`check` re-simulates both hypothesis branches and
returns the list of violated conditions; an empty list accepts the protocol.
The conditions are the paper's claim made checkable:

* every local operation is unitary within ``UNITARITY`` (Frobenius norm of
  ``M^dag M - I``), and the inputs are unit vectors;
* on both branches the second Schmidt coefficient after every run is at most
  ``ORTHOGONALITY`` (no entanglement anywhere in the process);
* the two final states have overlap at most ``ORTHOGONALITY``;
* the measurement basis is complete and orthonormal, and the outcomes the
  decision map sends to "U" have probability at least ``1 - ORTHOGONALITY``
  under U and at most ``ORTHOGONALITY`` under V, and likewise for "V";
* for a product/product pair (case IA) whose differing factors are given,
  the protocol uses the box exactly ``ceil(pi / Theta(A^dag A'))`` times
  (Duan, Feng and Ying, PRL 98, 100503 (2007)).
"""

import json

import numpy as np

UNITARITY = 1e-9
ORTHOGONALITY = 1e-6
ALICE, BOB = "Alice", "Bob"
FORWARD, REVERSE = "forward", "reverse"


def spectral_arc(m):
    """Length of the smallest arc of the unit circle holding every eigenvalue."""
    phases = np.sort(np.mod(np.angle(np.linalg.eigvals(m)), 2.0 * np.pi))
    gaps = np.diff(np.concatenate([phases, [phases[0] + 2.0 * np.pi]]))
    return float(2.0 * np.pi - gaps.max())


def required_box_uses(a, a_prime):
    """ceil(pi / Theta(A^dag A')): box uses of the sequential scheme."""
    return int(np.ceil(np.pi / spectral_arc(a.conj().T @ a_prime)))


def _unitarity_error(m):
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return np.inf
    return float(np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])))


def _branch(runs, start, box, d):
    """Post-run states (as d x d matrices) of one hypothesis branch."""
    box_dag = box.conj().T
    s = start
    states = []
    for a, b, direction in runs:
        s = a @ s @ b.T
        s = ((box if direction == FORWARD else box_dag) @ s.reshape(-1)).reshape(d, d)
        states.append(s)
    return states


def check(runs, input_alice, input_bob, party, basis, decision, u, v,
          factors=None):
    """Violations of the protocol contract; an empty list means accepted.

    ``decision`` maps outcome indices to "U" or "V"; an outcome it does not
    name decides "V".  ``factors`` is the pair (A, A') of differing
    single-qudit factors of a case-IA pair, or None.
    """
    runs = [(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex), direction)
            for a, b, direction in runs]
    input_alice = np.asarray(input_alice, dtype=complex)
    input_bob = np.asarray(input_bob, dtype=complex)
    basis = np.asarray(basis, dtype=complex)
    u, v = np.asarray(u, dtype=complex), np.asarray(v, dtype=complex)
    arrays = [input_alice, input_bob, basis, u, v]
    arrays += [m for a, b, _ in runs for m in (a, b)]
    if not all(np.all(np.isfinite(m)) for m in arrays):
        return ["non-finite entries"]

    d = input_alice.size
    problems = []
    if input_bob.size != d or u.shape != (d * d, d * d) or v.shape != u.shape:
        return ["dimensions do not match"]
    for name, vec in (("alice", input_alice), ("bob", input_bob)):
        if abs(np.linalg.norm(vec) - 1.0) > UNITARITY:
            problems.append(f"input_{name} is not a unit vector")
    for k, (a, b, direction) in enumerate(runs):
        if a.shape != (d, d) or b.shape != (d, d):
            return [f"run {k}: local operation has the wrong shape"]
        if max(_unitarity_error(a), _unitarity_error(b)) > UNITARITY:
            problems.append(f"run {k}: local operation not unitary")
        if direction not in (FORWARD, REVERSE):
            problems.append(f"run {k}: unknown box direction {direction!r}")
    if problems:
        return problems

    start = np.outer(input_alice, input_bob)
    states_u = _branch(runs, start, u, d)
    states_v = _branch(runs, start, v, d)
    for label, states in (("U", states_u), ("V", states_v)):
        for k, s in enumerate(states):
            s2 = np.linalg.svd(s, compute_uv=False)[1]
            if s2 > ORTHOGONALITY:
                problems.append(f"branch {label} entangled after run {k} "
                                f"(second Schmidt coefficient {s2:.2e})")
    out_u = states_u[-1] if states_u else start
    out_v = states_v[-1] if states_v else start
    overlap = abs(np.vdot(out_u, out_v))
    if overlap > ORTHOGONALITY:
        problems.append(f"final overlap {overlap:.2e}")

    if party not in (ALICE, BOB):
        return problems + [f"unknown measuring party {party!r}"]
    if basis.shape != (d, d) or _unitarity_error(basis) > UNITARITY:
        return problems + ["measurement basis is not a complete orthonormal basis"]
    says_u = np.array([decision.get(k) == "U" for k in range(d)])
    for label, out in (("U", out_u), ("V", out_v)):
        # rows of amps: outcomes of the measuring party
        amps = basis.conj().T @ (out if party == ALICE else out.T)
        probs = np.sum(np.abs(amps) ** 2, axis=1)
        p_u, p_v = float(probs[says_u].sum()), float(probs[~says_u].sum())
        right, wrong = (p_u, p_v) if label == "U" else (p_v, p_u)
        if right < 1.0 - ORTHOGONALITY or wrong > ORTHOGONALITY:
            problems.append(f"under {label} the measurement decides right with "
                            f"probability {right:.6f}, wrong with {wrong:.2e}")

    if factors is not None and len(runs) != required_box_uses(*factors):
        problems.append(f"{len(runs)} box uses, ceil(pi/Theta) = "
                        f"{required_box_uses(*factors)}")
    return problems


def check_protocol(proto, u, v, factors=None):
    """:func:`check` applied to a protocol object's public fields."""
    plan = proto.measurement
    return check([(r.alice_op, r.bob_op, r.box) for r in proto.runs],
                 proto.input_alice.amplitudes, proto.input_bob.amplitudes,
                 plan.party, plan.basis, plan.decision, u, v, factors)


def _complex(data):
    return np.array(data, dtype=float).view(complex)[..., 0]


def check_artifact(path, u, v):
    """:func:`check` applied to a protocol JSON file as written by the CLI."""
    with open(path) as fh:
        data = json.load(fh)
    meas = data["measurement"]
    runs = [(_complex(r["alice_op"]), _complex(r["bob_op"]), r["box"])
            for r in data["runs"]]
    decision = {int(k): h for k, h in meas["decision"].items()}
    return check(runs, _complex(data["input_alice"]), _complex(data["input_bob"]),
                 meas["party"], _complex(meas["basis"]), decision, u, v)
