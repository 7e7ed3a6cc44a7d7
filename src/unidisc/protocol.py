"""Data model for LOCC discrimination protocols.

A protocol is a flat list of runs executed in order; each run applies a
factorized local layer (one single-qudit unitary per party) and then routes
both qudits through the unknown black box, forward or reverse.  The input
is a pair of independent single-qudit states, so no entanglement enters the
protocol anywhere, and a single party's projective measurement at the end
decides the hypothesis.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import PureState
from .exceptions import ValidationError

ALICE = "Alice"
BOB = "Bob"

FORWARD = "forward"
REVERSE = "reverse"

# case labels for the dispatch of build_protocol; IIIA and IIIB_* are
# compiler.case_iii_label's refinement of III, which older protocol files carry
CASE_IA = "IA"
CASE_IB = "IB"
CASE_IC = "IC"
CASE_IIA = "IIA"
CASE_IIB = "IIB"
CASE_III = "III"
CASE_IIIA = "IIIA"
CASE_IIIB_EQUAL = "IIIB_EQUAL"
CASE_IIIB_SCALED = "IIIB_SCALED"
CASE_IDENTITY = "IDENTITY_VS_OTHER"

CASE_LABELS = (CASE_IA, CASE_IB, CASE_IC, CASE_IIA, CASE_IIB, CASE_III,
               CASE_IIIA, CASE_IIIB_EQUAL, CASE_IIIB_SCALED, CASE_IDENTITY)


@dataclass(frozen=True)
class Run:
    """One protocol round: local layer alice_op (x) bob_op, then the box."""

    alice_op: np.ndarray
    bob_op: np.ndarray
    box: str = FORWARD

    def __post_init__(self):
        if self.box not in (FORWARD, REVERSE):
            raise ValidationError(f"unknown box direction {self.box!r}")
        object.__setattr__(self, "alice_op", np.asarray(self.alice_op, dtype=complex))
        object.__setattr__(self, "bob_op", np.asarray(self.bob_op, dtype=complex))


@dataclass(frozen=True)
class MeasurementPlan:
    """Single-party projective measurement deciding the hypothesis.

    ``basis`` holds orthonormal columns for the measuring party's space; the
    decision rule maps outcome indices to "U" or "V", and an outcome it does
    not name decides "V".
    """

    party: str
    basis: np.ndarray
    decision: dict = field(default_factory=lambda: {0: "U", 1: "V"})

    def __post_init__(self):
        if self.party not in (ALICE, BOB):
            raise ValidationError(f"unknown party {self.party!r}")
        b = np.asarray(self.basis, dtype=complex)
        gram = b.conj().T @ b
        if np.linalg.norm(gram - np.eye(b.shape[1]), ord="fro") > 1e-10:
            raise ValidationError("measurement basis is not orthonormal within 1e-10")
        object.__setattr__(self, "basis", b)
        if any(h not in ("U", "V") for h in self.decision.values()):
            raise ValidationError("decision values must be 'U' or 'V'")


@dataclass(frozen=True)
class LoccProtocol:
    """A complete LOCC discrimination protocol with product input."""

    case_label: str
    runs: tuple
    input_alice: PureState
    input_bob: PureState
    measurement: MeasurementPlan
    certificate: object = None
    notes: str = ""

    def __post_init__(self):
        if self.case_label not in CASE_LABELS:
            raise ValidationError(f"unknown case label {self.case_label!r}")
        object.__setattr__(self, "runs", tuple(self.runs))

    @property
    def box_uses(self):
        return len(self.runs)

    @property
    def dims(self):
        return (self.input_alice.dim, self.input_bob.dim)
