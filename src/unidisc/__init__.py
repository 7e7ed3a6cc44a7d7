"""unidisc: perfect discrimination of unitary operations, globally and
under local operations with classical communication (LOCC) for two qudits.

The package builds and certifies discrimination protocols: spectral-arc
analysis and single-run inputs, sequential multi-run schemes, locality
classification of two-qudit gates, circuit-word compilation through a fixed
entangling box, and complete LOCC protocols with independent verification.
"""

__version__ = "0.1.0"

from .arc import SpectralArc, discriminating_state, single_run_discriminable, theta
from .compiler import (Box, CanonicalXXTarget, CircuitWord, ControlledFormTarget,
                       ExactMatrix, LocalLayer, compile_word, evaluate_word,
                       word_adjoint)
from .core import (DEFAULT_TOLERANCES, PureState, Tolerances, UnitaryOperator,
                   basis_state, identity_operator, phase_distance,
                   random_unitary, state, tensor, unitary_eig)
from .engine import (DecisionTree, build_protocol, controlled_sequential,
                     identify, identity_vs_other, multi_discriminate)
from .exceptions import (CompileFailed, DimensionMismatch, EigendecompositionError,
                         NotSingleRunDiscriminable, OperatorsEqual, ParseError,
                         SynthesisFailed, UnidiscError, ValidationError,
                         WitnessNotFound)
from .locality import (CanonicalXX, LocalityClass, canonical_xx_operator,
                       classify, conjugation_set, imprimitivity_witness,
                       extract_canonical_xx, operator_schmidt, swap_operator)
from .protocol import LoccProtocol, MeasurementPlan, Run
from .sequential import (SequentialScheme, evaluate_scheme,
                         find_sequential_scheme, required_runs)
from .verifier import VerificationReport, outcome_probabilities, simulate, verify

__all__ = [name for name in dir() if not name.startswith("_")]
