"""Property sweeps over the closed-form cases IA, IB and IC at d = 2..4
and the synthesized cases IIA, IIB and III at d = 2, and fixed IIA and IIB
pairs at d = 3.

Every drawn closed-form pair must give a protocol that the benchmark's
numpy-only checker (``bench/checker.py``, which shares no code with the
verifier) accepts, with the box count the case promises, T being the
relative operator of the differing factors: ceil(pi / Theta(T)) for IA, and
for IC one forward run when Theta(T) reaches pi, else
2 ceil(pi / min(2 Theta(T), pi)).  Every drawn IIA, IIB or Haar-Haar (case III)
pair must give a protocol the checker accepts or an honest SynthesisFailed
/ CompileFailed that carries its best error; the fixed d = 3 pairs must
each pass the checker with two box uses, and two small-arc IIA pairs at d = 2
must pass it with 11 and 10.  IA and IC pairs at d = 3..5 whose T repeats
an eigenphase exactly at an end of its arc must pass the checker at the
promised box count too.  The examples are derandomized, so the sweeps are
the same on every run.
"""

import importlib.util
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import unidisc.engine as engine
from unidisc.core import UnitaryOperator, random_unitary
from unidisc.engine import build_protocol
from unidisc.exceptions import (CompileFailed, OperatorsEqual, SynthesisFailed,
                                ValidationError)
from unidisc.io import dumps_artifact, protocol_to_json
from unidisc.locality import swap_operator
from unidisc.protocol import (CASE_IA, CASE_IB, CASE_IC, CASE_IIA, CASE_IIB,
                              CASE_III, CASE_IIIA)

from conftest import ENTANGLING_PAIRS, SX, SZ

CHECKER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "checker.py")


def _load_checker():
    spec = importlib.util.spec_from_file_location("bench_checker", CHECKER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = _load_checker()

# When a property fails, hypothesis's pytest plugin imports its patch writer,
# whose libcst import raises a DeprecationWarning; under the suite's
# warnings-as-errors that ends the session instead of reporting the failure.
# Importing it here, with that one warning ignored, keeps failures reported.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# closed-form builds take milliseconds; a slow first example is not a fault
SWEEP = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _clear_of_ties(arc):
    """True when ceil(pi / arc) is the same for every arc within 1e-6."""
    ratio = np.pi / arc
    return abs(ratio - round(ratio)) > 1e-6


@st.composite
def closed_form_pairs(draw):
    """(case, u, v, T, factors): a closed-form pair whose factors differ on
    one side by T, a unitary of drawn spectral arc in [pi/40, 2 pi - pi/40],
    so that Theta(T) >= pi/40 and T is never a scalar."""
    case = draw(st.sampled_from([CASE_IA, CASE_IB, CASE_IC]))
    d = draw(st.integers(2, 4))
    seed = draw(st.integers(0, 2 ** 20))
    arc = draw(st.floats(np.pi / 40, 2 * np.pi - np.pi / 40))
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=d - 2, max_size=d - 2))
    offset = draw(st.floats(0.0, 2 * np.pi))
    alice_side = draw(st.booleans())
    a, b, q = (random_unitary(d, seed + k).matrix for k in range(3))
    phases = offset + arc * np.array([0.0, 1.0] + inner)
    t = (q * np.exp(1j * phases)) @ q.conj().T
    f = a if alice_side else b
    u = np.kron(a, b)
    v = np.kron(a @ t, b) if alice_side else np.kron(a, b @ t)
    if case == CASE_IB:
        v = v @ swap_operator(d).matrix
        u, v = (u, v) if alice_side else (v, u)
    elif case == CASE_IC:
        u, v = u @ swap_operator(d).matrix, v @ swap_operator(d).matrix
    return case, UnitaryOperator(u, (d, d)), UnitaryOperator(v, (d, d)), t, (f, f @ t)


@SWEEP
@given(closed_form_pairs())
def test_closed_form_pairs_pass_the_checker_at_the_promised_box_count(drawn):
    case, u, v, t, factors = drawn
    arc = checker.spectral_arc(t)
    if case == CASE_IA:
        assume(_clear_of_ties(arc))
        want = checker.required_box_uses(*factors)
    elif case == CASE_IC:
        # the other side's factors agree, so its arc is 0: one forward run
        # when Theta(T) reaches pi, else the wrap on T's side
        assume(_clear_of_ties(2 * arc) and abs(arc - np.pi) > 1e-6)
        want = 1 if arc > np.pi else 2 * int(np.ceil(np.pi / min(2 * arc, np.pi)))
    else:
        want = 1
    proto = build_protocol(u, v)
    assert proto.case_label == case
    assert proto.certificate.passed
    assert checker.check_protocol(proto, u.matrix, v.matrix,
                                  factors if case == CASE_IA else None) == []
    assert proto.box_uses == want


@SWEEP
@given(closed_form_pairs(), st.floats(0.0, 2 * np.pi))
def test_phase_shifted_duplicates_are_equal(drawn, phase):
    _, u, _, _, _ = drawn
    with pytest.raises(OperatorsEqual):
        build_protocol(u, UnitaryOperator(np.exp(1j * phase) * u.matrix, u.dims))


def _degenerate_end_pairs():
    """(case, d, end, repeats): T's arc has its start (end 0) or its end
    (end 1) eigenphase repeated 1 or 2 more times, exactly, at d = 3..5."""
    return [(case, d, end, repeats) for case in (CASE_IA, CASE_IC)
            for d in (3, 4, 5) for end in (0, 1) for repeats in (1, 2)
            if repeats <= d - 2]


@pytest.mark.parametrize("case, d, end, repeats", _degenerate_end_pairs())
def test_degenerate_arc_ends_pass_the_checker_at_the_promised_box_count(case, d, end,
                                                                        repeats):
    # the IA cap and the IC wrap rotate in the plane of the arc's ends
    for k, arc in enumerate((0.3, 1.1, 2.3)):
        seed = 1000 * d + 100 * end + 10 * repeats + k
        a, b, q = (random_unitary(d, seed + j).matrix for j in range(3))
        phases = np.concatenate([np.linspace(0.0, arc, d - repeats), [end * arc] * repeats])
        t = (q * np.exp(1j * (phases + 0.9 * k))) @ q.conj().T
        alice_side = k % 2 == 0
        u = np.kron(a, b)
        v = np.kron(a @ t, b) if alice_side else np.kron(a, b @ t)
        f = a if alice_side else b
        if case == CASE_IA:
            want = checker.required_box_uses(f, f @ t)
        else:
            u, v = u @ swap_operator(d).matrix, v @ swap_operator(d).matrix
            want = 2 * int(np.ceil(np.pi / min(2 * arc, np.pi)))
        u, v = UnitaryOperator(u, (d, d)), UnitaryOperator(v, (d, d))
        proto = build_protocol(u, v)
        assert proto.case_label == case and proto.certificate.passed
        assert checker.check_protocol(proto, u.matrix, v.matrix,
                                      (f, f @ t) if case == CASE_IA else None) == []
        assert proto.box_uses == want == {CASE_IA: (11, 3, 2),
                                          CASE_IC: (12, 4, 2)}[case][k]


def _seed_free_pairs():
    d, p = 3, swap_operator(3).matrix
    a, b, c, e = (random_unitary(d, 300 + k).matrix for k in range(4))
    return [np.kron(a, b), np.kron(a, c)], [np.kron(a, b), np.kron(c, e) @ p], \
        [np.kron(a, b) @ p, np.kron(c, b) @ p]


@pytest.mark.parametrize("case, pair", zip((CASE_IA, CASE_IB, CASE_IC), _seed_free_pairs()))
def test_closed_form_cases_do_not_read_the_seed(case, pair):
    u, v = (UnitaryOperator(m, (3, 3)) for m in pair)
    artifacts = []
    for seed in (0, 7):
        proto = build_protocol(u, v, seed=seed)
        assert proto.case_label == case
        artifacts.append(dumps_artifact(protocol_to_json(proto)))
    assert artifacts[0] == artifacts[1]


@st.composite
def entangling_pairs(draw):
    """(case, u, v, seed, max_boxes): a product (IIA) or swap-type (IIB)
    gate and a Haar gate at d=2, in drawn order, with a build seed and a
    box budget of 1 or 2."""
    case = draw(st.sampled_from([CASE_IIA, CASE_IIB]))
    seed = draw(st.integers(0, 2 ** 20))
    local = np.kron(random_unitary(2, seed).matrix, random_unitary(2, seed + 1).matrix)
    if case == CASE_IIB:
        local = local @ swap_operator(2).matrix
    pair = [UnitaryOperator(m, (2, 2))
            for m in (local, random_unitary(4, seed + 2).matrix)]
    u, v = pair if draw(st.booleans()) else pair[::-1]
    return case, u, v, draw(st.integers(0, 50)), draw(st.integers(1, 2))


def _checked_or_failed_honestly(u, v, seed, max_boxes):
    """The protocol built within ``max_boxes``, which must pass the checker,
    or None after a SynthesisFailed or CompileFailed with its best error."""
    try:
        proto = build_protocol(u, v, seed=seed, max_boxes=max_boxes)
    except SynthesisFailed as exc:
        assert exc.best_overlap is not None
        return None
    except CompileFailed as exc:
        assert exc.best_error is not None and exc.best_error > 0
        return None
    assert proto.certificate.passed and proto.box_uses <= max_boxes
    assert checker.check_protocol(proto, u.matrix, v.matrix) == []
    return proto


@settings(SWEEP, max_examples=40)
@given(entangling_pairs())
def test_entangling_pairs_pass_the_checker_or_fail_honestly(drawn):
    case, u, v, seed, max_boxes = drawn
    proto = _checked_or_failed_honestly(u, v, seed, max_boxes)
    assert proto is None or proto.case_label == case


@settings(SWEEP, max_examples=40)
@given(st.integers(0, 2 ** 20), st.integers(0, 50), st.integers(1, 2))
def test_haar_pairs_pass_the_checker_or_fail_honestly(gate_seed, seed, max_boxes):
    # two Haar gates at d=2: both entangle, so a protocol is case III
    u, v = (UnitaryOperator(random_unitary(4, gate_seed + k).matrix, (2, 2))
            for k in (0, 1))
    proto = _checked_or_failed_honestly(u, v, seed, max_boxes)
    assert proto is None or proto.case_label.startswith("III")


@pytest.mark.parametrize("case", [CASE_IIA, CASE_IIB])
@pytest.mark.parametrize("s", range(6))
def test_qutrit_entangling_pairs_pass_the_checker_with_two_uses(case, s):
    # a product or swap-type gate against a Haar gate at d=3, build seed s
    local = np.kron(random_unitary(3, 2 * s + 1).matrix,
                    random_unitary(3, 2 * s + 50022).matrix)
    if case == CASE_IIB:
        local = local @ swap_operator(3).matrix
    u, v = (UnitaryOperator(m, (3, 3))
            for m in (local, random_unitary(9, 2 * s + 10001).matrix))
    proto = build_protocol(u, v, seed=s)
    assert proto.case_label == case
    assert proto.certificate.passed and proto.box_uses == 2
    assert checker.check_protocol(proto, u.matrix, v.matrix) == []


@pytest.mark.parametrize("t, uses", [(0.15, 11), (np.pi / 18, 10)],
                         ids=["t=0.15", "t=pi-over-18"])
def test_small_arc_pairs_pass_the_checker_beyond_depth_8(t, uses):
    # exp(i t Z (x) X) against I: Theta = 2t, so ceil(pi/Theta) = 11 and 9
    # uses; the synthesis searches every depth up to max_boxes
    u = UnitaryOperator(np.eye(4), (2, 2))
    v = UnitaryOperator(np.cos(t) * np.eye(4)
                        + 1j * np.sin(t) * np.kron(SZ, SX), (2, 2))
    proto = build_protocol(u, v, max_boxes=16)
    assert proto.case_label == CASE_IIA
    assert proto.certificate.passed and proto.box_uses == uses
    assert checker.check_protocol(proto, u.matrix, v.matrix) == []


@pytest.mark.parametrize("case, d", [(CASE_IIA, d) for d in range(2, 6)]
                         + [(CASE_IIB, d) for d in range(2, 6)]
                         + [(CASE_IIIA, d) for d in range(2, 5)])
@pytest.mark.parametrize("s", [0, 1])
def test_entangling_scope_sweep_gives_typed_outcomes(case, d, s):
    # one box bounds the time; at d >= 3 the lockstep solver's damping falls
    # to where damped normal matrices are exactly singular (IIB d=4 s=1,
    # IIIA d=3 s=1 and d=4 s=0 meet one), which must end in a typed failure
    u, v = ENTANGLING_PAIRS[case](d, s)
    try:
        proto = build_protocol(u, v, seed=s, max_boxes=1)
    except (SynthesisFailed, CompileFailed, OperatorsEqual, ValidationError):
        return
    assert proto.case_label == (CASE_III if case == CASE_IIIA else case)
    assert proto.certificate.passed
    assert checker.check_protocol(proto, u.matrix, v.matrix) == []


def _arc_factor(d, arc, seed):
    """Unitary of spectral arc ``arc`` (evenly spaced eigenphases from a
    random offset, in a random basis); arc 0 gives a multiple of I."""
    q = random_unitary(d, seed).matrix
    phases = 0.4 * seed + arc * np.linspace(0.0, 1.0, d)
    return (q * np.exp(1j * phases)) @ q.conj().T


def _sided_pair(swap, d, arc_a, arc_b, seed):
    """(U, V) = ((A (x) B) [P], (A T_A (x) B T_B) [P]) with Theta(T_X) = arc_X."""
    a, b = (random_unitary(d, seed + k).matrix for k in (0, 1))
    t_a, t_b = _arc_factor(d, arc_a, seed + 2), _arc_factor(d, arc_b, seed + 3)
    p = swap_operator(d).matrix if swap else np.eye(d * d)
    return (UnitaryOperator(np.kron(a, b) @ p, (d, d)),
            UnitaryOperator(np.kron(a @ t_a, b @ t_b) @ p, (d, d)))


@pytest.mark.parametrize("swap, d, arc_a, arc_b, uses, party", [
    # IC, one forward run: T_A checked first, whatever the margins
    (True, 3, 1.2 * np.pi, 0.5, 1, "Alice"),
    (True, 3, 0.5, 1.2 * np.pi, 1, "Bob"),
    (True, 3, 1.1 * np.pi, 1.2 * np.pi, 1, "Alice"),
    (True, 4, 1.25 * np.pi, 1.5 * np.pi, 1, "Alice"),
    (True, 2, np.pi, 0.3, 1, "Alice"),            # T_A ~ diag(1, -1)
    # IC wrap on the cheaper side: Bob's 2 uses against Alice's 12
    (True, 2, 0.3, 2.0, 2, "Bob"),
    (True, 2, 2.0, 0.3, 2, "Alice"),
    (True, 3, 0.9, 1.0, 4, "Alice"),              # equal counts keep Alice
    # IA, both sides differ: ceil(pi / 0.5) = 7 on Alice, 4 on Bob
    (False, 3, 0.5, 1.0, 4, "Bob"),
    (False, 3, 1.0, 0.5, 4, "Alice"),
    (False, 3, 0.9, 1.0, 4, "Alice"),             # equal counts keep Alice
    # one party's factors agree up to phase: ceil(pi / 0.7) = 5, and
    # 2 ceil(pi / 1.4) = 6 for the wrap
    (False, 3, 0.0, 0.7, 5, "Bob"),
    (False, 3, 0.7, 0.0, 5, "Alice"),
    (True, 3, 0.0, 0.7, 6, "Bob"),
    (True, 3, 0.7, 0.0, 6, "Alice"),
    (True, 3, 0.0, 1.2 * np.pi, 1, "Bob"),
])
def test_closed_form_side_choice(monkeypatch, swap, d, arc_a, arc_b, uses, party):
    u, v = _sided_pair(swap, d, arc_a, arc_b, 40 + 10 * d)
    spectra = []
    relative = engine._relative_spectrum
    monkeypatch.setattr(engine, "_relative_spectrum",
                        lambda f, g, tol: spectra.append(f) or relative(f, g, tol))
    proto = build_protocol(u, v)
    assert proto.case_label == (CASE_IC if swap else CASE_IA)
    assert proto.certificate.passed and proto.box_uses == uses
    assert proto.measurement.party == party and party in proto.notes
    assert checker.check_protocol(proto, u.matrix, v.matrix) == []
    # a dead side is never decomposed, nor Bob's once Alice's arc reaches pi
    live = [arc for arc in (arc_a, arc_b) if arc > 0]
    want = 1 if swap and arc_a >= np.pi else len(live)
    assert len(spectra) == want
