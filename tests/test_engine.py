"""Tests for LOCC protocol construction across the case families."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import unidisc.compiler
import unidisc.engine
import unidisc.verifier
from unidisc.arc import _relative_spectrum, theta
from unidisc.core import (DEFAULT_TOLERANCES, Tolerances, UnitaryOperator, basis_state,
                          identity_operator, random_unitary, tensor)
from unidisc.engine import (DecisionTree, _case_iii_label, _direction_patterns,
                            _solve_lockstep, _SynthesisProblem, _wrap_rotation,
                            build_protocol, identify, identity_vs_other,
                            multi_discriminate)
from unidisc.exceptions import (CompileFailed, OperatorsEqual, SynthesisFailed,
                                ValidationError)
from unidisc.io import dumps_artifact, protocol_to_json
from unidisc.locality import canonical_xx_operator, conjugation_set, \
    extract_canonical_xx, swap_operator
from unidisc.protocol import (BOB, CASE_IA, CASE_IB, CASE_IC,
                              CASE_IDENTITY, CASE_IIA, CASE_IIB, FORWARD,
                              REVERSE, MeasurementPlan)
from unidisc.verifier import outcome_probabilities, simulate, verify

from conftest import (ENTANGLING_PAIRS, SX, SZ, haar_two_qudit, product_operator,
                      swap_type_operator)


def test_rejects_equal_pair(eye4):
    other = UnitaryOperator(np.exp(0.3j) * np.eye(4), (2, 2))
    with pytest.raises(OperatorsEqual):
        build_protocol(eye4, other)


def test_case_ib_identity_vs_swap(eye4, swap2):
    proto = build_protocol(eye4, swap2)
    assert proto.case_label == CASE_IB
    assert proto.box_uses == 1
    np.testing.assert_allclose(proto.input_alice.amplitudes, [1, 0], atol=1e-12)
    np.testing.assert_allclose(proto.input_bob.amplitudes, [0, 1], atol=1e-12)
    out_u = simulate(proto, eye4).amplitudes
    out_v = simulate(proto, swap2).amplitudes
    np.testing.assert_allclose(out_u, basis_state(1, (2, 2)).amplitudes,
                               atol=1e-12)   # |0>|1>
    np.testing.assert_allclose(out_v, basis_state(2, (2, 2)).amplitudes,
                               atol=1e-12)   # |1>|0>
    assert proto.certificate.passed


def test_case_ia_pauli_example(eye4):
    sz_i = UnitaryOperator(np.kron(SZ, np.eye(2)), (2, 2))
    proto = build_protocol(sz_i, eye4)
    assert proto.case_label == CASE_IA
    assert proto.box_uses == 1   # theta = pi, single run
    np.testing.assert_allclose(np.abs(proto.input_alice.amplitudes),
                               [1 / np.sqrt(2)] * 2, atol=1e-9)
    report = proto.certificate
    assert report.passed and report.measuring_party == "Alice"
    p_u = np.array([1.0, 0.0])
    np.testing.assert_allclose(outcome_probabilities(proto, sz_i)[:2], p_u,
                               atol=1e-9)
    np.testing.assert_allclose(outcome_probabilities(proto, eye4)[:2],
                               p_u[::-1], atol=1e-9)


@pytest.mark.parametrize("d", [2, 3])
def test_case_ia_bob_side_decides_with_certainty(d):
    # Alice's factors agree, so only Bob's marginal outputs separate
    alice = random_unitary(d, 701).matrix
    u = UnitaryOperator(np.kron(alice, random_unitary(d, 711).matrix), (d, d))
    v = UnitaryOperator(np.kron(alice, random_unitary(d, 721).matrix), (d, d))
    proto = build_protocol(u, v)
    assert proto.case_label == CASE_IA
    assert proto.measurement.party == BOB
    assert proto.certificate.passed and proto.certificate.measurement_ok
    decision = proto.measurement.decision
    idx_u = next(k for k, h in decision.items() if h == "U")
    idx_v = next(k for k, h in decision.items() if h == "V")
    assert abs(outcome_probabilities(proto, u)[idx_u] - 1.0) <= 1e-9
    assert abs(outcome_probabilities(proto, v)[idx_v] - 1.0) <= 1e-9


def test_case_ic_swap_pair():
    u = swap_type_operator(2, 21)
    v = swap_type_operator(2, 22)
    proto = build_protocol(u, v, seed=3)
    assert proto.case_label == CASE_IC
    assert proto.box_uses % 2 == 0   # each wrap costs forward + reverse
    assert proto.certificate.passed


def test_case_ii_product_vs_entangling():
    u = haar_two_qudit(2, 91)
    v = product_operator(2, 92)
    proto = build_protocol(u, v, seed=4)
    assert proto.case_label == CASE_IIA
    assert proto.certificate.passed
    assert proto.certificate.schmidt_second_max <= 1e-6


def test_case_iib_swap_vs_entangling():
    u = swap_type_operator(2, 93)
    v = haar_two_qudit(2, 94)
    proto = build_protocol(u, v, seed=5)
    assert proto.case_label == CASE_IIB
    assert proto.certificate.passed


def test_case_iii_cnot_vs_cz(cnot, cz):
    proto = build_protocol(cnot, cz, seed=0)
    assert proto.case_label.startswith("III")
    report = proto.certificate
    assert report.passed
    assert report.overlap <= 1e-5
    assert report.schmidt_second_max <= 1e-5


def test_case_iiib_scaled_label():
    u = canonical_xx_operator(2, 1.0)
    v = canonical_xx_operator(2, 0.4)
    proto = build_protocol(u, v, seed=6)
    assert proto.case_label.startswith("III")
    assert proto.certificate.passed


def test_identity_vs_other_entry():
    w = haar_two_qudit(2, 95)
    proto = identity_vs_other(w, seed=7)
    assert proto.case_label == CASE_IDENTITY
    assert "underlying case" in proto.notes
    assert proto.certificate.passed


def test_identity_vs_other_verifies_no_more_than_build(monkeypatch):
    w, eye = product_operator(2, 31), identity_operator((2, 2))
    calls = []
    branches = unidisc.engine._branches

    def spy(*args, **kwargs):
        calls.append(args[0])
        return branches(*args, **kwargs)

    # the engine certifies through the verifier's branch half
    monkeypatch.setattr(unidisc.engine, "_branches", spy)
    build_protocol(eye, w)
    built = len(calls)
    calls.clear()
    proto = identity_vs_other(w)
    assert len(calls) == built
    assert proto.certificate == verify(proto, eye, w)


def _sided_pair(swap, d, arc_a, arc_b):
    """(U, V) = ((A (x) B) [P], (A T_A (x) B T_B) [P]) with Theta(T_X) = arc_X."""
    def arc_factor(arc, seed):
        q = random_unitary(d, seed).matrix
        return (q * np.exp(1j * arc * np.linspace(0.0, 1.0, d))) @ q.conj().T

    a, b = random_unitary(d, 5).matrix, random_unitary(d, 6).matrix
    p = swap_operator(d).matrix if swap else np.eye(d * d)
    return (UnitaryOperator(np.kron(a, b) @ p, (d, d)),
            UnitaryOperator(np.kron(a @ arc_factor(arc_a, 7),
                                    b @ arc_factor(arc_b, 8)) @ p, (d, d)))


# (label, box uses, U, V): IA at 2 and 32 uses on each side, IB, IC with one
# forward run and with the wrap, and one synthesized IIA pair
ONE_PASS_BUILDS = [
    ("IA", 2, *_sided_pair(False, 2, np.pi / 1.5, 0.0)),
    ("IA", 32, *_sided_pair(False, 2, np.pi / 31.5, 0.0)),
    ("IA", 2, *_sided_pair(False, 2, 0.0, np.pi / 1.5)),
    ("IA", 32, *_sided_pair(False, 2, 0.0, np.pi / 31.5)),
    ("IB", 1, identity_operator((2, 2)), swap_operator(2)),
    ("IC", 1, *_sided_pair(True, 3, 1.2 * np.pi, 0.0)),
    ("IC", 4, *_sided_pair(True, 3, 0.9, 0.0)),
    ("IIA", 1, *ENTANGLING_PAIRS["IIA"](2, 0)),
]


@pytest.mark.parametrize("label, uses, u, v", ONE_PASS_BUILDS,
                         ids=["IA-2-Alice", "IA-32-Alice", "IA-2-Bob", "IA-32-Bob",
                              "IB", "IC-forward", "IC-wrap", "IIA"])
def test_build_propagates_each_branch_once(monkeypatch, label, uses, u, v):
    # the measurement plan and the certificate are read off one stacked
    # pass of both branches, and no branch is simulated on its own
    propagate, passes = unidisc.verifier._propagate, []

    def spy(protocol, boxes):
        passes.append(len(boxes))
        return propagate(protocol, boxes)

    def alone(*args, **kwargs):
        raise AssertionError("build_protocol simulated a branch on its own")

    monkeypatch.setattr(unidisc.verifier, "_propagate", spy)
    monkeypatch.setattr(unidisc.verifier, "simulate", alone)
    proto = build_protocol(u, v)
    assert (proto.case_label, proto.box_uses) == (label, uses)
    assert proto.certificate.passed
    assert passes == [2]


# closed-form pairs by case: IA on either side or both, IB in either order,
# IC with one forward run and with the wrap on either side
CLOSED_FORM_KINDS = {
    "IA-Alice": lambda d: _sided_pair(False, d, 0.7, 0.0),
    "IA-Bob": lambda d: _sided_pair(False, d, 0.0, 0.7),
    "IA-both": lambda d: _sided_pair(False, d, 0.9, 1.0),
    "IB": lambda d: (product_operator(d, 41), swap_type_operator(d, 43)),
    "IB-reversed": lambda d: (swap_type_operator(d, 43), product_operator(d, 41)),
    # at d = 2 the widest arc is pi, which still takes one forward run
    "IC-forward": lambda d: _sided_pair(True, d, 1.2 * np.pi if d > 2 else np.pi, 0.0),
    "IC-wrap": lambda d: _sided_pair(True, d, 2.0, 0.3),
    "IC-wrap-Bob": lambda d: _sided_pair(True, d, 0.0, 0.7),
}


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("kind", list(CLOSED_FORM_KINDS))
def test_built_certificate_is_the_verifiers(kind, d):
    u, v = CLOSED_FORM_KINDS[kind](d)
    proto = build_protocol(u, v)
    assert proto.case_label == kind[:2]
    fresh = verify(proto, u, v)
    # exact equality of every field, the per-run Schmidt trace included
    assert proto.certificate == fresh and fresh.passed
    assert (dumps_artifact(protocol_to_json(replace(proto, certificate=fresh)))
            == dumps_artifact(protocol_to_json(proto)))


def test_layers_outside_the_unitarity_tolerance_fail_the_build():
    # a tolerance below the layers' rounding leaves the verifier's pass
    # nothing to simulate: no plan is read, and the NaN report fails the build
    u, v = CLOSED_FORM_KINDS["IA-Alice"](3)
    with pytest.raises(SynthesisFailed, match="certificate failed .FAIL overlap=nan"):
        build_protocol(u, v, tol=Tolerances(unitarity=1e-300))


@pytest.mark.parametrize("v", [haar_two_qudit(2, 10001),
                               product_operator(2, 7001)], ids=["IIA", "IA"])
def test_box_budget_below_one_is_rejected(v):
    with pytest.raises(ValidationError, match="max_boxes must be at least 1"):
        build_protocol(product_operator(2, 1), v, max_boxes=0)


@pytest.mark.parametrize("v", [haar_two_qudit(2, 10001),
                               product_operator(2, 7001)], ids=["IIA", "IA"])
def test_negative_seed_is_rejected(v):
    with pytest.raises(ValidationError, match="seed must be non-negative"):
        build_protocol(product_operator(2, 1), v, seed=-1)


def test_no_entanglement_trace_everywhere():
    u = haar_two_qudit(2, 96)
    v = haar_two_qudit(2, 97)
    proto = build_protocol(u, v, seed=8)
    for _, _, s2 in proto.certificate.per_run_trace:
        assert s2 <= 1e-6


def test_factorized_orthogonality_and_box_accounting():
    u = product_operator(2, 98)
    v = haar_two_qudit(2, 99)
    proto = build_protocol(u, v, seed=9)
    report = proto.certificate
    assert report.measurement_ok
    assert report.box_uses == len(proto.runs) == proto.box_uses


def _central_differences(problem, x, h=1e-5):
    """Central-difference Jacobian (n_residuals, n_params) at the point x,
    from one stacked evaluation of the 2 n_params shifted points."""
    shifts = h * np.eye(len(x))
    f, _ = problem.evaluate(np.concatenate([x + shifts, x - shifts]))
    plus, minus = np.split(f, 2)
    return ((plus - minus) / (2 * h)).T


_SYNTHESIS_PAIRS = {
    "IIA": lambda d: (product_operator(d, 1), haar_two_qudit(d, 10001), (False, True)),
    "IIIA": lambda d: (haar_two_qudit(d, 11001), haar_two_qudit(d, 12001), (True, True)),
}


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("case", ["IIA", "IIIA"])
def test_synthesis_jacobian_matches_central_differences(d, case):
    u, v, chains = _SYNTHESIS_PAIRS[case](d)
    rng = np.random.default_rng(d)
    for n in (1, 2, 3):
        for pattern in _direction_patterns(n):
            problem = _SynthesisProblem(d, u.matrix, v.matrix, chains, pattern)
            x = rng.standard_normal((3, problem.n_params))
            _, exact = problem.evaluate(x)
            assert exact.shape == (3, problem.n_residuals, problem.n_params)
            for row, jac in zip(x, exact):
                numeric = _central_differences(problem, row)
                err = np.abs(jac - numeric).max() / np.abs(numeric).max()
                assert err <= 1e-6, (n, pattern, err)


def _unit(raw):
    """Normalized complex vector of the (re, im) coordinates raw."""
    d = len(raw) // 2
    vec = raw[:d] + 1j * raw[d:]
    return vec / np.linalg.norm(vec)


def _expi_hermitian(c):
    """exp(i H) for H with coordinates c in ``hermitian_basis``, by expm."""
    d = int(round(np.sqrt(len(c))))
    h = np.diag(c[:d]).astype(complex)
    k = d
    for i in range(d):
        for j in range(i + 1, d):
            h[i, j], h[j, i] = c[k] + 1j * c[k + 1], c[k] - 1j * c[k + 1]
            k += 2
    return scipy.linalg.expm(1j * h)


def _reference_residual(d, mu, mv, chains, pattern, alice, bob, layers):
    """The synthesis residual from its definition, for the input
    alice (x) bob and one Kronecker layer per run: the layers and boxes on
    state vectors, the 2x2 minors of every post-run state on each
    entangling branch, then the final overlap <psi_v|psi_u>."""
    pairs = [(i, k) for i in range(d) for k in range(i + 1, d)]
    z, finals = [], []
    for chain, m in zip(chains, (mu, mv)):
        psi = np.kron(alice, bob)
        for layer, direction in zip(layers, pattern):
            psi = (m if direction == FORWARD else m.conj().T) @ layer @ psi
            s = psi.reshape(d, d)
            if chain:
                z += [s[i, j] * s[k, l] - s[i, l] * s[k, j]
                      for i, k in pairs for j, l in pairs]
        finals.append(psi)
    psi_u, psi_v = finals
    z = np.array(z + [np.vdot(psi_v, psi_u)])
    return np.concatenate([z.real, z.imag])


def _reference_at(d, pattern, x):
    """Input and layers of the synthesis point x: identity layers on the
    first run, then the layers of runs 2..n from their coordinates."""
    coords = x[4 * d:].reshape(len(pattern) - 1, 2, d * d)
    layers = [np.eye(d * d)] + [np.kron(_expi_hermitian(ca), _expi_hermitian(cb))
                                for ca, cb in coords]
    return _unit(x[:2 * d]), _unit(x[2 * d:4 * d]), layers


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("case", ["IIA", "IIIA"])
def test_synthesis_residual_matches_its_definition(d, case):
    u, v, chains = _SYNTHESIS_PAIRS[case](d)
    rng = np.random.default_rng(10 + d)
    for n in (1, 2, 3):
        for pattern in _direction_patterns(n):
            args = (d, u.matrix, v.matrix, chains, pattern)
            problem = _SynthesisProblem(*args)
            assert problem.n_params == 4 * d + 2 * (n - 1) * d * d
            x = rng.standard_normal((3, problem.n_params))
            got, _ = problem.evaluate(x)
            assert got.shape == (3, problem.n_residuals)
            for row, res in zip(x, got):
                want = _reference_residual(*args, *_reference_at(d, pattern, row))
                err = np.abs(res - want).max()
                assert err <= 1e-12, (n, pattern, err)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("case", ["IIA", "IIIA"])
def test_first_run_layer_is_the_inputs_own_freedom(d, case):
    # a layer A0 (x) B0 on run 0 gives the residual of the input (A0 a, B0 b)
    u, v, chains = _SYNTHESIS_PAIRS[case](d)
    rng = np.random.default_rng(20 + d)
    for n in (1, 2, 3):
        for pattern in _direction_patterns(n):
            args = (d, u.matrix, v.matrix, chains, pattern)
            problem = _SynthesisProblem(*args)
            x = rng.standard_normal(problem.n_params)
            a, b, layers = _reference_at(d, pattern, x)
            a0, b0 = (_expi_hermitian(c) for c in rng.standard_normal((2, d * d)))
            want = _reference_residual(*args, a, b, [np.kron(a0, b0)] + layers[1:])
            x[:4 * d] = np.concatenate([part for vec in (a0 @ a, b0 @ b)
                                        for part in (vec.real, vec.imag)])
            got = problem.evaluate(x[None])[0][0]
            err = np.abs(got - want).max()
            assert err <= 1e-12, (n, pattern, err)


def test_depth_one_synthesis_has_no_layer_parameters(monkeypatch):
    u, v, chains = _SYNTHESIS_PAIRS["IIA"](3)
    calls = []
    kernel = unidisc.engine._layer_kernel
    monkeypatch.setattr(unidisc.engine, "_layer_kernel",
                        lambda *args: (calls.append(1), kernel(*args))[1])
    for n, expected_calls in ((1, 0), (2, 1)):
        problem = _SynthesisProblem(3, u.matrix, v.matrix, chains, (FORWARD,) * n)
        assert problem.n_params == 12 + 18 * (n - 1)
        calls.clear()
        problem.evaluate(np.random.default_rng(n).standard_normal((2, problem.n_params)))
        assert len(calls) == expected_calls


def test_synthesis_rows_with_a_vanishing_input_are_never_chosen():
    u, v = product_operator(2, 1), haar_two_qudit(2, 10001)
    problem = _SynthesisProblem(2, u.matrix, v.matrix, (False, True), (FORWARD,))
    x0 = np.random.default_rng(0).standard_normal((3, problem.n_params))
    x0[1, :4] = 1e-7                       # Alice's input norm 2e-7 < 1e-6
    f, jac = problem.evaluate(x0)
    assert np.all(f[1] == 1e3) and not jac[1].any()
    _, err = _solve_lockstep(problem, x0)
    assert err[1] == 1e3


def test_synthesis_runs_no_solve_at_depths_the_arc_bound_rules_out(monkeypatch):
    # Theta(U^dag V) = 2.987 < pi, so one use leaves an overlap of at least
    # cos(Theta / 2) = 0.077; depth 1 gets its draws but no solve
    u, v = haar_two_qudit(2, 11001), haar_two_qudit(2, 12001)
    assert 2.98 < theta(UnitaryOperator(u.matrix.conj().T @ v.matrix, (2, 2))).theta < 2.99
    solve, depths = unidisc.engine._solve_lockstep, []

    def counting(problem, x0):
        depths.extend([problem.n] * len(x0))      # one entry per restart row
        return solve(problem, x0)

    monkeypatch.setattr(unidisc.engine, "_solve_lockstep", counting)
    skipped = dumps_artifact(protocol_to_json(build_protocol(u, v), seed=0))
    assert depths and 1 not in depths
    # an arc of 2 pi rules out no depth: the same draws give the same bytes
    arc = unidisc.engine._relative_spectrum
    monkeypatch.setattr(unidisc.engine, "_relative_spectrum",
                        lambda *args: arc(*args)[:3] + (2 * np.pi,))
    depths.clear()
    assert dumps_artifact(protocol_to_json(build_protocol(u, v), seed=0)) == skipped
    assert depths.count(1) == 6                    # one shape, 6 restarts


@pytest.mark.parametrize("case, d, s, ceiling", [
    ("IIA", 2, 0, 1), ("IIA", 2, 1, 1), ("IIB", 2, 0, 1), ("IIB", 2, 1, 2),
    ("IIIA", 2, 0, 2), ("IIIA", 2, 1, 2), ("IIA", 3, 0, 2), ("IIA", 3, 1, 2)])
def test_entangling_benchmark_pairs_keep_their_box_uses(case, d, s, ceiling):
    # the pairs of the benchmark's entangling workload, build seed s
    u, v = ENTANGLING_PAIRS[case](d, s)
    proto = build_protocol(u, v, seed=s)
    assert proto.case_label == case and proto.certificate.passed
    assert proto.box_uses <= ceiling
    # the first run's layer is folded into the input
    eye = np.eye(d)
    assert np.array_equal(proto.runs[0].alice_op, eye)
    assert np.array_equal(proto.runs[0].bob_op, eye)


def test_entangling_benchmark_solves_stop_early(monkeypatch):
    # problem.evaluate calls on two IIIA workload pairs: 16 for the s=0
    # label and 86 for the s=1 build, where a solve that waits for every
    # earlier restart to stop makes 164 and 233
    counts = {}
    for cls in (unidisc.compiler._CompileProblem, _SynthesisProblem):
        def counting(self, x, _evaluate=cls.evaluate, _name=cls.__name__):
            counts[_name] = counts.get(_name, 0) + 1
            return _evaluate(self, x)
        monkeypatch.setattr(cls, "evaluate", counting)
    u, v = ENTANGLING_PAIRS["IIIA"](2, 0)
    assert _case_iii_label(u, v, DEFAULT_TOLERANCES, 0, 8)[0] == "IIIA"
    assert set(counts) == {"_CompileProblem"} and counts["_CompileProblem"] <= 40
    counts.clear()
    proto = build_protocol(*ENTANGLING_PAIRS["IIIA"](2, 1), seed=1)
    assert proto.certificate.passed and proto.box_uses == 2
    assert sum(counts.values()) <= 120


def test_synthesis_solves_one_shape_per_depth_and_pattern(monkeypatch):
    # IIA d=2 s=2 fails at depth 1 and passes at depth 2; one shape per
    # measuring party made 269 problem.evaluate calls here
    calls = []
    evaluate = _SynthesisProblem.evaluate
    monkeypatch.setattr(_SynthesisProblem, "evaluate",
                        lambda self, x: (calls.append(1), evaluate(self, x))[1])
    proto = build_protocol(*ENTANGLING_PAIRS["IIA"](2, 2), seed=2)
    assert proto.certificate.passed and proto.box_uses == 2
    assert len(calls) <= 60


@pytest.mark.parametrize("max_boxes", [8])
def test_small_arc_failure_names_the_depths_searched(max_boxes):
    # exp(i t Z (x) X) = cos(t) I + i sin(t) Z (x) X against I: Theta = 2t,
    # and ceil(pi/Theta) = 11 and 9 lie beyond the largest depth searched;
    # at Theta = pi/9 a bare ceil(pi/Theta) drifts to 10
    eye = identity_operator((2, 2))
    for t, uses in ((0.15, 11), (np.pi / 18, 9)):
        v = UnitaryOperator(np.cos(t) * eye.matrix
                            + 1j * np.sin(t) * np.kron(SZ, SX), (2, 2))
        with pytest.raises(CompileFailed) as info:
            build_protocol(eye, v, max_boxes=max_boxes)
        assert info.value.best_error == np.inf
        assert str(info.value).endswith(
            "the arc bound rules out every depth searched, up to 8, "
            f"since ceil(pi/Theta) = {uses}")


def test_case_iii_label_runs_only_on_a_synthesized_protocol(monkeypatch):
    calls = []
    compile_word = unidisc.engine.compile_word
    monkeypatch.setattr(unidisc.engine, "compile_word",
                        lambda *a, **k: (calls.append(1), compile_word(*a, **k))[1])
    with pytest.raises(CompileFailed, match="best residual 9.860e-02"):
        build_protocol(*ENTANGLING_PAIRS["IIIA"](3, 0), seed=0, max_boxes=1)
    assert not calls
    proto = build_protocol(*ENTANGLING_PAIRS["IIIA"](2, 0), seed=0)
    assert len(calls) == 1
    assert (proto.case_label, proto.notes) == (
        "IIIA", "f(V) outside the canonical family")


@pytest.mark.parametrize("s", range(4))
def test_case_iii_label_of_criterion7_haar_pairs(s):
    u, v = haar_two_qudit(2, 2 * s + 11001), haar_two_qudit(2, 2 * s + 12001)
    assert _case_iii_label(u, v, DEFAULT_TOLERANCES, s, 8) == (
        "IIIA", "f(V) outside the canonical family")


@pytest.mark.parametrize("d", [2, 3])
def test_case_iii_label_equal_up_to_phase(d):
    # at d=2 the extracted x is 1 - pi, since E(x + pi) = -E(x)
    u = canonical_xx_operator(d, 1.0)
    v = UnitaryOperator(np.exp(2.5j) * u.matrix, (d, d))
    assert _case_iii_label(u, v, DEFAULT_TOLERANCES, 0, 8) == (
        "IIIB_EQUAL", "f(V) matches f(U) on the canonical family")


def test_case_iii_label_ignores_global_phase():
    u = canonical_xx_operator(2, 1.0)
    v = UnitaryOperator(np.exp(0.3j) * canonical_xx_operator(2, 0.4).matrix, (2, 2))
    assert _case_iii_label(u, v, DEFAULT_TOLERANCES, 0, 8) == (
        "IIIB_SCALED", "f(V) canonical with x=0.400000")


@pytest.mark.parametrize("d", [2, 3, 4])
def test_wrap_rotation_gives_the_largest_wrapped_arc(d):
    # x^dag T x T^dag has eigenphases +-beta (and 0), arc min(2 Theta(T), pi)
    for k, arc in enumerate((0.05, 0.4, 1.2, 1.6, 2.5, 3.1, 4.0, 5.5)):
        q = random_unitary(d, 900 + k).matrix
        phases = 0.7 + arc * np.linspace(0.0, 1.0, d)
        t = (q * np.exp(1j * phases)) @ q.conj().T
        f = UnitaryOperator(random_unitary(d, 950 + k).matrix, (d,))
        g = UnitaryOperator(f.matrix @ t, (d,))
        x = _wrap_rotation(*_relative_spectrum(f, g, DEFAULT_TOLERANCES)[1:3])
        assert np.linalg.norm(x.conj().T @ x - np.eye(d)) < 1e-12
        wrapped = UnitaryOperator(x.conj().T @ t @ x @ t.conj().T, (d,))
        t_arc = theta(UnitaryOperator(t, (d,))).theta
        assert abs(theta(wrapped).theta - min(2 * t_arc, np.pi)) < 1e-9


def test_conjugation_wrap_cancels_canonical_family():
    # A E(x) A^dag E(x) = I for every conjugator once extraction succeeds
    for d in (2, 3):
        for x in (0.3, 1.0, -0.7):
            op = canonical_xx_operator(d, x)
            assert extract_canonical_xx(op) is not None
            for a in conjugation_set(d):
                f = a @ op.matrix @ a.conj().T @ op.matrix
                assert np.linalg.norm(f - np.eye(d * d)) < 1e-6


def test_multi_discriminate_pair_matches_build(eye4, swap2):
    tree = multi_discriminate([eye4, swap2])
    assert len(tree.protocols) == 1
    direct = build_protocol(eye4, swap2)
    assert tree.protocols[(0, 1)].case_label == direct.case_label


def test_multi_discriminate_three_hypotheses(eye4, swap2):
    sz_i = UnitaryOperator(np.kron(SZ, np.eye(2)), (2, 2))
    ops = [eye4, swap2, sz_i]
    tree = multi_discriminate(ops)
    for truth, op in enumerate(ops):
        outcome = identify(tree, op)
        assert set(outcome) == {truth}
        assert abs(sum(outcome.values()) - 1.0) < 1e-9


def test_multi_discriminate_four_products():
    ops = [product_operator(2, 400 + k) for k in range(4)]
    tree = multi_discriminate(ops, seed=2)
    for proto in tree.protocols.values():
        assert proto.certificate.passed
    for truth, op in enumerate(ops):
        outcome = identify(tree, op)
        assert set(outcome) == {truth}


def _product_set(m):
    return [UnitaryOperator(tensor(random_unitary(2, 100 + k),
                                   random_unitary(2, 500 + k)).matrix, (2, 2))
            for k in range(m)]


def _tree_walk(tree, box, m):
    """Reference: the elimination tree walked path by path.  The node of
    (i, j, rest) runs protocol (i, j) and continues with (i, rest) on the
    "U" outcome and with (j, rest) otherwise."""
    results = {}

    def walk(indices, weight):
        if weight <= 1e-12:
            return
        if len(indices) == 1:
            results[indices[0]] = results.get(indices[0], 0.0) + weight
            return
        i, j, rest = indices[0], indices[1], indices[2:]
        proto = tree.protocols[(i, j)]
        probs = outcome_probabilities(proto, box)
        p_u = sum(p for k, p in enumerate(probs)
                  if proto.measurement.decision.get(k) == "U")
        walk((i,) + rest, weight * p_u)
        walk((j,) + rest, weight * (1.0 - p_u))

    walk(tuple(range(m)), 1.0)
    return results


def _assert_matches_tree_walk(tree, box, m):
    got, want = identify(tree, box), _tree_walk(tree, box, m)
    assert set(got) == set(want)
    for k in want:
        assert abs(got[k] - want[k]) <= 1e-9


def test_identify_matches_tree_walk_three_hypotheses(eye4, swap2):
    ops = [eye4, swap2, UnitaryOperator(np.kron(SZ, np.eye(2)), (2, 2))]
    tree = multi_discriminate(ops)
    for op in ops:
        _assert_matches_tree_walk(tree, op, 3)


def test_identify_matches_tree_walk_six_products():
    ops = _product_set(6)
    tree = multi_discriminate(ops)
    # an operator outside the set spreads its weight over several champions
    for op in ops + [product_operator(2, 77)]:
        _assert_matches_tree_walk(tree, op, 6)


def test_identify_runs_each_pair_at_most_once(monkeypatch):
    ops = _product_set(10)
    tree = multi_discriminate(ops)
    assert len(tree.protocols) == 45
    calls = []

    def spy(proto, box):
        calls.append(proto)
        return outcome_probabilities(proto, box)

    monkeypatch.setattr(unidisc.engine, "outcome_probabilities", spy)
    for truth, op in enumerate(ops):
        calls.clear()
        outcome = identify(tree, op)
        assert set(outcome) == {truth}
        assert abs(outcome[truth] - 1.0) < 1e-9
        assert len(calls) <= 45


def test_identify_sums_every_outcome_decided_u():
    # U lands half on outcome 0 and half on outcome 2, both decided "U"
    u, v = product_operator(3, 1), product_operator(3, 7001)
    proto = build_protocol(u, v)
    plan = proto.measurement
    b0, b1, b2 = plan.basis.T
    split = MeasurementPlan(plan.party, np.stack(
        [(b0 + b2) / np.sqrt(2), b1, (b0 - b2) / np.sqrt(2)], axis=1),
        decision={0: "U", 1: "V", 2: "U"})
    proto = replace(proto, measurement=split)
    assert verify(proto, u, v).passed
    assert np.allclose(outcome_probabilities(proto, u), [0.5, 0.0, 0.5])
    tree = DecisionTree({(0, 1): proto})
    for truth, op in enumerate((u, v)):
        outcome = identify(tree, op)
        assert set(outcome) == {truth}
        assert abs(outcome[truth] - 1.0) < 1e-9


def test_multi_rejects_equal_hypotheses(eye4):
    with pytest.raises(OperatorsEqual):
        multi_discriminate([eye4, identity_operator((2, 2))])
