"""Tests for circuit-word compilation through a fixed entangling box."""

import numpy as np
import pytest
import scipy.linalg

import unidisc.compiler
from unidisc.compiler import (_ONE_BOX_GAP, _STALL_WINDOW, _SYNTH_PASS, Box,
                              CircuitWord, LocalLayer, _CompileProblem,
                              _damped_steps, _one_box_gap, _solve_lockstep,
                              compile_word, evaluate_word)
from unidisc.core import (DEFAULT_TOLERANCES, UnitaryOperator, phase_distance,
                          random_unitary)
from unidisc.engine import _case_iii_label
from unidisc.exceptions import CompileFailed, ValidationError
from unidisc.locality import (PRODUCT_LOCAL, canonical_xx_matrix,
                              canonical_xx_operator, classify)
from unidisc.protocol import FORWARD, REVERSE

from conftest import (CNOT_MAT, HAD, SX, SZ, CZ_MAT, haar_two_qudit,
                      product_operator, swap_type_operator)


def controlled_form_matrix(d):
    """|0><0| (x) I + (I - |0><0|) (x) Z_d, Z_d = diag(-1, 1, ..., 1)."""
    p0 = np.diag(np.eye(d, dtype=complex)[0])          # |0><0|, and Z_d = I - 2 p0
    return np.kron(p0, np.eye(d)) + np.kron(np.eye(d) - p0, np.eye(d) - 2 * p0)


def identity_layer(d=2):
    return LocalLayer(np.eye(d, dtype=complex), np.eye(d, dtype=complex))


def test_word_validation():
    with pytest.raises(ValidationError):
        CircuitWord((Box(),))
    with pytest.raises(ValidationError):
        CircuitWord((identity_layer(), identity_layer()))
    word = CircuitWord((identity_layer(), Box(), identity_layer()))
    assert word.box_uses == 1


def test_evaluate_word_trivial_layer(cnot):
    word = CircuitWord((identity_layer(),))
    out = evaluate_word(word, cnot)
    assert phase_distance(out.matrix, np.eye(4)) < 1e-12
    assert word.box_uses == 0


def test_evaluate_word_known_cz_identity(cnot, cz):
    # CZ = (I x H) CNOT (I x H), verified by direct matrix product
    layer = LocalLayer(np.eye(2, dtype=complex), HAD)
    word = CircuitWord((layer, Box(), layer))
    out = evaluate_word(word, cnot)
    assert phase_distance(out, cz) < 1e-10


def test_evaluate_word_adjoint_identity(cnot):
    # L0 Q L1 Q^dag L2 (applied left to right) against the explicit product
    layers = [LocalLayer(random_unitary(2, 10 + k).matrix,
                         random_unitary(2, 20 + k).matrix) for k in range(3)]
    word = CircuitWord((layers[0], Box("forward"), layers[1],
                        Box("reverse"), layers[2]))
    q = cnot.matrix
    want = layers[2].matrix() @ q.conj().T @ layers[1].matrix() @ q @ layers[0].matrix()
    assert np.linalg.norm(evaluate_word(word, cnot).matrix - want) < 1e-12


def test_substitution_only_through_slots(cnot, swap2):
    # no boxes: the result cannot depend on the box operator
    word = CircuitWord((identity_layer(),))
    assert np.array_equal(evaluate_word(word, cnot).matrix,
                          evaluate_word(word, swap2).matrix)
    word2 = CircuitWord((identity_layer(), Box(), identity_layer()))
    assert word2.box_uses == 1
    assert not np.allclose(evaluate_word(word2, cnot).matrix,
                           evaluate_word(word2, swap2).matrix)


def test_word_closure_on_primitive_boxes(cnot):
    # a compiled word maps product operators to product operators, and
    # swap-type operators too when the box count is even
    word = compile_word(cnot, CZ_MAT, max_boxes=1)
    v = product_operator(2, 77)
    image = evaluate_word(word, v)
    assert classify(image).kind == PRODUCT_LOCAL

    even_word = CircuitWord((identity_layer(), Box(), identity_layer(),
                             Box(), identity_layer()))
    sw = swap_type_operator(2, 78)
    assert classify(evaluate_word(even_word, sw)).kind == PRODUCT_LOCAL


def test_compile_cz_from_cnot(cnot, cz):
    word = compile_word(cnot, cz, max_boxes=1)
    assert word.box_uses == 1
    assert word.achieved_error <= 1e-10
    # achieved_error is exactly the recomputed phase distance
    recheck = phase_distance(evaluate_word(word, cnot), cz)
    assert abs(recheck - word.achieved_error) < 1e-12


def test_compile_cnot_identity_word(cnot):
    word = compile_word(cnot, cnot, max_boxes=1)
    assert word.box_uses == 1
    assert word.achieved_error <= 1e-12


def test_compile_xx_interaction(cnot):
    target = scipy.linalg.expm(1j * 0.3 * np.kron(SX, SX))
    word = compile_word(cnot, target, max_boxes=2, seed=1)
    assert word.box_uses <= 2
    assert word.achieved_error <= 1e-6


def test_compile_canonical_targets(cnot):
    word = compile_word(cnot, canonical_xx_matrix(2, 1.0), max_boxes=2, seed=2)
    assert word.achieved_error <= 1e-6
    cf = controlled_form_matrix(2)
    np.testing.assert_allclose(cf, np.diag([1, 1, -1, 1]), atol=1e-15)
    word2 = compile_word(cnot, controlled_form_matrix(2), max_boxes=2, seed=2)
    assert word2.achieved_error <= 1e-6


def test_compile_haar_box_controlled_form():
    q = UnitaryOperator(random_unitary(4, 55).matrix, (2, 2))
    word = compile_word(q, controlled_form_matrix(2), max_boxes=4, seed=3)
    assert word.achieved_error <= 1e-6
    assert word.box_uses <= 4


def test_compile_operator_target_matches_matrix_target(cnot):
    w_op = compile_word(cnot, canonical_xx_operator(2, 1.0), max_boxes=2, seed=2)
    w_mat = compile_word(cnot, canonical_xx_matrix(2, 1.0), max_boxes=2, seed=2)
    assert w_op.achieved_error == w_mat.achieved_error
    assert w_op.directions == w_mat.directions
    for i1, i2 in zip(w_op.items, w_mat.items):
        if isinstance(i1, LocalLayer):
            assert np.array_equal(i1.a, i2.a)
            assert np.array_equal(i1.b, i2.b)


def test_compile_rejects_negative_seed(cnot):
    with pytest.raises(ValidationError, match="seed must be non-negative"):
        compile_word(cnot, CZ_MAT, max_boxes=1, seed=-1)


def test_compile_failure_reports_best():
    # a CZ-class target is unreachable with locals only; force n = 1 with a
    # box so weakly entangling that one use cannot reach it
    weak = UnitaryOperator(scipy.linalg.expm(1j * 0.05 * np.kron(SZ, SZ)),
                           (2, 2), tol=1e-9)
    with pytest.raises(CompileFailed) as info:
        compile_word(weak, CZ_MAT, max_boxes=1)
    assert info.value.best_error is not None
    assert info.value.best_error > 1e-3
    assert info.value.best_word is not None


def test_compile_failure_best_word_is_the_best_restart():
    # several patterns and restarts, none within tolerance: the reported word
    # must carry the layers of the restart whose error is reported
    weak = UnitaryOperator(scipy.linalg.expm(1j * 0.05 * np.kron(SZ, SZ)),
                           (2, 2), tol=1e-9)
    with pytest.raises(CompileFailed) as info:
        compile_word(weak, CZ_MAT, max_boxes=2, seed=7)
    best_word, best_error = info.value.best_word, info.value.best_error
    assert best_word.achieved_error == best_error
    recheck = phase_distance(evaluate_word(best_word, weak), CZ_MAT)
    assert abs(recheck - best_error) <= 1e-12


@pytest.mark.parametrize("s, boxes", [(0, 2), (1, 2)])
def test_case_iii_canonical_compile_outcomes(s, boxes):
    # the canonical-form compile behind the case-III label of the
    # criterion-7 Haar pairs (arguments as in engine._case_iii_label); one
    # box cannot reach E(1) from a Haar gate, so two is the least
    q = haar_two_qudit(2, 2 * s + 11001)
    word = compile_word(q, canonical_xx_matrix(2, 1.0), max_boxes=4, seed=s)
    assert word.directions == ["forward"] * boxes
    assert word.achieved_error < 1e-6
    recheck = phase_distance(evaluate_word(word, q), canonical_xx_matrix(2, 1.0))
    assert abs(recheck - word.achieved_error) < 1e-12


def test_compile_determinism(cnot):
    w1 = compile_word(cnot, canonical_xx_matrix(2, 1.0), max_boxes=2, seed=5)
    w2 = compile_word(cnot, canonical_xx_matrix(2, 1.0), max_boxes=2, seed=5)
    assert w1.achieved_error == w2.achieved_error
    for i1, i2 in zip(w1.items, w2.items):
        if isinstance(i1, LocalLayer):
            assert np.array_equal(i1.a, i2.a)
            assert np.array_equal(i1.b, i2.b)
        else:
            assert i1.direction == i2.direction


def _local(seed):
    return np.kron(random_unitary(2, seed).matrix, random_unitary(2, seed + 1).matrix)


def test_compile_word_takes_the_forward_word_when_both_patterns_reach(cnot):
    # CNOT is its own inverse, so both one-box patterns reach CNOT (each with
    # its identity-started restart) and L1 CNOT L0; pattern 0's restarts
    # come first in the stack
    for target in (CNOT_MAT, _local(70) @ CNOT_MAT @ _local(72)):
        word = compile_word(cnot, target, max_boxes=1)
        assert word.directions == [FORWARD]
        assert phase_distance(evaluate_word(word, cnot).matrix, target) <= 1e-8


def test_compile_word_takes_the_reversed_word_when_only_it_reaches():
    # a Haar gate is not locally equivalent to its inverse, so only the
    # reversed pattern reaches q^dag, from its identity-started restart
    q = haar_two_qudit(2, 71)
    word = compile_word(q, q.matrix.conj().T, max_boxes=1)
    assert word.directions == [REVERSE]
    assert phase_distance(evaluate_word(word, q).matrix, q.matrix.conj().T) <= 1e-8


@pytest.mark.parametrize("k", range(71, 76))
def test_compile_word_reaches_every_one_box_target(k):
    # L1 q L0 and L1 q^dag L0 are one box away, through the forward and the
    # reversed pattern; every one must compile within the tolerance
    q = haar_two_qudit(2, k)
    l0, l1 = _local(901), _local(903)
    for target in (l1 @ q.matrix @ l0, l1 @ q.matrix.conj().T @ l0):
        word = compile_word(q, target, max_boxes=1)
        assert word.box_uses == 1
        assert word.achieved_error <= DEFAULT_TOLERANCES.compile
        assert phase_distance(evaluate_word(word, q), target) <= DEFAULT_TOLERANCES.compile


def test_one_box_gap_judges_local_conjugates_reachable():
    for k in range(8):
        q = haar_two_qudit(2, 300 + k).matrix
        target = np.exp(0.7j * k) * _local(400 + 2 * k) @ q @ _local(500 + 2 * k)
        assert _one_box_gap(q, target) <= 1e-10
        assert _one_box_gap(q.conj().T, target.conj().T) <= 1e-10


def test_one_box_gap_judges_near_words_reachable():
    # a target within 1e-6 of a one-box word keeps a gap far below the bound
    rng = np.random.default_rng(3)
    for k in range(20):
        q = haar_two_qudit(2, 600 + k).matrix
        word = _local(700 + 2 * k) @ q @ _local(800 + 2 * k)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (g + g.conj().T) / 2
        target = word @ scipy.linalg.expm(1j * 1e-6 * h / np.linalg.norm(h))
        assert phase_distance(word, target) <= 1e-6
        assert _one_box_gap(q, target) <= 0.01 * _ONE_BOX_GAP


def test_one_box_gap_rules_out_the_criterion7_labels(monkeypatch):
    # no criterion-7 Haar gate, nor its inverse, is locally equivalent to
    # E(1), so the case-III label runs no box-count-1 solve
    target = canonical_xx_matrix(2, 1.0)
    counts = []
    solve = unidisc.compiler._solve_lockstep

    def counting(problem, x0):
        counts.append(problem.n)
        return solve(problem, x0)

    monkeypatch.setattr(unidisc.compiler, "_solve_lockstep", counting)
    for s in range(20):
        u, v = haar_two_qudit(2, 2 * s + 11001), haar_two_qudit(2, 2 * s + 12001)
        assert _one_box_gap(u.matrix, target) > _ONE_BOX_GAP
        assert _one_box_gap(u.matrix.conj().T, target) > _ONE_BOX_GAP
        counts.clear()
        assert _case_iii_label(u, v, DEFAULT_TOLERANCES, s, 8)[0] == "IIIA"
        assert counts and 1 not in counts


@pytest.mark.parametrize("d", [2, 3])
def test_compile_jacobian_matches_central_differences(d):
    q = haar_two_qudit(d, 40 + d).matrix
    rng = np.random.default_rng(d)
    for boxes in ([q], [q, q.conj().T], [q, q, q]):
        problem = _CompileProblem(d, boxes, canonical_xx_matrix(d, 1.0))
        x = rng.standard_normal((2, problem.n_params))
        _, exact = problem.evaluate(x)
        assert exact.shape == (2, 2 * d ** 4, problem.n_params)
        h, shifts = 1e-5, 1e-5 * np.eye(problem.n_params)
        for row, jac in zip(x, exact):
            f, _ = problem.evaluate(np.concatenate([row + shifts, row - shifts]))
            plus, minus = np.split(f, 2)
            numeric = ((plus - minus) / (2 * h)).T
            assert np.abs(jac - numeric).max() / np.abs(numeric).max() <= 1e-6


def test_compile_residual_is_the_word_minus_the_phased_target():
    d, q = 2, haar_two_qudit(2, 44)
    problem = _CompileProblem(d, [q.matrix, q.matrix.conj().T], CZ_MAT)
    x = np.random.default_rng(5).standard_normal((3, problem.n_params))
    f, _ = problem.evaluate(x)
    ops = problem.layers(x)[0]
    for row, res, layers in zip(x, f, ops):
        word = CircuitWord((LocalLayer(layers[0], layers[1]), Box(FORWARD),
                            LocalLayer(layers[2], layers[3]), Box(REVERSE),
                            LocalLayer(layers[4], layers[5])))
        z = (evaluate_word(word, q.matrix) - np.exp(1j * row[-1]) * CZ_MAT).ravel()
        assert np.abs(res - np.concatenate([z.real, z.imag])).max() <= 1e-12


class _ToyProblem:
    """A residual function of a stack of points, counting its evaluations."""

    def __init__(self, residuals):
        self.residuals, self.calls = residuals, 0

    def evaluate(self, x):
        self.calls += 1
        return self.residuals(x)


def _floor_residuals(x):
    # f = (a, 1 - a^2/2 - b^2): zero at (0, +-1).  The line b = 0 is
    # invariant and ends in a flat minimum of cost 1/2 + a^4/8 at the origin,
    # where Levenberg-Marquardt creeps with ever smaller relative gains.
    a, b = x[:, 0], x[:, 1]
    jac = np.zeros((len(x), 2, 2))
    jac[:, 0, 0], jac[:, 1, 0], jac[:, 1, 1] = 1.0, -a, -2.0 * b
    return np.stack([a, 1 - a * a / 2 - b * b], axis=1), jac


def _rosenbrock_residuals(x):
    a, b = x[:, 0], x[:, 1]
    jac = np.zeros((len(x), 2, 2))
    jac[:, 0, 0], jac[:, 0, 1], jac[:, 1, 0] = -20.0 * a, 10.0, -1.0
    return np.stack([10.0 * (b - a * a), 1.0 - a], axis=1), jac


def test_lockstep_ends_at_a_converged_later_row():
    # row 0 creeps toward the floor, row 1 converges; the solve does not
    # wait for row 0, which stops where it is without passing
    problem = _ToyProblem(_floor_residuals)
    x, err = _solve_lockstep(problem, np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert err[1] <= _SYNTH_PASS and abs(abs(x[1, 1]) - 1.0) <= 1e-12
    assert err[0] > 0.9 and x[0, 1] == 0.0
    assert problem.calls <= _STALL_WINDOW + 5


def test_lockstep_stops_a_stalled_row():
    # alone on the floor line, the row still lowers its cost at every step
    # (by far more than the 1e-9 relative stop), but by less than the stall
    # gain over a window, so it stops long before the iteration cap
    problem = _ToyProblem(_floor_residuals)
    _, err = _solve_lockstep(problem, np.array([[1.0, 0.0]]))
    assert err[0] > 0.9
    assert _STALL_WINDOW < problem.calls <= 2 * _STALL_WINDOW


def test_lockstep_keeps_a_row_that_makes_progress():
    # Rosenbrock from (-1.2, 1) follows the curved valley for more than one
    # stall window, lowering its cost enough to keep going, and reaches (1, 1)
    problem = _ToyProblem(_rosenbrock_residuals)
    x, err = _solve_lockstep(problem, np.array([[-1.2, 1.0]]))
    assert problem.calls > _STALL_WINDOW + 1
    assert err[0] <= 1e-15 and np.abs(x[0] - 1.0).max() <= 1e-12


def test_lockstep_rows_that_start_exact_stop_at_once():
    problem = _ToyProblem(_floor_residuals)
    x0 = np.array([[1.0, 1.0], [0.0, 1.0]])
    x, err = _solve_lockstep(problem, x0)
    assert problem.calls == 1
    assert np.array_equal(x, x0) and err[1] == 0.0
    exact = _ToyProblem(_floor_residuals)
    _, err = _solve_lockstep(exact, np.array([[0.0, 1.0], [0.0, -1.0]]))
    assert exact.calls == 1 and not err.any()


def _null_direction_residuals(x):
    # f = (a + b, t^2): a - b is an exact null direction of J^T J, and t
    # halves at each Gauss-Newton step, so the damping falls by 1/3 per
    # step until the damped normal matrix is singular in floating point
    a, b, t = x[:, 0], x[:, 1], x[:, 2]
    jac = np.zeros((len(x), 2, 3))
    jac[:, 0, 0], jac[:, 0, 1], jac[:, 1, 2] = 1.0, 1.0, 2.0 * t
    return np.stack([a + b, t * t], axis=1), jac


def test_lockstep_rejects_the_step_of_a_singular_row():
    # from t = 100 the row takes over 30 good steps, which would bring its
    # damping from 1e-3 below 1e-17
    problem = _ToyProblem(_null_direction_residuals)
    x, err = _solve_lockstep(problem, np.array([[0.3, 0.2, 100.0]]))
    assert problem.calls > 30
    assert err[0] <= 1e-12 and abs(x[0, 0] + x[0, 1]) <= 1e-15


def test_damped_steps_of_regular_rows_match_the_batched_solve():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((5, 9, 6))
    normal = a.swapaxes(1, 2) @ a + 1e-3 * np.eye(6)
    g = rng.standard_normal((5, 6))
    want = -np.linalg.solve(normal, g[..., None])[..., 0]
    assert np.array_equal(_damped_steps(normal, g), want)
    normal[2] = np.ones((6, 6))                   # rank one: exactly singular
    step = _damped_steps(normal, g)
    assert not step[2].any()
    assert np.array_equal(np.delete(step, 2, axis=0), np.delete(want, 2, axis=0))
