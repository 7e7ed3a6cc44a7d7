"""Tests for circuit-word compilation through a fixed entangling box."""

import numpy as np
import pytest
import scipy.linalg

from unidisc.compiler import (Box, CanonicalXXTarget, CircuitWord,
                              ControlledFormTarget, ExactMatrix, LocalLayer,
                              _INNER, _sweep_layers, compile_word,
                              controlled_form_matrix, evaluate_word,
                              target_matrix, word_adjoint)
from unidisc.core import UnitaryOperator, phase_distance, random_unitary
from unidisc.exceptions import CompileFailed, ValidationError
from unidisc.locality import PRODUCT_LOCAL, classify

from conftest import (HAD, SX, SZ, CZ_MAT, haar_two_qudit, product_operator,
                      swap_type_operator)


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
    rng = np.random.default_rng(3)
    layers = [LocalLayer(random_unitary(2, 10 + k).matrix,
                         random_unitary(2, 20 + k).matrix) for k in range(3)]
    word = CircuitWord((layers[0], Box("forward"), layers[1],
                        Box("reverse"), layers[2]))
    lhs = evaluate_word(word, cnot).matrix.conj().T
    rhs = evaluate_word(word_adjoint(word), cnot).matrix
    assert np.linalg.norm(lhs - rhs) < 1e-12
    del rng


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
    word = compile_word(cnot, ExactMatrix(CZ_MAT), max_boxes=1)
    v = product_operator(2, 77)
    image = evaluate_word(word, v)
    assert classify(image).kind == PRODUCT_LOCAL

    even_word = CircuitWord((identity_layer(), Box(), identity_layer(),
                             Box(), identity_layer()))
    sw = swap_type_operator(2, 78)
    assert classify(evaluate_word(even_word, sw)).kind == PRODUCT_LOCAL


def test_compile_cz_from_cnot(cnot, cz):
    word = compile_word(cnot, ExactMatrix(cz), max_boxes=1)
    assert word.box_uses == 1
    assert word.achieved_error <= 1e-10
    # achieved_error is exactly the recomputed phase distance
    recheck = phase_distance(evaluate_word(word, cnot), cz)
    assert abs(recheck - word.achieved_error) < 1e-12


def test_compile_cnot_identity_word(cnot):
    word = compile_word(cnot, ExactMatrix(cnot), max_boxes=1)
    assert word.box_uses == 1
    assert word.achieved_error <= 1e-12


def test_compile_xx_interaction(cnot):
    target = scipy.linalg.expm(1j * 0.3 * np.kron(SX, SX))
    word = compile_word(cnot, ExactMatrix(target), max_boxes=2, seed=1)
    assert word.box_uses <= 2
    assert word.achieved_error <= 1e-6


def test_compile_canonical_targets(cnot):
    word = compile_word(cnot, CanonicalXXTarget(1.0), max_boxes=2, seed=2)
    assert word.achieved_error <= 1e-6
    cf = controlled_form_matrix(2)
    np.testing.assert_allclose(cf, np.diag([1, 1, -1, 1]), atol=1e-15)
    word2 = compile_word(cnot, ControlledFormTarget(), max_boxes=2, seed=2)
    assert word2.achieved_error <= 1e-6


def test_compile_haar_box_controlled_form():
    q = UnitaryOperator(random_unitary(4, 55).matrix, (2, 2))
    word = compile_word(q, ControlledFormTarget(), max_boxes=4, seed=3)
    assert word.achieved_error <= 1e-6
    assert word.box_uses <= 4


def test_compile_failure_reports_best():
    # a CZ-class target is unreachable with locals only; force n = 1 with a
    # box so weakly entangling that one use cannot reach it
    weak = UnitaryOperator(scipy.linalg.expm(1j * 0.05 * np.kron(SZ, SZ)),
                           (2, 2), tol=1e-9)
    with pytest.raises(CompileFailed) as info:
        compile_word(weak, ExactMatrix(CZ_MAT), max_boxes=1, restarts=4)
    assert info.value.best_error is not None
    assert info.value.best_error > 1e-3
    assert info.value.best_word is not None


def test_compile_failure_best_word_is_the_best_restart():
    # several patterns and restarts, none within tolerance: the reported word
    # must carry the layers of the restart whose error is reported
    weak = UnitaryOperator(scipy.linalg.expm(1j * 0.05 * np.kron(SZ, SZ)),
                           (2, 2), tol=1e-9)
    with pytest.raises(CompileFailed) as info:
        compile_word(weak, ExactMatrix(CZ_MAT), max_boxes=2, restarts=5, seed=7)
    best_word, best_error = info.value.best_word, info.value.best_error
    assert best_word.achieved_error == best_error
    recheck = phase_distance(evaluate_word(best_word, weak), CZ_MAT)
    assert abs(recheck - best_error) <= 1e-12


@pytest.mark.parametrize("s, boxes", [(0, 4), (1, 3)])
def test_case_iii_canonical_compile_outcomes(s, boxes):
    # the canonical-form compile behind the case-III label of the
    # criterion-7 Haar pairs (arguments as in engine._case_iii_label)
    q = haar_two_qudit(2, 2 * s + 11001)
    word = compile_word(q, CanonicalXXTarget(1.0), max_boxes=4, seed=s,
                        restarts=12, max_patterns=2)
    assert word.directions == ["forward"] * boxes
    assert word.achieved_error < 1e-6
    recheck = phase_distance(evaluate_word(word, q),
                             target_matrix(CanonicalXXTarget(1.0), 2))
    assert abs(recheck - word.achieved_error) < 1e-12


def _reference_sweep(layers, boxes, target, d):
    """Single-restart sweep with explicit Kronecker products and prefix and
    suffix rebuilt for every layer (the definition of one polar sweep)."""
    n, dim = len(boxes), d * d
    for idx in range(n + 1):
        prefix, suffix = np.eye(dim), np.eye(dim)
        for k in range(idx):
            prefix = boxes[k] @ np.kron(*layers[k]) @ prefix
        for k in range(idx, n):
            suffix = np.kron(*layers[k + 1]) @ boxes[k] @ suffix
        e4 = (suffix.conj().T @ target @ prefix.conj().T).reshape(d, d, d, d).conj()
        a, b = layers[idx]
        for _ in range(_INNER):
            u, _, vh = np.linalg.svd(np.einsum("ijkl,jl->ik", e4, b).T)
            a_new = vh.conj().T @ u.conj().T
            u, _, vh = np.linalg.svd(np.einsum("ijkl,ik->jl", e4, a_new).T)
            b_new = vh.conj().T @ u.conj().T
            step = np.linalg.norm(a_new - a) + np.linalg.norm(b_new - b)
            a, b = a_new, b_new
            if step < 1e-14:
                break
        layers[idx] = (a, b)
    w = np.eye(dim)
    for k in range(n + 1):
        w = np.kron(*layers[k]) @ w
        w = boxes[k] @ w if k < n else w
    return w


@pytest.mark.parametrize("d, n", [(2, 1), (2, 3), (3, 2)])
def test_stacked_sweep_matches_single_restart_reference(d, n):
    q = haar_two_qudit(d, 40 + n).matrix
    boxes = np.array([q if k % 2 == 0 else q.conj().T for k in range(n)])
    target = target_matrix(CanonicalXXTarget(1.0), d)
    count = 4
    a = np.array([[random_unitary(d, 100 * r + 2 * k).matrix for k in range(n + 1)]
                  for r in range(count)])
    b = np.array([[random_unitary(d, 100 * r + 2 * k + 1).matrix for k in range(n + 1)]
                  for r in range(count)])
    a[0] = b[0] = np.eye(d)
    reference = [[(a[r, k].copy(), b[r, k].copy()) for k in range(n + 1)]
                 for r in range(count)]
    for _ in range(3):
        w = _sweep_layers(a, b, boxes, target, d)
        for r in range(count):
            w_ref = _reference_sweep(reference[r], boxes, target, d)
            assert np.abs(w[r] - w_ref).max() < 1e-10
            for k in range(n + 1):
                assert np.abs(a[r, k] - reference[r][k][0]).max() < 1e-10
                assert np.abs(b[r, k] - reference[r][k][1]).max() < 1e-10


def test_compile_determinism(cnot):
    w1 = compile_word(cnot, CanonicalXXTarget(1.0), max_boxes=2, seed=5)
    w2 = compile_word(cnot, CanonicalXXTarget(1.0), max_boxes=2, seed=5)
    assert w1.achieved_error == w2.achieved_error
    for i1, i2 in zip(w1.items, w2.items):
        if isinstance(i1, LocalLayer):
            assert np.array_equal(i1.a, i2.a)
            assert np.array_equal(i1.b, i2.b)
        else:
            assert i1.direction == i2.direction


def test_compile_even_parity_constraint(cnot, cz):
    word = compile_word(cnot, ExactMatrix(cz), max_boxes=4,
                        box_parity="even", seed=4)
    assert word.box_uses % 2 == 0
    assert word.achieved_error <= 1e-6
