"""Tests for circuit-word compilation through a fixed entangling box."""

import numpy as np
import pytest
import scipy.linalg

from unidisc.compiler import (Box, CircuitWord, LocalLayer, _INNER, _polar,
                              _sweep_layers, compile_word, evaluate_word)
from unidisc.core import UnitaryOperator, phase_distance, random_unitary
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


@pytest.mark.parametrize("s, boxes", [(0, 4), (1, 3)])
def test_case_iii_canonical_compile_outcomes(s, boxes):
    # the canonical-form compile behind the case-III label of the
    # criterion-7 Haar pairs (arguments as in engine._case_iii_label)
    q = haar_two_qudit(2, 2 * s + 11001)
    word = compile_word(q, canonical_xx_matrix(2, 1.0), max_boxes=4, seed=s)
    assert word.directions == ["forward"] * boxes
    assert word.achieved_error < 1e-6
    recheck = phase_distance(evaluate_word(word, q), canonical_xx_matrix(2, 1.0))
    assert abs(recheck - word.achieved_error) < 1e-12


def _complex_stack(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("kind", ["random", "rank1", "near_singular", "zero"])
def test_closed_form_polar_factor(kind):
    # full-rank g must give the SVD's u @ vh; the polar factor of a complex g
    # has condition number s1 / s2, so near-singular stacks stop at 1e-3
    rng = np.random.default_rng(17)
    g = _complex_stack(rng, (64, 2, 2))
    full = np.ones(len(g), dtype=bool)
    if kind == "rank1":
        g = _complex_stack(rng, (64, 2, 1)) @ _complex_stack(rng, (64, 1, 2))
        full[:] = False
    elif kind == "near_singular":
        u, s, vh = np.linalg.svd(g)
        s[:, 1] = s[:, 0] * np.logspace(-3, -1, len(g))
        g = (u * s[:, None, :]) @ vh
    elif kind == "zero":
        g[::3] = 0.0
        full[::3] = False
    w = _polar(g)
    assert np.abs(w.conj().transpose(0, 2, 1) @ w - np.eye(2)).max() < 1e-12
    u, _, vh = np.linalg.svd(g[full])
    assert np.abs(w[full] - u @ vh).max(initial=0.0) < 1e-12
    if kind == "zero":
        assert np.array_equal(w[::3], np.broadcast_to(np.eye(2), w[::3].shape))


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
    # rows alternate between two box-slot patterns, as compile_word stacks them
    slots = [[q if k % 2 == 0 else q.conj().T for k in range(n)],
             [q] * (n - 1) + [q.conj().T]]
    boxes = np.array([slots[r % 2] for r in range(4)])
    target = canonical_xx_matrix(d, 1.0)
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
            w_ref = _reference_sweep(reference[r], boxes[r], target, d)
            assert np.abs(w[r] - w_ref).max() < 1e-10
            for k in range(n + 1):
                assert np.abs(a[r, k] - reference[r][k][0]).max() < 1e-10
                assert np.abs(b[r, k] - reference[r][k][1]).max() < 1e-10


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
