"""Compiling a target gate as a word through a fixed entangling box.

Local layers interleaved with uses of one entangling gate Q (forward or
reverse) can realize any two-qudit unitary.  The compiler searches box
counts in increasing order and fits the layers by Levenberg-Marquardt
least squares on the exact Jacobian, returning the first word whose phase
distance to the target meets tolerance.
"""

import numpy as np
import scipy.linalg

from unidisc import (Box, LocalLayer, UnitaryOperator, compile_word,
                     evaluate_word, phase_distance, random_unitary)
from unidisc.locality import canonical_xx_matrix

SX = np.array([[0, 1], [1, 0]], dtype=complex)
CNOT = UnitaryOperator(np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                                 [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
                       (2, 2))
CZ = np.diag([1, 1, 1, -1]).astype(complex)


def describe(word):
    shape = " ".join("Q" if isinstance(it, Box) else "L" for it in word.items)
    return f"[{shape}], boxes = {word.box_uses}, error = {word.achieved_error:.2e}"


print("== CZ out of one CNOT ==")
word = compile_word(CNOT, CZ, max_boxes=1)
print("  ", describe(word))
print("   recheck:", phase_distance(evaluate_word(word, CNOT), CZ))

print()
print("== an XX interaction out of two CNOTs ==")
target = scipy.linalg.expm(1j * 0.3 * np.kron(SX, SX))
word = compile_word(CNOT, target, max_boxes=2)
print("  ", describe(word))

print()
print("== canonical targets ==")
word = compile_word(CNOT, canonical_xx_matrix(2, 1.0), max_boxes=2)
print("   exp(i u1 (x) u2):", describe(word))

print()
print("== a Haar-random box works too ==")
q = UnitaryOperator(random_unitary(4, 42).matrix, (2, 2))
word = compile_word(q, CZ, max_boxes=6, seed=1)
print("   CZ from random Q:", describe(word))

print()
print("== reverse uses come for free ==")
word = compile_word(CNOT, CNOT.matrix.conj().T, max_boxes=2)
print("   CNOT^dag:", describe(word),
      "(directions:", ",".join(word.directions) + ")")
