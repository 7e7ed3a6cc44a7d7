"""Complete LOCC discrimination protocols, verified end to end.

Two parties share an unknown two-qudit box promised to be U or V.  Each
protocol here uses a product input, factorized local layers between box
uses, and one party's projective measurement at the end; the verifier
re-simulates both branches and certifies that the final states are
orthogonal and that the joint state stays a product state after every
single run, so no entanglement appears anywhere in the process.
"""

import numpy as np

from unidisc import (UnitaryOperator, build_protocol, case_iii_label, identify,
                     identity_operator, identity_vs_other, multi_discriminate,
                     random_unitary, swap_operator, tensor, verify)

SZ = np.diag([1.0, -1.0]).astype(complex)
eye4 = identity_operator((2, 2))
P = swap_operator(2)
CNOT = UnitaryOperator(np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                                 [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
                       (2, 2))
CZ = UnitaryOperator(np.diag([1, 1, 1, -1]).astype(complex), (2, 2))


def show(title, proto):
    rep = proto.certificate
    print(f"  {title}")
    print(f"    case {proto.case_label}, {proto.box_uses} box uses, "
          f"measuring party {rep.measuring_party}")
    print(f"    overlap {rep.overlap:.2e}, worst per-run second Schmidt "
          f"{rep.schmidt_second_max:.2e} -> {'PASS' if rep.passed else 'FAIL'}")


print("== identity vs swap: one run suffices ==")
show("I vs P", build_protocol(eye4, P))

print()
print("== product pair: discriminate a single-qudit factor ==")
sz_i = UnitaryOperator(np.kron(SZ, np.eye(2)), (2, 2))
show("sigma_z (x) I vs I", build_protocol(sz_i, eye4))

print()
print("== swap-type pair: conjugation wrap, two boxes per effective use ==")
u = UnitaryOperator(tensor(random_unitary(2, 1), random_unitary(2, 2)).matrix
                    @ P.matrix, (2, 2))
v = UnitaryOperator(tensor(random_unitary(2, 3), random_unitary(2, 4)).matrix
                    @ P.matrix, (2, 2))
show("random swap pair", build_protocol(u, v, seed=0))

print()
print("== entangling cases: synthesized run lists ==")
prod = UnitaryOperator(tensor(random_unitary(2, 5), random_unitary(2, 6)).matrix,
                       (2, 2))
haar = UnitaryOperator(random_unitary(4, 7).matrix, (2, 2))
show("product vs entangling", build_protocol(haar, prod, seed=1))
show("CNOT vs CZ", build_protocol(CNOT, CZ, seed=0))
label, notes = case_iii_label(CNOT, CZ)
print(f"    canonical-form label, on request: {label} ({notes})")

print()
print("== identity against an arbitrary gate ==")
show("I vs Haar", identity_vs_other(UnitaryOperator(random_unitary(4, 8).matrix,
                                                    (2, 2)), seed=2))

print()
print("== three hypotheses, exhaustively simulated ==")
ops = [eye4, P, sz_i]
tree = multi_discriminate(ops)
print(f"  distinct pairwise protocols: {len(tree.protocols)}, "
      f"total box uses: {tree.total_box_uses}")
for truth, op in enumerate(ops):
    outcome = identify(tree, op)
    print(f"  ground truth {truth}: identified {sorted(outcome)} "
          f"with probability {sum(outcome.values()):.3f}")
