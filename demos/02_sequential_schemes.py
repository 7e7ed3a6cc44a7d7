"""Sequential schemes: trading extra uses of the box for orthogonality.

When Theta(U^dag V) = delta < pi a single use is not enough, but
interleaving N = ceil(pi/delta) - 1 auxiliary unitaries

    U X_N U ... X_1 U |psi>   vs   V X_N V ... X_1 V |psi>

grows the effective arc by delta per use until it reaches pi.  The
synthesizer below realizes that growth exactly and certifies the final
overlap by direct simulation.
"""

import numpy as np

from unidisc import (UnitaryOperator, evaluate_scheme, find_sequential_scheme,
                     identity_operator, random_unitary, required_runs, theta)

eye = identity_operator((2,))

print("== run budgets for shrinking arcs ==")
for k in range(2, 7):
    v = UnitaryOperator(np.diag([1.0, np.exp(1j * np.pi / k)]), (2,))
    print(f"  Theta = pi/{k}:  N = {required_runs(eye, v)} auxiliary ops, "
          f"{required_runs(eye, v) + 1} uses")

print()
print("== a certified scheme for Theta = pi/4 ==")
v = UnitaryOperator(np.diag([1.0, np.exp(1j * np.pi / 4)]), (2,))
scheme = find_sequential_scheme(eye, v)
print(f"  aux operations: {len(scheme.aux_ops)}")
print(f"  input state:    {np.round(scheme.input.amplitudes, 6)}")
print(f"  certified overlap: {scheme.overlap:.3e}")
print(f"  independent recomputation: {evaluate_scheme(scheme, eye, v):.3e}")

print()
print("== the arc grows by delta per accepted step ==")
left, right = eye.matrix.copy(), v.matrix.copy()
arc0 = theta(UnitaryOperator(left.conj().T @ right, (2,))).theta
print(f"  before any aux: Theta = {arc0:.6f}")
for k, x in enumerate(scheme.aux_ops, start=1):
    left = eye.matrix @ x.matrix @ left
    right = v.matrix @ x.matrix @ right
    arc = theta(UnitaryOperator(left.conj().T @ right, (2,), tol=1e-8)).theta
    print(f"  after X_{k}:     Theta = {arc:.6f}")

print()
print("== random single-qudit and two-qudit pairs ==")
for d, seed in [(2, 5), (3, 9), (4, 13)]:
    dims = (d,) if d != 4 else (2, 2)
    u = UnitaryOperator(random_unitary(d, seed).matrix, dims)
    w = UnitaryOperator(random_unitary(d, seed + 1).matrix, dims)
    n = required_runs(u, w)
    scheme = find_sequential_scheme(u, w)
    print(f"  dims {dims}: N = {n}, aux used = {len(scheme.aux_ops)}, "
          f"overlap = {evaluate_scheme(scheme, u, w):.2e}")
