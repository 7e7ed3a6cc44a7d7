"""Spectral arc of a unitary and the single-run discrimination criterion.

Theta(U) is the length of the smallest closed arc of the unit circle
containing every eigenvalue of U.  Two different unitaries U, V admit an
input state with U|psi> orthogonal to V|psi> exactly when
Theta(U^dag V) >= pi; the state itself comes from a convex combination of
eigenvalues of U^dag V summing to zero.
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import (DEFAULT_TOLERANCES, PureState, TWO_PI, phase_distance,
                   unitary_eig)
from .exceptions import (DimensionMismatch, NotSingleRunDiscriminable,
                         OperatorsEqual)


@dataclass(frozen=True)
class SpectralArc:
    """Merged eigenphases, the largest circular gap, and theta = arc length."""

    eigenphases: tuple
    largest_gap: float
    theta: float


def _merge_circular(phases, tol):
    """Cluster sorted phases on the circle, merging gaps <= tol.

    Returns representative phases (cluster means), sorted ascending in
    [0, 2 pi).  The wrap-around pair of clusters is merged when the circular
    gap between them is <= tol.
    """
    phases = np.sort(np.mod(np.asarray(phases, dtype=float), TWO_PI))
    if phases.size == 0:
        return phases
    groups = [[phases[0]]]
    for p in phases[1:]:
        if p - groups[-1][-1] <= tol:
            groups[-1].append(p)
        else:
            groups.append([p])
    if len(groups) > 1 and (TWO_PI - groups[-1][-1] + groups[0][0]) <= tol:
        # wrap-around merge: shift the last group below zero
        first = [p - TWO_PI for p in groups.pop()] + groups[0]
        groups[0] = first
    reps = np.mod(np.array([np.mean(g) for g in groups]), TWO_PI)
    # a wrapped cluster's mean can be a tiny negative value that mod maps to 2 pi
    reps[reps > TWO_PI - 1e-12] = 0.0
    return np.sort(reps)


def _arc_of_phases(phases, tol):
    """(theta, largest_gap, start, reps) for merged representative phases."""
    reps = _merge_circular(phases, tol)
    if reps.size <= 1:
        start = float(reps[0]) if reps.size else 0.0
        return 0.0, TWO_PI, start, reps
    gaps = np.diff(np.concatenate([reps, [reps[0] + TWO_PI]]))
    k = int(np.argmax(gaps))
    largest = float(gaps[k])
    theta_val = TWO_PI - largest
    start = float(reps[(k + 1) % reps.size])
    return theta_val, largest, start, reps


def theta(u, tol=DEFAULT_TOLERANCES):
    """Spectral arc of a unitary.

    Eigenphases closer than the classification tolerance are merged before
    gap computation so numerical scatter cannot split a degenerate phase.
    """
    phases, _ = unitary_eig(u)
    theta_val, largest, _, reps = _arc_of_phases(phases, tol.classification)
    return SpectralArc(tuple(float(p) for p in reps), largest, theta_val)


def _relative_spectrum(u, v, tol):
    """(W, phases, vectors, theta) of W = U^dag V from one eigendecomposition.

    Raises for operators of different dims or equal up to a global phase.
    """
    if u.dims != v.dims:
        raise DimensionMismatch(f"dims {u.dims} vs {v.dims}")
    if phase_distance(u, v) <= tol.classification:
        raise OperatorsEqual("operators agree up to a global phase")
    w = u.matrix.conj().T @ v.matrix
    phases, vectors = unitary_eig(w)
    theta_val = _arc_of_phases(phases, tol.classification)[0]
    return w, phases, vectors, theta_val


def single_run_discriminable(u, v, tol=DEFAULT_TOLERANCES):
    """True iff Theta(U^dag V) >= pi (within the classification tolerance)."""
    theta_val = _relative_spectrum(u, v, tol)[3]
    return bool(theta_val >= np.pi - tol.classification)


def zero_hull_state(phases, vectors, tol=DEFAULT_TOLERANCES):
    """State |psi> = sum sqrt(p_j) |e_j> with sum p_j e^{i phase_j} ~ 0.

    Searches the eigenvalues for (a) an antipodal pair, giving a two-point
    combination, or (b) a phase-sorted triple whose triangle contains the
    origin, solved exactly and selected by maximal containment margin.
    Returns ``(amplitudes, certified_overlap)`` or ``None`` when the origin
    is outside the convex hull.
    """
    phases = np.asarray(phases, dtype=float)
    lam = np.exp(1j * phases)
    # one representative index per merged phase keeps triples non-singular
    reps = []
    for j in np.argsort(phases, kind="stable"):
        dup = False
        for r in reps:
            diff = abs(phases[j] - phases[r])
            if min(diff, TWO_PI - diff) <= tol.classification:
                dup = True
                break
        if not dup:
            reps.append(j)

    def two_point(i, j):
        # optimal real weight for |p lam_i + (1-p) lam_j| minimal
        d = lam[i] - lam[j]
        denom = abs(d) ** 2
        if denom < 1e-30:
            return None
        p = float(np.clip(-np.real(np.conj(d) * lam[j]) / denom, 0.0, 1.0))
        value = abs(p * lam[i] + (1 - p) * lam[j])
        return p, value

    best_pair, best_defect = None, np.inf
    for i, j in combinations(reps, 2):
        diff = abs(phases[i] - phases[j])
        defect = abs(min(diff, TWO_PI - diff) - np.pi)
        if defect < best_defect:
            best_pair, best_defect = (i, j), defect

    def build(indices, weights):
        psi = np.zeros(vectors.shape[0], dtype=complex)
        for idx, w in zip(indices, weights):
            psi += np.sqrt(max(w, 0.0)) * vectors[:, idx]
        psi /= np.linalg.norm(psi)
        overlap = abs(np.sum([w * lam[idx] for idx, w in zip(indices, weights)]))
        return psi, float(overlap)

    # near-exact antipodal pair: prefer the sparse two-point state
    if best_pair is not None and best_defect <= 2e-9:
        p, _ = two_point(*best_pair)
        return build(best_pair, [p, 1 - p])

    # triples containing the origin strictly, picked by max margin
    best_triple, best_margin, best_weights = None, 1e-12, None
    for tri in combinations(reps, 3):
        a = np.array([
            [lam[tri[0]].real, lam[tri[1]].real, lam[tri[2]].real],
            [lam[tri[0]].imag, lam[tri[1]].imag, lam[tri[2]].imag],
            [1.0, 1.0, 1.0],
        ])
        try:
            p = np.linalg.solve(a, np.array([0.0, 0.0, 1.0]))
        except np.linalg.LinAlgError:
            continue
        margin = float(np.min(p))
        if margin > best_margin:
            best_triple, best_margin, best_weights = tri, margin, p
    if best_triple is not None:
        return build(best_triple, best_weights)

    # boundary case: antipodal within the classification tolerance
    if best_pair is not None and best_defect <= tol.classification:
        p, value = two_point(*best_pair)
        if value <= tol.orthogonality:
            return build(best_pair, [p, 1 - p])
    return None


def discriminating_state(u, v, tol=DEFAULT_TOLERANCES):
    """Input state making U|psi> and V|psi> orthogonal, when one exists.

    Requires ``single_run_discriminable(u, v)``; the returned state carries
    a certified overlap |<psi|U^dag V|psi>| <= the orthogonality tolerance.
    """
    w, phases, vectors, theta_val = _relative_spectrum(u, v, tol)
    if not theta_val >= np.pi - tol.classification:
        raise NotSingleRunDiscriminable(
            "Theta(U^dag V) < pi: no single-run discriminating state exists"
        )
    result = zero_hull_state(phases, vectors, tol)
    if result is None:  # pragma: no cover - excluded by the criterion above
        raise NotSingleRunDiscriminable("origin not inside the eigenvalue hull")
    psi, _ = result
    overlap = abs(np.vdot(psi, w @ psi))
    if overlap > tol.orthogonality:  # pragma: no cover - construction is exact
        raise NotSingleRunDiscriminable(
            f"constructed state has overlap {overlap:.3e} above tolerance"
        )
    return PureState(psi, u.dims)
