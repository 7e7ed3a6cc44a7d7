"""Spectral arc of a unitary and the single-run discrimination criterion.

Theta(U) is the length of the smallest closed arc of the unit circle
containing every eigenvalue of U.  Two different unitaries U, V admit an
input state with U|psi> orthogonal to V|psi> exactly when
Theta(U^dag V) >= pi; the state itself comes from a convex combination of
eigenvalues of U^dag V summing to zero.
"""

from dataclasses import dataclass

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
    """Cluster phases on the circle, merging gaps <= tol.

    Returns ``(reps, firsts)``: the representative phases (cluster means),
    sorted ascending in [0, 2 pi), and for each cluster the index into
    ``phases`` of its lowest member in [0, 2 pi), ascending in that phase.
    The wrap-around pair of clusters is merged when the circular gap between
    them is <= tol.
    """
    phases = np.mod(np.asarray(phases, dtype=float), TWO_PI)
    order = np.argsort(phases, kind="stable")
    phases = phases[order]
    groups, heads = [[phases[0]]], [0]
    for k, p in enumerate(phases[1:], 1):
        if p - groups[-1][-1] <= tol:
            groups[-1].append(p)
        else:
            groups.append([p])
            heads.append(k)
    if len(groups) > 1 and (TWO_PI - groups[-1][-1] + groups[0][0]) <= tol:
        # wrap-around merge: shift the last group below zero
        groups[0] = [p - TWO_PI for p in groups.pop()] + groups[0]
        heads.pop()
    reps = np.mod(np.array([np.mean(g) for g in groups]), TWO_PI)
    # a wrapped cluster's mean can be a tiny negative value that mod maps to 2 pi
    reps[reps > TWO_PI - 1e-12] = 0.0
    return np.sort(reps), order[heads]


def _widest_gap(phases):
    """(k, gap): the widest circular gap of ascending phases in [0, 2 pi),
    which closes at ``phases[k]``; the arc runs from ``phases[k]`` round to
    ``phases[k - 1]``.  An arc below pi leaves one gap wider than pi, so no
    float tie can move its ends."""
    gaps = np.diff(np.concatenate([phases, [phases[0] + TWO_PI]]))
    k = int(np.argmax(gaps))
    return (k + 1) % len(phases), float(gaps[k])


def _arc_of_phases(phases, tol):
    """(theta, largest_gap, reps) for merged representative phases; one
    cluster gives theta exactly 0."""
    reps = _merge_circular(phases, tol)[0]
    largest = TWO_PI if reps.size == 1 else _widest_gap(reps)[1]
    return TWO_PI - largest, largest, reps


def theta(u, tol=DEFAULT_TOLERANCES):
    """Spectral arc of a unitary.

    Eigenphases closer than the classification tolerance are merged before
    gap computation so numerical scatter cannot split a degenerate phase.
    """
    theta_val, largest, reps = _arc_of_phases(unitary_eig(u)[0], tol.classification)
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

    Picked in closed form, by threshold comparisons alone, from the lowest
    member of each merged phase, r_0 = s, r_1, ... in phase order:
    (a) the first pair i < j within 2e-9 of antipodal, as a two-point state;
    (b) else the triangle (s, r_m, r_{m+1}), r_m the last representative
        within pi of s, when r_{m+1} - r_m <= pi.  A triangle on the circle
        holds the origin iff each of its three arcs is at most pi: s -> r_m
        and r_{m+1} -> s are by the choice of m, and r_m -> r_{m+1} is a gap,
        at most 2 pi - Theta.  So the triangle exists whenever Theta > pi
        (Theta = pi is case (a)); its weights solve a 3x3 system;
    (c) else the first pair within the classification tolerance of
        antipodal, if its two-point value is within the orthogonality one.
    Returns ``(amplitudes, certified_overlap)``, or ``None`` when the origin
    is outside the convex hull.
    """
    phases = np.mod(np.asarray(phases, dtype=float), TWO_PI)
    phases[phases > TWO_PI - 1e-12] = 0.0
    lam = np.exp(1j * phases)
    reps = _merge_circular(phases, tol.classification)[1]
    sep = np.abs(phases[reps, None] - phases[reps])
    defect = np.abs(np.minimum(sep, TWO_PI - sep) - np.pi)

    def build(indices, weights):
        psi = np.zeros(vectors.shape[0], dtype=complex)
        for idx, w in zip(indices, weights):
            psi += np.sqrt(max(w, 0.0)) * vectors[:, idx]
        psi /= np.linalg.norm(psi)
        overlap = abs(np.sum([w * lam[idx] for idx, w in zip(indices, weights)]))
        return psi, float(overlap)

    def pair_state(band):
        # the first pair within ``band`` of antipodal, weighted so that
        # |p lam_i + (1-p) lam_j| is minimal
        hits = np.argwhere(np.triu(defect <= band, 1))
        if hits.size == 0:
            return None
        i, j = reps[hits[0]]
        d = lam[i] - lam[j]
        p = float(np.clip(-np.real(np.conj(d) * lam[j]) / abs(d) ** 2, 0.0, 1.0))
        return build((i, j), [p, 1 - p])

    found = pair_state(2e-9)
    if found is not None:
        return found
    offsets = phases[reps] - phases[reps[0]]
    m = np.count_nonzero(offsets <= np.pi) - 1
    if m + 1 < reps.size and offsets[m + 1] - offsets[m] <= np.pi:
        tri = reps[[0, m, m + 1]]
        a = np.array([lam[tri].real, lam[tri].imag, np.ones(3)])
        return build(tri, np.linalg.solve(a, [0.0, 0.0, 1.0]))
    found = pair_state(tol.classification)
    return found if found is not None and found[1] <= tol.orthogonality else None


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
