"""Seeded inputs for the three benchmark workloads, generated with numpy only.

The library never sees a workload seed: it receives the generated matrices.

* ``closed-form`` draws fresh Haar factors from the seed.  Case-IA pairs get
  a differing factor whose spectral arc is set so that ceil(pi/Theta) is a
  fixed ladder of run counts, so the work of a list is the same for every
  seed even though its matrices are not.
* ``entangling`` uses fixed, contiguous generator seeds of the acceptance
  families (the generators of ``tests/conftest.py``, reproduced here) and
  does not use the seed.  Pair cost there spans two orders of magnitude
  (0.1 to 22 s at d=2), so drawing the pairs from the seed would make the
  workload measure the draw.
* ``replay`` protocols are built from seeded closed-form pairs and fixed
  entangling pairs; its corrupted copies come from fixed base protocols.

Every input on which the library is known to fail is fixed, not seeded, so
the operations that fail are the same in every run: the corrupted copies,
the entangling pairs, and the case-IA pairs whose factors differ on Bob's
side (their measurement plans are built in the wrong basis).
"""

from dataclasses import dataclass

import numpy as np

CLOSED_FORM_DIMS = range(2, 10)
# box uses ceil(pi/Theta) of the case-IA pairs, per dimension
IA_BOX_USES = (1, 2, 3, 4, 6, 8, 12, 16, 32, 64, 128, 256)
IB_PER_DIM = 4
IC_PER_DIM = 4

# (case, d, generator seed s); build seed s, as in acceptance criterion 7
ENTANGLING_PAIRS = tuple((case, d, s)
                         for case, d in (("IIA", 2), ("IIB", 2), ("IIIA", 2),
                                         ("IIA", 3))
                         for s in (0, 1))
ENTANGLING_WARMUP = ("IIA", 2, 4)

# case-IA box uses of the replayed protocols, (Alice side, Bob side)
REPLAY_IA_BOX_USES = ((3, 192), (24,))
REPLAY_ENTANGLING = (("IIA", 2, 0), ("IIA", 2, 1), ("IIB", 2, 0))
CORRUPTIONS = ("scaled_1e-6", "scaled_2", "zero_layer", "nan_entry",
               "one_column_basis", "flipped_decision", "wrong_party")


@dataclass(frozen=True)
class Pair:
    """Two two-qudit unitaries to tell apart, and how to build and check them.

    ``factors`` holds the differing single-qudit factors (A, A') of a
    case-IA pair, for the box-use check; ``build_seed`` is passed to
    ``build_protocol``.
    """

    case: str
    d: int
    u: np.ndarray
    v: np.ndarray
    build_seed: int = 0
    factors: tuple = None


def haar(d, rng):
    """Haar unitary: QR of a complex Ginibre matrix, R-diagonal phases absorbed."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def random_unitary(d, seed):
    """The same matrix as ``unidisc.core.random_unitary(d, seed)``."""
    return haar(d, np.random.default_rng(seed))


def swap(d):
    p = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            p[j * d + i, i * d + j] = 1.0
    return p


def product_operator(d, seed):
    return np.kron(random_unitary(d, seed), random_unitary(d, seed + 50021))


def swap_type_operator(d, seed):
    return product_operator(d, seed) @ swap(d)


def haar_two_qudit(d, seed):
    return random_unitary(d * d, seed)


def arc_unitary(d, box_uses, rng):
    """Random unitary W with ceil(pi / Theta(W)) == box_uses.

    Theta = pi / (box_uses - 0.5) keeps pi/Theta half a step from an
    integer; box_uses == 1 uses Theta = 1.25 pi with evenly spaced phases,
    which needs d >= 3.
    """
    if box_uses == 1:
        phases = np.linspace(0.0, 1.25 * np.pi, d)
    else:
        arc = np.pi / (box_uses - 0.5)
        phases = np.concatenate([[0.0], np.sort(rng.uniform(0.0, arc, d - 2)), [arc]])
    q = haar(d, rng)
    return (q * np.exp(1j * (phases + rng.uniform(0.0, 2.0 * np.pi)))) @ q.conj().T


def ia_pair(d, box_uses, rng, side):
    """Product pair whose factors differ on ``side`` ("Alice" or "Bob")."""
    a, b, w = haar(d, rng), haar(d, rng), arc_unitary(d, box_uses, rng)
    if side == "Alice":
        return Pair("IA", d, np.kron(a, b), np.kron(a @ w, b), factors=(a, a @ w))
    return Pair("IA", d, np.kron(a, b), np.kron(a, b @ w), factors=(b, b @ w))


def ib_pair(d, rng, k):
    prod = np.kron(haar(d, rng), haar(d, rng))
    swapped = np.kron(haar(d, rng), haar(d, rng)) @ swap(d)
    u, v = (prod, swapped) if k % 2 == 0 else (swapped, prod)
    return Pair("IB", d, u, v)


def ic_pair(d, rng):
    p = swap(d)
    return Pair("IC", d, np.kron(haar(d, rng), haar(d, rng)) @ p,
                np.kron(haar(d, rng), haar(d, rng)) @ p)


def closed_form_pairs(seed):
    """One list of the closed-form workload: cases IA, IB, IC at d = 2..9.

    Case-IA pairs alternate the side whose factor differs; Bob-side pairs
    come from a fixed stream.
    """
    rng = np.random.default_rng([seed, 1])
    fixed = np.random.default_rng([0, 1])
    pairs = []
    for d in CLOSED_FORM_DIMS:
        for k, uses in enumerate(IA_BOX_USES):
            if uses > 1 or d >= 3:
                side = ("Alice", "Bob")[k % 2]
                pairs.append(ia_pair(d, uses, rng if side == "Alice" else fixed, side))
        pairs += [ib_pair(d, rng, k) for k in range(IB_PER_DIM)]
        pairs += [ic_pair(d, rng) for _ in range(IC_PER_DIM)]
    return pairs


def closed_form_warmup():
    return ia_pair(3, 4, np.random.default_rng([0, 2]), "Alice")


def acceptance_pair(case, d, s):
    """Acceptance-criterion-7 style pair with generator seed s."""
    if case == "IIA":
        u, v = product_operator(d, 2 * s + 1), haar_two_qudit(d, 2 * s + 10001)
    elif case == "IIB":
        u, v = swap_type_operator(d, 2 * s + 1), haar_two_qudit(d, 2 * s + 10001)
    else:
        u, v = haar_two_qudit(d, 2 * s + 11001), haar_two_qudit(d, 2 * s + 12001)
    return Pair(case, d, u, v, build_seed=s)


def entangling_pairs(entries=ENTANGLING_PAIRS):
    return [acceptance_pair(case, d, s) for case, d, s in entries]


def replay_pairs(seed):
    """Pairs whose protocols the replay workload writes and re-verifies."""
    rng = np.random.default_rng([seed, 4])
    fixed = np.random.default_rng([0, 4])
    pairs = []
    for d in CLOSED_FORM_DIMS:
        alice_uses, bob_uses = REPLAY_IA_BOX_USES
        pairs += [ia_pair(d, uses, rng, "Alice") for uses in alice_uses]
        pairs += [ia_pair(d, uses, fixed, "Bob") for uses in bob_uses]
        pairs += [ib_pair(d, rng, 0), ic_pair(d, rng)]
    return pairs + entangling_pairs(REPLAY_ENTANGLING)


def corruption_bases():
    """Fixed pairs whose protocols are corrupted; they do not use the seed."""
    return [ia_pair(3, 4, np.random.default_rng([0, 5]), "Alice"),
            acceptance_pair("IIA", 2, 0)]


def corrupt(payload, kind):
    """Copy of a protocol JSON payload with one defect a verifier must catch."""
    out = dict(payload, runs=[dict(r) for r in payload["runs"]],
               measurement=dict(payload["measurement"]))
    first = out["runs"][0]
    meas = out["measurement"]
    if kind == "scaled_1e-6":
        first["alice_op"] = (1e-6 * _matrix(first["alice_op"])).tolist()
    elif kind == "scaled_2":
        first["alice_op"] = (2.0 * _matrix(first["alice_op"])).tolist()
    elif kind == "zero_layer":
        first["alice_op"] = (0.0 * _matrix(first["alice_op"])).tolist()
    elif kind == "nan_entry":
        bad = _matrix(first["alice_op"])
        bad[0, 0, 0] = np.nan
        first["alice_op"] = bad.tolist()
    elif kind == "one_column_basis":
        meas["basis"] = [row[:1] for row in meas["basis"]]
    elif kind == "flipped_decision":
        meas["decision"] = {"0": "V", "1": "U"}
    elif kind == "wrong_party":
        meas["party"] = "Bob" if meas["party"] == "Alice" else "Alice"
    else:
        raise ValueError(f"unknown corruption {kind!r}")
    return out


def _matrix(pairs):
    return np.array(pairs, dtype=float)
