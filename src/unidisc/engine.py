"""LOCC protocol construction for discriminating two two-qudit unitaries.

Dispatch follows the locality classes of the pair:

* both product / swap-type (cases IA, IB, IC): closed-form constructions;
  every operator in sight maps product states to product states, so the
  whole process stays product.  IB (product vs swap-type) takes one run.
  IA (both product) runs the single-qudit sequential scheme of the
  differing factors on the side that needs fewer box uses: N - 1 copies of
  the factor's U^dag and one possibly capped last op between the box uses.
  IC (both swap-type) takes one forward run when a factor pair's relative
  operator has arc pi; otherwise it is IA on the wrapped pair
  f(X) = X (X1 (x) X2) X^dag, which is product, and each f use costs a
  reverse and a forward box application.  The wrap's local unitary is a
  closed-form rotation in the plane of the eigenvectors at the two ends of
  the arc of the chosen side's relative operator.
* one or both entangling (cases II*, III*): the flat run list (local layers,
  box directions, product input) is synthesized directly by seeded
  least-squares over the layer group, with residuals enforcing (a) a
  product state after every run on every entangling branch and (b) a zero
  final overlap, which for product final states means orthogonal marginals
  for one party, the one that measures.  The first run's layer is the
  identity: on a product input a product layer only moves the input, which
  is fitted anyway, so a depth-n shape fits the input and the layers of
  runs 2..n (a depth-1 shape the input alone).  The seeded restarts of each
  search shape run in lockstep through one Levenberg-Marquardt loop on the
  exact Jacobian of these residuals (layer derivatives by the
  Daleckii-Krein formula, carried through the runs as one d^2 x d^2 matrix
  per run; solver and layer kernel are the compiler's).  A solve ends as
  soon as one restart has converged, restarts that stall stop early, and
  the passing restart of lowest index gives the protocol.  Synthesizing
  the flat list instead of composing nested circuit wrappers keeps the
  per-run product invariant checkable and true, which a literal expansion
  of compiled words into runs would generically violate.
* for both-entangling pairs the case label is still derived from the
  canonical-form dichotomy: compile the first box toward exp(i u1 (x) u2),
  evaluate the word on the second, and test whether the result is again of
  canonical exp(i x u1 (x) u2) form.  It is applied after synthesis, to the
  certified protocol, so a pair whose synthesis fails is never labelled.

Every returned protocol carries a freshly computed verifier certificate.
"""

from dataclasses import dataclass, replace

import numpy as np

from .arc import _relative_spectrum, _widest_gap, zero_hull_state
from .compiler import (_SYNTH_PASS, _layer_kernel, _solve_lockstep,
                       compile_word, evaluate_word)
from .core import (DEFAULT_TOLERANCES, PureState, Tolerances, UnitaryOperator,
                   basis_state, gram_schmidt_basis, hermitian_basis,
                   identity_operator, phase_distance, schmidt_split, state)
from .exceptions import (CompileFailed, DimensionMismatch, OperatorsEqual,
                         SynthesisFailed, ValidationError)
from .locality import (IMPRIMITIVE, PRODUCT_LOCAL, SWAP_LOCAL,
                       canonical_xx_matrix, classify, extract_canonical_xx)
from .protocol import (ALICE, BOB, CASE_IA, CASE_IB, CASE_IC, CASE_IDENTITY,
                       CASE_IIA, CASE_IIB, CASE_IIIA, CASE_IIIB_EQUAL,
                       CASE_IIIB_SCALED, FORWARD, REVERSE, LoccProtocol,
                       MeasurementPlan, Run)
from .sequential import _plane_rotation, _runs_for_arc, find_sequential_scheme
from .verifier import _branches, _report, outcome_probabilities

_SYNTH_RESTARTS = 6


def _measurement_plan(finals, dims, tol):
    """Plan for the party whose marginal outputs separate (Alice on ties),
    from the two branches' final states, each normalized first."""
    (a_u, b_u), (a_v, b_v) = (schmidt_split(f / np.linalg.norm(f), dims) for f in finals)
    alice_gap, bob_gap = abs(np.vdot(a_u, a_v)), abs(np.vdot(b_u, b_v))
    if alice_gap <= tol.orthogonality or alice_gap <= bob_gap:
        party, m_u, m_v = ALICE, a_u, a_v
    else:
        party, m_u, m_v = BOB, b_u, b_v
    basis = gram_schmidt_basis([m_u, m_v], len(m_u))
    return MeasurementPlan(party=party, basis=basis, decision={0: "U", 1: "V"})


def _finalize(label, runs, alice_in, bob_in, u, v, tol, notes=""):
    """Attach the plan and a fresh certificate, both read off one verifier pass."""
    proto = LoccProtocol(label, tuple(runs), alice_in, bob_in,
                         MeasurementPlan(ALICE, np.eye(alice_in.dim)), notes=notes)
    states = _branches(proto, u, v, tol)
    if states is not None:
        proto = replace(proto, measurement=_measurement_plan(states[-1], proto.dims, tol))
    return replace(proto, certificate=_report(proto, states, tol))


def build_protocol(u, v, tol=DEFAULT_TOLERANCES, seed=0, max_boxes=8):
    """Full LOCC discrimination protocol for a pair of two-qudit unitaries.

    The returned protocol's certificate shows orthogonal final branch states
    and a product state after every run on both branches.  Raises
    OperatorsEqual for phase-equal pairs; synthesis exhaustion surfaces as
    SynthesisFailed / CompileFailed with the best overlap or error found.
    """
    d = u.require_two_party()
    if v.require_two_party() != d:
        raise DimensionMismatch(f"dims {u.dims} vs {v.dims}")
    if max_boxes < 1:
        raise ValidationError("max_boxes must be at least 1")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    if phase_distance(u, v) <= tol.classification:
        raise OperatorsEqual("operators agree up to a global phase")

    cu, cv = classify(u, tol), classify(v, tol)
    kinds = (cu.kind, cv.kind)

    if IMPRIMITIVE not in kinds:
        if cu.kind == cv.kind:
            proto = _case_sequential(u, v, cu, cv, tol)
        else:
            proto = _case_ib(u, v, cu, cv, tol)
    else:
        proto = _synthesize_entangling(u, v, kinds, tol, seed, max_boxes)

    if not proto.certificate.passed:
        raise SynthesisFailed(
            f"case {proto.case_label}: certificate failed "
            f"({proto.certificate.summary()})",
            best_overlap=proto.certificate.overlap)
    if kinds == (IMPRIMITIVE, IMPRIMITIVE):
        label, notes = _case_iii_label(u, v, tol, seed, max_boxes)
        proto = replace(proto, case_label=label, notes=notes)
    return proto


def identity_vs_other(w, tol=DEFAULT_TOLERANCES, seed=0, max_boxes=8):
    """Entry point for discriminating the identity against W != I.

    Builds the protocol for the pair (I, W) through the regular dispatch and
    relabels it IDENTITY_VS_OTHER, recording the underlying case in notes.
    The certificate is kept: the verifier reads neither label nor notes.
    """
    proto = build_protocol(identity_operator(w.dims), w, tol=tol, seed=seed,
                           max_boxes=max_boxes)
    return replace(proto, case_label=CASE_IDENTITY,
                   notes=(proto.notes + "; " if proto.notes else "")
                   + f"underlying case {proto.case_label}")


def _case_ib(u, v, cu, cv, tol):
    """Product vs swap-type: one run, input (|0>, S_A^dag P_A |1>)."""
    d = u.dims[0]
    if cu.kind == PRODUCT_LOCAL:
        prod_cls, swap_cls = cu, cv
    else:
        prod_cls, swap_cls = cv, cu
    p_a = prod_cls.factors[0].matrix
    s_a = swap_cls.factors[0].matrix
    alice_in = basis_state(0, (d,))
    bob_in = state(s_a.conj().T @ p_a @ basis_state(1, (d,)).amplitudes, (d,))
    eye = np.eye(d, dtype=complex)
    runs = [Run(eye, eye, FORWARD)]
    return _finalize(CASE_IB, runs, alice_in, bob_in, u, v, tol)


def _wrap_rotation(phases, vectors):
    """Closed-form x for the IC wrap of the factor pair (f, g), from the
    eigenphases and eigenvectors of T = f^dag g.

    The wrapped relative operator is similar to x^dag T x T^dag.  For x the
    rotation by t in the plane of the eigenvectors at the ends of T's arc
    (chord 2 sin(delta/2)), it has eigenphases +-beta and 0 with cos beta =
    1 - 2 sin^2 t sin^2(delta/2).  sin t = min(1, 1 / (sqrt 2 sin(delta/2)))
    gives the arc min(2 Theta(T), pi), the most any x can give since arcs
    add under products.  A side is wrapped only when Theta(T) < pi, where
    the ends, read from the one gap wider than pi, are the farthest apart.
    """
    k = _widest_gap(phases)[0]
    j, k = sorted(((k - 1) % len(phases), k))
    lam = np.exp(1j * phases)
    t = np.arcsin(min(1.0, np.sqrt(2.0) / np.abs(lam[j] - lam[k])))
    return _plane_rotation(vectors, j, k, t)


def _box_uses(arc, wrap, tol):
    """Box uses of the scheme on a side whose factors' relative operator has
    the spectral arc ``arc``: ceil(pi / Theta) for IA, 2 ceil(pi /
    min(2 Theta, pi)) for the IC wrap; inf for an arc that vanishes within
    the classification tolerance."""
    if arc <= tol.classification:
        return np.inf
    if wrap:
        return 2 * (_runs_for_arc(min(2 * arc, np.pi), tol) + 1)
    return _runs_for_arc(arc, tol) + 1


def _case_sequential(u, v, cu, cv, tol):
    """Cases IA (both product) and IC (both swap-type).

    IC first tries one forward run.  With U = (U_A (x) U_B) P, it maps
    a (x) b to U_A b (x) U_B a, so the final overlap is <b|T_A|b> <a|T_B|a>
    for T_X = U_X^dag V_X.  When Theta(T_A) reaches pi (Acin 2001), Bob's
    input from the zero hull of T_A's spectrum decides the pair in one use,
    Alice measuring; failing that, the same holds for T_B with the roles
    mirrored.  T_A is tried first, whatever the margins.

    Otherwise both cases run a single-qudit sequential scheme on one side:
    the side with fewer box uses, ceil(pi / Theta(T_X)) for IA and
    2 ceil(pi / min(2 Theta(T_X), pi)) for IC, Alice on equal counts.  A side
    whose factors agree up to phase is never decomposed.  Case IC wraps
    f(X) = X (X1 (x) X2) X^dag: f(U) = U_A X2 U_A^dag (x) U_B X1 U_B^dag,
    so the wrapped pair is a pair of product operators whose chosen-side
    factors differ; each f use costs a reverse and a forward box
    application, and the wrap's x is the closed-form rotation of
    :func:`_wrap_rotation`.  Every spectrum is computed once: T_X's feeds
    the forward run, the side choice, the wrap and the IA scheme.
    """
    d = u.dims[0]
    eye = np.eye(d, dtype=complex)
    idle = basis_state(0, (d,))
    wrap = cu.kind == SWAP_LOCAL
    factors = dict(zip((ALICE, BOB), zip(cu.factors, cv.factors)))
    spectra = {}
    for side, (f, g) in factors.items():
        if phase_distance(f, g) <= tol.classification:
            continue
        spectra[side] = _relative_spectrum(f, g, tol)
        _, phases, vectors, arc = spectra[side]
        found = (zero_hull_state(phases, vectors, tol)
                 if wrap and arc >= np.pi - tol.classification else None)
        if found is not None:
            probe = PureState(found[0], (d,))
            alice_in, bob_in = (idle, probe) if side == ALICE else (probe, idle)
            return _finalize(CASE_IC, [Run(eye, eye, FORWARD)], alice_in, bob_in,
                             u, v, tol, notes=f"one forward run, discriminating "
                                              f"side {side}")
    if not spectra:
        raise OperatorsEqual("the factors agree up to a global phase on both sides")
    side = min(spectra, key=lambda s: _box_uses(spectra[s][3], wrap, tol))
    pair, spectrum = factors[side], spectra[side]
    if wrap:
        x = _wrap_rotation(*spectrum[1:3])
        x1, x2 = (eye, x) if side == ALICE else (x, eye)
        pair = tuple(UnitaryOperator(f.matrix @ x @ f.matrix.conj().T, (d,), 1e-8)
                     for f in pair)
        spectrum = None
    scheme = find_sequential_scheme(*pair, tol, spectrum=spectrum)
    runs = []
    for op in [eye] + [aux.matrix for aux in scheme.aux_ops]:
        local = (op, eye) if side == ALICE else (eye, op)
        if wrap:
            runs += [Run(*local, REVERSE), Run(x1, x2, FORWARD)]
        else:
            runs.append(Run(*local, FORWARD))
    alice_in, bob_in = (scheme.input, idle) if side == ALICE else (idle, scheme.input)
    if wrap:
        label, notes = CASE_IC, f"conjugation wrap, discriminating side {side}"
    else:
        label, notes = CASE_IA, f"sequential factor discrimination on {side}"
    return _finalize(label, runs, alice_in, bob_in, u, v, tol, notes=notes)


def _case_iii_label(u, v, tol, seed, max_boxes):
    """Canonical-form dichotomy for both-entangling pairs (label only)."""
    d = u.dims[0]
    try:
        word = compile_word(u, canonical_xx_matrix(d, 1.0),
                            max_boxes=min(4, max_boxes), tol=tol, seed=seed)
    except CompileFailed:
        return CASE_IIIA, "canonical-form compilation failed; generic branch"
    fv = evaluate_word(word, v.matrix)
    # compiled objects carry the compile error; loosen the class bound
    loose = Tolerances(classification=1e-5)
    try:
        fv_op = UnitaryOperator(fv, (d, d), tol=1e-6)
    except ValidationError:
        return CASE_IIIA, "word image not unitary within tolerance"
    if classify(fv_op, loose).kind != IMPRIMITIVE:
        return CASE_IIIA, "f(V) primitive; one-sided reduction applies"
    ext = extract_canonical_xx(fv_op, loose)
    if ext is None:
        return CASE_IIIA, "f(V) outside the canonical family"
    # compared as matrices: at d=2 E(x + pi) = -E(x), so x is known only mod pi
    gap = phase_distance(canonical_xx_matrix(d, ext.x), canonical_xx_matrix(d, 1.0))
    if gap <= 1e-8:
        return CASE_IIIB_EQUAL, "f(V) matches f(U) on the canonical family"
    return CASE_IIIB_SCALED, f"f(V) canonical with x={ext.x:.6f}"


class _SynthesisProblem:
    """Residuals of one synthesis shape (depth, directions) and their exact
    Jacobian, for a stack of parameter points at once.

    Parameters: (re, im) of Alice's and of Bob's unnormalized input, then
    for each run after the first the coordinates of H_A and H_B in
    ``hermitian_basis(d)``; the run's local layer is exp(i H_A) (x)
    exp(i H_B).  The first run's layer is the identity: a product layer on
    a product input gives another product input, so the input already has
    that freedom.  States are vectors (amplitude of |i>|j> at i d + j); the
    first run is its box and every later run is one matrix box @ (A (x) B)
    from :func:`_layer_kernel`; every array carries a leading axis over the
    R points.  Residuals, as real then imaginary parts: the 2x2 minors of
    every post-run state on each entangling branch (zero iff product), then
    the final overlap <psi_v|psi_u>, for product final states
    <a_v|a_u><b_v|b_u>: zero exactly when one party's marginals are
    orthogonal (Walgate, Short, Hardy and Vedral 2000), so either may measure.
    """

    def __init__(self, d, mu, mv, chains, pattern):
        self.d, self.n, self.chains = d, len(pattern), chains
        self.basis = hermitian_basis(d)
        self.unit = np.concatenate([np.eye(d), 1j * np.eye(d)])
        self.boxes = [[m if p == FORWARD else m.conj().T for p in pattern]
                      for m in (mu, mv)]
        rows = np.triu_indices(d, k=1)
        i, k = rows[0][:, None], rows[1][:, None]
        j, l = rows[0][None, :], rows[1][None, :]
        # flat indices of the four entries of each minor S[i,j] S[k,l] - S[i,l] S[k,j]
        self.minors = [(x * d + y).ravel() for x, y in ((i, j), (k, l), (i, l), (k, j))]
        self.n_params = 4 * d + 2 * (self.n - 1) * d * d
        n_minors = sum(chains) * self.n * len(self.minors[0])
        self.n_residuals = 2 * (n_minors + 1)

    def inputs(self, x):
        """Normalized (alice, bob) input stacks (R, d) with their (R, 2d, d)
        derivatives, and the mask of rows whose inputs are both long enough
        (norm >= 1e-6) to normalize."""
        d, ok, out = self.d, np.ones(len(x), dtype=bool), []
        for raw in (x[:, :2 * d], x[:, 2 * d:4 * d]):
            norm = np.linalg.norm(raw, axis=1)
            ok &= norm >= 1e-6
            norm = np.where(norm >= 1e-6, norm, 1.0)[:, None]
            vec = (raw[:, :d] + 1j * raw[:, d:]) / norm
            dvec = self.unit - (raw / norm)[:, :, None] * vec[:, None, :]
            out.append((vec, dvec / norm[:, :, None]))
        return out, ok

    def layers(self, x):
        """:func:`_layer_kernel` at the run coordinates of the rows of x
        (depth >= 2): the layers of runs 2..n in order, Alice's then Bob's
        of each run."""
        return _layer_kernel(x[:, 4 * self.d:].reshape(len(x), 2 * self.n - 2, -1),
                             self.basis)

    def _minors(self, s, ds):
        """Minors (R, m) of (R, d, d) states and their (R, P, m) derivatives."""
        i_j, k_l, i_l, k_j = self.minors
        s, ds = s.reshape(len(s), 1, -1), ds.reshape(*ds.shape[:2], -1)
        z = s[..., i_j] * s[..., k_l] - s[..., i_l] * s[..., k_j]
        dz = (ds[..., i_j] * s[..., k_l] + s[..., i_j] * ds[..., k_l]
              - ds[..., i_l] * s[..., k_j] - s[..., i_l] * ds[..., k_j])
        return z[:, 0], dz

    def evaluate(self, x):
        """Residuals (R, n_residuals) and Jacobians (R, n_residuals,
        n_params) at the rows of x (R, n_params).  A row whose input is too
        short to normalize gets residuals 1e3 and a zero Jacobian."""
        d, n_h, n_p, count = self.d, self.d * self.d, self.n_params, len(x)
        ((a, da), (b, db)), ok = self.inputs(x)
        if self.n > 1:
            _, kron, dkron = self.layers(x)
        s0 = (a[:, :, None] * b[:, None, :]).reshape(count, n_h)
        ds0 = np.concatenate([da[..., None] * b[:, None, None],
                              a[:, None, :, None] * db[:, :, None]],
                             axis=1).reshape(count, 4 * d, n_h)
        parts, dparts, finals = [], [], []
        for chain, boxes in zip(self.chains, self.boxes):
            # the first run is its box alone; only the input moves it
            s = s0 @ boxes[0].T
            ds = np.zeros((count, n_p, n_h), dtype=complex)
            ds[:, :4 * d] = ds0 @ boxes[0].T
            for r, box in enumerate(boxes):
                if r:
                    # vec(S) <- M vec(S) for M = box @ L; the run's own
                    # coordinates add dM vec(S) = box @ dL vec(S)
                    m = box @ kron[:, r - 1]
                    off = 4 * d + 2 * (r - 1) * n_h
                    ds = ds @ m.swapaxes(1, 2)
                    ds[:, off:off + 2 * n_h] += \
                        (dkron[:, r - 1] @ s[:, None, :, None])[..., 0] @ box.T
                    s = (m @ s[..., None])[..., 0]
                if chain:
                    z, dz = self._minors(s.reshape(count, d, d), ds)
                    parts.append(z)
                    dparts.append(dz)
            finals.append((s, ds))
        (s_u, ds_u), (s_v, ds_v) = finals
        # <psi_v|psi_u>, moved by <dpsi_v|psi_u> + <psi_v|dpsi_u>
        z = np.einsum("ri,ri->r", s_v.conj(), s_u)
        dz = ds_v.conj() @ s_u[..., None] + ds_u @ s_v.conj()[..., None]
        z = np.concatenate(parts + [z[:, None]], axis=1)
        dz = np.concatenate(dparts + [dz], axis=2)
        f = np.concatenate([z.real, z.imag], axis=1)
        jac = np.concatenate([dz.real, dz.imag], axis=2).swapaxes(1, 2)
        f[~ok], jac[~ok] = 1e3, 0.0
        return f, jac


def _direction_patterns(n):
    """Box directions tried at depth n: all forward, then alternating.
    The compiler's list (last use reversed) gives the same box uses on IIA,
    IIB and IIIA pairs at d=2 and 3 but takes about a fifth longer, since
    its reversed depth-1 shape is solved and never passes."""
    alternating = tuple(FORWARD if i % 2 == 0 else REVERSE for i in range(n))
    return [(FORWARD,) * n] + ([alternating] if n >= 2 else [])


def _synthesize_entangling(u, v, kinds, tol, seed, max_boxes):
    """Direct synthesis of the flat run list for entangling pairs.

    Seeded least-squares with the exact Jacobian over (product input,
    local layers of runs 2..n; run 1 gets identity layers); see
    :class:`_SynthesisProblem` for the residuals, one solve per (depth,
    pattern) at every depth up to ``max_boxes``; the first restart within
    ``_SYNTH_PASS`` gives the protocol, labelled by ``kinds``, and
    :func:`_measurement_plan` its measuring party.

    No n-use protocol, forward or reverse, ends with an overlap below
    cos(n Theta / 2) while n Theta < pi, for Theta = Theta(U^dag V) (Acin
    2001; Duan, Feng and Ying 2007), so depths where that bound exceeds
    twice the orthogonality tolerance run no solve.  Their starts are still
    drawn, which keeps every later start, and so the result, unchanged.
    When it rules out every depth searched, CompileFailed names the largest
    and ceil(pi / Theta), and its best error stays inf.
    """
    d = u.dims[0]
    chains = tuple(kind == IMPRIMITIVE for kind in kinds)
    label = (CASE_IIIA if all(chains) else
             CASE_IIA if PRODUCT_LOCAL in kinds else CASE_IIB)
    best, eye = np.inf, np.eye(d, dtype=complex)
    arc = _relative_spectrum(u, v, tol)[3]

    rng = np.random.default_rng(seed)
    for n in range(1, max_boxes + 1):
        ruled_out = n * arc < np.pi and np.cos(n * arc / 2) > 2 * tol.orthogonality
        for pattern in _direction_patterns(n):
            problem = _SynthesisProblem(d, u.matrix, v.matrix, chains, pattern)
            # the same stream as one standard_normal(n_params) per restart
            x0 = rng.standard_normal((_SYNTH_RESTARTS, problem.n_params))
            if ruled_out:
                continue
            x, err = _solve_lockstep(problem, x0)
            best = min(best, err.min())
            r = np.argmax(err <= _SYNTH_PASS)
            if err[r] <= _SYNTH_PASS:
                ((a_vec, _), (b_vec, _)), _ = problem.inputs(x[r:r + 1])
                ops = [eye, eye]
                if n > 1:
                    ops += list(problem.layers(x[r:r + 1])[0][0])
                runs = [Run(ops[2 * k], ops[2 * k + 1], box)
                        for k, box in enumerate(pattern)]
                return _finalize(label, runs, PureState(a_vec[0], (d,)),
                                 PureState(b_vec[0], (d,)), u, v, tol)
    uses = _box_uses(arc, False, tol)
    reason = (f"best residual {best:.3e}" if np.isfinite(best) else
              f"the arc bound rules out every depth searched, up to "
              f"{max_boxes}, since ceil(pi/Theta) = {uses:.0f}")
    raise CompileFailed(
        f"entangling-case synthesis exhausted (max_boxes={max_boxes}); {reason}",
        best_error=float(best))


@dataclass(frozen=True)
class DecisionTree:
    """Pairwise protocols for identifying one of m hypotheses by knockout.

    ``protocols`` maps every pair (i, j), i < j, to the protocol telling
    ops[i] from ops[j].  Hypothesis 0 starts as champion; round k = 1..m-1
    runs the protocol of (champion, k) and the winner becomes champion.  The
    true operator wins every protocol it takes part in, so each of the m - 1
    rounds keeps it, and once it enters it stays champion to the end.
    """

    protocols: dict

    @property
    def total_box_uses(self):
        return sum(p.box_uses for p in self.protocols.values())


def multi_discriminate(ops, tol=DEFAULT_TOLERANCES, seed=0, max_boxes=8):
    """Every pairwise protocol of a knockout identifying one of m operators."""
    ops = list(ops)
    if len(ops) < 2:
        raise ValidationError("need at least two hypotheses")
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if phase_distance(ops[i], ops[j]) <= tol.classification:
                raise OperatorsEqual(f"hypotheses {i} and {j} coincide")
    return DecisionTree({(i, j): build_protocol(ops[i], ops[j], tol, seed=seed,
                                                max_boxes=max_boxes)
                         for i in range(len(ops)) for j in range(i + 1, len(ops))})


def identify(tree, box):
    """Champions that survive the knockout with positive probability.

    Follows both outcomes of every round, weighted by their simulated
    probabilities, and drops a champion once its weight is at or below
    1e-12; returns {hypothesis index: probability}.
    """
    m = 1 + max(j for _, j in tree.protocols)
    champions = {0: 1.0}
    for k in range(1, m):
        survivors = {}
        for c, weight in champions.items():
            proto = tree.protocols[(c, k)]
            decision = proto.measurement.decision
            p_u = float(sum(p for o, p in enumerate(outcome_probabilities(proto, box))
                            if decision.get(o) == "U"))
            survivors[c] = weight * p_u
            survivors[k] = survivors.get(k, 0.0) + weight * (1.0 - p_u)
        champions = {c: w for c, w in survivors.items() if w > 1e-12}
    return champions
