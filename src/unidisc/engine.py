"""LOCC protocol construction for discriminating two two-qudit unitaries.

Dispatch follows the locality classes of the pair:

* both product / swap-type (cases IA, IB, IC): closed-form constructions;
  every operator in sight maps product states to product states, so the
  whole process stays product.  IB (product vs swap-type) takes one run.
  IA (both product) runs the single-qudit sequential scheme of the
  differing factors on their side: N - 1 copies of the factor's U^dag and
  one possibly capped last op between the box uses.  IC (both swap-type)
  is IA on the wrapped pair f(X) = X (X1 (x) X2) X^dag, which is product;
  each f use costs a reverse and a forward box application.
* one or both entangling (cases II*, III*): the flat run list (local layers,
  box directions, product input) is synthesized directly by seeded
  least-squares over the layer group, with residuals enforcing (a) a
  product state after every run on every entangling branch and (b)
  orthogonal marginals for the measuring party.  The solver gets the exact
  Jacobian of these residuals (layer derivatives by the Daleckii-Krein
  formula, carried through the runs on d x d state matrices), not a
  finite-difference one.  Synthesizing the flat list
  instead of composing nested circuit wrappers keeps the per-run product
  invariant checkable and true, which a literal expansion of compiled
  words into runs would generically violate.
* for both-entangling pairs the case label is still derived from the
  canonical-form dichotomy: compile the first box toward exp(i u1 (x) u2),
  evaluate the word on the second, and test whether the result is again of
  canonical exp(i x u1 (x) u2) form.

Every returned protocol carries a freshly computed verifier certificate.
"""

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .compiler import CanonicalXXTarget, compile_word, evaluate_word
from .core import (DEFAULT_TOLERANCES, PureState, Tolerances, UnitaryOperator,
                   basis_state, gram_schmidt_basis, hermitian_basis,
                   phase_distance, random_unitary, schmidt_split, state)
from .exceptions import (CompileFailed, DimensionMismatch, OperatorsEqual,
                         SynthesisFailed, ValidationError)
from .locality import (IMPRIMITIVE, PRODUCT_LOCAL, SWAP_LOCAL,
                       canonical_xx_matrix, classify, extract_canonical_xx)
from .protocol import (ALICE, BOB, CASE_IA, CASE_IB, CASE_IC, CASE_IDENTITY,
                       CASE_IIA, CASE_IIB, CASE_IIIA, CASE_IIIB_EQUAL,
                       CASE_IIIB_SCALED, FORWARD, REVERSE, LoccProtocol,
                       MeasurementPlan, Run)
from .sequential import find_sequential_scheme
from .verifier import outcome_probabilities, simulate, verify

_X2_RETRIES = 32
_SYNTH_DEPTHS = (1, 2, 3, 4, 5, 6, 8)
_SYNTH_RESTARTS = 6


def _measurement_plan(out_u, out_v, dims, tol):
    """Plan for the party whose marginal outputs separate (Alice on ties)."""
    a_u, b_u = schmidt_split(out_u, dims)
    a_v, b_v = schmidt_split(out_v, dims)
    alice_gap = abs(np.vdot(a_u, a_v))
    bob_gap = abs(np.vdot(b_u, b_v))
    if alice_gap <= tol.orthogonality or alice_gap <= bob_gap:
        party, m_u, m_v = ALICE, a_u, a_v
    else:
        party, m_u, m_v = BOB, b_u, b_v
    basis = gram_schmidt_basis([m_u, m_v], len(m_u))
    return MeasurementPlan(party=party, basis=basis, decision={0: "U", 1: "V"})


def _finalize(label, runs, alice_in, bob_in, u, v, tol, notes=""):
    """Attach the measurement plan and a fresh certificate; fail loudly."""
    proto = LoccProtocol(label, tuple(runs), alice_in, bob_in,
                         MeasurementPlan(ALICE, np.eye(alice_in.dim)),
                         notes=notes)
    out_u = simulate(proto, u).amplitudes
    out_v = simulate(proto, v).amplitudes
    plan = _measurement_plan(out_u, out_v, proto.dims, tol)
    proto = LoccProtocol(label, tuple(runs), alice_in, bob_in, plan, notes=notes)
    report = verify(proto, u, v, tol)
    return proto.with_certificate(report)


def build_protocol(u, v, tol=DEFAULT_TOLERANCES, seed=0, max_boxes=None):
    """Full LOCC discrimination protocol for a pair of two-qudit unitaries.

    The returned protocol's certificate shows orthogonal final branch states
    and a product state after every run on both branches.  Raises
    OperatorsEqual for phase-equal pairs; synthesis exhaustion surfaces as
    SynthesisFailed / CompileFailed with the best overlap or error found.
    """
    d = u.require_two_party()
    if v.require_two_party() != d:
        raise DimensionMismatch(f"dims {u.dims} vs {v.dims}")
    if phase_distance(u, v) <= tol.classification:
        raise OperatorsEqual("operators agree up to a global phase")
    if max_boxes is None:
        max_boxes = 8 if d == 2 else 16

    cu, cv = classify(u, tol), classify(v, tol)
    kinds = (cu.kind, cv.kind)

    if IMPRIMITIVE not in kinds:
        if cu.kind == cv.kind:
            proto = _case_sequential(u, v, cu, cv, tol, seed)
        else:
            proto = _case_ib(u, v, cu, cv, tol)
    elif kinds.count(IMPRIMITIVE) == 1:
        primitive_kind = cv.kind if cu.kind == IMPRIMITIVE else cu.kind
        label = CASE_IIA if primitive_kind == PRODUCT_LOCAL else CASE_IIB
        proto = _synthesize_entangling(u, v, cu, cv, label, tol, seed, max_boxes)
    else:
        label, notes = _case_iii_label(u, v, tol, seed, max_boxes)
        proto = _synthesize_entangling(u, v, cu, cv, label, tol, seed,
                                       max_boxes, notes=notes)

    if not proto.certificate.passed:
        raise SynthesisFailed(
            f"case {proto.case_label}: certificate failed "
            f"({proto.certificate.summary()})",
            best_overlap=proto.certificate.overlap)
    return proto


def identity_vs_other(w, tol=DEFAULT_TOLERANCES, seed=0, max_boxes=None):
    """Entry point for discriminating the identity against W != I.

    Builds the protocol for the pair (I, W) through the regular dispatch and
    relabels it IDENTITY_VS_OTHER, recording the underlying case in notes.
    """
    from .core import identity_operator

    eye = identity_operator(w.dims)
    proto = build_protocol(eye, w, tol=tol, seed=seed, max_boxes=max_boxes)
    relabeled = LoccProtocol(
        CASE_IDENTITY, proto.runs, proto.input_alice, proto.input_bob,
        proto.measurement,
        notes=(proto.notes + "; " if proto.notes else "")
        + f"underlying case {proto.case_label}")
    return relabeled.with_certificate(verify(relabeled, eye, w, tol))


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


def _sample_noncommuting(target, d, seed):
    """Seeded Haar samples until one fails to commute with ``target``."""
    for k in range(_X2_RETRIES):
        x = random_unitary(d, seed + 7919 * k).matrix
        if np.linalg.norm(x @ target - target @ x, ord="fro") > 1e-3:
            return x
    raise SynthesisFailed("no non-commuting local unitary found in budget")


def _case_sequential(u, v, cu, cv, tol, seed):
    """Cases IA (both product) and IC (both swap-type): a single-qudit
    sequential scheme on the side whose factors differ.

    Case IC first wraps f(X) = X (X1 (x) X2) X^dag: f(U) = U_A X2 U_A^dag (x)
    U_B X1 U_B^dag, so the wrapped pair is a pair of product operators whose
    chosen-side factors differ; each f use costs a reverse and a forward
    box application.
    """
    d = u.dims[0]
    (ua, ub), (va, vb) = cu.factors, cv.factors
    eye = np.eye(d, dtype=complex)
    side = ALICE if phase_distance(ua, va) > tol.classification else BOB
    pair = (ua, va) if side == ALICE else (ub, vb)
    wrap = cu.kind == SWAP_LOCAL
    if wrap:
        x = _sample_noncommuting(pair[0].matrix.conj().T @ pair[1].matrix, d, seed)
        x1, x2 = (eye, x) if side == ALICE else (x, eye)
        pair = tuple(UnitaryOperator(f.matrix @ x @ f.matrix.conj().T, (d,), 1e-8)
                     for f in pair)
    scheme = find_sequential_scheme(pair[0], pair[1], tol)
    runs = []
    for op in [eye] + [aux.matrix for aux in scheme.aux_ops]:
        local = (op, eye) if side == ALICE else (eye, op)
        if wrap:
            runs += [Run(*local, REVERSE), Run(x1, x2, FORWARD)]
        else:
            runs.append(Run(*local, FORWARD))
    idle = basis_state(0, (d,))
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
        word = compile_word(u, CanonicalXXTarget(1.0),
                            max_boxes=min(4, max_boxes), tol=tol, seed=seed,
                            restarts=12, max_patterns=2)
    except CompileFailed:
        return CASE_IIIA, "canonical-form compilation failed; generic branch"
    fv = evaluate_word(word, v.matrix)
    # compiled objects carry the compile error; loosen the residual bound
    loose = Tolerances(unitarity=1e-6, orthogonality=tol.orthogonality,
                       classification=1e-5, compile=tol.compile)
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
    """Residuals of one synthesis shape (depth, directions, party) and their
    exact Jacobian.

    Parameters: (re, im) of Alice's and of Bob's unnormalized input, then
    per run the coordinates of H_A and H_B in ``hermitian_basis(d)``; the
    run's local layer is exp(i H_A) (x) exp(i H_B).  States stay d x d
    matrices S (amplitude of |i>|j> at S[i, j]), so a run maps S to
    box @ vec(A S B^T) and no Kronecker product is formed.  Residuals, as
    real then imaginary parts: the 2x2 minors of every post-run state on
    each entangling branch (zero iff product), then the marginal-overlap
    block of the measuring party (zero iff its final marginals are
    orthogonal).
    """

    def __init__(self, d, mu, mv, chains, pattern, party):
        self.d, self.n, self.party, self.chains = d, len(pattern), party, chains
        self.basis = hermitian_basis(d)
        self.unit = np.concatenate([np.eye(d), 1j * np.eye(d)])
        self.boxes = [[m if p == FORWARD else m.conj().T for p in pattern]
                      for m in (mu, mv)]
        rows = np.triu_indices(d, k=1)
        i, k = rows[0][:, None], rows[1][:, None]
        j, l = rows[0][None, :], rows[1][None, :]
        # flat indices of the four entries of each minor S[i,j] S[k,l] - S[i,l] S[k,j]
        self.minors = [(x * d + y).ravel() for x, y in ((i, j), (k, l), (i, l), (k, j))]
        self.n_params = 4 * d + 2 * self.n * d * d
        n_minors = sum(chains) * self.n * len(self.minors[0])
        self.n_residuals = 2 * (n_minors + d * d)
        self._point, self._eigh = None, None

    def inputs(self, params):
        """Normalized (alice, bob) inputs with their (2d, d) derivatives,
        or None when an input is too short to normalize."""
        d = self.d
        out = []
        for raw in (params[:2 * d], params[2 * d:4 * d]):
            vec = raw[:d] + 1j * raw[d:]
            norm = np.linalg.norm(vec)
            if norm < 1e-6:
                return None
            vec = vec / norm
            out.append((vec, (self.unit - np.outer(raw / norm, vec)) / norm))
        return out

    def layer(self, w, v, derivative=False):
        """exp(i H) from the eigendecomposition (w, v) of H, and its
        (d*d, d, d) derivative along the basis."""
        vh = v.conj().T
        op = (v * np.exp(1j * w)) @ vh
        if not derivative:
            return op, None
        # Daleckii-Krein: d exp(iH)[E] = V ((V^dag E V) o G) V^dag, G the
        # divided differences of e^{iw}, written to stay exact at ties
        gap = 0.5 * (w[:, None] - w[None, :])
        g = 1j * np.exp(0.5j * (w[:, None] + w[None, :])) * np.sinc(gap / np.pi)
        return op, v @ ((vh @ self.basis @ v) * g) @ vh

    def layers(self, params, derivative=False):
        """Every run's (layer, derivative); the eigendecompositions of the
        last point are reused, so a Jacobian at the point of the preceding
        residual does not redo them."""
        if self._point is None or not np.array_equal(params, self._point):
            n_h = self.d * self.d
            self._eigh = [np.linalg.eigh(np.tensordot(params[o:o + n_h], self.basis, axes=1))
                          for o in range(4 * self.d, self.n_params, n_h)]
            self._point = np.array(params, copy=True)
        return [self.layer(w, v, derivative) for w, v in self._eigh]

    def _minors(self, s, ds):
        s, i_j, k_l, i_l, k_j = s.reshape(-1), *self.minors
        z = s[i_j] * s[k_l] - s[i_l] * s[k_j]
        if ds is None:
            return z, None
        ds = ds.reshape(ds.shape[0], -1)
        dz = (ds[:, i_j] * s[k_l] + s[i_j] * ds[:, k_l]
              - ds[:, i_l] * s[k_j] - s[i_l] * ds[:, k_j])
        return z, dz

    def _evaluate(self, params, jacobian):
        """Complex residuals z and, with ``jacobian``, dz as (n_params, len z)."""
        d, n_h, n_p = self.d, self.d * self.d, self.n_params
        inputs = self.inputs(params)
        if inputs is None:
            return None, None
        (a, da), (b, db) = inputs
        layers = self.layers(params, jacobian)
        parts, dparts, finals = [], [], []
        for chain, boxes in zip(self.chains, self.boxes):
            s, ds = np.outer(a, b), None
            if jacobian:
                ds = np.zeros((n_p, d, d), dtype=complex)
                ds[:2 * d] = da[:, :, None] * b
                ds[2 * d:4 * d] = a[:, None] * db[:, None, :]
            for r, box in enumerate(boxes):
                (la, dla), (lb, dlb) = layers[2 * r], layers[2 * r + 1]
                sb = s @ lb.T
                if jacobian:
                    dt = la @ ds @ lb.T
                    off = 4 * d + 2 * r * n_h
                    dt[off:off + n_h] += dla @ sb
                    dt[off + n_h:off + 2 * n_h] += (la @ s) @ dlb.transpose(0, 2, 1)
                    ds = (dt.reshape(n_p, n_h) @ box.T).reshape(n_p, d, d)
                s = (box @ (la @ sb).reshape(-1)).reshape(d, d)
                if chain:
                    z, dz = self._minors(s, ds)
                    parts.append(z)
                    dparts.append(dz)
            finals.append((s, ds))
        (m_u, dm_u), (m_v, dm_v) = finals
        if self.party == ALICE:
            parts.append((m_v.conj().T @ m_u).reshape(-1))   # ~ <a_v|a_u> outer(b)
            if jacobian:
                dparts.append((dm_v.conj().transpose(0, 2, 1) @ m_u
                               + m_v.conj().T @ dm_u).reshape(n_p, -1))
        else:
            parts.append((m_v @ m_u.conj().T).reshape(-1))   # ~ <b_u|b_v>* outer(a)
            if jacobian:
                dparts.append((dm_v @ m_u.conj().T
                               + m_v @ dm_u.conj().transpose(0, 2, 1)).reshape(n_p, -1))
        z = np.concatenate(parts)
        return z, (np.concatenate(dparts, axis=1) if jacobian else None)

    def residual(self, params):
        z, _ = self._evaluate(params, False)
        if z is None:
            return np.full(self.n_residuals, 1e3)
        return np.concatenate([z.real, z.imag])

    def jacobian(self, params):
        _, dz = self._evaluate(params, True)
        if dz is None:
            return np.zeros((self.n_residuals, self.n_params))
        return np.concatenate([dz.real, dz.imag], axis=1).T


def _direction_patterns(n):
    """Box directions tried at depth n: all forward, then alternating."""
    alternating = tuple(FORWARD if i % 2 == 0 else REVERSE for i in range(n))
    return [(FORWARD,) * n] + ([alternating] if n >= 2 else [])


def _synthesize_entangling(u, v, cu, cv, label, tol, seed, max_boxes, notes=""):
    """Direct synthesis of the flat run list for entangling pairs.

    Seeded least-squares with the exact Jacobian over (product input,
    per-run local layers); see :class:`_SynthesisProblem` for the residuals.
    """
    d = u.dims[0]
    chains = (cu.kind == IMPRIMITIVE, cv.kind == IMPRIMITIVE)
    best = (np.inf, None)

    rng = np.random.default_rng(seed)
    depths = [n for n in _SYNTH_DEPTHS if n <= max_boxes]
    for n in depths:
        for pattern in _direction_patterns(n):
            for party in (ALICE, BOB):
                problem = _SynthesisProblem(d, u.matrix, v.matrix, chains,
                                            pattern, party)
                for restart in range(_SYNTH_RESTARTS):
                    p0 = rng.standard_normal(problem.n_params)
                    res = scipy.optimize.least_squares(
                        problem.residual, p0, jac=problem.jacobian,
                        method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15,
                        max_nfev=260)
                    err = float(np.max(np.abs(res.fun)))
                    if err < best[0]:
                        best = (err, None)
                    if err > 1e-8:
                        continue
                    (a_vec, _), (b_vec, _) = problem.inputs(res.x)
                    ops = [op for op, _ in problem.layers(res.x)]
                    runs = [Run(ops[2 * r], ops[2 * r + 1], box)
                            for r, box in enumerate(pattern)]
                    proto = _finalize(label, runs, PureState(a_vec, (d,)),
                                      PureState(b_vec, (d,)), u, v, tol,
                                      notes=notes)
                    if proto.certificate.passed:
                        return proto
                    best = min(best, (proto.certificate.overlap, None),
                               key=lambda t: t[0])
    raise CompileFailed(
        f"entangling-case synthesis exhausted (max_boxes={max_boxes}); "
        f"best residual {best[0]:.3e}", best_error=float(best[0]))


def controlled_sequential(f_controlled, bob_aux, alpha, phi, tol=DEFAULT_TOLERANCES):
    """Output of f (I (x) X_N) f ... (I (x) X_1) f on |alpha>|phi> for a
    control-conditioned f, asserting the control stays fixed.

    ``f_controlled`` must be block-diagonal in the control (Alice) basis
    within tolerance, and alpha must be supported on control indices whose
    blocks agree, so that f acts as |alpha><alpha| (x) W.  The returned
    state equals |alpha> (x) (W X_N W ... X_1 W)|phi> within 1e-9.
    """
    d = f_controlled.require_two_party()
    m = f_controlled.matrix
    blocks = [m[k * d:(k + 1) * d, k * d:(k + 1) * d] for k in range(d)]
    off = m.copy().reshape(d, d, d, d)
    for k in range(d):
        off[k, :, k, :] = 0.0
    if np.linalg.norm(off) > 1e-6:
        raise ValidationError("operator is not a controlled form in the "
                              "computational control basis")
    support = [k for k in range(d) if abs(alpha.amplitudes[k]) > 1e-12]
    w = blocks[support[0]]
    for k in support[1:]:
        if np.linalg.norm(blocks[k] - w) > 1e-8:
            raise ValidationError("control input mixes blocks with different "
                                  "target actions")
    aux_mats = [x.matrix if isinstance(x, UnitaryOperator) else np.asarray(x, dtype=complex)
                for x in bob_aux]
    s = m @ np.kron(alpha.amplitudes, phi.amplitudes)
    for x in aux_mats:
        s = np.kron(np.eye(d), x) @ s
        s = m @ s
    chain = w @ phi.amplitudes
    for x in aux_mats:
        chain = w @ (x @ chain)
    expected = np.kron(alpha.amplitudes, chain)
    if np.linalg.norm(s - expected) > 1e-9:
        raise ValidationError("controlled-sequential identity violated beyond 1e-9")
    return PureState(s / np.linalg.norm(s), (d, d))


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


def multi_discriminate(ops, tol=DEFAULT_TOLERANCES, seed=0, max_boxes=None):
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
            probs = outcome_probabilities(proto, box)
            idx_u = next((o for o, h in proto.measurement.decision.items()
                          if h == "U"), 0)
            p_u = float(probs[idx_u])
            survivors[c] = weight * p_u
            survivors[k] = survivors.get(k, 0.0) + weight * (1.0 - p_u)
        champions = {c: w for c, w in survivors.items() if w > 1e-12}
    return champions
