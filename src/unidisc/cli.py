"""Command-line front end.

Commands
--------
theta U.json                         spectral arc of an operator
classify U.json [V.json]             locality class of a two-qudit operator;
                                     with V, the label and notes of
                                     compiler.case_iii_label for a pair
                                     that ``discriminate`` labels III
discriminate --mode single|sequential|locc U.json V.json
multi U1.json U2.json [U3.json ...]  knockout over m hypotheses
verify protocol.json U.json V.json   re-verify a serialized protocol

Common flags: --tol-ortho, --tol-class, --tol-compile, --seed, --max-boxes,
--out FILE, --quiet.  The seed falls back to the UNIDISC_SEED environment
variable when the flag is absent.  Exit status: 0 on success, 2 on a
certified synthesis/compile failure (whose --out artifact names the
exception and carries its message and best error), 1 on usage, parse, or
validation errors and on an --out file that cannot be written.
"""

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__
from .arc import discriminating_state, theta
from .compiler import case_iii_label
from .core import Tolerances
from .engine import build_protocol, identify, multi_discriminate
from .exceptions import (CompileFailed, SynthesisFailed, UnidiscError,
                         ValidationError)
from .io import (load_operator, load_protocol, matrix_to_json,
                 protocol_to_json, report_to_json, scheme_to_json,
                 tolerances_to_json, vector_to_json, write_artifact)
from .locality import IMPRIMITIVE, classify, operator_schmidt
from .sequential import SequentialScheme, evaluate_scheme, \
    find_sequential_scheme
from .verifier import verify


@functools.lru_cache(maxsize=1)
def _build_parser():
    """The argument parser, built once per process: parsing leaves no state
    in it, and building it costs milliseconds per call."""
    parser = argparse.ArgumentParser(
        prog="unidisc",
        description="construct and verify perfect-discrimination protocols "
                    "for unitary operations")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol-ortho", type=float, default=1e-6,
                       help="orthogonality tolerance (default 1e-6)")
        p.add_argument("--tol-class", type=float, default=1e-8,
                       help="classification tolerance (default 1e-8)")
        p.add_argument("--tol-compile", type=float, default=1e-6,
                       help="compile tolerance (default 1e-6)")
        p.add_argument("--seed", type=int, default=None,
                       help="optimizer seed (default: $UNIDISC_SEED or 0)")
        p.add_argument("--max-boxes", type=int, default=8,
                       help="box budget for synthesis (default 8)")
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write the machine-readable artifact to FILE")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the human-readable summary")

    p = sub.add_parser("theta", help="spectral arc of an operator")
    p.add_argument("operator")
    common(p)

    p = sub.add_parser("classify", help="locality class of a two-qudit operator, "
                                        "or the case-III label of a pair")
    p.add_argument("operator")
    p.add_argument("other", nargs="?", default=None,
                   help="second operator: print the pair's case-III label")
    common(p)

    p = sub.add_parser("discriminate", help="build a discrimination scheme")
    p.add_argument("--mode", choices=("single", "sequential", "locc"),
                   required=True)
    p.add_argument("u")
    p.add_argument("v")
    common(p)

    p = sub.add_parser("multi", help="multi-hypothesis knockout")
    p.add_argument("operators", nargs="+")
    common(p)

    p = sub.add_parser("verify", help="re-verify a serialized protocol")
    p.add_argument("protocol")
    p.add_argument("u")
    p.add_argument("v")
    common(p)
    return parser


def _tolerances(args):
    return Tolerances(unitarity=1e-9, orthogonality=args.tol_ortho,
                      classification=args.tol_class, compile=args.tol_compile)


def _seed(args):
    env = os.environ.get("UNIDISC_SEED") or "0"
    try:
        seed = int(env) if args.seed is None else args.seed
    except ValueError:
        raise ValidationError(f"UNIDISC_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    return seed


def _emit(args, lines, payload):
    if not args.quiet:
        for line in lines:
            print(line)
    if args.out:
        payload = dict(payload)
        payload.setdefault("tool_version", __version__)
        payload["seed"] = _seed(args)
        payload["tolerances"] = tolerances_to_json(_tolerances(args))
        write_artifact(args.out, payload)


def _cmd_theta(args):
    op = load_operator(args.operator, _tolerances(args))
    arc = theta(op, _tolerances(args))
    _emit(args, [f"theta = {arc.theta:.12f}",
                 f"largest gap = {arc.largest_gap:.12f}",
                 f"eigenphases = {[round(p, 12) for p in arc.eigenphases]}"],
          {"theta": arc.theta, "largest_gap": arc.largest_gap,
           "eigenphases": list(arc.eigenphases)})
    return 0


def _cmd_classify(args):
    tol = _tolerances(args)
    op = load_operator(args.operator, tol)
    op.require_two_party()
    if args.other is not None:
        return _classify_pair(args, op, load_operator(args.other, tol), tol)
    result = classify(op, tol)
    values = operator_schmidt(op)[0].tolist()
    lines = [f"class = {result.kind}",
             f"operator Schmidt values = {[round(s, 9) for s in values]}"]
    payload = {"class": result.kind, "schmidt_values": values}
    if result.factors is not None:
        payload["factor_alice"] = matrix_to_json(result.factors[0].matrix)
        payload["factor_bob"] = matrix_to_json(result.factors[1].matrix)
    if result.witness is not None:
        payload["witness"] = vector_to_json(result.witness.amplitudes)
        lines.append("witness input stored in artifact"
                     if args.out else "entangling witness found")
    _emit(args, lines, payload)
    return 0


def _classify_pair(args, u, v, tol):
    if v.require_two_party() != u.dims[0]:
        raise ValidationError("operators live on different spaces")
    kinds = [classify(op, tol).kind for op in (u, v)]
    if kinds != [IMPRIMITIVE, IMPRIMITIVE]:
        raise ValidationError(f"the case-III label needs two entangling gates, "
                              f"got {kinds[0]} and {kinds[1]}")
    label, notes = case_iii_label(u, v, tol, seed=_seed(args),
                                  max_boxes=args.max_boxes)
    _emit(args, [f"case = {label}", f"notes = {notes}"],
          {"label": label, "notes": notes})
    return 0


def _cmd_discriminate(args):
    tol = _tolerances(args)
    seed = _seed(args)
    u = load_operator(args.u, tol)
    v = load_operator(args.v, tol)
    if args.mode == "single":
        psi = discriminating_state(u, v, tol)
        overlap = abs(np.vdot(psi.amplitudes,
                              u.matrix.conj().T @ v.matrix @ psi.amplitudes))
        _emit(args, [f"single-run input found, overlap = {overlap:.3e}"],
              {"kind": "single_run_state",
               "input": vector_to_json(psi.amplitudes),
               "overlap": float(overlap)})
        return 0
    if args.mode == "sequential":
        scheme = find_sequential_scheme(u, v, tol)
        check = evaluate_scheme(scheme, u, v)
        _emit(args, [f"N = {len(scheme.aux_ops)} auxiliary operations, "
                     f"{scheme.uses} uses",
                     f"overlap = {check:.3e}"],
              scheme_to_json(scheme, seed=seed))
        return 0
    if u.require_two_party() != v.require_two_party():
        raise ValidationError("operators live on different spaces")
    proto = build_protocol(u, v, tol, seed=seed, max_boxes=args.max_boxes)
    report = proto.certificate
    _emit(args, [f"case {proto.case_label}, box_uses = {proto.box_uses}",
                 report.summary()],
          protocol_to_json(proto, seed=seed))
    return 0 if report.passed else 2


def _cmd_multi(args):
    tol = _tolerances(args)
    seed = _seed(args)
    ops = [load_operator(path, tol) for path in args.operators]
    for op in ops:
        op.require_two_party()
    tree = multi_discriminate(ops, tol, seed=seed, max_boxes=args.max_boxes)
    lines = [f"hypotheses = {len(ops)}",
             f"distinct pairwise protocols = {len(tree.protocols)}",
             f"total box_uses = {tree.total_box_uses}"]
    table = {}
    for k, op in enumerate(ops):
        outcome = identify(tree, op)
        top = max(outcome, key=outcome.get)
        ok = top == k and all(idx == k for idx in outcome)
        table[str(k)] = {"identified": sorted(outcome), "correct": ok}
        lines.append(f"ground truth {k}: identified {sorted(outcome)}"
                     f" ({'ok' if ok else 'MISMATCH'})")
    payload = {"kind": "multi_discrimination",
               "hypotheses": len(ops),
               "protocols": {f"{i},{j}": protocol_to_json(p)
                             for (i, j), p in sorted(tree.protocols.items())},
               "total_box_uses": tree.total_box_uses,
               "simulation": table}
    _emit(args, lines, payload)
    return 0 if all(entry["correct"] for entry in table.values()) else 2


def _cmd_verify(args):
    tol = _tolerances(args)
    obj = load_protocol(args.protocol)
    u = load_operator(args.u, tol)
    v = load_operator(args.v, tol)
    if isinstance(obj, SequentialScheme):
        overlap = evaluate_scheme(obj, u, v)
        passed = overlap <= tol.orthogonality
        _emit(args, [f"sequential scheme overlap = {overlap:.3e} "
                     f"({'PASS' if passed else 'FAIL'})"],
              {"kind": "verify_result", "overlap": float(overlap),
               "passed": bool(passed)})
        return 0 if passed else 2
    report = verify(obj, u, v, tol)
    lines = [report.summary()]
    embedded = obj.certificate
    if embedded is not None:
        agree = (embedded.passed == report.passed
                 and abs(embedded.overlap - report.overlap) <= 1e-12)
        lines.append(f"embedded report {'matches' if agree else 'DIFFERS'}")
    _emit(args, lines, {"kind": "verify_result",
                        "report": report_to_json(report)})
    return 0 if report.passed else 2


_COMMANDS = {
    "theta": _cmd_theta,
    "classify": _cmd_classify,
    "discriminate": _cmd_discriminate,
    "multi": _cmd_multi,
    "verify": _cmd_verify,
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract here is 1
        return int(exc.code) if exc.code in (0,) else 1
    try:
        return _run(args)
    except UnidiscError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _run(args):
    """The command's exit status; a certified synthesis or compile failure
    is exit 2, with a failure artifact under --out."""
    try:
        return _COMMANDS[args.command](args)
    except (SynthesisFailed, CompileFailed) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        best = getattr(exc, "best_error", getattr(exc, "best_overlap", None))
        if best is not None and not np.isfinite(best):
            best = None             # inf: no solve ran, and JSON has no inf
        _emit(args, [], {"kind": "failure", "error": type(exc).__name__,
                         "message": str(exc), "best_error": best})
        return 2

if __name__ == "__main__":
    sys.exit(main())
