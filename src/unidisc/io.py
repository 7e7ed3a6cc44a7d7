"""JSON file formats for operators, schemes, and protocols.

Matrices are stored as nested arrays of [re, im] pairs, row-major over the
composite index; the formats are plain text on purpose, since every object
at desk scale is tiny and inspectability beats compactness.  Serialization
is lossless for every numeric field (Python float repr round-trips), and
every artifact the CLI writes records the tool version, seed, and
tolerances that produced it.

Every artifact has the bytes of ``json.dumps(payload, indent=2,
sort_keys=True) + "\n"``: sorted keys, a two-space indent, NaN and
Infinity spelled as Python's ``json`` spells them, and a trailing newline.
CPython encodes an indented layout with its pure-Python encoder, so
``dumps_artifact`` walks dicts and lists itself and hands each all-number
array, the bulk of every file, to the C encoder in compact form, then lays
the compact text out with ``str.replace``.
"""

import functools
import json
from contextlib import contextmanager
from itertools import chain

import numpy as np

from . import __version__
from .core import PureState, UnitaryOperator
from .exceptions import ParseError, UnidiscError, ValidationError
from .protocol import LoccProtocol, MeasurementPlan, Run
from .sequential import SequentialScheme
from .verifier import VerificationReport


def matrix_to_json(m):
    """Nested lists of [re, im] float pairs, one level per axis of ``m``."""
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(m.shape + (2,)).tolist()


def vector_to_json(v):
    return matrix_to_json(np.reshape(v, -1))


def _complex_from_pair(pair, where):
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            # JSON true and false load as bools, which are ints
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in pair)):
        raise ParseError(f"{where}: expected a [re, im] pair, got {pair!r}")
    try:
        return complex(pair[0], pair[1])
    except OverflowError:
        raise ParseError(f"{where}: [re, im] pair beyond float range") from None


def _pairs_array(data, ndim):
    """Complex ndim-array of nested lists of [re, im] number pairs in one
    numpy call, or None when the data is not such a regular array (the
    caller's per-entry walk then reports why)."""
    try:
        a = np.array(data)
    except (ValueError, TypeError, OverflowError):
        return None
    if a.dtype.kind not in "iuf" or a.ndim != ndim + 1 or a.shape[-1] != 2:
        return None
    # numpy reads a JSON true or false next to numbers as 1 or 0, so the
    # leaves of the items (along the first axis) holding a 0 or a 1 must
    # not be bools
    held = ((a == 0) | (a == 1)).reshape(len(a), -1).any(axis=1)
    leaves = [data[i] for i in np.flatnonzero(held)]
    for _ in range(ndim):
        leaves = chain.from_iterable(leaves)
    if bool in set(map(type, leaves)):
        return None
    # (re, im) float64 pairs are laid out as complex128: bit-identical to
    # complex(re, im), signed zeros and infinities included
    return np.ascontiguousarray(a, dtype=float).view(complex)[..., 0]


def matrix_from_json(data, where="matrix"):
    m = _pairs_array(data, 2) if isinstance(data, list) else None
    if m is not None:
        return m
    if not isinstance(data, list) or not data:
        raise ParseError(f"{where}: expected a nested array")
    rows = []
    for i, row in enumerate(data):
        if not isinstance(row, list):
            raise ParseError(f"{where}[{i}]: expected an array of [re, im] pairs")
        rows.append([_complex_from_pair(x, f"{where}[{i}][{j}]")
                     for j, x in enumerate(row)])
    if len({len(row) for row in rows}) > 1:
        raise ParseError(f"{where}: rows differ in length")
    return np.array(rows, dtype=complex)


def vector_from_json(data, where="vector"):
    if not isinstance(data, list) or not data:
        raise ParseError(f"{where}: expected an array of [re, im] pairs")
    return np.array([_complex_from_pair(x, f"{where}[{j}]")
                     for j, x in enumerate(data)], dtype=complex)


def _dims_from_json(dims, where):
    """Tuple of the positive integers listed in ``dims``; a bool (JSON true
    or false), a float or a string is a ParseError."""
    if (not isinstance(dims, list) or not dims
            or not all(type(d) is int and d >= 1 for d in dims)):
        raise ParseError(f"{where}: 'dims' must be a list of positive integers")
    return tuple(dims)


def _read_object(path):
    """The JSON object stored at ``path``; any failure is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a JSON object")
    return data


def load_operator(path, tol=None):
    """Read and validate an operator file into a UnitaryOperator."""
    data = _read_object(path)
    if "dims" not in data:
        raise ParseError(f"{path}: missing field 'dims'")
    if "matrix" not in data:
        raise ParseError(f"{path}: missing field 'matrix'")
    dims = _dims_from_json(data["dims"], path)
    m = matrix_from_json(data["matrix"], where="matrix")
    size = int(np.prod(dims))
    if m.shape != (size, size):
        raise ValidationError(
            f"{path}: matrix shape {m.shape} does not match dims {dims}")
    unitarity = tol.unitarity if tol is not None else 1e-9
    try:
        return UnitaryOperator(m, dims, tol=unitarity)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def save_operator(path, op):
    write_artifact(path, {"dims": list(op.dims), "matrix": matrix_to_json(op.matrix)})


def tolerances_to_json(tol):
    return {"unitarity": tol.unitarity, "orthogonality": tol.orthogonality,
            "classification": tol.classification, "compile": tol.compile}


def report_to_json(report):
    return {
        "overlap": report.overlap,
        "schmidt_second_max": report.schmidt_second_max,
        "measuring_party": report.measuring_party,
        "box_uses": report.box_uses,
        "per_run_trace": [[idx, branch, value]
                          for idx, branch, value in report.per_run_trace],
        "passed": report.passed,
        "measurement_ok": report.measurement_ok,
        "norm_deviation": report.norm_deviation,
    }


def report_from_json(data):
    return VerificationReport(
        overlap=float(data["overlap"]),
        schmidt_second_max=float(data["schmidt_second_max"]),
        measuring_party=data["measuring_party"],
        box_uses=int(data["box_uses"]),
        per_run_trace=tuple((int(i), b, float(s))
                            for i, b, s in data["per_run_trace"]),
        passed=bool(data["passed"]),
        measurement_ok=bool(data["measurement_ok"]),
        norm_deviation=float(data["norm_deviation"]),
    )


def protocol_to_json(proto, seed=None):
    payload = {
        "kind": "locc_protocol",
        "tool_version": __version__,
        "case_label": proto.case_label,
        "dims": list(proto.dims),
        "runs": [{"alice_op": matrix_to_json(r.alice_op),
                  "bob_op": matrix_to_json(r.bob_op),
                  "box": r.box} for r in proto.runs],
        "input_alice": vector_to_json(proto.input_alice.amplitudes),
        "input_bob": vector_to_json(proto.input_bob.amplitudes),
        "measurement": {
            "party": proto.measurement.party,
            "basis": matrix_to_json(proto.measurement.basis),
            "decision": {str(k): v for k, v in proto.measurement.decision.items()},
        },
        "box_uses": proto.box_uses,
        "notes": proto.notes,
        "report": report_to_json(proto.certificate) if proto.certificate else None,
    }
    if seed is not None:
        payload["seed"] = seed
    return payload


def _runs_from_json(items):
    """Runs of a protocol, all Alice layers decoded in one call and all Bob
    layers in another; the per-run walk reports malformed layers."""
    try:
        alice = _pairs_array([r["alice_op"] for r in items], 3)
        bob = _pairs_array([r["bob_op"] for r in items], 3)
        boxes = [r["box"] for r in items]
    except KeyError:
        alice = bob = None
    if alice is None or bob is None:
        return tuple(Run(matrix_from_json(r["alice_op"], "runs.alice_op"),
                         matrix_from_json(r["bob_op"], "runs.bob_op"),
                         r["box"]) for r in items)
    return tuple(map(Run, alice, bob, boxes))


@contextmanager
def _fields_of(kind):
    """Report a missing or wrongly typed field of a ``kind`` file as a
    ParseError, so that no structural defect escapes as a crash."""
    try:
        yield
    except KeyError as exc:
        raise ParseError(f"missing {kind} field {exc}") from exc
    except (TypeError, AttributeError, ValueError, IndexError, OverflowError) as exc:
        # a field of the wrong JSON type, such as a list where an object belongs,
        # a non-integer outcome key or an integer beyond float range
        raise ParseError(f"malformed {kind}: {type(exc).__name__}: {exc}") from exc


def protocol_from_json(data):
    if not isinstance(data, dict) or data.get("kind") != "locc_protocol":
        raise ParseError("not a serialized LOCC protocol (field 'kind')")
    with _fields_of("protocol"):
        runs = _runs_from_json(data["runs"])
        dims = _dims_from_json(data["dims"], "protocol")
        if len(dims) != 2:
            raise ParseError("protocol: 'dims' must list the two parties' dimensions")
        alice = PureState(vector_from_json(data["input_alice"], "input_alice"),
                          (dims[0],))
        bob = PureState(vector_from_json(data["input_bob"], "input_bob"),
                        (dims[1],))
        meas = data["measurement"]
        plan = MeasurementPlan(
            party=meas["party"],
            basis=matrix_from_json(meas["basis"], "measurement.basis"),
            decision={int(k): v for k, v in meas["decision"].items()})
        report = report_from_json(data["report"]) if data.get("report") else None
        return LoccProtocol(data["case_label"], runs, alice, bob, plan,
                            certificate=report, notes=data.get("notes", ""))


def scheme_to_json(scheme, seed=None):
    payload = {
        "kind": "sequential_scheme",
        "tool_version": __version__,
        "dims": list(scheme.input.dims),
        "aux_ops": [matrix_to_json(x.matrix) for x in scheme.aux_ops],
        "input": vector_to_json(scheme.input.amplitudes),
        "overlap": scheme.overlap,
        "uses": scheme.uses,
    }
    if seed is not None:
        payload["seed"] = seed
    return payload


def scheme_from_json(data):
    if data.get("kind") != "sequential_scheme":
        raise ParseError("not a serialized sequential scheme (field 'kind')")
    with _fields_of("scheme"):
        dims = _dims_from_json(data["dims"], "scheme")
        aux = tuple(UnitaryOperator(matrix_from_json(m, "aux_ops"), dims, tol=1e-6)
                    for m in data["aux_ops"])
        inp = PureState(vector_from_json(data["input"], "input"), dims)
        return SequentialScheme(aux, inp, float(data["overlap"]))


def load_protocol(path):
    data = _read_object(path)
    if data.get("kind") == "sequential_scheme":
        return scheme_from_json(data)
    return protocol_from_json(data)


_COMPACT = json.JSONEncoder(separators=(",", ":"), sort_keys=True)


@functools.cache
def _array_layout(level, depth):
    """(head, tail, steps) that lay out an all-number array of ``depth``
    levels opening on a line at indent ``level``: ``steps`` are the
    (compact, indented) pairs of separators, commas first, then each
    ``]...],[...[`` that closes and reopens j lists, deepest first."""
    ind = tuple("\n" + "  " * (level + k) for k in range(depth + 1))

    def opens(j):
        return "".join("[" + ind[k] for k in range(depth - j + 1, depth + 1))

    def closes(j):
        return "".join(ind[k] + "]" for k in range(depth - 1, depth - 1 - j, -1))

    steps = ((",", "," + ind[depth]),) + tuple(
        ("]" * j + "," + ind[depth] + "[" * j, closes(j) + "," + ind[depth - j] + opens(j))
        for j in range(depth - 1, 0, -1))
    return opens(depth), closes(depth), steps


def _laid_out_array(text, level):
    """The indented layout of ``text``, the compact encoding of a list that
    opens on a line at indent ``level``, or None unless every leaf of the
    list is a number, true, false or null at one depth and no list in it is
    empty.  Such a text holds no space, quote or brace, so each separator
    is replaced whole."""
    depth = len(text) - len(text.lstrip("["))
    if '"' in text or "{" in text or "[]" in text or not text.endswith("]" * depth):
        return None
    head, tail, steps = _array_layout(level, depth)
    body = text[depth:-depth]
    for compact, indented in steps:
        body = body.replace(compact, indented)
    # the brackets balance, so a leaf at another depth, or a longer closing
    # run, leaves some "[" that no separator took, next to a number
    if body.count("[") != body.count("[\n"):
        return None
    return head + body + tail


def _encode(o, level, out):
    """Append the layout of ``o``, which opens on a line at indent ``level``,
    to the list of strings ``out``, in the order and with the errors of
    ``json.dumps(o, indent=2, sort_keys=True)``; only a dict or list that
    contains itself recurses without end, where json.dumps raises
    ValueError."""
    close = "\n" + "  " * level
    item = close + "  "
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        out.append("{")
        for k, (key, value) in enumerate(sorted(o.items())):
            if not isinstance(key, str):
                if not (key is None or isinstance(key, (int, float))):
                    raise TypeError("keys must be str, int, float, bool or None, "
                                    f"not {key.__class__.__name__}")
                key = _COMPACT.encode(key)
            out.append(("," if k else "") + item + _COMPACT.encode(key) + ": ")
            _encode(value, level + 1, out)
        out.append(close + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        # a first leaf that is a dict or a string, as in the list of runs,
        # rules the compact layout out before encoding
        leaf = o
        while isinstance(leaf, (list, tuple)) and leaf:
            leaf = leaf[0]
        if not isinstance(leaf, (dict, str)):
            laid = _laid_out_array(_COMPACT.encode(o), level)
            if laid is not None:
                out.append(laid)
                return
        out.append("[")
        for k, value in enumerate(o):
            out.append(("," if k else "") + item)
            _encode(value, level + 1, out)
        out.append(close + "]")
    else:
        out.append(_COMPACT.encode(o))


def dumps_artifact(payload):
    """Deterministic JSON text: sorted keys, two-space indent, trailing
    newline; the bytes of ``json.dumps(payload, indent=2, sort_keys=True)``."""
    out = []
    _encode(payload, 0, out)
    out.append("\n")
    return "".join(out)


def write_artifact(path, payload):
    """Write ``payload`` to ``path``.  The text is encoded before the file
    opens, so a payload that cannot be encoded leaves the file as it was;
    a file that cannot be written is a UnidiscError naming the path."""
    text = dumps_artifact(payload)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UnidiscError(f"cannot write {path}: {exc}") from exc
