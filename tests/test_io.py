"""The artifact writer against the standard library's indented encoder.

``dumps_artifact`` lays out all-number arrays from the C encoder's compact
text; every payload must still get the bytes, or the exception type, of
``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``.  The [re, im]
converters must give the floats of the per-entry loop they replaced.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unidisc.io import (_laid_out_array, dumps_artifact, matrix_to_json,
                        vector_to_json, write_artifact)

PARITY = settings(derandomize=True, database=None, max_examples=250, deadline=None)

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1e-5]
FLOATS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS),
                   st.floats().map(np.float64))
NUMBERS = st.one_of(st.integers(), st.booleans(), st.none(), FLOATS)
SCALARS = st.one_of(NUMBERS, st.text())
# never JSON: the standard library raises TypeError on each
UNENCODABLE = st.sampled_from([object(), np.int64(3), 1j])


def _arrays(leaves):
    """Nested all-number lists, of one depth or ragged, none of them empty."""
    return st.recursive(st.lists(leaves, min_size=1, max_size=4),
                        lambda inner: st.lists(inner, min_size=1, max_size=3),
                        max_leaves=6)


def _containers(children):
    same_keys = st.one_of(*(st.dictionaries(keys, children, max_size=3)
                            for keys in (st.text(), st.integers(), FLOATS)))
    mixed_keys = st.dictionaries(st.one_of(st.text(), st.integers(), st.floats(),
                                           st.booleans(), st.none()),
                                 children, max_size=3)
    return st.one_of(same_keys, mixed_keys, st.lists(children, max_size=4),
                     st.lists(children, max_size=4).map(tuple))


def _payloads(leaves):
    return st.recursive(st.one_of(leaves, _arrays(NUMBERS)), _containers,
                        max_leaves=12)


def _outcome(encode, payload):
    try:
        return encode(payload)
    except (TypeError, ValueError) as exc:
        return type(exc)


def _stdlib(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@PARITY
@given(_payloads(SCALARS))
def test_artifact_bytes_match_the_standard_library(payload):
    assert _outcome(dumps_artifact, payload) == _outcome(_stdlib, payload)


@PARITY
@given(_payloads(st.one_of(SCALARS, UNENCODABLE)))
def test_artifact_errors_match_the_standard_library(payload):
    assert _outcome(dumps_artifact, payload) == _outcome(_stdlib, payload)


@pytest.mark.parametrize("payload", [
    (1, [2.5, (3, 4)]),
    {1: "a", 2.5: [1], True: None},
    [[1, 2], [3]],
    [[1], [2, [3]]],
    [[[1]], [2], [[3]]],
    [[1, 2], []],
    [True, 1.0, None, -0.0, math.nan, np.float64(-math.inf)],
    {"é\x01": [[1, 2], [3, 4]], "": {}},
])
def test_fixed_payloads_match_the_standard_library(payload):
    assert dumps_artifact(payload) == _stdlib(payload)


@pytest.mark.parametrize("payload", [
    object(), [np.int64(1)], {"a": 1j}, {1: 1, "a": 2}, {(1,): 2},
    [1, {"b": 10 ** 5000, "a": object()}],
])
def test_unencodable_payloads_raise_as_the_standard_library(payload):
    assert _outcome(dumps_artifact, payload) == _outcome(_stdlib, payload)


def _loop_matrix(m):
    # the per-entry converter matrix_to_json replaced
    m = np.asarray(m, dtype=complex)
    return [[[float(e.real), float(e.imag)] for e in row] for row in m]


def _loop_vector(v):
    v = np.asarray(v, dtype=complex).reshape(-1)
    return [[float(e.real), float(e.imag)] for e in v]


def _special():
    m = np.arange(12, dtype=complex).reshape(3, 4) * (1 - 2j)
    m[0, 0] = complex(math.nan, -0.0)
    m[1, 2] = complex(-0.0, math.inf)
    return m


MATRICES = {
    "transposed": _special().T,
    "strided": np.random.default_rng(3).normal(size=(6, 8)).view(complex)[::2, ::3],
    "real": np.arange(6, dtype=float).reshape(2, 3) - 2.5,
    "integer": np.arange(4).reshape(2, 2),
    "nan and -0.0": _special(),
}


def _same(a, b):
    """Equal nested lists of Python floats, bit for bit."""
    def leaves(x):
        return [y for z in x for y in leaves(z)] if isinstance(x, list) else [x]
    flat = leaves(a)
    return (json.dumps(a) == json.dumps(b) and all(type(x) is float for x in flat)
            and np.array_equal(np.array(flat).view(np.uint64),
                               np.array(leaves(b)).view(np.uint64)))


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_pair_converters_match_the_per_entry_loop(name):
    m = MATRICES[name]
    assert _same(matrix_to_json(m), _loop_matrix(m))
    assert _same(vector_to_json(m), _loop_vector(m))
    assert _same(vector_to_json(m[0]), _loop_vector(m[0]))


def test_unencodable_payload_leaves_an_existing_file_as_it_was(tmp_path):
    path = tmp_path / "kept.json"
    path.write_text("old\n")
    with pytest.raises(TypeError):
        write_artifact(path, {"a": object()})
    assert path.read_text() == "old\n"
    with pytest.raises(TypeError):
        write_artifact(tmp_path / "new.json", {"a": object()})
    assert not (tmp_path / "new.json").exists()


@pytest.mark.parametrize("shape", [(3,), (4, 2), (2, 3, 2), (2, 2, 3, 2)])
@pytest.mark.parametrize("level", [0, 3])
def test_all_number_arrays_take_the_compact_layout(shape, level):
    # the fast path itself, not the element walk it falls back to
    a = (np.arange(np.prod(shape)).reshape(shape) * 0.5 - 1).tolist()
    laid = _laid_out_array(json.dumps(a, separators=(",", ":")), level)
    assert laid == json.dumps(a, indent=2).replace("\n", "\n" + "  " * level)
