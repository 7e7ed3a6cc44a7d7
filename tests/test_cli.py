"""Tests for the command-line interface and the file formats."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from unidisc.cli import main
from unidisc.core import UnitaryOperator, identity_operator
from unidisc.exceptions import ParseError, ValidationError
from unidisc.io import (_runs_from_json, dumps_artifact, load_operator,
                        matrix_from_json, protocol_from_json, protocol_to_json,
                        save_operator)
from unidisc.locality import swap_operator
from unidisc.engine import build_protocol

from conftest import CNOT_MAT, SZ


@pytest.fixture
def opfiles(tmp_path):
    paths = {}

    def save(name, op):
        path = tmp_path / f"{name}.json"
        save_operator(path, op)
        paths[name] = str(path)

    save("identity", identity_operator((2, 2)))
    save("swap", swap_operator(2))
    save("cnot", UnitaryOperator(CNOT_MAT, (2, 2)))
    save("pauliZ", UnitaryOperator(SZ, (2,)))
    save("I2", identity_operator((2,)))
    save("rot60", UnitaryOperator(np.diag([1.0, np.exp(1j * np.pi / 3)]), (2,)))
    save("szI", UnitaryOperator(np.kron(SZ, np.eye(2)), (2, 2)))
    paths["dir"] = str(tmp_path)
    return paths


def test_load_operator_roundtrip(opfiles):
    op = load_operator(opfiles["cnot"])
    assert op.dims == (2, 2)
    assert op.residual <= 1e-12
    np.testing.assert_allclose(op.matrix, CNOT_MAT)


def test_load_operator_rejects_nonunitary(tmp_path):
    bad = {"dims": [2], "matrix": [[[2.0, 0.0], [0.0, 0.0]],
                                   [[0.0, 0.0], [1.0, 0.0]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValidationError) as info:
        load_operator(str(path))
    assert "residual" in str(info.value)


def test_load_operator_rejects_malformed(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dims": [2]}')
    with pytest.raises(ParseError) as info:
        load_operator(str(path))
    assert "matrix" in str(info.value)


def test_locc_rejects_unequal_parties(tmp_path):
    rect = np.eye(6, dtype=complex)
    op = UnitaryOperator(rect, (2, 3))
    path = tmp_path / "rect.json"
    save_operator(path, op)
    code = main(["discriminate", "--mode", "locc", str(path), str(path),
                 "--quiet"])
    assert code == 1


def test_cli_theta(opfiles, capsys):
    assert main(["theta", opfiles["pauliZ"]]) == 0
    out = capsys.readouterr().out
    assert "theta = 3.14159" in out


def test_cli_classify(opfiles, capsys):
    assert main(["classify", opfiles["cnot"]]) == 0
    assert "Imprimitive" in capsys.readouterr().out


def test_cli_discriminate_locc_ib(opfiles, tmp_path, capsys):
    out = tmp_path / "proto.json"
    code = main(["discriminate", "--mode", "locc", opfiles["identity"],
                 opfiles["swap"], "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "case IB" in text and "box_uses = 1" in text
    data = json.loads(out.read_text())
    assert data["case_label"] == "IB"
    assert data["box_uses"] == 1
    assert data["report"]["passed"] is True
    assert data["seed"] == 0 and "tolerances" in data


def test_cli_discriminate_sequential(opfiles, capsys):
    code = main(["discriminate", "--mode", "sequential", opfiles["I2"],
                 opfiles["rot60"], "--seed", "3"])
    assert code == 0
    text = capsys.readouterr().out
    assert "N = 2" in text


def test_cli_discriminate_single_refuses(opfiles, tmp_path, capsys):
    quarter = UnitaryOperator(np.diag([1.0, np.exp(1j * np.pi / 4)]), (2,))
    path = tmp_path / "rot45.json"
    save_operator(path, quarter)
    code = main(["discriminate", "--mode", "single", opfiles["I2"], str(path),
                 "--quiet"])
    assert code == 1


def test_cli_verify_roundtrip(opfiles, tmp_path, capsys):
    out = tmp_path / "proto.json"
    assert main(["discriminate", "--mode", "locc", opfiles["identity"],
                 opfiles["swap"], "--out", str(out), "--quiet"]) == 0
    code = main(["verify", str(out), opfiles["identity"], opfiles["swap"]])
    assert code == 0
    text = capsys.readouterr().out
    assert "matches" in text


@pytest.mark.parametrize("corruption", ["flipped_decision", "wrong_party"])
def test_cli_verify_fails_bad_measurement_plan(opfiles, tmp_path, capsys,
                                               corruption):
    out = tmp_path / "proto.json"
    assert main(["discriminate", "--mode", "locc", opfiles["szI"],
                 opfiles["identity"], "--out", str(out), "--quiet"]) == 0
    data = json.loads(out.read_text())
    meas = data["measurement"]
    assert meas["party"] == "Alice"
    if corruption == "flipped_decision":
        meas["decision"] = {"0": "V", "1": "U"}
    else:
        meas["party"] = "Bob"
    out.write_text(json.dumps(data))
    code = main(["verify", str(out), opfiles["szI"], opfiles["identity"]])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("corruption", ["scaled_1e-6", "scaled_2", "zero_layer",
                                        "nan_entry", "one_column_basis"])
def test_cli_verify_fails_corrupted_layer_or_basis(opfiles, tmp_path, capsys,
                                                   corruption):
    out = tmp_path / "proto.json"
    assert main(["discriminate", "--mode", "locc", opfiles["szI"],
                 opfiles["identity"], "--out", str(out), "--quiet"]) == 0
    data = json.loads(out.read_text())
    first = np.array(data["runs"][0]["alice_op"], dtype=float)
    if corruption == "one_column_basis":
        data["measurement"]["basis"] = [row[:1] for row in data["measurement"]["basis"]]
    elif corruption == "nan_entry":
        first[0, 0, 0] = np.nan
    else:
        first *= {"scaled_1e-6": 1e-6, "scaled_2": 2.0, "zero_layer": 0.0}[corruption]
    data["runs"][0]["alice_op"] = first.tolist()
    out.write_text(json.dumps(data))
    code = main(["verify", str(out), opfiles["szI"], opfiles["identity"]])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_cli_multi(opfiles, capsys):
    code = main(["multi", opfiles["identity"], opfiles["swap"],
                 opfiles["szI"]])
    assert code == 0
    text = capsys.readouterr().out
    assert "(ok)" in text and "MISMATCH" not in text


def test_cli_multi_artifact(opfiles, tmp_path):
    out = tmp_path / "multi.json"
    assert main(["multi", opfiles["identity"], opfiles["swap"], opfiles["szI"],
                 "--quiet", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "multi_discrimination"
    assert payload["hypotheses"] == 3
    assert sorted(payload["protocols"]) == ["0,1", "0,2", "1,2"]
    assert payload["total_box_uses"] == sum(
        p["box_uses"] for p in payload["protocols"].values())
    assert payload["simulation"] == {
        str(k): {"identified": [k], "correct": True} for k in range(3)}


def test_cli_artifact_determinism(opfiles, tmp_path):
    out1, out2 = tmp_path / "a1.json", tmp_path / "a2.json"
    args = ["discriminate", "--mode", "locc", opfiles["identity"],
            opfiles["swap"], "--quiet", "--seed", "5"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_env_seed_fallback(opfiles, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UNIDISC_SEED", "11")
    out = tmp_path / "a.json"
    assert main(["discriminate", "--mode", "locc", opfiles["identity"],
                 opfiles["swap"], "--quiet", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 11
    # the flag wins over the environment
    assert main(["discriminate", "--mode", "locc", opfiles["identity"],
                 opfiles["swap"], "--quiet", "--seed", "4",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["seed"] == 4


def test_protocol_serialization_lossless(opfiles):
    eye4 = identity_operator((2, 2))
    proto = build_protocol(eye4, swap_operator(2))
    payload = protocol_to_json(proto, seed=0)
    clone = protocol_from_json(json.loads(dumps_artifact(payload)))
    assert clone.case_label == proto.case_label
    for r1, r2 in zip(clone.runs, proto.runs):
        assert np.array_equal(r1.alice_op, r2.alice_op)
        assert np.array_equal(r1.bob_op, r2.bob_op)
        assert r1.box == r2.box
    assert np.array_equal(clone.input_alice.amplitudes,
                          proto.input_alice.amplitudes)
    assert clone.certificate.overlap == proto.certificate.overlap


def test_console_entry_point_usage_error():
    proc = subprocess.run([sys.executable, "-m", "unidisc.cli", "nonsense"],
                          capture_output=True, text=True)
    assert proc.returncode == 1


def test_unknown_operator_file_is_parse_error():
    code = main(["theta", "/nonexistent/file.json", "--quiet"])
    assert code == 1


def _set_runs_scalar(data):
    data["runs"] = 5


def _set_run_as_list(data):
    data["runs"][0] = [data["runs"][0]["alice_op"], data["runs"][0]["bob_op"]]


def _set_decision_list(data):
    data["measurement"]["decision"] = ["U", "V"]


def _set_decision_key(data):
    data["measurement"]["decision"] = {"x": "U", "1": "V"}


def _set_one_dim(data):
    data["dims"] = [2]


@pytest.mark.parametrize("corrupt", [_set_runs_scalar, _set_run_as_list,
                                     _set_decision_list, _set_decision_key,
                                     _set_one_dim])
def test_cli_verify_malformed_protocol_is_parse_error(opfiles, tmp_path,
                                                      capsys, corrupt):
    out = tmp_path / "proto.json"
    assert main(["discriminate", "--mode", "locc", opfiles["identity"],
                 opfiles["swap"], "--out", str(out), "--quiet"]) == 0
    data = json.loads(out.read_text())
    corrupt(data)
    with pytest.raises(ParseError):
        protocol_from_json(data)
    out.write_text(json.dumps(data))
    code = main(["verify", str(out), opfiles["identity"], opfiles["swap"]])
    assert code == 1
    assert "ParseError" in capsys.readouterr().err


def test_protocol_with_zero_runs_loads():
    data = protocol_to_json(build_protocol(identity_operator((2, 2)),
                                           swap_operator(2)))
    data["runs"] = []
    assert protocol_from_json(data).runs == ()


def _same_bits(a, b):
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a.real), np.signbit(b.real))
            and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))


def test_matrix_decode_is_bit_identical_to_per_entry_decode():
    text = ('[[[-0.0, 0.0], [1e308, -1e308], [NaN, -0.0]],'
            ' [[3, -7], [true, false], [9007199254740993, 0.5]],'
            ' [[-Infinity, Infinity], [5e-324, -5e-324], [0, -0.0]]]')
    data = json.loads(text)
    want = np.array([[complex(re, im) for re, im in row] for row in data])
    got = matrix_from_json(data)
    assert got.dtype == complex and _same_bits(got, want)
    # all layers of a protocol in one call, and per run when shapes differ
    small = json.loads("[[[1, 0]]]")
    for layers in ([data, data], [data, small]):
        runs = _runs_from_json([{"alice_op": m, "bob_op": m, "box": "forward"}
                                for m in layers])
        for run, m in zip(runs, layers):
            ref = np.array([[complex(re, im) for re, im in row] for row in m])
            assert _same_bits(run.alice_op, ref) and _same_bits(run.bob_op, ref)


@pytest.mark.parametrize("bad, message", [
    ([[[1.0, 0.0], "a"]], "matrix[0][1]: expected a [re, im] pair, got 'a'"),
    ([[[1.0, 0.0], None]], "matrix[0][1]: expected a [re, im] pair, got None"),
    ([[[1.0, 0.0, 2.0]]], "matrix[0][0]: expected a [re, im] pair, got [1.0, 0.0, 2.0]"),
    ([[[1.0, 0.0], [1.0]]], "matrix[0][1]: expected a [re, im] pair, got [1.0]"),
    ([[[1, 0]], [[1, 0], [0, 1]]], "matrix: rows differ in length"),
])
def test_matrix_decode_errors(bad, message):
    with pytest.raises(ParseError) as info:
        matrix_from_json(bad)
    assert str(info.value) == message


@pytest.mark.parametrize("payload", [
    {"kind": "sequential_scheme"},
    {"kind": "sequential_scheme", "dims": 5, "aux_ops": [], "input": [],
     "overlap": 0.0},
    [1, 2],
])
def test_cli_verify_malformed_scheme_or_top_level_is_parse_error(
        opfiles, tmp_path, capsys, payload):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(payload))
    code = main(["verify", str(path), opfiles["I2"], opfiles["rot60"]])
    assert code == 1
    assert "ParseError" in capsys.readouterr().err
