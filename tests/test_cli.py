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
from unidisc.io import (dumps_artifact, load_operator, protocol_from_json,
                        protocol_to_json, save_operator)
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


def test_cli_multi(opfiles, capsys):
    code = main(["multi", opfiles["identity"], opfiles["swap"],
                 opfiles["szI"]])
    assert code == 0
    text = capsys.readouterr().out
    assert "(ok)" in text and "MISMATCH" not in text


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
