"""Tests for the command-line interface and the file formats."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import unidisc
from unidisc.cli import main
from unidisc.core import (UnitaryOperator, identity_operator, phase_distance,
                          random_unitary)
from unidisc.exceptions import ParseError, ValidationError
from unidisc.io import (_runs_from_json, dumps_artifact, load_operator,
                        load_protocol, matrix_from_json, protocol_from_json, protocol_to_json,
                        save_operator, vector_from_json)
from unidisc.locality import canonical_xx_operator, operator_schmidt, swap_operator
from unidisc.engine import build_protocol

from conftest import (CNOT_MAT, ENTANGLING_PAIRS, ISWAP_MAT, SZ, haar_two_qudit,
                      product_operator, split_iswap_protocol, swap_type_operator)


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


def test_cli_discriminate_single_writes_state(opfiles, tmp_path):
    out = tmp_path / "state.json"
    code = main(["discriminate", "--mode", "single", opfiles["I2"],
                 opfiles["pauliZ"], "--out", str(out), "--quiet"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "single_run_state"
    assert data["overlap"] <= 1e-6
    psi = vector_from_json(data["input"])
    assert abs(np.vdot(psi, SZ @ psi)) <= 1e-6


def test_cli_verify_sequential_scheme(opfiles, tmp_path, capsys):
    out = tmp_path / "scheme.json"
    assert main(["discriminate", "--mode", "sequential", opfiles["I2"],
                 opfiles["rot60"], "--out", str(out), "--quiet"]) == 0
    assert main(["verify", str(out), opfiles["I2"], opfiles["rot60"],
                 "--quiet"]) == 0
    rot200 = tmp_path / "rot200.json"
    save_operator(rot200, UnitaryOperator(
        np.diag([1.0, np.exp(1j * np.deg2rad(200.0))]), (2,)))
    report = tmp_path / "report.json"
    assert main(["verify", str(out), opfiles["I2"], str(rot200),
                 "--out", str(report)]) == 2
    assert "FAIL" in capsys.readouterr().out
    assert abs(json.loads(report.read_text())["overlap"] - 0.5) <= 1e-9


def test_cli_classify_product_factors(tmp_path):
    gate = product_operator(2, 5)
    path, out = tmp_path / "gate.json", tmp_path / "class.json"
    save_operator(path, gate)
    assert main(["classify", str(path), "--out", str(out), "--quiet"]) == 0
    data = json.loads(out.read_text())
    assert data["class"] == "ProductLocal"
    rebuilt = np.kron(matrix_from_json(data["factor_alice"]),
                      matrix_from_json(data["factor_bob"]))
    assert phase_distance(rebuilt, gate) <= 1e-9


@pytest.mark.parametrize("name, gate, kind", [
    ("product", product_operator(3, 5), "ProductLocal"),
    ("swap", swap_type_operator(3, 5), "SwapLocal"),
    ("cnot", UnitaryOperator(CNOT_MAT, (2, 2)), "Imprimitive")])
def test_cli_classify_writes_the_operator_schmidt_values(tmp_path, name, gate, kind):
    path, out = tmp_path / f"{name}.json", tmp_path / "class.json"
    save_operator(path, gate)
    assert main(["classify", str(path), "--out", str(out), "--quiet"]) == 0
    data = json.loads(out.read_text())
    assert data["class"] == kind
    assert data["schmidt_values"] == operator_schmidt(load_operator(str(path)))[0].tolist()


def test_cli_classify_pair_gives_the_case_iii_label(tmp_path, capsys):
    paths = []
    for x in (1.0, 0.4):
        paths.append(str(tmp_path / f"E{x}.json"))
        save_operator(paths[-1], canonical_xx_operator(2, x))
    out = tmp_path / "label.json"
    assert main(["classify", *paths, "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "case = IIIB_SCALED", "notes = f(V) canonical with x=0.400000"]
    data = json.loads(out.read_text())
    assert (data["label"], data["notes"]) == (
        "IIIB_SCALED", "f(V) canonical with x=0.400000")
    assert "class" not in data


def test_cli_classify_pair_needs_two_entangling_gates(opfiles, capsys):
    assert main(["classify", opfiles["identity"], opfiles["cnot"]]) == 1
    assert capsys.readouterr().err.strip() == (
        "ValidationError: the case-III label needs two entangling gates, "
        "got ProductLocal and Imprimitive")


def test_cli_verifies_a_protocol_file_labelled_iiia(tmp_path, capsys):
    # written by ``discriminate --seed 0`` when builds still computed the
    # case-III label, for the IIIA d=2 s=0 pair; builds now label it III
    path = os.path.join(os.path.dirname(__file__), "data", "iiia-d2-s0-protocol.json")
    ops = []
    for name, op in zip("uv", ENTANGLING_PAIRS["IIIA"](2, 0)):
        ops.append(str(tmp_path / f"{name}.json"))
        save_operator(ops[-1], op)
    assert load_protocol(path).case_label == "IIIA"
    assert main(["verify", path, *ops]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "embedded report matches"


@pytest.mark.parametrize("command", [["discriminate", "--mode", "locc"], ["classify"]],
                         ids=["discriminate", "classify"])
def test_cli_operators_on_different_spaces_exit_1(tmp_path, capsys, command):
    u, v = tmp_path / "u.json", tmp_path / "v.json"
    save_operator(u, identity_operator((2, 2)))
    save_operator(v, identity_operator((3, 3)))
    assert main([*command, str(u), str(v), "--quiet"]) == 1
    assert capsys.readouterr().err.strip() == (
        "ValidationError: operators live on different spaces")


def test_cli_equal_operators_exit_1(opfiles, capsys):
    code = main(["discriminate", "--mode", "locc", opfiles["identity"],
                 opfiles["identity"], "--quiet"])
    assert code == 1
    assert "OperatorsEqual" in capsys.readouterr().err


def test_cli_unknown_mode_exits_1(opfiles):
    assert main(["discriminate", "--mode", "bogus", opfiles["I2"],
                 opfiles["pauliZ"]]) == 1


def test_cli_box_budget_zero_exits_1(tmp_path, capsys):
    u, v = tmp_path / "u.json", tmp_path / "v.json"
    save_operator(u, product_operator(2, 1))
    save_operator(v, haar_two_qudit(2, 10001))
    code = main(["discriminate", "--mode", "locc", str(u), str(v),
                 "--max-boxes", "0", "--quiet"])
    assert code == 1
    assert "max_boxes must be at least 1" in capsys.readouterr().err


def test_cli_exhausted_budget_exits_2(tmp_path, capsys):
    # criterion-7 Haar pair s=0: the label's compile and the synthesis both
    # fail within one box
    u, v = tmp_path / "u.json", tmp_path / "v.json"
    save_operator(u, haar_two_qudit(2, 11001))
    save_operator(v, haar_two_qudit(2, 12001))
    code = main(["discriminate", "--mode", "locc", str(u), str(v),
                 "--max-boxes", "1", "--quiet"])
    assert code == 2
    assert "CompileFailed" in capsys.readouterr().err


@pytest.mark.parametrize("pair, message", [
    # IIB d=2 s=1: Theta > pi, so depth 1 is solved and fails
    ((swap_type_operator(2, 3), haar_two_qudit(2, 10003)), "best residual"),
    # IIIA d=2 s=0: Theta < pi, so no depth within one box is tried
    ((haar_two_qudit(2, 11001), haar_two_qudit(2, 12001)),
     "the arc bound rules out every depth"),
])
def test_cli_failure_writes_an_artifact(tmp_path, capsys, pair, message):
    u, v, out = tmp_path / "u.json", tmp_path / "v.json", tmp_path / "out.json"
    save_operator(u, pair[0])
    save_operator(v, pair[1])
    code = main(["discriminate", "--mode", "locc", str(u), str(v),
                 "--max-boxes", "1", "--quiet", "--out", str(out)])
    assert code == 2
    data = json.loads(out.read_text())
    assert data["kind"] == "failure" and data["error"] == "CompileFailed"
    assert message in data["message"] and data["message"] in capsys.readouterr().err
    assert data["seed"] == 0 and "tolerances" in data
    if message == "best residual":
        assert 0 < data["best_error"] < np.inf
        assert f"{data['best_error']:.3e}" in data["message"]
    else:
        assert data["best_error"] is None and "inf" not in data["message"]


def test_cli_unwritable_out_exits_1_naming_the_path(opfiles, tmp_path, capsys):
    out = tmp_path / "missing" / "theta.json"
    assert main(["theta", opfiles["pauliZ"], "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert "theta = 3.14159" in captured.out
    assert captured.err.startswith(f"UnidiscError: cannot write {out}: ")
    assert captured.err.count("\n") == 1 and not out.exists()


def test_cli_unwritable_failure_artifact_exits_1_naming_the_path(tmp_path, capsys):
    # the IIIA d=2 s=0 pair fails within one box, as above
    u, v = tmp_path / "u.json", tmp_path / "v.json"
    out = tmp_path / "missing" / "failure.json"
    save_operator(u, haar_two_qudit(2, 11001))
    save_operator(v, haar_two_qudit(2, 12001))
    code = main(["discriminate", "--mode", "locc", str(u), str(v),
                 "--max-boxes", "1", "--quiet", "--out", str(out)])
    assert code == 1
    first, last = capsys.readouterr().err.splitlines()
    assert first.startswith("CompileFailed: ")
    assert last.startswith(f"UnidiscError: cannot write {out}: ")
    assert not out.exists()


def test_cli_verify_roundtrip(opfiles, tmp_path, capsys):
    out = tmp_path / "proto.json"
    assert main(["discriminate", "--mode", "locc", opfiles["identity"],
                 opfiles["swap"], "--out", str(out), "--quiet"]) == 0
    code = main(["verify", str(out), opfiles["identity"], opfiles["swap"]])
    assert code == 0
    text = capsys.readouterr().out
    assert "matches" in text


@pytest.mark.parametrize("corruption", ["flipped_decision", "wrong_party",
                                        "all_u_decision", "empty_decision"])
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
    elif corruption == "all_u_decision":
        meas["decision"] = {"0": "U", "1": "U"}     # no outcome decides V
    elif corruption == "empty_decision":
        meas["decision"] = {}                       # no outcome decides U
    else:
        meas["party"] = "Bob"
    out.write_text(json.dumps(data))
    code = main(["verify", str(out), opfiles["szI"], opfiles["identity"]])
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_cli_verify_rejects_unknown_decision_value(opfiles, tmp_path, capsys):
    out = tmp_path / "proto.json"
    assert main(["discriminate", "--mode", "locc", opfiles["szI"],
                 opfiles["identity"], "--out", str(out), "--quiet"]) == 0
    data = json.loads(out.read_text())
    data["measurement"]["decision"] = {"0": "U", "1": "W"}
    out.write_text(json.dumps(data))
    code = main(["verify", str(out), opfiles["szI"], opfiles["identity"]])
    assert code == 1
    assert "ValidationError" in capsys.readouterr().err


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


def test_cli_verify_operators_split_other_than_the_protocol_exit_1(opfiles, tmp_path,
                                                                  capsys):
    # a protocol file whose dims are [1, 4] against gates saved with [2, 2]
    out = tmp_path / "proto.json"
    out.write_text(dumps_artifact(protocol_to_json(split_iswap_protocol((1, 4)))))
    save_operator(tmp_path / "iswap.json", UnitaryOperator(ISWAP_MAT, (2, 2)))
    code = main(["verify", str(out), opfiles["identity"], str(tmp_path / "iswap.json")])
    assert code == 1
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert captured.err.startswith("DimensionMismatch: ") and captured.err.count("\n") == 1


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
    # a closed-form pair (IB) and a synthesized one (IIA)
    out1, out2 = tmp_path / "a1.json", tmp_path / "a2.json"
    for other, case in (("swap", "IB"), ("cnot", "IIA")):
        args = ["discriminate", "--mode", "locc", opfiles["identity"],
                opfiles[other], "--quiet", "--seed", "5"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert json.loads(out1.read_text())["case_label"] == case
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


@pytest.mark.parametrize("flags, env", [(["--seed", "-1"], None),
                                        ([], "abc"), ([], "-2")],
                         ids=["flag_negative", "env_not_integer", "env_negative"])
def test_cli_bad_seed_exits_1(opfiles, monkeypatch, capsys, flags, env):
    if env is not None:
        monkeypatch.setenv("UNIDISC_SEED", env)
    code = main(["discriminate", "--mode", "locc", opfiles["identity"],
                 opfiles["swap"], "--quiet", *flags])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("ValidationError:") and err.count("\n") == 1


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


def test_cli_non_utf8_file_is_parse_error(tmp_path, capsys):
    path = tmp_path / "latin.json"
    path.write_bytes(b'\xff\xfe{"dims": [2]}')
    assert main(["theta", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"ParseError: cannot read {path}: ")


@pytest.mark.parametrize("pair", ["IA", "IIA"])
def test_cli_runs_with_scipy_blocked(tmp_path, pair):
    # a None entry in sys.modules makes every import of scipy fail
    if pair == "IA":
        u, v = identity_operator((2, 2)), UnitaryOperator(np.kron(SZ, np.eye(2)), (2, 2))
    else:
        u, v = ENTANGLING_PAIRS["IIA"](2, 0)
    paths = [str(tmp_path / name) for name in ("u.json", "v.json", "proto.json")]
    save_operator(paths[0], u)
    save_operator(paths[1], v)
    src = os.path.dirname(os.path.dirname(os.path.abspath(unidisc.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; sys.modules['scipy'] = None; "
            "from unidisc.cli import main; sys.exit(main(sys.argv[1:]))")
    for args in (["discriminate", "--mode", "locc", paths[0], paths[1],
                  "--out", paths[2], "--quiet"], ["verify", paths[2], *paths[:2]]):
        result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr


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


def _set_overlap_beyond_float(data):
    data["report"]["overlap"] = 10 ** 400


def _set_float_dims(data):
    data["dims"] = [2.9, 2.0]


def _set_boolean_dims(data):
    data["dims"] = [True, 2]


def _set_three_dims(data):
    data["dims"] = [2, 2, 2]


def _set_trailing_unit_dim(data):
    data["dims"] = [2, 2, 1]


@pytest.mark.parametrize("corrupt", [_set_runs_scalar, _set_run_as_list,
                                     _set_decision_list, _set_decision_key,
                                     _set_one_dim, _set_overlap_beyond_float,
                                     _set_float_dims, _set_boolean_dims,
                                     _set_three_dims, _set_trailing_unit_dim])
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


@pytest.mark.parametrize("dims", [[2], [2, 2, 2], [2, 2, 1]])
def test_protocol_dims_must_name_two_parties(dims):
    data = protocol_to_json(build_protocol(identity_operator((2, 2)),
                                           swap_operator(2)))
    data["dims"] = dims
    with pytest.raises(ParseError, match="'dims'"):
        protocol_from_json(data)


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
            ' [[3, -7], [-5, 2.5], [9007199254740993, 0.5]],'
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


def _booleans_for_identity(m):
    """The [re, im] pairs of the identity with JSON true and false."""
    return [[[i == j, False] for j in range(len(m))] for i in range(len(m))]


def _set_identity_layers(data):
    for run in data["runs"]:
        for key in ("alice_op", "bob_op"):
            if np.array_equal(matrix_from_json(run[key]), np.eye(3)):
                run[key] = _booleans_for_identity(run[key])


def _set_one_layer_entry(data):
    data["runs"][1]["alice_op"][0][0] = [True, False]


def _set_input_entry(data):
    data["input_bob"][0][1] = False


def _set_basis_entry(data):
    data["measurement"]["basis"][1][2] = [0.0, True]


@pytest.mark.parametrize("corrupt", [_set_identity_layers, _set_one_layer_entry,
                                     _set_input_entry, _set_basis_entry])
def test_cli_verify_booleans_in_a_protocol_are_parse_errors(tmp_path, capsys, corrupt):
    # a d=3 case-IA protocol: its identity layers read as numbers passed verify
    u = UnitaryOperator(np.kron(random_unitary(3, 1).matrix, np.eye(3)), (3, 3))
    v = UnitaryOperator(np.kron(random_unitary(3, 2).matrix, np.eye(3)), (3, 3))
    paths = [str(tmp_path / f"{name}.json") for name in ("proto", "u", "v")]
    save_operator(paths[1], u)
    save_operator(paths[2], v)
    data = protocol_to_json(build_protocol(u, v))
    assert data["case_label"] == "IA" and len(data["runs"]) >= 2
    corrupt(data)
    with pytest.raises(ParseError):
        protocol_from_json(data)
    with open(paths[0], "w") as fh:
        json.dump(data, fh)
    assert main(["verify", "--quiet"] + paths) == 1
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("matrix", [[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
    ("dims", [2, True]),
])
def test_cli_booleans_in_an_operator_are_parse_errors(tmp_path, capsys, field, value):
    data = {"dims": [2], "matrix": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}
    data[field] = value
    path = tmp_path / "op.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError):
        load_operator(str(path))
    assert main(["theta", str(path), "--quiet"]) == 1
    assert "ParseError" in capsys.readouterr().err


@pytest.mark.parametrize("bad, message", [
    ([[[1.0, 0.0], "a"]], "matrix[0][1]: expected a [re, im] pair, got 'a'"),
    ([[[1.0, 0.0], None]], "matrix[0][1]: expected a [re, im] pair, got None"),
    ([[[1.0, 0.0, 2.0]]], "matrix[0][0]: expected a [re, im] pair, got [1.0, 0.0, 2.0]"),
    ([[[1.0, 0.0], [1.0]]], "matrix[0][1]: expected a [re, im] pair, got [1.0]"),
    ([[[1, 0]], [[1, 0], [0, 1]]], "matrix: rows differ in length"),
    ([[[1, 0], [10 ** 400, 0]]], "matrix[0][1]: [re, im] pair beyond float range"),
    ([[[1.0, 0.0], [True, 0.0]]],
     "matrix[0][1]: expected a [re, im] pair, got [True, 0.0]"),
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
    {"kind": "sequential_scheme", "dims": [2], "aux_ops": [],
     "input": [[1, 0], [0, 0]], "overlap": 10 ** 400},
])
def test_cli_verify_malformed_scheme_or_top_level_is_parse_error(
        opfiles, tmp_path, capsys, payload):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(payload))
    code = main(["verify", str(path), opfiles["I2"], opfiles["rot60"]])
    assert code == 1
    assert "ParseError" in capsys.readouterr().err
