"""The command-line surface: dispatch, exit codes, determinism, round-trips."""
import json
from pathlib import Path

from embtens import workspace_from_dict
from embtens.cli import main, run


def invoke(ws_path, *argv):
    return run(list(argv) + ["--workspace", str(ws_path)])


def test_check_net_passes(heisenberg_workspace_path):
    code, out = invoke(heisenberg_workspace_path, "check", "net", "--tensor", "T1")
    assert code == 0
    assert "PASS" in out


def test_check_and_mc_agree(heisenberg_workspace_path, tmp_path):
    for tensor in ("T1", "Tzero", "Tii", "Tab"):
        direct, _ = invoke(heisenberg_workspace_path, "check", "net", "--tensor", tensor)
        mc, _ = invoke(heisenberg_workspace_path, "mc", "net", "--tensor", tensor)
        assert direct == mc == 0
    data = json.loads(Path(heisenberg_workspace_path).read_text())
    data["tensors"]["broken"] = {"action": "ad3",
                                 "matrix": [[0, 0, 1], [1, 0, 0], [2, 3, 0]]}
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(data))
    direct, _ = invoke(ws, "check", "net", "--tensor", "broken")
    mc, _ = invoke(ws, "mc", "net", "--tensor", "broken")
    assert direct == mc == 1


def test_check_failure_exit_code(tmp_path, heisenberg_workspace_path):
    data = json.loads(Path(heisenberg_workspace_path).read_text())
    data["tensors"]["broken"] = {"action": "ad3",
                                 "matrix": [[0, 0, 1], [1, 0, 0], [2, 3, 0]]}
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(data))
    code, out = invoke(ws, "check", "net", "--tensor", "broken")
    assert code == 1
    assert "FAIL" in out


def test_mc_deform_agrees_with_check_deform(tmp_path, heisenberg_workspace_path, capsys):
    code, out = invoke(heisenberg_workspace_path, "mc", "deform", "--tensor", "T1",
                       "--direction", "D1")
    assert code == 0 and out == "mc deform T1: PASS\n"
    data = json.loads(Path(heisenberg_workspace_path).read_text())
    data["tensors"]["broken"] = {"action": "ad3",
                                 "matrix": [[0, 0, 1], [1, 0, 0], [2, 3, 0]]}
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(data))
    for command in ("check", "mc"):
        code, out = invoke(ws, command, "deform", "--tensor", "T1", "--direction", "broken")
        assert code == 1 and out.startswith(f"{command} deform T1: FAIL\n")
    capsys.readouterr()
    assert invoke(ws, "mc", "deform", "--tensor", "T1") == (2, "")
    assert capsys.readouterr().out == ""


def test_cohomology_report(heisenberg_workspace_path):
    code, out = invoke(heisenberg_workspace_path,
                       "cohomology", "--tensor", "Tzero", "--degree", "1")
    assert code == 0
    assert "dimH=3" in out


def test_cohomology_json_shape(heisenberg_workspace_path):
    code, out = invoke(heisenberg_workspace_path, "cohomology", "--tensor", "Tzero",
                       "--degree", "1", "--format", "json")
    payload = json.loads(out)
    assert payload["report"]["dimZ"] == 3
    assert payload["report"]["dimB"] == 0
    assert payload["report"]["dimH"] == 3
    assert payload["report"]["cocycleBasis"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_unknown_name_is_usage_error(heisenberg_workspace_path):
    code, _ = invoke(heisenberg_workspace_path, "check", "net", "--tensor", "missing")
    assert code == 2


def test_missing_flag_is_usage_error(heisenberg_workspace_path):
    code, _ = invoke(heisenberg_workspace_path, "check", "net")
    assert code == 2


def test_missing_workspace_is_usage_error():
    code, _ = run(["check", "net", "--tensor", "T1"])
    assert code == 2


def test_degree_out_of_range_is_usage_error(heisenberg_workspace_path):
    code, _ = invoke(heisenberg_workspace_path,
                     "cohomology", "--tensor", "Tzero", "--degree", "9")
    assert code == 2


def test_build_error_reports_and_fails(tmp_path, heisenberg_workspace_path):
    data = json.loads(Path(heisenberg_workspace_path).read_text())
    data["tensors"]["broken"] = {"action": "ad3",
                                 "matrix": [[0, 0, 1], [1, 0, 0], [2, 3, 0]]}
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(data))
    code, out = invoke(ws, "build", "descendent", "--tensor", "broken")
    assert code == 1
    assert "ERROR" in out


def test_class_equals_exit_codes(heisenberg_workspace_path):
    code, out = invoke(heisenberg_workspace_path, "class-equals", "--tensor", "T1",
                       "--degree", "2", "--direction", "D1", "--direction2", "Dzero")
    assert code == 0 and "EQUAL" in out


def test_class_equals_degree_one_rejects_directions(heisenberg_workspace_path):
    # a degree-one cochain is a source vector, not a direction matrix
    code, out = invoke(heisenberg_workspace_path, "class-equals", "--tensor", "T1",
                       "--degree", "1", "--direction", "T1", "--direction2", "T1")
    assert code == 1
    assert out.startswith("class-equals: ERROR ")


def test_equivalence_command(heisenberg_workspace_path):
    code, out = invoke(heisenberg_workspace_path, "check", "equivalence",
                       "--tensor", "T1", "--direction", "D1",
                       "--direction2", "Dzero", "--element", "1,0,0")
    assert code == 0


def test_equivalence_candidate_list(heisenberg_workspace_path):
    # candidates are tried in order; the report names the witness found
    code, out = invoke(heisenberg_workspace_path, "check", "equivalence",
                       "--tensor", "T1", "--direction", "D1",
                       "--direction2", "Dzero", "--element", "0,1,0;1,0,0")
    assert code == 0
    assert "witness: 1,0,0" in out
    code, out = invoke(heisenberg_workspace_path, "check", "equivalence",
                       "--tensor", "T1", "--direction", "D1",
                       "--direction2", "Dzero", "--element", "0,1,0;0,0,1")
    assert code == 1
    assert "no witness" in out


def test_nijenhuis_commands(heisenberg_workspace_path):
    for b in ("1,0,0", "0,1,0", "0,0,1"):
        code, _ = invoke(heisenberg_workspace_path, "check", "nijenhuis",
                         "--tensor", "T1", "--element", b)
        assert code == 0
        code, _ = invoke(heisenberg_workspace_path, "check", "nijenhuis-operator",
                         "--tensor", "T1", "--element", b)
        assert code == 0


def test_nijenhuis_operator_explicit_matrix(heisenberg_workspace_path):
    code, _ = invoke(heisenberg_workspace_path, "check", "nijenhuis-operator",
                     "--algebra", "h3", "--operator", "1,0,0;0,1,0;0,0,1")
    assert code == 0


def test_build_round_trip_preserves_structure_constants(heisenberg_workspace_path):
    code, out = invoke(heisenberg_workspace_path, "build", "descendent",
                       "--tensor", "T1", "--format", "json")
    assert code == 0
    built = json.loads(out)["object"]
    ws2 = workspace_from_dict({"algebras": {"again": built}})
    code2, out2 = invoke(heisenberg_workspace_path, "build", "descendent",
                         "--tensor", "T1", "--format", "json")
    assert json.loads(out2)["object"]["sc"] == built["sc"]
    assert ws2.algebra("again").flavor == "leibniz"


def test_output_file(tmp_path, heisenberg_workspace_path):
    target = tmp_path / "report.json"
    code, out = invoke(heisenberg_workspace_path, "check", "net", "--tensor", "T1",
                       "--format", "json", "--output", str(target))
    assert code == 0
    assert json.loads(target.read_text())["ok"] is True


def test_unwritable_output_is_usage_error(tmp_path, heisenberg_workspace_path, capsys):
    target = tmp_path / "missing" / "x"
    data = json.loads(Path(heisenberg_workspace_path).read_text())
    data["tensors"]["broken"] = {"action": "ad3",
                                 "matrix": [[0, 0, 1], [1, 0, 0], [2, 3, 0]]}
    ws = tmp_path / "ws.json"
    ws.write_text(json.dumps(data))
    # a passing check, then a construction that fails with a ToolkitError
    for argv in (("check", "net", "--tensor", "T1"),
                 ("build", "descendent", "--tensor", "broken")):
        code, out = invoke(ws, *argv, "--output", str(target))
        assert (code, out) == (2, "")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
    assert not target.parent.exists()


def test_byte_determinism_across_runs(heisenberg_workspace_path):
    commands = [
        ("check", "lie", "--algebra", "h3"),
        ("check", "net", "--tensor", "T1"),
        ("mc", "net", "--tensor", "Tii"),
        ("build", "hemisemidirect", "--action", "ad3"),
        ("build", "descendent", "--tensor", "T1"),
        ("cohomology", "--tensor", "Tzero", "--degree", "1"),
        ("class-equals", "--tensor", "T1", "--degree", "2",
         "--direction", "D1", "--direction2", "Dzero"),
    ]
    for fmt in ("text", "json"):
        first = [invoke(heisenberg_workspace_path, *c, "--format", fmt) for c in commands]
        second = [invoke(heisenberg_workspace_path, *c, "--format", fmt) for c in commands]
        assert first == second


def test_main_entry_point(heisenberg_workspace_path, capsys):
    code = main(["check", "net", "--tensor", "T1",
                 "--workspace", str(heisenberg_workspace_path)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
