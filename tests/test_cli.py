import json
import subprocess
import sys

import numpy as np
import pytest

from prfeas.cli import (
    EXIT_DATA,
    EXIT_DUAL,
    EXIT_EPSILON,
    EXIT_REJECTED,
    EXIT_USAGE,
    dump_problem,
    load_problem,
    main,
)
from prfeas.oracle import FiniteLp, Sdp, Socp


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def axes_problem(tmp_path, name="axes.json"):
    return write_json(tmp_path / name, {
        "schema": 1, "type": "lp", "m": 2,
        "columns": [[1.0, 0.0], [0.0, 1.0]],
    })


def antipodal_problem(tmp_path, name="anti.json"):
    return write_json(tmp_path / name, {
        "schema": 1, "type": "lp", "m": 2,
        "columns": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
    })


def wedge_problem(tmp_path, name="wedge.json"):
    return write_json(tmp_path / name, {
        "schema": 1, "type": "lp", "m": 2,
        "columns": [[1.0, 1e-3], [-1.0, 1e-3]],
    })


class TestProblemFileFormat:
    def test_lp_round_trip(self):
        inst = FiniteLp(np.array([[1.0, -2.0, 0.5], [0.0, 1.0, 3.0]]))
        again = load_problem(dump_problem(inst))
        assert isinstance(again, FiniteLp)
        assert np.array_equal(again.columns, inst.columns)

    def test_sdp_round_trip(self):
        mats = np.array([[[1.0, 0.25], [0.25, 2.0]],
                         [[0.0, 1.0], [1.0, 0.0]]])
        inst = Sdp(mats)
        again = load_problem(dump_problem(inst))
        assert isinstance(again, Sdp)
        assert np.array_equal(again.matrices, inst.matrices)

    def test_socp_round_trip(self):
        inst = Socp(np.array([[1.0, 0.2, 0.0, 3.0],
                              [0.0, 1.0, 0.5, -1.0]]), blocks=(3, 1))
        again = load_problem(dump_problem(inst))
        assert isinstance(again, Socp)
        assert again.blocks == inst.blocks
        assert np.array_equal(again.A, inst.A)

    @pytest.mark.parametrize("doc", [
        [],
        {"schema": 2, "type": "lp", "m": 1, "columns": [[1.0]]},
        {"schema": 1, "type": "qp"},
        {"schema": 1, "type": "lp", "m": 2},
        {"schema": 1, "type": "lp", "m": 2, "columns": [[1.0], [1.0, 2.0]]},
        {"schema": 1, "type": "sdp", "m": 1, "n": 2,
         "matrices": [[[1.0, 0.0]]]},
        {"schema": 1, "type": "socp", "m": 1, "blocks": [2],
         "A": [1.0, 0.0]},
    ])
    def test_malformed_documents_rejected(self, doc):
        with pytest.raises(ValueError):
            load_problem(doc)

    @pytest.mark.parametrize("kind,doc", [
        ("problem", {"schema": 1, "type": "socp", "m": 1, "blocks": 5,
                     "A": [[1.0, 0.0, 0.0, 0.0, 0.0]]}),
        ("problem", {"schema": 1, "type": "lp", "m": None,
                     "columns": [[1.0]]}),
        ("problem", {"schema": 1, "type": "sdp", "m": 1, "n": [2],
                     "matrices": [[[1.0, 0.0], [0.0, 1.0]]]}),
        ("problem", {"schema": 1, "type": "lp", "m": float("inf"),
                     "columns": [[1.0]]}),
        ("certificate", {"schema": 1, "kind": "d", "y": {"a": 1}}),
        ("certificate", {"schema": 1, "kind": "p",
                         "weights": [{"witness": 5, "x": 1.0}]}),
        ("certificate", {"schema": 1, "kind": "p", "weights": [
            {"witness": {"type": "lp_index", "i": float("inf")},
             "x": 1.0}]}),
        ("problem", {"schema": 1, "type": "lp", "m": 2.7,
                     "columns": [[1.0, 0.0]]}),
        ("problem", {"schema": 1, "type": "lp", "m": True,
                     "columns": [[1.0]]}),
        ("problem", {"schema": 1, "type": "sdp", "m": 1, "n": 2.5,
                     "matrices": [[[1.0, 0.0], [0.0, 1.0]]]}),
        ("problem", {"schema": 1, "type": "socp", "m": 1, "blocks": [2.9],
                     "A": [[1.0, 0.0]]}),
        ("certificate", {"schema": 1, "kind": "p", "weights": [
            {"witness": {"type": "lp_index", "i": 1.9}, "x": 1.0}]}),
        ("certificate", {"schema": 1, "kind": "p", "weights": [
            {"witness": {"type": "lp_index", "i": True}, "x": 1.0}]}),
    ])
    def test_wrongly_typed_fields_are_data_errors(self, tmp_path, capsys,
                                                  kind, doc):
        path = write_json(tmp_path / "doc.json", doc)
        if kind == "problem":
            argv = ["solve", "--input", path]
        else:
            argv = ["verify", "--input", axes_problem(tmp_path),
                    "--certificate", path]
        code, out = invoke(capsys, *argv)
        assert code == EXIT_DATA
        assert "error" in json.loads(out)


class TestSolveCommand:
    def test_feasible_exit_zero(self, tmp_path, capsys):
        code, out = invoke(capsys, "solve", "--input",
                           axes_problem(tmp_path))
        report = json.loads(out)
        assert code == 0
        assert report["status"] == "feasible"
        assert report["verification"]["accepted"] is True
        assert report["wall_ms"] is None
        assert report["weights"] is None

    def test_dual_exit_one_and_certificate(self, tmp_path, capsys):
        cert_path = tmp_path / "out_cert.json"
        code, out = invoke(capsys, "solve", "--input",
                           antipodal_problem(tmp_path),
                           "--certificate", str(cert_path))
        report = json.loads(out)
        assert code == EXIT_DUAL
        assert report["status"] == "dual_certificate"
        assert report["y"] is None
        cert = json.loads(cert_path.read_text())
        assert cert["kind"] == "p"
        assert all(e["x"] > 0 for e in cert["weights"])
        code, out = invoke(capsys, "verify", "--input",
                           antipodal_problem(tmp_path),
                           "--certificate", str(cert_path))
        assert code == 0
        assert json.loads(out)["accepted"] is True

    def test_epsilon_exit_two(self, tmp_path, capsys):
        code, out = invoke(capsys, "solve", "--input",
                           wedge_problem(tmp_path), "--epsilon", "0.5")
        report = json.loads(out)
        assert code == EXIT_EPSILON
        assert report["status"] == "epsilon_declared"
        assert report["counters"]["rescalings"] == report["s_star"] == 4
        assert report["verification"] is None

    def test_timing_flag_fills_wall_ms(self, tmp_path, capsys):
        code, out = invoke(capsys, "solve", "--input",
                           axes_problem(tmp_path), "--timing")
        assert code == 0
        assert json.loads(out)["wall_ms"] > 0.0

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        prob = wedge_problem(tmp_path)
        _, first = invoke(capsys, "solve", "--input", prob)
        _, second = invoke(capsys, "solve", "--input", prob)
        assert first == second

    def test_invalid_epsilon_is_usage_error(self, tmp_path, capsys):
        code, out = invoke(capsys, "solve", "--input",
                           axes_problem(tmp_path), "--epsilon", "2.0")
        assert code == EXIT_USAGE
        assert "error" in json.loads(out)

    def test_negative_max_rescalings_is_usage_error(self, tmp_path, capsys):
        code, out = invoke(capsys, "solve", "--input",
                           axes_problem(tmp_path), "--max-rescalings", "-3")
        assert code == EXIT_USAGE
        assert "error" in json.loads(out)

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code, out = invoke(capsys, "solve", "--input",
                           str(tmp_path / "nope.json"))
        assert code == EXIT_DATA
        assert "error" in json.loads(out)

    def test_unparseable_json_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, out = invoke(capsys, "solve", "--input", str(bad))
        assert code == EXIT_DATA
        assert "error" in json.loads(out)


class TestVerifyCommand:
    def test_rejected_certificate_exit_three(self, tmp_path, capsys):
        cert = write_json(tmp_path / "c.json",
                          {"schema": 1, "kind": "d", "y": [1.0, 0.0]})
        code, out = invoke(capsys, "verify", "--input",
                           axes_problem(tmp_path), "--certificate", cert)
        assert code == EXIT_REJECTED
        assert json.loads(out)["accepted"] is False

    def test_kind_mismatch_is_data_error(self, tmp_path, capsys):
        cert = write_json(tmp_path / "c.json",
                          {"schema": 1, "kind": "d", "y": [1.0, 1.0]})
        code, _ = invoke(capsys, "verify", "--input",
                         axes_problem(tmp_path), "--certificate", cert,
                         "--kind", "p")
        assert code == EXIT_DATA

    def test_nonpositive_weight_is_data_error(self, tmp_path, capsys):
        cert = write_json(tmp_path / "c.json", {
            "schema": 1, "kind": "p",
            "weights": [{"witness": {"type": "lp_index", "i": 0},
                         "x": -1.0}],
        })
        code, _ = invoke(capsys, "verify", "--input",
                         antipodal_problem(tmp_path),
                         "--certificate", cert)
        assert code == EXIT_DATA

    def test_cross_kind_witness_is_data_error(self, tmp_path, capsys):
        sdp = write_json(tmp_path / "sdp.json", {
            "schema": 1, "type": "sdp", "m": 1, "n": 1,
            "matrices": [[[1.0]]],
        })
        cert = write_json(tmp_path / "c.json", {
            "schema": 1, "kind": "p",
            "weights": [{"witness": {"type": "lp_index", "i": 0},
                         "x": 1.0}],
        })
        code, _ = invoke(capsys, "verify", "--input", sdp,
                         "--certificate", cert)
        assert code == EXIT_DATA

    def test_unknown_witness_type_is_data_error(self, tmp_path, capsys):
        cert = write_json(tmp_path / "c.json", {
            "schema": 1, "kind": "p",
            "weights": [{"witness": {"type": "mystery"}, "x": 1.0}],
        })
        code, _ = invoke(capsys, "verify", "--input",
                         antipodal_problem(tmp_path),
                         "--certificate", cert)
        assert code == EXIT_DATA


class TestGenerateCommand:
    def test_emits_problem_document(self, capsys):
        code, out = invoke(capsys, "generate", "--kind", "socp",
                           "--m", "2", "--n", "6", "--seed", "9")
        doc = json.loads(out)
        assert code == 0
        assert doc["type"] == "socp"
        assert sum(doc["blocks"]) == 6
        load_problem(doc)

    def test_written_files_solve_and_verify(self, tmp_path, capsys):
        prob = tmp_path / "p.json"
        cert = tmp_path / "c.json"
        code, out = invoke(capsys, "generate", "--kind", "sdp",
                           "--m", "3", "--n", "4", "--seed", "2",
                           "--target", "feasible_p",
                           "--output", str(prob),
                           "--certificate", str(cert))
        assert code == 0
        assert json.loads(out)["written"]["problem"] == str(prob)
        code, out = invoke(capsys, "verify", "--input", str(prob),
                           "--certificate", str(cert), "--kind", "p")
        assert code == 0
        assert json.loads(out)["accepted"] is True

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        _, first = invoke(capsys, "generate", "--kind", "lp",
                          "--m", "3", "--n", "8", "--seed", "4")
        _, second = invoke(capsys, "generate", "--kind", "lp",
                           "--m", "3", "--n", "8", "--seed", "4")
        assert first == second

    def test_unsatisfiable_request_is_data_error(self, capsys):
        code, _ = invoke(capsys, "generate", "--kind", "sdp",
                         "--m", "2", "--n", "1",
                         "--target", "feasible_p")
        assert code == EXIT_DATA


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert invoke(capsys, )[0] == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert invoke(capsys, "solve", "--frobnicate")[0] == EXIT_USAGE

    def test_missing_required_argument(self, capsys):
        assert invoke(capsys, "solve")[0] == EXIT_USAGE

    def test_bad_choice(self, capsys):
        assert invoke(capsys, "generate", "--kind", "milp",
                      "--m", "2", "--n", "2")[0] == EXIT_USAGE

    def test_solve_help_lists_no_mode(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--max-rescalings" in out
        assert "--mode" not in out


class TestModuleEntry:
    def test_subprocess_single_json_document(self, tmp_path):
        prob = axes_problem(tmp_path)
        res = subprocess.run(
            [sys.executable, "-m", "prfeas.cli", "solve",
             "--input", prob, "--log-level", "info"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        report = json.loads(res.stdout)  # stdout is exactly one document
        assert report["status"] == "feasible"
        assert "solve finished" in res.stderr

    def test_help_exits_zero(self):
        res = subprocess.run(
            [sys.executable, "-m", "prfeas.cli", "--help"],
            capture_output=True, text=True,
        )
        assert res.returncode == 0
        assert "solve" in res.stdout and "verify" in res.stdout
