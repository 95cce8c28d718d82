import json
import math
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from naeopt.cli import _build_parser, main, parse_f_spec
from naeopt import hardness
from naeopt.errors import DomainError, StructuralError

README = Path(__file__).resolve().parent.parent / "README.md"


def run(tmp_path, *argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestFSpec:
    def test_sign(self):
        f = parse_f_spec("sign")
        assert f.breakpoints == () and f.values == (1.0,)

    def test_inline_json(self):
        f = parse_f_spec('{"a": [2.0], "b": [-1, 1]}')
        assert f.breakpoints == (2.0,) and f.values == (-1.0, 1.0)

    @pytest.mark.parametrize("spec", ["slin:nan", "slin:inf", "slin:-inf", "slin:0",
                                      "slin:abc"])
    def test_slinear_needs_positive_finite_slope(self, spec):
        with pytest.raises(DomainError):
            parse_f_spec(spec)

    @pytest.mark.parametrize("spec", ['{"a": [1.0]}', '{"a": [1.0], "b": [1',
                                      '{"a": "x", "b": [1, 1]}', '{"a": 2, "b": [1, 1]}',
                                      '{"a": [], "b": "x"}', '{"a": "12", "b": [0, 1, 1]}',
                                      '{"a": [1.0], "b": [true, 1]}', '{"a": [1.0], "b": [0, "1"]}',
                                      pytest.param('{"a": [1' + '0' * 400 + '], "b": [0, 1]}',
                                                   id="huge-int")])
    def test_malformed_json_is_structural(self, spec):
        with pytest.raises(StructuralError):
            parse_f_spec(spec)

    def test_unreadable_path_is_structural(self, tmp_path):
        for spec in (str(tmp_path / "missing.json"), str(tmp_path), "sgin"):
            with pytest.raises(StructuralError, match="readable file"):
                parse_f_spec(spec)

    def test_file(self, tmp_path):
        p = tmp_path / "f.json"
        p.write_text('{"a": [1.5], "b": [0.5, 1.0]}')
        f = parse_f_spec(str(p))
        assert f.values == (0.5, 1.0)

    def test_slinear(self):
        f = parse_f_spec("slin:4.072")
        xs = np.array([0.05, 0.1, 0.2, 0.3, -0.15])
        assert np.max(np.abs(f(xs) - np.clip(4.072 * xs, -1, 1))) < 0.01


class TestBound:
    def test_bound_json(self, tmp_path):
        assert run(tmp_path, "bound", "nae35", "--out", str(tmp_path / "b")) == 0
        payload = read_json(tmp_path / "b_bound.json")
        assert abs(payload["bound"] - hardness.BOUND) < 1e-9
        assert payload["below_seven_eighths"] is True
        manifest = read_json(tmp_path / "b.manifest.json")
        assert manifest["subcommand"] == "bound"
        assert str(tmp_path / "b_bound.json") in manifest["outputs"]


class TestGapCommands:
    def test_gen_and_eval(self, tmp_path):
        pre = str(tmp_path / "g")
        assert run(tmp_path, "gap", "gen", "--n", "24", "--m3", "60", "--m5", "60",
                   "--seed", "3", "--out", pre) == 0
        assert run(tmp_path, "gap", "eval", "--instance", pre + "_instance.nae",
                   "--vectors", pre + "_vectors.txt", "--trials", "8",
                   "--seed", "1", "--out", str(tmp_path / "e")) == 0
        payload = read_json(tmp_path / "e_eval.json")
        assert 0.8 < payload["fraction"] < 0.95
        assert abs(payload["p1"] - (1 - 2 * math.sqrt(2 * math.sqrt(21) - 9))) < 1e-8

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_eval_without_trials_exits_2(self, tmp_path, capsys, trials):
        pre = str(tmp_path / "g")
        assert run(tmp_path, "gap", "gen", "--n", "12", "--m3", "5", "--m5", "5",
                   "--out", pre) == 0
        assert run(tmp_path, "gap", "eval", "--instance", pre + "_instance.nae",
                   "--vectors", pre + "_vectors.txt", "--trials", trials,
                   "--out", str(tmp_path / "e")) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "e_eval.json").exists()


class TestStepoptSweepHermite:
    def test_stepopt_row(self, tmp_path):
        assert run(tmp_path, "stepopt", "--K", "3,5", "--steps", "2", "--pm1",
                   "--restarts", "3", "--seed", "2",
                   "--out", str(tmp_path / "s")) == 0
        payload = read_json(tmp_path / "s_result.json")
        assert abs(payload["objective"] - 0.872886331) < 1e-4
        rows = (tmp_path / "s_table.csv").read_text().splitlines()
        assert rows[0].split(",")[0] == "objective"

    def test_sweep_csv(self, tmp_path):
        assert run(tmp_path, "sweep", "--base", '{"a": [2.275193649], "b": [-1, 1]}',
                   "--K", "3,5", "--range", "6:7:0.5",
                   "--out", str(tmp_path / "w")) == 0
        rows = (tmp_path / "w_sweep.csv").read_text().splitlines()
        assert rows[0] == "position,p3,p5"
        assert len(rows) == 4

    def test_hermite_boundary(self, tmp_path):
        assert run(tmp_path, "hermite", "boundary", "--k", "2", "--angles", "16",
                   "--out", str(tmp_path / "h")) == 0
        rows = (tmp_path / "h_boundary.csv").read_text().splitlines()
        assert rows[0] == "angle,c1,c3"
        assert len(rows) == 17


class TestRound:
    def test_round_gap_instance(self, tmp_path):
        pre = str(tmp_path / "g")
        run(tmp_path, "gap", "gen", "--n", "24", "--m3", "40", "--m5", "40",
            "--seed", "4", "--out", pre)
        assert run(tmp_path, "round", "--instance", pre + "_instance.nae",
                   "--vectors", pre + "_vectors.txt", "--f",
                   '{"a": [2.275193649], "b": [-1, 1]}', "--rounds", "24",
                   "--seed", "5", "--out", str(tmp_path / "r")) == 0
        payload = read_json(tmp_path / "r_round.json")
        assert payload["rounds"] == 24
        assert payload["fraction"] >= payload["baseline"] - 0.05
        assert payload["f_spec"]["b"] == [-1, 1]

    def test_round_with_slin(self, tmp_path):
        pre = str(tmp_path / "g2")
        run(tmp_path, "gap", "gen", "--n", "24", "--m3", "30", "--m5", "30",
            "--seed", "6", "--out", pre)
        assert run(tmp_path, "round", "--instance", pre + "_instance.nae",
                   "--vectors", pre + "_vectors.txt", "--f", "slin:4.072",
                   "--rounds", "10", "--seed", "7",
                   "--out", str(tmp_path / "r2")) == 0


class TestCurveRatioSmall:
    def test_curve_small(self, tmp_path):
        assert run(tmp_path, "curve", "--problem", "nae3", "--grid", "5",
                   "--N", "50", "--out", str(tmp_path / "c")) == 0
        rows = (tmp_path / "c_points.csv").read_text().splitlines()
        assert rows[0].startswith("problem,alpha,rho")
        assert len(rows) == 1 + 5 * 5 * 2
        summary = read_json(tmp_path / "c_summary.json")
        assert 0.89 < summary["min_ratio"] < 0.93

    def test_ratio_small(self, tmp_path):
        assert run(tmp_path, "ratio", "--problem", "maxcut", "--grid", "9",
                   "--N", "100", "--coarse-N", "50", "--rounds", "1",
                   "--out", str(tmp_path / "q")) == 0
        payload = read_json(tmp_path / "q_ratio.json")
        assert abs(payload["ratio"] - 0.8786) < 5e-3
        assert (tmp_path / "q_function.csv").exists()


class TestWitnessCommand:
    def test_small_run(self, tmp_path):
        assert run(tmp_path, "witness", "f4neg", "--delta", "0.1", "--eps", "0.2",
                   "--samples", "200000", "--seed", "2",
                   "--out", str(tmp_path / "v")) == 0
        payload = read_json(tmp_path / "v_witness.json")
        assert payload["estimate"] <= 0.0
        assert payload["estimate"] == -payload["determined"] / payload["samples"]
        assert payload["bias_first_row"] > 0 and payload["bias_petals"] > 0

    @pytest.mark.parametrize("eps", ["nan", "inf", "0"])
    def test_eps_outside_the_domain_exits_2(self, tmp_path, capsys, eps):
        assert run(tmp_path, "witness", "f4neg", "--delta", "0.1", "--eps", eps,
                   "--samples", "1000", "--out", str(tmp_path / "v")) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "v_witness.json").exists()


class TestExitCodes:
    def test_usage_error(self, tmp_path):
        assert run(tmp_path, "bound", "unknown-target") == 1
        assert run(tmp_path, "witness", "bogus") == 1
        assert run(tmp_path, "nonsense") == 1

    def test_numeric_error(self, tmp_path):
        assert run(tmp_path, "witness", "f4neg", "--delta", "0.9",
                   "--samples", "10", "--out", str(tmp_path / "x")) == 2

    def test_missing_file(self, tmp_path):
        assert run(tmp_path, "round", "--instance", "nope.nae", "--vectors",
                   "nope.txt", "--f", "sign") == 2

    def test_ratio_grid_too_small(self, tmp_path, capsys):
        assert run(tmp_path, "ratio", "--problem", "maxcut", "--grid", "1",
                   "--out", str(tmp_path / "q")) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("sweep", "--base", "slin:nan", "--K", "3,5", "--range", "3:4:0.5"),
        ("sweep", "--base", "slin:inf", "--K", "3,5", "--range", "3:4:0.5"),
        ("stepopt", "--K", "3,5", "--restarts", "0"),
        ("sweep", "--base", '{"a": [1.0]}', "--K", "3,5", "--range", "3:4:0.5"),
        ("sweep", "--base", '{"a": "12", "b": [0, 1, 1]}', "--K", "3,5", "--range", "3:4:0.5"),
        ("sweep", "--base", "missing.json", "--K", "3,5", "--range", "3:4:0.5"),
    ])
    def test_bad_values_exit_2(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("stepopt", "--K", "x"),
        ("stepopt", "--K", "3,,5"),
        ("sweep", "--base", "sign", "--K", "3,5", "--range", "1:2"),
        ("sweep", "--base", "sign", "--K", "3,5", "--range", "1:2:0"),
        ("sweep", "--base", "sign", "--K", "3,x", "--range", "3:4:0.5"),
    ])
    def test_malformed_flags_are_usage_errors(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 1
        assert "Traceback" not in capsys.readouterr().err


def _readme_commands():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("naeopt ")]


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 15
    parser = _build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line
