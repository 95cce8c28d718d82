import json
import math
import os
import re
import shlex
import subprocess
import sys
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


GAP_FILES = ("--instance", "g_instance.nae", "--vectors", "g_vectors.txt")


MANIFEST_CASES = [
    (("ratio", "--problem", "maxcut", "--grid", "3", "--N", "20", "--coarse-N", "10",
      "--rounds", "0"), "ratio", "naeopt_ratio_maxcut",
     ["_function.csv", "_ratio.json"], {"problem", "N", "grid", "rounds", "coarse_N"}),
    (("curve", "--problem", "nae3", "--grid", "3", "--N", "10"), "curve",
     "naeopt_curve_nae3", ["_points.csv", "_envelope.csv", "_summary.json"],
     {"problem", "N", "grid"}),
    (("bound", "nae35"), "bound", "naeopt_bound_nae35", ["_bound.json"], {"target"}),
    (("gap", "gen", "--n", "12", "--m3", "5", "--m5", "5"), "gap gen", "naeopt_gap_n12",
     ["_instance.nae", "_vectors.txt", "_gen.json"],
     {"gap_sub", "n", "m3", "m5", "seed"}),
    (("gap", "eval", *GAP_FILES, "--trials", "2"), "gap eval", "naeopt_gap_eval",
     ["_eval.json"], {"gap_sub", "instance", "vectors", "p1", "p2", "trials", "seed"}),
    (("stepopt", "--K", "3,5", "--restarts", "1"), "stepopt", "naeopt_stepopt",
     ["_table.csv", "_result.json"], {"K", "steps", "pm1", "restarts", "seed"}),
    (("sweep", "--base", "sign", "--K", "3,5", "--range", "3:4:0.5"), "sweep",
     "naeopt_sweep", ["_sweep.csv"], {"base", "K", "range"}),
    (("hermite", "boundary", "--angles", "4"), "hermite boundary", "naeopt_hermite_p2",
     ["_boundary.csv"], {"hermite_sub", "k", "angles"}),
    (("round", *GAP_FILES, "--f", "sign", "--rounds", "2"), "round", "naeopt_round",
     ["_round.json"], {"instance", "vectors", "f", "rounds", "seed"}),
    (("witness", "f4neg", "--samples", "10"), "witness f4neg", "naeopt_witness_f4neg",
     ["_witness.json"], {"target", "delta", "eps", "samples", "seed"}),
]


class TestManifests:
    """Each subcommand at a tiny size with no --out: its name, default
    prefix, outputs and recorded parameters."""

    @pytest.mark.parametrize("argv, name, prefix, suffixes, keys", MANIFEST_CASES,
                             ids=[case[1] for case in MANIFEST_CASES])
    def test_default_prefix_and_manifest(self, tmp_path, argv, name, prefix, suffixes, keys):
        assert run(tmp_path, "gap", "gen", "--n", "12", "--m3", "5", "--m5", "5",
                   "--out", "g") == 0
        assert run(tmp_path, *argv) == 0
        manifest = read_json(tmp_path / f"{prefix}.manifest.json")
        assert list(manifest) == ["subcommand", "parameters", "seed", "version", "outputs",
                                  "wall_clock_s"]
        assert manifest["subcommand"] == name
        assert manifest["outputs"] == [prefix + s for s in suffixes]
        assert all((tmp_path / p).exists() for p in manifest["outputs"])
        assert set(manifest["parameters"]) == keys | {"threads", "sub"}
        assert manifest["parameters"]["sub"] == argv[0]
        assert manifest["seed"] == manifest["parameters"].get("seed")


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

    @pytest.mark.parametrize("command", ["round", "gap eval"])
    def test_sparse_index_beyond_int64_exits_2(self, tmp_path, capsys, command):
        pre = str(tmp_path / "g")
        assert run(tmp_path, "gap", "gen", "--n", "12", "--m3", "5", "--m5", "5",
                   "--out", pre) == 0
        num_vars = int(Path(pre + "_vectors.txt").read_text().split()[1])
        (tmp_path / "big.txt").write_text(
            f"v {num_vars} 99999999999999999999\n1 s 1:+1 2:+1 10000000000000000000:+1\n"
            + "".join(f"{v} s 1:+1 2:+1 3:+1\n" for v in range(2, num_vars + 1)))
        extra = ("--f", "sign") if command == "round" else ("--trials", "2")
        assert run(tmp_path, *command.split(), "--instance", pre + "_instance.nae",
                   "--vectors", "big.txt", *extra, "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["round", "gap eval"])
    def test_instance_without_clauses_exits_2(self, tmp_path, capsys, command):
        (tmp_path / "i.nae").write_text("p nae 1 0\n")
        (tmp_path / "v.txt").write_text("v 1 3\n1 s 1:+1 2:+1 3:+1\n")
        extra = ("--f", "sign", "--rounds", "2") if command == "round" else ("--trials", "2")
        assert run(tmp_path, *command.split(), "--instance", "i.nae", "--vectors", "v.txt",
                   *extra, "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "no clauses" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["round", "gap eval"])
    @pytest.mark.parametrize("bad", ["i.nae", "v.txt"])
    def test_undecodable_input_exits_2(self, tmp_path, capsys, command, bad):
        (tmp_path / "i.nae").write_text("p nae 3 1\n1.0 3 1 2 3\n")
        (tmp_path / "v.txt").write_text("v 3 6\n1 s 1:+1 2:+1 3:+1\n2 s 1:+1 2:+1 4:+1\n"
                                        "3 s 1:+1 2:+1 5:+1\n")
        (tmp_path / bad).write_bytes(b"\xff\xfe")
        extra = ("--f", "sign", "--rounds", "2") if command == "round" else ("--trials", "2")
        assert run(tmp_path, *command.split(), "--instance", "i.nae", "--vectors", "v.txt",
                   *extra, "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert f"{bad} is not text" in err and "Traceback" not in err
        assert not (tmp_path / "x.manifest.json").exists()

    def test_dimension_numpy_cannot_hold_exits_2(self, tmp_path, capsys):
        (tmp_path / "i.nae").write_text("p nae 1 0\n")
        (tmp_path / "v.txt").write_text("v 1 99999999999999999999\n1 s 1:+1 2:+1 3:+1\n")
        assert run(tmp_path, "round", "--instance", "i.nae", "--vectors", "v.txt", "--f", "sign",
                   "--out", str(tmp_path / "x")) == 2
        err = capsys.readouterr().err
        assert "dimension 99999999999999999999" in err and "Traceback" not in err

    def test_bad_thread_count_in_the_environment_is_a_usage_error(self, tmp_path, capsys,
                                                                  monkeypatch):
        monkeypatch.setenv("NAEOPT_THREADS", "x")
        assert run(tmp_path, "bound", "nae35", "--out", str(tmp_path / "b")) == 1
        err = capsys.readouterr().err
        assert "invalid int value: 'x'" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, env", [(("--threads", "0"), None),
                                           (("--threads", "-1"), None), ((), "0")],
                             ids=["flag-0", "flag-minus-1", "env-0"])
    def test_thread_count_below_one_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                     flag, env):
        if env is not None:
            monkeypatch.setenv("NAEOPT_THREADS", env)
        assert run(tmp_path, *flag, "bound", "nae35", "--out", str(tmp_path / "b")) == 1
        err = capsys.readouterr().err
        assert "must be at least 1" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

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
        ("curve", "--problem", "nae3", "--grid", "2", "--N", "-2"),
        ("ratio", "--problem", "nae3", "--grid", "2", "--N", "-4"),
        ("ratio", "--problem", "nae3", "--grid", "2", "--rounds", "-1"),
        ("stepopt", "--K", "3,2000", "--steps", "2", "--pm1"),
        ("stepopt", "--K", "99999999999", "--steps", "1"),
        ("sweep", "--base", "sign", "--K", "3,5", "--range", "0.5:0.6:1e-300"),
        ("witness", "f4neg", "--samples", "1"),
        ("ratio", "--problem", "nae3", "--grid", "150", "--N", "-4"),
        ("curve", "--problem", "maxcut", "--grid", "1", "--N", "10"),
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
        ("sweep", "--base", "sign", "--K", "3,5", "--range", "1:0:0.1"),
    ])
    def test_malformed_flags_are_usage_errors(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "1.5"])
    @pytest.mark.parametrize("command", [
        ("stepopt", "--K", "3,5"),
        ("gap", "gen", "--n", "12", "--m3", "5", "--m5", "5"),
        ("gap", "eval", "--instance", "g_instance.nae", "--vectors", "g_vectors.txt"),
        ("round", "--instance", "g_instance.nae", "--vectors", "g_vectors.txt", "--f", "sign"),
        ("witness", "f4neg", "--samples", "10"),
    ], ids=lambda c: " ".join(c[:2]))
    def test_seed_outside_uint64_is_a_usage_error(self, tmp_path, capsys, command, seed):
        assert run(tmp_path, *command, "--seed", seed, "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        assert f"invalid seed value: '{seed}'" in err and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_largest_seed_runs(self, tmp_path):
        top = str(2**64 - 1)
        pre = str(tmp_path / "g")
        assert run(tmp_path, "gap", "gen", "--n", "12", "--m3", "5", "--m5", "5",
                   "--seed", top, "--out", pre) == 0
        files = ("--instance", pre + "_instance.nae", "--vectors", pre + "_vectors.txt")
        assert run(tmp_path, "gap", "eval", *files, "--trials", "2", "--seed", top,
                   "--out", str(tmp_path / "e")) == 0
        assert run(tmp_path, "round", *files, "--f", "sign", "--rounds", "2", "--seed", top,
                   "--out", str(tmp_path / "r")) == 0
        assert run(tmp_path, "stepopt", "--K", "3,5", "--restarts", "1", "--seed", top,
                   "--out", str(tmp_path / "s")) == 0
        assert run(tmp_path, "witness", "f4neg", "--samples", "10", "--seed", top,
                   "--out", str(tmp_path / "w")) == 0
        assert read_json(pre + ".manifest.json")["seed"] == 2**64 - 1

    @pytest.mark.parametrize("angles", ["0", "-5"])
    def test_hermite_boundary_needs_an_angle(self, tmp_path, capsys, angles):
        assert run(tmp_path, "hermite", "boundary", "--angles", angles,
                   "--out", str(tmp_path / "h")) == 2
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "h_boundary.csv").exists()


def test_import_loads_no_scipy_optimize():
    """The CLI's cold start must not pay for scipy's optimize package (about
    23 MB and 0.25 s of every run's set-up); a later import of it under src fails here."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = ("import sys, naeopt.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


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
