import json
import os
import subprocess
import sys

import pytest

from einstein_lab import cli, conditions, potential
from einstein_lab.errors import UnreachableError
from einstein_lab.generators import lattice_box
from einstein_lab.graph import WeightedGraph, ball, load, save


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "einstein_lab.cli", *args],
                          capture_output=True, text=True, **kw)


@pytest.fixture(scope="module")
def z21_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "z21.txt"
    g, c = lattice_box(2, 21)
    save(g, path)
    return str(path), g, c


class TestGenerate:
    def test_lattice_counts_and_sidecar(self, tmp_path):
        out = tmp_path / "z41.txt"
        r = run_cli(["generate", "--family", "lattice", "--dim", "2",
                     "--side", "41", "--out", str(out)])
        assert r.returncode == 0
        assert "1681 vertices, 3280 edges" in r.stdout
        assert (tmp_path / "z41.txt.center").read_text().strip() == "840"
        g = load(out)
        assert g.vertex_count == 1681

    def test_sierpinski_level2(self, tmp_path):
        out = tmp_path / "g2.txt"
        r = run_cli(["generate", "--family", "sierpinski", "--level", "2",
                     "--out", str(out)])
        assert r.returncode == 0
        assert "15 vertices" in r.stdout

    def test_even_side_usage_error(self, tmp_path):
        r = run_cli(["generate", "--family", "lattice", "--side", "40",
                     "--out", str(tmp_path / "x.txt")])
        assert r.returncode == cli.EXIT_USAGE


class TestCompute:
    def test_exit_unit_ball(self, z21_file):
        path, g, c = z21_file
        r = run_cli(["compute", "exit", "--graph", path,
                     "--x", str(c), "--R", "1"])
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["result"]["E"] == 1.0
        assert out["manifest"]["graph"]["vertices"] == 441

    def test_resistance_matches_library(self, z21_file):
        path, g, c = z21_file
        r = run_cli(["compute", "resistance", "--graph", path,
                     "--A-ball", f"{c},2", "--B-ball", f"{c},5"])
        lib = potential.resistance(g, ball(g, c, 2), ball(g, c, 5))
        got = json.loads(r.stdout)["result"]["rho"]
        assert got == float(f"{lib:.12g}")

    def test_lambda_in_range(self, z21_file):
        path, g, c = z21_file
        r = run_cli(["compute", "lambda", "--graph", path,
                     "--ball", f"{c},4"])
        lam = json.loads(r.stdout)["result"]["lambda"]
        assert 0 < lam <= 1

    @pytest.mark.parametrize("quantity, given, flag", [
        ("exit", ["--R", "3"], "--x"),
        ("exit", ["--x", "0"], "--R"),
        ("resistance", [], "--A-ball"),
        ("resistance", ["--A-ball", "220,2"], "--B-ball"),
        ("green", ["--A-ball", "220,3", "--y", "220"], "--z"),
        ("green", ["--y", "220", "--z", "220"], "--A-ball"),
        ("lambda", [], "--ball"),
        ("harnack", ["--R", "2"], "--x"),
        ("hg", ["--x", "220"], "--R"),
    ])
    def test_missing_flag_usage_error(self, z21_file, capsys, quantity,
                                      given, flag):
        path, g, c = z21_file
        code = cli.main(["compute", quantity, "--graph", path, *given])
        assert code == cli.EXIT_USAGE
        assert flag in capsys.readouterr().err

    def test_margin_exit_code(self, z21_file):
        path, g, c = z21_file
        r = run_cli(["compute", "exit", "--graph", path,
                     "--x", str(c), "--R", "100"])
        assert r.returncode == cli.EXIT_MARGIN

    def test_convergence_exit_code(self, z21_file, monkeypatch):
        path, g, c = z21_file
        monkeypatch.setattr(potential, "EIGEN_MAXITER", 1)
        code = cli.main(["compute", "lambda", "--graph", path,
                         "--ball", f"{c},5"])
        assert code == cli.EXIT_CONVERGENCE

    def test_unreachable_exit_code(self, tmp_path, capsys):
        # the 1e-320 edge carries no current that float64 can resolve
        path = tmp_path / "path6.txt"
        save(WeightedGraph(6, [(i, i + 1, 1e-320 if i == 2 else 1.0)
                               for i in range(5)]), path)
        code = cli.main(["compute", "resistance", "--graph", str(path),
                         "--annulus", "1,0,3"])
        assert code == cli.EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("unreachable: ") and err.count("\n") == 1

    def test_missing_graph_usage(self):
        r = run_cli(["compute", "exit", "--graph", "/nonexistent",
                     "--x", "0", "--R", "1"])
        assert r.returncode == cli.EXIT_USAGE


class TestVerify:
    def test_unreachable_condition_skipped(self, z21_file, tmp_path,
                                           monkeypatch, capsys):
        path, g, c = z21_file
        measure = conditions.measure_condition

        def measure_or_unreachable(g, grid, tag, cache=None):
            if tag == "ER":
                raise UnreachableError("no current flows from source to sink")
            return measure(g, grid, tag, cache=cache)

        monkeypatch.setattr(conditions, "measure_condition",
                            measure_or_unreachable)
        code = cli.main(["verify", "--graph", path, "--out-dir",
                         str(tmp_path / "rep"), "--radii", "2"])
        assert code == cli.EXIT_OK
        assert "condition ER: skipped (no current" in capsys.readouterr().err
        rep = json.loads((tmp_path / "rep" / "verify.json").read_text())
        assert rep["conditions"]["ER"] is None
        assert rep["conditions"]["VD"] is not None

    def test_clean_graph_passes(self, z21_file, tmp_path):
        path, g, c = z21_file
        r = run_cli(["verify", "--graph", path, "--out-dir",
                     str(tmp_path / "rep"), "--radii", "2,4"])
        assert r.returncode == cli.EXIT_OK, r.stdout + r.stderr
        rep = json.loads((tmp_path / "rep" / "verify.json").read_text())
        assert all(c_["passed"] is not False for c_ in rep["inequalities"])
        assert "timestamp" in rep["manifest"]
        csv_text = (tmp_path / "rep" / "verify.csv").read_text()
        assert csv_text.startswith("check,x,r,R,detail,lhs,rhs,slack,ok")

    def test_corruption_hook_fails_with_witness(self, z21_file, tmp_path):
        path, g, c = z21_file
        r = run_cli(["verify", "--graph", path, "--out-dir",
                     str(tmp_path / "bad"), "--radii", "2"],
                    env={**os.environ,
                         "EINSTEIN_LAB_CORRUPT": f"{c},{c + 1},0.5"})
        assert r.returncode == cli.EXIT_VIOLATION, r.stdout + r.stderr
        assert "VIOLATION reversibility" in r.stdout, r.stdout + r.stderr
        assert f"at ({c}, {c + 1}" in r.stdout, r.stdout + r.stderr

    def test_empty_grid_margin_exit(self, tmp_path):
        g, c = lattice_box(1, 5)
        p = tmp_path / "tiny.txt"
        save(g, p)
        r = run_cli(["verify", "--graph", str(p), "--out-dir",
                     str(tmp_path / "rep"), "--radii", "32"])
        assert r.returncode == cli.EXIT_MARGIN


class TestEinsteinFit:
    def test_einstein_json_and_csv(self, z21_file, tmp_path):
        path, g, c = z21_file
        csv_out = tmp_path / "e.csv"
        r = run_cli(["einstein", "--graph", path, "--radii", "2,4",
                     "--csv", str(csv_out)])
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["summary"]["spread"] >= 1
        lines = csv_out.read_text().splitlines()
        assert lines[0] == "x,R,E2R,rho,v,Q"
        assert len(lines) == 1 + out["summary"]["cells"]

    def test_fit_emits_loglog_csvs(self, tmp_path):
        g, c = lattice_box(1, 129)
        p = tmp_path / "z1.txt"
        save(g, p)
        r = run_cli(["fit", "--graph", str(p), "--x", "center",
                     "--radii", "2..16", "--csv-prefix",
                     str(tmp_path / "f")])
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["beta"]["exponent"] == pytest.approx(2.0, abs=1e-6)
        for name in ("volume", "exit", "conductance"):
            lines = (tmp_path / f"f_{name}.csv").read_text().splitlines()
            assert lines[0] == f"log_R,log_{name}"
            assert len(lines) == 1 + len(out["beta"]["radii"])

    def test_fit_insufficient_radii_usage(self, z21_file):
        path, g, c = z21_file
        r = run_cli(["fit", "--graph", path, "--radii", "2,4"])
        assert r.returncode == cli.EXIT_USAGE


class TestMc:
    def test_deterministic_output(self, z21_file):
        path, g, c = z21_file
        args = ["mc", "--graph", path, "--x", str(c), "--R", "4",
                "--n", "2000", "--seed", "7"]
        a, b = run_cli(args), run_cli(args)
        assert a.stdout == b.stdout
        est = json.loads(a.stdout)["estimate"]
        assert est["n"] == 2000
        assert est["valid"] is True

    def test_twelve_significant_digits(self, z21_file):
        path, g, c = z21_file
        r = run_cli(["compute", "resistance", "--graph", path,
                     "--A-ball", f"{c},2", "--B-ball", f"{c},5"])
        rho = json.loads(r.stdout)["result"]["rho"]
        assert rho == float(f"{rho:.12g}")
