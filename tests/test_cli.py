import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from einstein_lab import cli, conditions, graph, potential
from einstein_lab.errors import UnreachableError
from einstein_lab.generators import lattice_box
from einstein_lab.graph import WeightedGraph, ball, load, save
from test_graph import _corrupt_graph
from test_potential import count_factors, split_path, subnormal_tail


def run_cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "einstein_lab.cli", *args],
                          capture_output=True, text=True, **kw)


@pytest.fixture(scope="module")
def z21_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "z21.txt"
    g, c = lattice_box(2, 21)
    save(g, path)
    return str(path), g, c


def load_corrupted(monkeypatch, c):
    """Make every graph the CLI loads carry 0.5 more on the stored weight
    of c -> c+1 alone: a walk that is not reversible, which no graph file
    can give."""
    plain = graph.load
    monkeypatch.setattr(graph, "load", lambda path: _corrupt_graph(
        plain(path), c, c + 1, 0.5))


@pytest.fixture(scope="module")
def split_path_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "split65.txt"
    save(split_path(), path)
    return str(path)


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

    @pytest.mark.parametrize("family, flag", [
        (["lattice"], "--side"), (["sierpinski"], "--level"),
        (["vicsek"], "--level"), (["binary_tree"], "--depth"),
        (["sierpinski", "--side", "5"], "--level")],
        ids=["lattice", "sierpinski", "vicsek", "binary_tree",
             "sierpinski-side"])
    def test_missing_size_flag_usage_error(self, tmp_path, capsys, family,
                                           flag):
        out = tmp_path / "x.txt"
        code = cli.main(["generate", "--family", *family, "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == \
            f"error: generate --family {family[0]} needs {flag}\n"
        assert not out.exists()

    @pytest.mark.parametrize("given, message", [
        (["lattice", "--side", "15", "--lambda", "0.5"],
         "generate --weight-rule unit does not read --lambda"),
        (["sierpinski", "--level", "3", "--dim", "3"],
         "generate --family sierpinski does not read --dim"),
        (["sierpinski", "--level", "3", "--side", "9"],
         "generate --family sierpinski does not read --side"),
        (["binary_tree", "--depth", "3", "--level", "5"],
         "generate --family binary_tree does not read --level"),
    ], ids=["lattice-lambda", "sierpinski-dim", "sierpinski-side",
            "binary_tree-level"])
    def test_unread_flag_usage_error(self, tmp_path, capsys, given, message):
        out = tmp_path / "x.txt"
        code = cli.main(["generate", "--family", *given, "--out", str(out)])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_family_dispatch(self, tmp_path, capsys):
        out = str(tmp_path / "g.txt")
        assert cli.main(["generate", "--family", "sierpinski", "--level", "2",
                         "--out", out]) == cli.EXIT_OK
        assert load(out).vertex_count == 15
        assert cli.main(["generate", "--family", "lattice", "--dim", "1",
                         "--side", "5", "--weight-rule", "radial",
                         "--lambda", "0.5", "--out", out]) == cli.EXIT_OK
        assert np.isclose(load(out).mu.sum(), 2 * (0.5 + 1 + 1 + 0.5))
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--family", "moebius", "--level", "3",
                      "--out", out])
        assert exc.value.code == cli.EXIT_USAGE
        assert "invalid choice: 'moebius'" in capsys.readouterr().err


class TestCompute:
    def test_json_follows_redirected_stdout(self, z21_file):
        # a library caller that swaps sys.stdout gets the JSON
        path, g, c = z21_file
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["compute", "exit", "--graph", path,
                             "--x", str(c), "--R", "3"])
        assert code == cli.EXIT_OK
        E = potential.mean_exit_time(g, c, 3)
        assert json.loads(buf.getvalue())["result"]["E"] == float(f"{E:.12g}")

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
        # a malformed ball flag is named with its value and its fields
        ("resistance", ["--annulus", "220,2"],
         "error: --annulus 220,2: need x,r,R"),
        ("resistance", ["--annulus", "220,2,4,8"],
         "error: --annulus 220,2,4,8: need x,r,R"),
        ("resistance", ["--A-ball", "220", "--B-ball", "220,5"],
         "error: --A-ball 220: need x,r"),
        ("resistance", ["--A-ball", "220,2", "--B-ball", "220,5,1"],
         "error: --B-ball 220,5,1: need x,r"),
        ("green", ["--A-ball", "220,r", "--y", "220", "--z", "220"],
         "error: --A-ball 220,r: need x,r"),
        ("lambda", ["--ball", "220,"], "error: --ball 220,: need x,r"),
    ])
    def test_missing_flag_usage_error(self, z21_file, capsys, quantity,
                                      given, flag):
        path, g, c = z21_file
        code = cli.main(["compute", quantity, "--graph", path, *given])
        assert code == cli.EXIT_USAGE
        assert flag in capsys.readouterr().err

    def test_out_of_range_center_of_empty_ball(self, tmp_path, capsys):
        # B(99999, 0) is empty, but its center is checked first
        path = str(tmp_path / "z9.txt")
        save(lattice_box(2, 9)[0], path)
        code = cli.main(["compute", "resistance", "--graph", path,
                         "--A-ball", "99999,0", "--B-ball", "40,3"])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == \
            "error: vertex id 99999 out of range\n"

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

    @pytest.mark.parametrize("given", [["lambda", "--ball", "32,8"],
                                       ["exit", "--x", "32", "--R", "8"]])
    def test_singular_factor_exit_code(self, split_path_file, capsys, given):
        code = cli.main(["compute", given[0], "--graph", split_path_file,
                         *given[1:]])
        assert code == cli.EXIT_CONVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("convergence error: LU factor of 15 unknowns")
        assert "exactly singular" in err and err.count("\n") == 1

    def test_nan_solve_exit_code(self, tmp_path, capsys):
        path = tmp_path / "tail5.txt"
        save(subnormal_tail(), path)
        code = cli.main(["compute", "exit", "--graph", str(path),
                         "--x", "2", "--R", "2"])
        assert code == cli.EXIT_CONVERGENCE
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("convergence error: linear solve on 3 unknowns "
                           "missed the residual contract (residual=nan)\n")

    @pytest.mark.parametrize("y", ["-1", "129"])
    def test_green_vertex_outside_region(self, tmp_path, capsys, y):
        path = tmp_path / "z1.txt"
        save(lattice_box(1, 129)[0], path)
        code = cli.main(["compute", "green", "--graph", str(path),
                         "--A-ball", "128,3", "--y", y, "--z", "128"])
        assert code == cli.EXIT_USAGE
        assert f"error: vertex {y} not in region" in capsys.readouterr().err

    def test_missing_graph_usage(self):
        r = run_cli(["compute", "exit", "--graph", "/nonexistent",
                     "--x", "0", "--R", "1"])
        assert r.returncode == cli.EXIT_USAGE


class TestVerify:
    def test_unreachable_condition_skipped(self, z21_file, tmp_path,
                                           monkeypatch, capsys):
        path, g, c = z21_file
        measure = conditions.measure_condition

        def measure_or_unreachable(g, grid, tag):
            if tag == "ER":
                raise UnreachableError("no current flows from source to sink")
            return measure(g, grid, tag)

        monkeypatch.setattr(conditions, "measure_condition",
                            measure_or_unreachable)
        code = cli.main(["verify", "--graph", path, "--out-dir",
                         str(tmp_path / "rep"), "--radii", "2"])
        assert code == cli.EXIT_OK
        assert "condition ER: skipped (no current" in capsys.readouterr().err
        rep = json.loads((tmp_path / "rep" / "verify.json").read_text())
        assert rep["conditions"]["ER"] is None
        assert rep["conditions"]["VD"] is not None

    def test_singular_factor_solver_rows(self, split_path_file, tmp_path):
        code = cli.main(["verify", "--graph", split_path_file, "--centers",
                         "32", "--out-dir", str(tmp_path / "rep")])
        assert code == cli.EXIT_VIOLATION
        rows = (tmp_path / "rep" / "verify.csv").read_text().splitlines()
        assert any(row.startswith("llrv,32,") and
                   "solver: LU factor of" in row and
                   "exactly singular" in row for row in rows)

    def test_subnormal_crossing_witness(self, split_path_file, tmp_path,
                                        capsys):
        # the pra>l2 witness must name a failing cell, not the passing
        # (32, 8, 16), and the overflow must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["verify", "--graph", split_path_file,
                             "--centers", "32", "--out-dir",
                             str(tmp_path / "rep")])
        assert code == cli.EXIT_VIOLATION
        line = next(ln for ln in capsys.readouterr().out.splitlines()
                    if ln.startswith("VIOLATION pra>l2:"))
        assert line.split(" at ")[1] in {
            "(32, 2, 4)", "(32, 2, 8)", "(32, 2, 16)", "(32, 4, 8)",
            "(32, 4, 16)"}
        with open(tmp_path / "rep" / "verify.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        pra = {(row["r"], row["R"]): row["ok"] for row in rows
               if row["check"] == "pra>l2"}
        assert pra == {("2", "4"): "False", ("2", "8"): "False",
                       ("2", "16"): "False", ("4", "8"): "False",
                       ("4", "16"): "False", ("8", "16"): "True"}
        assert all(row["rhs"] != "inf" for row in rows)

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
        # without the corruption hook neither stderr nor the manifest
        # mentions it
        assert "EINSTEIN_LAB_CORRUPT" not in r.stderr
        assert "EINSTEIN_LAB_CORRUPT" not in rep["manifest"]

    def test_corruption_hook_fails_with_witness(self, z21_file, tmp_path,
                                                monkeypatch, capsys):
        path, g, c = z21_file
        load_corrupted(monkeypatch, c)
        code = cli.main(["verify", "--graph", path, "--out-dir",
                         str(tmp_path / "bad"), "--radii", "2"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_VIOLATION, out
        assert "VIOLATION reversibility" in out, out
        assert f"at ({c}, {c + 1}" in out, out

    def test_environment_cannot_change_results(self, z21_file, tmp_path):
        # the variable that once bumped a stored weight is read by nothing
        path, g, c = z21_file
        r = run_cli(["verify", "--graph", path, "--out-dir",
                     str(tmp_path / "env"), "--radii", "2,4"],
                    env={**os.environ,
                         "EINSTEIN_LAB_CORRUPT": f"{c},{c + 1},0.5"})
        assert (r.returncode, r.stderr) == (cli.EXIT_OK, ""), r.stdout
        assert cli.main(["verify", "--graph", path, "--out-dir",
                         str(tmp_path / "plain"), "--radii", "2,4"]) == \
            cli.EXIT_OK
        assert (tmp_path / "env" / "verify.csv").read_bytes() == \
            (tmp_path / "plain" / "verify.csv").read_bytes()

    def test_empty_grid_margin_exit(self, tmp_path):
        g, c = lattice_box(1, 5)
        p = tmp_path / "tiny.txt"
        save(g, p)
        r = run_cli(["verify", "--graph", str(p), "--out-dir",
                     str(tmp_path / "rep"), "--radii", "32"])
        assert r.returncode == cli.EXIT_MARGIN


class TestExitCodes:
    def test_graph_directory_usage_error(self, tmp_path, capsys):
        code = cli.main(["verify", "--graph", str(tmp_path), "--out-dir",
                         str(tmp_path / "rep")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno") and "Is a directory" in err
        assert err.count("\n") == 1

    def test_out_dir_under_file_usage_error(self, z21_file, tmp_path,
                                            capsys):
        path, g, c = z21_file
        code = cli.main(["verify", "--graph", path, "--radii", "2",
                         "--out-dir", os.path.join(path, "sub")])
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno") and "Not a directory" in err
        assert err.count("\n") == 1

    def test_out_dir_fails_before_the_sweep(self, z21_file, monkeypatch,
                                            capsys):
        path, g, c = z21_file

        def sweep(*args, **kwargs):
            raise RuntimeError("the sweep ran")

        monkeypatch.setattr(conditions, "verify_inequalities", sweep)
        code = cli.main(["verify", "--graph", path,
                         "--out-dir", os.path.join(path, "rep")])
        assert code == cli.EXIT_USAGE
        assert "Not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [("einstein", "--csv"),
                                               ("fit", "--csv-prefix")])
    def test_unwritable_csv_nothing_on_stdout(self, tmp_path, command,
                                              flag):
        path = str(tmp_path / "z1.txt")
        save(lattice_box(1, 129)[0], path)
        r = run_cli([command, "--graph", path, "--radii", "2..16",
                     flag, os.path.join(path, "e")])
        assert r.returncode == cli.EXIT_USAGE
        assert r.stdout == ""
        assert "Not a directory" in r.stderr

    def test_graph_number_names_file_and_line(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text("3 2\n0 1 1.0\n1 x 1.0\n")
        code = cli.main(["compute", "exit", "--graph", str(p), "--x", "1",
                         "--R", "1"])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == \
            f"error: {p}: bad edge line '1 x 1.0'\n"

    def test_unexpected_exception_is_internal_error(self, z21_file,
                                                    monkeypatch, capsys):
        path, g, c = z21_file

        def broken(g, x, R):
            raise RuntimeError("boom")

        monkeypatch.setattr(potential, "mean_exit_time", broken)
        code = cli.main(["compute", "exit", "--graph", path,
                         "--x", str(c), "--R", "2"])
        assert code == cli.EXIT_INTERNAL == 5
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: boom\n"

    def test_internal_key_error_is_internal_error(self, z21_file,
                                                  monkeypatch, capsys):
        # no usage path raises KeyError: argparse choices guard the
        # table lookups, so one from inside the program is a defect
        path, g, c = z21_file

        def broken(g, grid):
            raise KeyError("internal")

        monkeypatch.setattr(conditions, "einstein_report", broken)
        code = cli.main(["einstein", "--graph", path, "--radii", "2"])
        assert code == cli.EXIT_INTERNAL
        assert capsys.readouterr().err == \
            "internal error: KeyError: 'internal'\n"

    @pytest.mark.parametrize("command", ["verify", "fit"])
    @pytest.mark.parametrize("radii", ["0..8", "-2..8", "5..2", "0,2", ",",
                                       "2,2", "2,a", "2..x", "2..4..8"])
    def test_radii_usage_error(self, z21_file, tmp_path, capsys, command,
                               radii):
        # doubling from R < 1 never passes hi, and an empty ladder must
        # not fall back to the default one
        path, g, c = z21_file
        out = ["--out-dir", str(tmp_path / "rep")] if command == "verify" \
            else []
        code = cli.main([command, "--graph", path, f"--radii={radii}", *out])
        assert code == cli.EXIT_USAGE
        # a repeated radius would list every cell at it twice, and a
        # field that is no integer is named with its flag
        why = {"2,2": "2 repeated",
               "2,a": "need a comma list of integers",
               "2..x": "need lo..hi",
               "2..4..8": "need lo..hi"}.get(
            radii, "need one or more radii, all >= 1")
        assert capsys.readouterr().err == f"error: --radii {radii}: {why}\n"

    @pytest.mark.parametrize("command", ["verify", "einstein"])
    @pytest.mark.parametrize("centers", ["auto0", ",", "auto-1", "auto6",
                                         "auto9", "220,220", "840,x",
                                         "autox"])
    def test_centers_usage_error(self, z21_file, tmp_path, capsys, command,
                                 centers):
        # no center, or fewer than asked, must not fall back to or cut
        # the auto ones; auto picks at most the host center and four
        # quarter-diagonal vertices
        path, g, c = z21_file
        out = ["--out-dir", str(tmp_path / "rep")] if command == "verify" \
            else []
        code = cli.main([command, "--graph", path, f"--centers={centers}",
                         "--radii", "2", *out])
        assert code == cli.EXIT_USAGE
        why = {"auto6": "auto picks at most 5 centers",
               "auto9": "auto picks at most 5 centers",
               "220,220": "220 repeated",
               "840,x": "need a comma list of integers",
               "autox": "need autoK"}.get(centers,
                                              "need one or more centers")
        assert capsys.readouterr().err == \
            f"error: --centers {centers}: {why}\n"

    @pytest.mark.parametrize("argv, vertex", [
        (["verify", "--centers=-1"], -1),
        (["einstein", "--centers=441"], 441),
        (["einstein", "--centers=-1", "--radii", "2"], -1),
        (["fit", "--x=-1", "--radii", "2,3,4,5"], -1),
    ], ids=["verify-ladder", "einstein-ladder", "einstein-radii", "fit"])
    def test_vertex_outside_graph_usage_error(self, z21_file, tmp_path,
                                              capsys, argv, vertex):
        # the radius ladder and the margin test index the host's
        # eccentricities, where numpy would wrap -1 to the last vertex
        path, g, c = z21_file
        out = ["--out-dir", str(tmp_path / "rep")] if argv[0] == "verify" \
            else []
        code = cli.main([argv[0], "--graph", path, *argv[1:], *out])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err == \
            f"error: vertex id {vertex} out of range\n"

    @pytest.mark.parametrize("argv, why", [
        (["fit", "--x", "abc", "--radii", "2,3,4,5"],
         "--x abc: need center, sidecar or a vertex id"),
    ], ids=["fit-x"])
    def test_malformed_number_usage_error(self, z21_file, tmp_path, capsys,
                                          argv, why):
        # a field that does not parse is named with its flag, never with
        # Python's int() message
        path, g, c = z21_file
        out = ["--out-dir", str(tmp_path / "rep")] if argv[0] == "verify" \
            else []
        code = cli.main([*argv, "--graph", path, *out])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.splitlines()[-1:] == [f"error: {why}"]
        assert not (tmp_path / "rep").exists()


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

    def test_fit_csv_solves_each_exit_time_once(self, tmp_path,
                                                 monkeypatch):
        # the CSV series are the values the fits solved for
        g, c = lattice_box(1, 129)
        p = tmp_path / "z1.txt"
        save(g, p)
        solves = []

        def counted(g, x, R):
            solves.append((x, R))
            return potential.mean_exit_time(g, x, R)

        monkeypatch.setattr(conditions, "mean_exit_time", counted)
        assert cli.main(["fit", "--graph", str(p), "--radii", "2..16",
                         "--csv-prefix", str(tmp_path / "f")]) == cli.EXIT_OK
        assert solves == [(c, 2), (c, 4), (c, 8), (c, 16)]

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

    # seeds are taken mod 2^64 by the generator, so one outside [0, 2^64)
    # would give another seed's walks under its own name in the manifest
    @pytest.mark.parametrize("seed", ["18446744073709551617", "-5"])
    def test_seed_out_of_range_usage_error(self, z21_file, capsys, seed):
        path, g, c = z21_file
        code = cli.main(["mc", "--graph", path, "--x", str(c), "--R", "4",
                         "--n", "10", f"--seed={seed}"])
        assert code == cli.EXIT_USAGE
        assert f"seed {seed} outside [0, 2^64)" in capsys.readouterr().err

    def test_twelve_significant_digits(self, z21_file):
        path, g, c = z21_file
        r = run_cli(["compute", "resistance", "--graph", path,
                     "--A-ball", f"{c},2", "--B-ball", f"{c},5"])
        rho = json.loads(r.stdout)["result"]["rho"]
        assert rho == float(f"{rho:.12g}")


# verify.csv and verify.json digests of the `generate` fixtures, pinned
# with numpy 2.4.6 and scipy 1.17.1; other builds may legitimately move the
# last bits.  Witnesses and cell counts are in verify.json only, so a
# change can move them with verify.csv unchanged
@pytest.mark.parametrize("family, digest, json_digest", [
    (["sierpinski", "--level", "5"],
     "74de1c970f31fce37c4688042a67ab289bba77156cae7f09b5118ff271bf87ef",
     "8593b02cf3a821f77e375c1a6036e8e1dd26f68092892bd27ea6a7ff52af8328"),
    (["vicsek", "--level", "3"],
     "d79277d906a62a5fd7b4849b5f98ac6f4d2a19bbcc9e06a85d98b3e66b513c3a",
     "6d55babe9ff516bc2e5f565755e885a3c4c944bd0a38d8888f22cc48eef37b61"),
    (["binary_tree", "--depth", "7"],
     "e826c45098fa80cf654a920fb75321fee23bab85ebdfae67dbe36167840b47ea",
     "f834e302c02c8bbb526a44e3b4c7b1c424cb7cfcc5701a14c7075d59c70e4357"),
    (["lattice", "--dim", "1", "--side", "129"],
     "c50d9a32182b2358bc569a48611ad1bede91d06658395ac3935994f8959fcf36",
     "c4588220492c0f8a85b58f0961bd3a97c0a8f2859cbdd9eaa2e8466656f08006"),
    (["lattice", "--dim", "3", "--side", "7"],
     "c64a55e5f1cb9f39c61263e7b16affad3cc86a8cb18df781afd5b288291384f9",
     "ac321d01c5a81b55953ef467bd228d249b288cfc3971a110e2d349901c7a701d"),
    # z81's harnack_constant balls (B(c,64): 5949 unknowns) are the
    # largest LU factors among these hosts
    (["lattice", "--side", "81"],
     "1965029c5de15cc9154b948320fb9927be01c0f549006940932477638dac020c",
     "a45f365f4cf555604dbdddb7946d58e7685a58a5e184af7378f62044a47f5b9f"),
    # the mc_gasket6 benchmark host
    (["sierpinski", "--level", "6"],
     "3e4b939d8d836e00d9d1135fe58c9c171ca5caa90c03903ab448d28777273f9c",
     "3d7206ef8fbde6b98e9234d27c97b102342a0bc32970998e2f6c5a5f4ab3ae2c"),
], ids=["sierpinski5", "vicsek3", "binary_tree7", "line129", "box7", "z81",
        "sierpinski6"])
def test_verify_report_digest(tmp_path, family, digest, json_digest):
    path = str(tmp_path / "host.txt")
    assert cli.main(["generate", "--family", family[0], *family[1:],
                     "--out", path]) == cli.EXIT_OK
    assert cli.main(["verify", "--graph", path,
                     "--out-dir", str(tmp_path / "rep")]) == cli.EXIT_OK
    report = (tmp_path / "rep" / "verify.csv").read_bytes()
    assert hashlib.sha256(report).hexdigest() == digest
    assert verify_json_digest(tmp_path / "rep") == json_digest


def verify_json_digest(out_dir):
    """sha256 of verify.json without the run's time and the host's
    temporary path."""
    doc = json.loads((out_dir / "verify.json").read_text())
    man = doc["manifest"]
    del man["timestamp"], man["graph"]["path"], man["params"]["graph"]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_verify_leaves_two_memos_on_the_graph(tmp_path, monkeypatch):
    # every derived quantity of the sweep sits in _memo, the exit-time
    # vectors in _exit_times; the graph grows no other attribute
    path = str(tmp_path / "z41.txt")
    save(lattice_box(2, 41)[0], path)
    loaded = []
    plain = graph.load
    monkeypatch.setattr(graph, "load", lambda p: loaded.append(plain(p))
                        or loaded[-1])
    assert cli.main(["verify", "--graph", path,
                     "--out-dir", str(tmp_path / "rep")]) == cli.EXIT_OK
    (g,) = loaded
    assert g._memo and g._exit_times
    assert set(vars(g)) == {"vertex_count", "matrix", "indptr", "indices",
                            "weights", "mu", "_memo", "_exit_times"}


def test_radial_verify_report_digest(tmp_path):
    # radial weights lambda = 0.5 on z15 fail cE<rm at (112, 4, 4): the
    # report of a run that exits with a violation is pinned too
    path = str(tmp_path / "host.txt")
    assert cli.main(["generate", "--family", "lattice", "--side", "15",
                     "--weight-rule", "radial", "--lambda", "0.5",
                     "--out", path]) == cli.EXIT_OK
    assert cli.main(["verify", "--graph", path, "--out-dir",
                     str(tmp_path / "rep")]) == cli.EXIT_VIOLATION
    report = (tmp_path / "rep" / "verify.csv").read_bytes()
    assert hashlib.sha256(report).hexdigest() == \
        "4ffa9915b8ca226eea7a3040c4cdb9e7e8380a761d2053f90ce6db2adec69873"


def test_compute_hg_factors_once(z21_file, monkeypatch):
    # hg, g_low and g_high come from one Green solve on B(x,2R)
    path, g, c = z21_file
    factors = count_factors(monkeypatch)
    assert cli.main(["compute", "hg", "--graph", path, "--x", str(c),
                     "--R", "4"]) == cli.EXIT_OK
    assert len(factors) == 1


def test_verify_factors_each_lattice_system_once(tmp_path, monkeypatch):
    # z41's sweep asks for 1306 Dirichlet systems, most of them translates
    # of 117 distinct ones; the exit-time memo keeps the factor count near
    # the distinct count, whatever the machine's speed
    path = str(tmp_path / "z41.txt")
    assert cli.main(["generate", "--family", "lattice", "--side", "41",
                     "--out", path]) == cli.EXIT_OK
    factors = count_factors(monkeypatch)
    assert cli.main(["verify", "--graph", path,
                     "--out-dir", str(tmp_path / "rep")]) == cli.EXIT_OK
    assert len(factors) <= 300
    report = (tmp_path / "rep" / "verify.csv").read_bytes()
    assert hashlib.sha256(report).hexdigest() == \
        "6dfb0172309c20b44e1194921363b0942ff71c5ec9b7790def8efe0fbad4e04e"
    assert verify_json_digest(tmp_path / "rep") == \
        "c134ce748cc525fc81e78fff03b062032cd4ecf2ff4e821a54c1c0b2abb9f189"


@pytest.mark.parametrize("argv, files, json_digest", [
    (["einstein", "--csv", "{out}.csv"],
     {".csv":
      "76f3ac851e50f6993303ac0667eb468421d71a37409f54d69dcae9db8f5d7dc5"},
     "8028da34a43e2864b35f080a3673682d2375e0249bef795f0ff4452ed54d818f"),
    (["fit", "--radii", "2..16", "--csv-prefix", "{out}"],
     {"_volume.csv":
      "d2cc7994ec719b92ba4b76decf218f2d00ea3fa840e2f3f81f1221d1687758c4",
      "_exit.csv":
      "c9ec7f7d93c33e4cd521e626ef005ce00f031c0c905e374f252f4fbca5e3aebf",
      "_conductance.csv":
      "6af57c80fe5b797dcd4eac221f2a0f194d08f8f1ffbc12df206e617a3f643b6f"},
     "5883d9c79be77759a3fc212e3d7efb74db83a9ac9fa30e881aa19fee0ec62b85"),
], ids=["einstein", "fit"])
def test_einstein_fit_report_digest(tmp_path, capsys, argv, files,
                                    json_digest):
    # z41's einstein and fit outputs, pinned like the verify digests; the
    # fit CSVs hold the points the fits used
    path = str(tmp_path / "z41.txt")
    out = str(tmp_path / "z41")
    assert cli.main(["generate", "--family", "lattice", "--side", "41",
                     "--out", path]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main([argv[0], "--graph", path,
                     *(a.format(out=out) for a in argv[1:])]) == cli.EXIT_OK
    for suffix, digest in files.items():
        blob = pathlib.Path(out + suffix).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest
    doc = json.loads(capsys.readouterr().out)
    man = doc["manifest"]
    del man["graph"]["path"], man["params"]["graph"]
    blob = json.dumps(doc, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == json_digest


# `generate` files, pinned with the per-edge loop construction and the
# per-edge radial loop (Python's ``**``) they must keep matching
@pytest.mark.parametrize("family, digest", [
    (["lattice", "--side", "41"],
     "69ca48b690ce682c7aa5c35fbd0189966561568bf8f024329fcb6e85647bac6e"),
    (["lattice", "--dim", "3", "--side", "7"],
     "b14fabbf35f7dc1e57e90763aade41468a928384e70957b3314e774fede885df"),
    (["sierpinski", "--level", "6"],
     "bde671f10259a2e6d1903135d2a7e4ff166398b57abe2bdfeb94aba7357f7905"),
    (["lattice", "--side", "15", "--weight-rule", "radial", "--lambda", "0.5"],
     "b574ffbd281afa2c1b7d33c16193e7caa33d1851af86e0d6cdd04c63f8e7436a"),
    (["lattice", "--side", "15", "--weight-rule", "radial", "--lambda", "3.7"],
     "99eb291371e039acdce50aec3d84c5f967fc99427a05cc035f634cc1edf27040"),
    (["sierpinski", "--level", "5", "--weight-rule", "radial",
      "--lambda", "1.3"],
     "415917d49553af53642ce3d6eba9934cdad3883869ec4304d04dce230c7c81d9"),
    (["vicsek", "--level", "3", "--weight-rule", "radial",
      "--lambda", "0.27"],
     "8f23a583d0a098a2ed2b4eebd1ab71aeededdef6b2fa9b6489ee7091ab32a9d5"),
], ids=["z41", "box7", "sierpinski6", "z15-radial0.5", "z15-radial3.7",
        "sierpinski5-radial1.3", "vicsek3-radial0.27"])
def test_generate_file_digest(tmp_path, family, digest):
    path = tmp_path / "host.txt"
    assert cli.main(["generate", "--family", family[0], *family[1:],
                     "--out", str(path)]) == cli.EXIT_OK
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_verify_corrupted_report_digest(z21_file, tmp_path, monkeypatch,
                                       capsys):
    # the reversibility row reads the stored, corrupted weights; pinned
    # like the fixture digests above
    path, g, c = z21_file
    load_corrupted(monkeypatch, c)
    assert cli.main(["verify", "--graph", path,
                     "--out-dir", str(tmp_path / "rep")]) == cli.EXIT_VIOLATION
    assert capsys.readouterr().err == ""
    report = (tmp_path / "rep" / "verify.csv").read_bytes()
    assert hashlib.sha256(report).hexdigest() == \
        "015b96bc6a1bd08520ebc8334bf548363a9bae3399d2ec516ece2e7c92f48935"
