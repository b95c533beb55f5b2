"""The three benchmark workloads and the checks on their outputs.

A workload builds its fixture (``build``), runs one timed iteration
(``iteration``) and then checks what that iteration produced
(``check``), outside the timed region.  An operation is a CLI command
(cli_z41), a cell (cells_box31) or an mc batch (mc_gasket6); a failed
operation raised, exited non-zero or produced a wrong output.
"""

import hashlib
import json
import math
import os
import sys
import time
import traceback

import numpy as np

DEFAULT_SEED = 1
REL_TOL = 1e-8


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def stdout_digest(text):
    """sha256 of a JSON report with the fixture path removed, since the
    path is the only field that differs between checkouts."""
    obj = json.loads(text)
    man = obj.get("manifest", {})
    man.get("graph", {}).pop("path", None)
    man.get("params", {}).pop("graph", None)
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def run_cli(cli, argv, workdir):
    """Run ``cli.main(argv)`` in-process with file descriptors 1 and 2
    sent to files, as a shell redirect would.  ``cli`` writes JSON through
    the ``sys.stdout`` object bound at import, so swapping ``sys.stdout``
    would not capture it.  Returns (exit code, stdout, stderr, seconds);
    an uncaught exception gives exit code None and its traceback."""
    out_path = os.path.join(workdir, "stdout.txt")
    err_path = os.path.join(workdir, "stderr.txt")
    sys.stdout.flush()
    sys.stderr.flush()
    saved = os.dup(1), os.dup(2)
    with open(out_path, "w+b") as fo, open(err_path, "w+b") as fe:
        os.dup2(fo.fileno(), 1)
        os.dup2(fe.fileno(), 2)
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # the operation fails; the run goes on
            code, tb = None, traceback.format_exc()
        else:
            tb = ""
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            seconds = time.perf_counter() - t0
            os.dup2(saved[0], 1)
            os.dup2(saved[1], 2)
            os.close(saved[0])
            os.close(saved[1])
        fo.seek(0)
        fe.seek(0)
        return (code, fo.read().decode(), fe.read().decode() + tb, seconds)


class KernelProbe:
    """Times the walk kernel: one timer around the one kernel call an mc
    batch makes, so walk_steps_per_s needs no tracing."""

    def __init__(self, lab):
        self.kernels = getattr(lab, "_kernels", None)
        self.orig = getattr(self.kernels, "simulate_exits", None)
        self.seconds = 0.0
        self.steps = 0

    @property
    def available(self):
        return callable(self.orig)

    def __enter__(self):
        if self.available:
            orig = self.orig

            def timed(*args, **kwargs):
                t0 = time.perf_counter()
                steps, exits = orig(*args, **kwargs)
                self.seconds += time.perf_counter() - t0
                self.steps += int(steps.sum())
                return steps, exits

            self.kernels.simulate_exits = timed
        return self

    def __exit__(self, *exc):
        if self.available:
            self.kernels.simulate_exits = self.orig


def rel_slack(lhs, rhs):
    """(rhs - lhs) relative to the larger magnitude, as the lab's suite."""
    return (rhs - lhs) / max(abs(lhs), abs(rhs), 1e-300)


class Workload:
    name = ""

    def __init__(self, seed, workdir, reference):
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.recorded = {}
        self.samples = {}

    def exhausted(self, it):
        return False

    def sample(self, key, value):
        self.samples.setdefault(key, []).append(value)

    def fixture_failures(self):
        """A fixture that differs from the recorded one is a different
        input, so the comparison with the parent commit is void."""
        digest = self.fixture_digest()
        self.recorded["fixture_sha256"] = digest
        want = self.reference.get("fixture_sha256")
        if want is not None and want != digest:
            return [f"fixture sha256 {digest} differs from {want}"]
        return []

    def compare(self, key, got):
        self.recorded[key] = got
        want = self.reference.get(key)
        if want is not None and want != got:
            return [f"{key}: {got} differs from recorded {want}"]
        return []


class CliZ41(Workload):
    """verify, einstein and fit on the 41x41 lattice through cli.main."""

    name = "cli_z41"

    def build(self, lab):
        self.path = os.path.join(self.workdir, "z41.txt")
        code, _, err, _ = run_cli(lab.cli, [
            "generate", "--family", "lattice", "--side", "41",
            "--out", self.path], self.workdir)
        if code != 0:
            raise RuntimeError(f"generate failed: {err}")

    def fixture_digest(self):
        return sha256_file(self.path)

    def commands(self):
        out_dir = os.path.join(self.workdir, "verify_out")
        return (
            ("verify", ["verify", "--graph", self.path, "--out-dir", out_dir]),
            ("einstein", ["einstein", "--graph", self.path]),
            ("fit", ["fit", "--graph", self.path, "--radii", "2..16"]),
        )

    def iteration(self, lab, it):
        return [(name, *run_cli(lab.cli, argv, self.workdir))
                for name, argv in self.commands()]

    def check(self, lab, runs):
        failures = []
        for name, code, out, err, seconds in runs:
            self.sample(f"{name}_s", seconds)
            if code != 0:
                failures.append(f"{name} exited {code}: {err.strip()[-400:]}")
                continue
            try:
                if name == "verify":
                    got = sha256_file(os.path.join(self.workdir, "verify_out",
                                                   "verify.csv"))
                    bad = self.compare("verify_csv_sha256", got)
                else:
                    bad = self.compare(f"{name}_stdout_sha256",
                                       stdout_digest(out))
            except (OSError, ValueError) as exc:
                bad = [f"no report to check: {exc!r}"]
            if bad:
                failures.append(f"{name}: {'; '.join(bad)}")
        return len(runs), failures


class CellsBox31(Workload):
    """Cold library calls per cell (x, R) on the 31^3 lattice box."""

    name = "cells_box31"
    L = 31
    RADII = (2, 5, 9)
    CELLS = 3             # per iteration, one per radius
    REFERENCE_CELLS = 36  # first cells of the default seed, recorded
    SPREAD = 5            # centers within +-5 lattice steps of the middle
    # harnack_constant runs on cells whose B(x,2R) has fewer vertices than
    # this; fixed here so the workload stays the same if the program's
    # own solver switch (potential.DIRECT_SOLVE_LIMIT, 5000) moves
    HARNACK_LIMIT = 5000

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        mid = self.L // 2
        span = np.arange(mid - self.SPREAD, mid + self.SPREAD + 1)
        i, j, k = np.meshgrid(span, span, span, indexing="ij")
        pool = ((i * self.L + j) * self.L + k).ravel()
        # every cell gets a center no earlier cell used, so the host-wide
        # BFS of the first call at x is paid inside the cell (cold)
        self.pool = np.random.default_rng(seed).permutation(pool)

    def build(self, lab):
        self.g, _ = lab.generators.lattice_box(3, self.L)

    def fixture_digest(self):
        return hashlib.sha256(
            "".join(f"{u} {v} {w!r}\n" for u, v, w in self.g.edges).encode()
        ).hexdigest()

    def exhausted(self, it):
        return (it + 1) * self.CELLS > self.pool.size

    def cell(self, lab, x, R):
        pot, g = lab.potential, self.g
        val = {
            "E": pot.mean_exit_time(g, x, 2 * R),
            "Ebar": pot.max_exit_time(g, x, 2 * R),
            "rho": pot.resistance_annulus(g, x, R, 2 * R),
        }
        B2 = lab.graph.ball(g, x, 2 * R)
        val["lam"] = pot.lambda_min(g, B2).lam
        val["hg"] = pot.hg_constant(g, x, R)
        if B2.size < self.HARNACK_LIMIT:
            val["H"] = pot.harnack_constant(g, x, R)
        return val

    def iteration(self, lab, it):
        cells = []
        for c in range(self.CELLS):
            x = int(self.pool[it * self.CELLS + c])
            R = self.RADII[c % len(self.RADII)]
            t0 = time.perf_counter()
            try:
                val, err = self.cell(lab, x, R), ""
            except Exception:  # the cell fails; the run goes on
                val, err = None, traceback.format_exc()
            cells.append((x, R, time.perf_counter() - t0, val, err))
        return cells

    def check(self, lab, cells):
        failures = []
        ref = {(c["x"], c["R"]): c for c in self.reference.get("cells", [])}
        for x, R, seconds, val, err in cells:
            self.sample("cell_s", seconds)
            if val is None:
                failures.append(f"cell ({x},{R}) raised: {err[-400:]}")
                continue
            bad = self.cell_failures(lab, x, R, val)
            if self.seed == DEFAULT_SEED:
                done = self.recorded.setdefault("cells", [])
                if len(done) < self.REFERENCE_CELLS:
                    done.append({"x": x, "R": R, **val})
                want = ref.get((x, R), {})
                bad += [f"{key}={got!r} vs recorded {want.get(key)!r}"
                        for key, got in val.items() if want and not
                        math.isclose(got, want.get(key, math.nan),
                                     rel_tol=REL_TOL)]
            if bad:
                failures.append(f"cell ({x},{R}): {'; '.join(bad)}")
        return len(cells), failures

    def cell_failures(self, lab, x, R, val):
        """The proved llcce chain rho V <= 1/lambda <= Ebar, crv>r2 and
        E <= Ebar, at the lab's relative tolerance."""
        g = self.g
        V = lab.graph.volume(g, x, R)
        v = lab.graph.annulus_volume(g, x, R, 2 * R)
        checks = (
            ("rho V <= 1/lambda", val["rho"] * V, 1.0 / val["lam"]),
            ("1/lambda <= Ebar", 1.0 / val["lam"], val["Ebar"]),
            ("R^2 <= rho v", float(R * R), val["rho"] * v),
            ("E <= Ebar", val["E"], val["Ebar"]),
        )
        bad = [name for name, lhs, rhs in checks
               if not (math.isfinite(lhs) and math.isfinite(rhs)
                       and rel_slack(lhs, rhs) >= -REL_TOL)]
        if not (0.0 < val["hg"] < math.inf):
            bad.append(f"HG={val['hg']} not in (0, inf)")
        if "H" in val and not (1.0 <= val["H"] < math.inf):
            bad.append(f"H={val['H']} not in [1, inf)")
        return bad


class McGasket6(Workload):
    """mc --x 0 --R 16 --n 100000 on the level-6 gasket through cli.main."""

    name = "mc_gasket6"
    EXACT_E = 359.3125    # potential.mean_exit_time(gasket 6, 0, 16)

    def build(self, lab):
        self.path = os.path.join(self.workdir, "gasket6.txt")
        code, _, err, _ = run_cli(lab.cli, [
            "generate", "--family", "sierpinski", "--level", "6",
            "--out", self.path], self.workdir)
        if code != 0:
            raise RuntimeError(f"generate failed: {err}")

    def fixture_digest(self):
        return sha256_file(self.path)

    def iteration(self, lab, it):
        argv = ["mc", "--graph", self.path, "--x", "0", "--R", "16",
                "--n", "100000", "--seed", str(self.seed)]
        with KernelProbe(lab) as probe:
            run = run_cli(lab.cli, argv, self.workdir)
        return run + (probe,)

    def check(self, lab, run):
        code, out, err, seconds, probe = run
        if probe.available and probe.seconds > 0:
            self.sample("kernel_s", probe.seconds)
            self.sample("kernel_steps", probe.steps)
        if code != 0:
            return 1, [f"mc exited {code}: {err.strip()[-400:]}"]
        try:
            est = json.loads(out)["estimate"]
        except (ValueError, KeyError) as exc:
            return 1, [f"mc: no estimate in stdout: {exc!r}"]
        bad = []
        if not (est["valid"] and est["n"] == 100000):
            bad.append(f"estimate not valid or walks capped: {est}")
        if not abs(est["mean"] - self.EXACT_E) <= 4 * est["std_error"]:
            bad.append(f"mean {est['mean']} is more than 4 sigma "
                       f"({est['std_error']}) from exact {self.EXACT_E}")
        if self.seed == DEFAULT_SEED:
            bad += self.compare("mc_stdout_sha256", stdout_digest(out))
        return 1, [f"mc: {'; '.join(bad)}"] if bad else []


WORKLOADS = {w.name: w for w in (CliZ41, CellsBox31, McGasket6)}
