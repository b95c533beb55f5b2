"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import hashlib
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from einstein_lab.conditions import (SweepGrid, auto_centers, default_grid,
                                     fit_exponents, einstein_report,
                                     measure_condition, radius_pairs,
                                     valid_cells, verify_inequalities)
from einstein_lab.generators import (lattice_box, sierpinski_gasket,
                                     vicsek_tree)
from einstein_lab.graph import annulus_volume, ball, eccentricities, save
from einstein_lab.potential import (GreenOperator, harmonic_measure,
                                    mean_exit_time, resistance,
                                    resistance_annulus)
from einstein_lab.walker import WalkConfig, mc_exit_sample, mc_exit_time

REL_TOL = 1e-8


def report(num, ok, text):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, text


@pytest.fixture(scope="module")
def fixtures():
    return {
        "lattice2d_41": lattice_box(2, 41),
        "lattice1d_129": lattice_box(1, 129),
        "gasket_5": sierpinski_gasket(5),
        "vicsek_4": vicsek_tree(4),
    }


def test_1_theorem_suite_zero_violations(fixtures):
    t0 = time.time()
    failures = []
    for name, (g, c) in fixtures.items():
        results = verify_inequalities(g, default_grid(g))
        for r in results:
            if r.passed is False:
                failures.append((name, r.check, r.witness, r.worst_slack))
    elapsed = time.time() - t0
    ok = not failures and elapsed <= 300
    report(1, ok, f"inequality suite zero violations on 4 fixtures "
                  f"in {elapsed:.1f}s (limit 300s); failures={failures}")


def test_2_einstein_relation_band(fixtures):
    g, c = fixtures["lattice2d_41"]
    grid = SweepGrid(tuple(auto_centers(g)), (2, 3, 4, 6, 8))
    _, summary = einstein_report(g, grid)
    gk, corner = sierpinski_gasket(6)
    grid_g = SweepGrid((corner,), (2, 4, 8, 16, 32))
    _, summary_g = einstein_report(gk, grid_g)
    ok = summary.spread <= 10 and summary_g.spread <= 10
    report(2, ok, f"Einstein spread: lattice {summary.spread:.3f} "
                  f"({summary.cells} cells), gasket {summary_g.spread:.3f} "
                  f"({summary_g.cells} cells); both <= 10")


def test_3_exponent_consistency():
    g65, c65 = lattice_box(2, 65)
    # interleaved doubling ladder: small radii inflate alpha with lattice
    # corrections, radii past 16 let the annulus sink collapse onto the
    # host corners; every point still uses its own dyadic (R,2R) annulus
    s2 = fit_exponents(g65, c65, [4, 6, 8, 12, 16])
    g257, c257 = lattice_box(1, 257)
    s1 = fit_exponents(g257, c257, [4, 8, 16, 32, 64])
    ok = (abs(s2.beta.exponent - 2.0) <= 0.15
          and abs(s2.erdim_residual) <= 0.25
          and abs(s1.beta.exponent - 2.0) <= 0.1
          and abs(s1.gamma.exponent + 1.0) <= 0.1)
    report(3, ok,
           f"lattice2d_65: beta={s2.beta.exponent:.3f} (2.0+-0.15), "
           f"|beta-(alpha-gamma)|={abs(s2.erdim_residual):.3f} (<=0.25); "
           f"lattice1d_257: beta={s1.beta.exponent:.4f} (2.0+-0.1), "
           f"gamma={s1.gamma.exponent:.4f} (-1.0+-0.1)")


def test_4_quadratic_lower_bound(fixtures):
    worst = np.inf
    for name, (g, c) in fixtures.items():
        grid = default_grid(g)
        for x in grid.centers:
            for r, R in radius_pairs(grid):
                if eccentricities(g)[x] < R:
                    continue
                slack = resistance_annulus(g, x, r, R) * annulus_volume(g, x, r, R) \
                    - (R - r) ** 2
                worst = min(worst, slack / max((R - r) ** 2, 1))
    cs = []
    for name in ("lattice2d_41", "lattice1d_129"):
        g, c = fixtures[name]
        grid = default_grid(g)
        cells, _ = valid_cells(g, grid, 2)
        cs.append(min(mean_exit_time(g, x, R) / R ** 2 for x, R in cells))
    ok = worst >= -REL_TOL and min(cs) >= 0.5
    report(4, ok, f"rho*v >= (R-r)^2 with worst relative slack "
                  f"{worst:+.2e}; exit-time prefactor c = {min(cs):.3f} "
                  f">= 0.5 on unit lattice fixtures")


def test_5_green_identities(fixtures):
    rng = np.random.default_rng(20240809)
    worst = 0.0
    for name, (g, c) in fixtures.items():
        for _ in range(100):
            x = int(rng.integers(0, g.vertex_count))
            R = int(rng.integers(1, 5))
            region = ball(g, x, R)
            if region.size == g.vertex_count:
                continue
            op = GreenOperator(g, region)
            e = op.exit_times()[op.local(x)]
            via_green = float(op.column(x) @ op.mu)
            worst = max(worst, abs(e - via_green) / e)
            diag = op.kernel(x, x)
            rho = resistance(g, [x], region)
            worst = max(worst, abs(diag - rho) / rho)
    ok = worst <= REL_TOL
    report(5, ok, f"E = sum g*mu and g(x,x) = rho({{x}}, complement): "
                  f"400 random cells, worst relative error {worst:.2e}")


MC_CELLS = [
    ("lattice2d_41", "center", 4), ("lattice2d_41", "center", 6),
    ("lattice2d_41", 420, 4),
    ("lattice1d_129", "center", 5), ("lattice1d_129", "center", 8),
    ("lattice1d_129", 32, 4),
    ("gasket_5", "center", 4), ("gasket_5", "center", 6),
    ("vicsek_4", "center", 4), ("vicsek_4", "center", 6),
]


def test_6_monte_carlo_cross_validation(fixtures):
    bad = []
    for i, (name, where, R) in enumerate(MC_CELLS):
        g, c = fixtures[name]
        x = c if where == "center" else int(where)
        cfg = WalkConfig(seed=1000 + i, n_walks=10_000)
        est = mc_exit_time(g, x, R, cfg)
        exact = mean_exit_time(g, x, R)
        if not (est.valid and abs(est.mean - exact) <= 4 * est.std_error):
            bad.append((name, x, R, est.mean, exact, est.std_error))
        if mc_exit_time(g, x, R, cfg) != est:
            bad.append((name, x, R, "not reproducible"))
    # exit law against the harmonic measure, 4 sigma per boundary vertex
    for name, R, seed in (("lattice2d_41", 4, 77), ("lattice1d_129", 5, 78)):
        g, c = fixtures[name]
        hm = harmonic_measure(g, c, R)
        row = hm.row(c)
        sample = mc_exit_sample(g, c, R, WalkConfig(seed=seed, n_walks=10_000))
        n = sample.estimate.n
        for k, z in enumerate(hm.boundary):
            w = row[k]
            cnt = sample.exit_counts.get(int(z), 0)
            if abs(cnt - n * w) > 4 * np.sqrt(n * w * (1 - w)) + 1e-9:
                bad.append((name, "exit-law", int(z), cnt, n * w))
    report(6, not bad, f"10 cells at n=10^4 within 4 std errors, "
                       f"seed-reproducible, exit law within 4 sigma; "
                       f"failures={bad}")


def test_7_resistance_doubling_and_harnack(fixtures):
    lines = []
    ok = True
    for name, (g, c) in fixtures.items():
        grid = default_grid(g)
        # doubling constants C1, C2 of rho over the 4R cells; the series
        # law rho(R,4R) >= rho(R,2R) + rho(2R,4R) gives (C1-1)(C2-1) >= 1
        cells, _ = valid_cells(g, grid, 4)
        r14 = [resistance_annulus(g, x, R, 4 * R) for x, R in cells]
        c1 = max(r / resistance_annulus(g, x, R, 2 * R) for r, (x, R) in zip(r14, cells))
        c2 = max(r / resistance_annulus(g, x, 2 * R, 4 * R)
                 for r, (x, R) in zip(r14, cells))
        product = (c1 - 1) * (c2 - 1)
        h = measure_condition(g, grid, "H")
        ok &= product >= 1 - REL_TOL and np.isfinite(h.constant)
        lines.append(f"{name}: (C1-1)(C2-1)={product:.4f}, "
                     f"H_max={h.constant:.3f}")
    report(7, ok, "; ".join(lines))


def test_8_report_determinism(tmp_path):
    g, c = lattice_box(2, 41)
    path = tmp_path / "z41.txt"
    save(g, path)
    outs = []
    for run in ("1", "2"):
        out = tmp_path / f"rep{run}"
        r = subprocess.run(
            [sys.executable, "-m", "einstein_lab.cli", "verify",
             "--graph", str(path), "--out-dir", str(out),
             "--radii", "2,4,8"],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        outs.append(out)

    def stripped(p):
        return "\n".join(ln for ln in (p / "verify.json").read_text()
                         .splitlines() if "timestamp" not in ln)

    same_json = stripped(outs[0]) == stripped(outs[1])
    csv_bytes = [(out / "verify.csv").read_bytes() for out in outs]
    # pinned with numpy 2.4.6 and scipy 1.17.1, like test_cli's digests
    pinned = hashlib.sha256(csv_bytes[0]).hexdigest() == \
        "a1eb19fe5296662ee0d032de45bc734bc08f8b2e5afdfab52bde575f0af8f753"
    report(8, same_json and csv_bytes[0] == csv_bytes[1] and pinned,
           "verify reports byte-identical across two runs "
           "(timestamp excluded) and verify.csv at its pinned digest")
