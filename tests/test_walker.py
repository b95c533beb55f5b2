import numpy as np
import pytest

from einstein_lab import _kernels
from einstein_lab.errors import MarginError
from einstein_lab.generators import lattice_box
from einstein_lab.graph import WeightedGraph, ball
from einstein_lab.potential import harmonic_measure, mean_exit_time
from einstein_lab.walker import (RngStream, WalkConfig, mc_exit_sample,
                                 mc_exit_time, step)

def test_u01_scalar_vector_agree():
    walks = np.arange(64, dtype=np.uint64)
    for seed in (0, 7, 2 ** 63 + 11):
        keys = _kernels.stream_keys_np(seed, walks)
        for step_idx in (0, 1, 1000):
            vec = _kernels._u01_np(keys, step_idx)
            sca = [_kernels.u01_py(seed, int(w), step_idx) for w in walks]
            assert vec.tolist() == sca
    u = _kernels._u01_np(_kernels.stream_keys_np(3, walks), 5)
    assert np.all((0 <= u) & (u < 1))


class TestStep:
    def test_deterministic_replay(self):
        g, c = lattice_box(2, 21)
        a = [step(g, c, RngStream(seed=5, stream=0, counter=k))
             for k in range(20)]
        b = [step(g, c, RngStream(seed=5, stream=0, counter=k))
             for k in range(20)]
        assert a == b

    def test_matches_batch_kernel(self):
        g, c = lattice_box(2, 21)
        in_region = np.zeros(g.vertex_count, dtype=bool)
        in_region[ball(g, c, 4)] = True
        steps, exits = _kernels.simulate_exits(
            g.indptr, g.indices, g.transition_profile(), in_region,
            c, 3, 10_000, 99)
        for w in range(3):
            rng = RngStream(seed=99, stream=w)
            pos, taken = c, 0
            while in_region[pos]:
                pos = step(g, pos, rng)
                taken += 1
            assert taken == steps[w]
            assert pos == exits[w]

    def test_weighted_two_neighbour_ratio(self):
        # weights 2:1 -> transition probabilities 2/3 : 1/3
        g = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 1.0)])
        n = 60_000
        hits = sum(step(g, 1, RngStream(seed=4, stream=k)) == 0
                   for k in range(n))
        p = 2 / 3
        assert abs(hits - n * p) <= 4 * np.sqrt(n * p * (1 - p))


class TestMcExitTime:
    def test_unit_ball_deterministic(self):
        g, c = lattice_box(2, 21)
        est = mc_exit_time(g, c, 1, WalkConfig(seed=1, n_walks=500))
        assert est.mean == 1.0
        assert est.std_error == 0.0
        assert est.capped_count == 0
        assert est.valid

    def test_seed_reproducible(self):
        g, c = lattice_box(2, 21)
        cfg = WalkConfig(seed=42, n_walks=2000)
        a = mc_exit_time(g, c, 5, cfg)
        b = mc_exit_time(g, c, 5, cfg)
        assert a == b

    def test_interval_exit_matches_exact(self):
        g, c = lattice_box(1, 21)
        est = mc_exit_time(g, c, 5, WalkConfig(seed=7, n_walks=10_000))
        assert abs(est.mean - 25.0) <= 4 * est.std_error

    def test_lattice_matches_exact_solver(self):
        g, c = lattice_box(2, 21)
        exact = mean_exit_time(g, c, 6)
        est = mc_exit_time(g, c, 6, WalkConfig(seed=3, n_walks=10_000))
        assert est.valid
        assert abs(est.mean - exact) <= 4 * est.std_error

    def test_capping_flags_invalid(self):
        g, c = lattice_box(2, 21)
        est = mc_exit_time(g, c, 6, WalkConfig(seed=2, n_walks=400,
                                               step_cap=3))
        assert est.capped_count > 0.01 * 400
        assert not est.valid
        assert est.n + est.capped_count == 400

    def test_margin_guard(self):
        g, c = lattice_box(1, 5)
        with pytest.raises(MarginError):
            mc_exit_time(g, c, 50, WalkConfig(seed=1, n_walks=10))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WalkConfig(seed=1, n_walks=0)
        with pytest.raises(ValueError):
            WalkConfig(seed=1, n_walks=10, step_cap=0)


class TestExitDistribution:
    def test_one_step_frequencies_match_transition_row(self):
        # R=1 walks take exactly one step: the exit histogram over 10^6
        # walks is a direct multinomial sample of P(x, .)
        g, c = lattice_box(2, 21)
        n = 1_000_000
        s = mc_exit_sample(g, c, 1, WalkConfig(seed=17, n_walks=n))
        for z in g.neighbors(c):
            p = g.weights[g.indptr[c]:g.indptr[c + 1]][
                list(g.neighbors(c)).index(z)] / g.mu[c]
            cnt = s.exit_counts[int(z)]
            assert abs(cnt - n * p) <= 4 * np.sqrt(n * p * (1 - p))

    def test_regular_vertex_uniform(self):
        g, c = lattice_box(1, 9)
        s = mc_exit_sample(g, c, 1, WalkConfig(seed=23, n_walks=40_000))
        left = s.exit_counts[c - 1]
        assert abs(left - 20_000) <= 4 * np.sqrt(40_000 * 0.25)

    def test_matches_harmonic_measure(self):
        g, c = lattice_box(2, 21)
        R = 4
        hm = harmonic_measure(g, c, R)
        row = hm.row(c)
        s = mc_exit_sample(g, c, R, WalkConfig(seed=31, n_walks=10_000))
        n = s.estimate.n
        for k, z in enumerate(hm.boundary):
            w = row[k]
            cnt = s.exit_counts.get(int(z), 0)
            sigma = np.sqrt(n * w * (1 - w))
            assert abs(cnt - n * w) <= 4 * sigma + 1e-9
