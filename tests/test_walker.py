import hashlib

import numpy as np
import pytest

from einstein_lab import _kernels
from einstein_lab.errors import MarginError
from einstein_lab.generators import (apply_radial_weights, binary_tree,
                                     lattice_box, sierpinski_gasket)
from einstein_lab.graph import WeightedGraph, ball, shrink
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


# the largest uniform the generator can return: (2^53 - 1) * 2^-53
U_MAX = 1.0 - 2.0 ** -53


def walk_hosts():
    """(graph, start) pairs with unequal weights, a hub and a self-loop."""
    z21, c21 = lattice_box(2, 21)
    shrunk = shrink(z21, ball(z21, 220, 4)).graph      # merged hub: degree 16
    tree, root = binary_tree(7)
    loops = WeightedGraph(21, [(i, i + 1, 1.0 + i % 3) for i in range(20)]
                          + [(i, i, 0.5) for i in range(0, 21, 2)])
    return [(z21, c21), (apply_radial_weights(z21, c21, 0.5), c21),
            (shrunk, shrunk.vertex_count - 1), (tree, root), (loops, 10)]


def region(g, x, R):
    in_region = np.zeros(g.vertex_count, dtype=bool)
    in_region[ball(g, x, R)] = True
    return in_region


def exits_digest(g, x, R, n, seed):
    steps, exits = _kernels.simulate_exits(
        g.indptr, g.indices, g.transition_profile(), region(g, x, R),
        x, n, 100 * R * R, seed)
    blob = steps.astype("<i8").tobytes() + exits.astype("<i8").tobytes()
    return hashlib.sha256(blob).hexdigest(), int(steps.sum())


class TestSimulateExits:
    # digests of (steps, exits) recorded with the host-wide searchsorted
    # kernel; the row-local search must reproduce them bit for bit
    def test_gasket6_pinned(self):
        g, _ = sierpinski_gasket(6)
        digest, total = exits_digest(g, 0, 16, 20_000, 1)
        assert digest.startswith("50550a78bb077c5d")
        assert total == 7151258

    def test_radial_z33_pinned(self):
        z, c = lattice_box(2, 33)
        g = apply_radial_weights(z, c, 0.25)
        digest, total = exits_digest(g, 544, 8, 20_000, 1)
        assert digest.startswith("ac2eef983faef6e0")
        assert total == 85545146


class TestRowChoice:
    def test_matches_host_wide_search(self):
        # reference rule: the first aug entry > v + u over the whole host,
        # clamped to the end of row v
        u = np.concatenate([[0.0, U_MAX], np.linspace(0, 1, 97)[:-1],
                            _kernels._u01_np(np.arange(64, dtype=np.uint64),
                                             0)])
        for g, _ in walk_hosts():
            aug = g.transition_profile()
            pos = np.repeat(np.arange(g.vertex_count), u.size)
            key = pos + np.tile(u, g.vertex_count)
            last = g.indptr[pos + 1] - 1
            want = np.minimum(np.searchsorted(aug, key, side="right"), last)
            span = int(np.diff(g.indptr).max()) - 1
            got = _kernels._row_choice(g.indptr, aug, pos, key, span)
            assert np.array_equal(got, want)

    def test_key_rounding_to_row_end(self):
        # row 2 starts with a tiny weight, so its first aug entry is
        # 2 + 1e-30 == 2.0; keys v + U_MAX round up to v + 1.0
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1e-30)])
        aug = g.transition_profile()
        assert aug[g.indptr[2]] == 2.0
        for v in (1, 2):
            key = np.array([v + U_MAX])
            assert key[0] == v + 1.0
            last = int(g.indptr[v + 1]) - 1
            for span in (1, 3, 15):
                # aug cut at the row's end: any read past it raises
                k = _kernels._row_choice(g.indptr, aug[:last + 1],
                                         np.array([v]), key, span)
                assert k.tolist() == [last]


class TestStep:
    def test_deterministic_replay(self):
        g, c = lattice_box(2, 21)
        a = [step(g, c, RngStream(seed=5, stream=0, counter=k))
             for k in range(20)]
        b = [step(g, c, RngStream(seed=5, stream=0, counter=k))
             for k in range(20)]
        assert a == b

    def test_stream_refuses_aliasing_arguments(self):
        # each would draw the uniforms of an in-range argument: seed -5
        # those of seed 2^64 - 5, a negative stream or counter those of
        # one near 2^64
        for kw, why in ((dict(seed=-5), r"seed -5 outside \[0, 2\^64\)"),
                        (dict(seed=2 ** 64), "outside"),
                        (dict(seed=1, stream=-1), ">= 0"),
                        (dict(seed=1, counter=-2), ">= 0")):
            with pytest.raises(ValueError, match=why):
                RngStream(**kw)
        rng = RngStream(seed=2 ** 64 - 1, stream=0, counter=0)
        assert rng.next_u01() == _kernels.u01_py(2 ** 64 - 1, 0, 0)

    def test_matches_batch_kernel(self):
        for g, x in walk_hosts():
            in_region = region(g, x, 4)
            steps, exits = _kernels.simulate_exits(
                g.indptr, g.indices, g.transition_profile(), in_region,
                x, 3, 10_000, 99)
            for w in range(3):
                rng = RngStream(seed=99, stream=w)
                pos, taken = x, 0
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
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError):
                WalkConfig(seed=seed)
        WalkConfig(seed=2 ** 64 - 1)


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
