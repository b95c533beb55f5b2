import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from einstein_lab import _kernels
from einstein_lab.errors import MarginError
from einstein_lab.generators import (apply_radial_weights, binary_tree,
                                     lattice_box, sierpinski_gasket)
from einstein_lab.graph import WeightedGraph, ball, eccentricities, shrink
from einstein_lab.potential import (harmonic_measure, max_exit_time,
                                    mean_exit_time)
from einstein_lab.walker import WalkConfig, mc_exit_sample, mc_exit_time
from test_graph import connected_graphs, host_profile

# -- scalar reference for the walk's generator --------------------------------
#
# stream_key(seed, walk) = mix(seed ^ mix((walk+1) * GAMMA))
# u(seed, walk, step)    = mix(stream_key + (step+1) * GAMMA) >> 11, scaled
#
# mix is the splitmix64 finalizer; every quantity is a wrapping uint64.

MASK = (1 << 64) - 1


def mix_py(z: int) -> int:
    z &= MASK
    z = ((z ^ (z >> 30)) * _kernels._MIX1) & MASK
    z = ((z ^ (z >> 27)) * _kernels._MIX2) & MASK
    return z ^ (z >> 31)


def stream_key_py(seed: int, walk: int) -> int:
    pre = mix_py(((walk + 1) * _kernels._GAMMA) & MASK)
    return mix_py((seed & MASK) ^ pre)


def u01_py(seed: int, walk: int, step: int) -> float:
    key = stream_key_py(seed, walk)
    word = mix_py((key + ((step + 1) * _kernels._GAMMA) & MASK) & MASK)
    return (word >> 11) * 2.0 ** -53


def bits_np(keys, step):
    """The 64-bit mixed word of each stream at ``step``; u is its top 53
    bits, scaled."""
    return _kernels._mix_np(keys + np.uint64(((step + 1) * _kernels._GAMMA)
                                             & MASK))


def u01_np(keys, step):
    return _kernels._u01_from_bits(bits_np(keys, step))


def test_u01_scalar_vector_agree():
    walks = np.arange(64, dtype=np.uint64)
    for seed in (0, 7, 2 ** 63 + 11):
        keys = _kernels.stream_keys_np(seed, walks)
        for step_idx in (0, 1, 1000):
            vec = u01_np(keys, step_idx)
            sca = [u01_py(seed, int(w), step_idx) for w in walks]
            assert vec.tolist() == sca
    u = u01_np(_kernels.stream_keys_np(3, walks), 5)
    assert np.all((0 <= u) & (u < 1))


@given(st.lists(st.integers(0, MASK), min_size=1, max_size=64))
def test_mix_head_keeps_the_top_bits(words):
    # the mix's last step z ^= z >> 31 changes none of the top 31 bits, so
    # the kernel's bucket (the top BUCKET_BITS) is read before it
    z = np.array(words, dtype=np.uint64)
    head = _kernels._mix_head(z.copy(), np.empty_like(z))
    full = _kernels._mix_np(z.copy())
    assert np.array_equal(head >> np.uint64(33), full >> np.uint64(33))
    assert _kernels.BUCKET_BITS <= 31
    head ^= head >> np.uint64(31)
    assert np.array_equal(head, full)
    assert full.tolist() == [mix_py(w) for w in words]


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


def reference_exits(indptr, indices, aug, in_region, start, n_walks,
                    step_cap, seed):
    """The kernel without a bucket table: every walker searches its row
    with ``_row_choice`` on its exact key v + u at every step."""
    steps = np.full(n_walks, step_cap, dtype=np.int64)
    exit_vertex = np.full(n_walks, -1, dtype=np.int64)
    indptr = indptr.astype(np.intp)
    indices = indices.astype(np.intp)
    span = int(np.diff(indptr)[in_region].max()) - 1
    wid = np.arange(n_walks, dtype=np.int64)
    keys = _kernels.stream_keys_np(seed, wid)
    pos = np.full(n_walks, start, dtype=np.intp)
    for t in range(step_cap):
        if wid.size == 0:
            break
        key = u01_np(keys, t)
        key += pos
        nxt = indices[_kernels._row_choice(indptr, aug, pos, key, span)]
        out = ~in_region[nxt]
        if out.any():
            done = wid[out]
            steps[done] = t + 1
            exit_vertex[done] = nxt[out]
            stay = ~out
            wid, keys, nxt = wid[stay], keys[stay], nxt[stay]
        pos = nxt
    return steps, exit_vertex


def assert_matches_reference(g, x, in_region, n_walks, step_cap, seed):
    run = (in_region, x, n_walks, step_cap, seed)
    steps, exits = _kernels.simulate_exits(g.indptr, g.indices, g.weights,
                                           g.mu, *run)
    want_steps, want_exits = reference_exits(g.indptr, g.indices,
                                             host_profile(g), *run)
    assert np.array_equal(steps, want_steps)
    assert np.array_equal(exits, want_exits)


def exits_digest(g, x, R, n, seed):
    steps, exits = _kernels.simulate_exits(
        g.indptr, g.indices, g.weights, g.mu, region(g, x, R),
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


class TestBucketKernel:
    def test_matches_reference_on_walk_hosts(self):
        for g, x in walk_hosts():
            for R, seed in ((1, 3), (2, 5), (4, 2 ** 63 + 1)):
                in_region = region(g, x, R)
                if not in_region.all():
                    assert_matches_reference(g, x, in_region, 3000,
                                             100 * R * R, seed)

    @given(connected_graphs(w_min=1e-6, w_max=1e6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_wide_weights(self, g, data):
        # weights 12 decades apart put many thresholds in one bucket
        n = g.vertex_count
        x = data.draw(st.integers(0, n - 1))
        R = data.draw(st.integers(1, n))
        assert_matches_reference(g, x, region(g, x, R),
                                 data.draw(st.integers(1, 200)),
                                 data.draw(st.integers(1, 300)),
                                 data.draw(st.integers(0, 2 ** 64 - 1)))

    def test_batch_independence(self):
        # walk w draws from (seed, w, t) alone, so the first n walks of a
        # larger batch are the n walks of a batch of n, however the kernel
        # orders its live walkers as others exit
        n = 400
        for g, x in walk_hosts():
            for R in (1, 2, 4):
                in_region = region(g, x, R)
                for seed in (0, 5, 2 ** 63 + 1):
                    run = (g.indptr, g.indices, g.weights, g.mu, in_region, x)
                    small = _kernels.simulate_exits(*run, n, 100 * R * R, seed)
                    large = _kernels.simulate_exits(*run, 2 * n + 1,
                                                    100 * R * R, seed)
                    for a, b in zip(small, large):
                        assert np.array_equal(a, b[:n])

    def test_start_outside_region_refused(self):
        g, c = lattice_box(2, 21)
        with pytest.raises(ValueError, match="outside the walk region"):
            _kernels.simulate_exits(g.indptr, g.indices, g.weights, g.mu,
                                    region(g, c, 2),
                                    c + 5, 10, 10, 1)

    def test_memory_follows_region(self):
        # B(c,4) has 41 vertices on either host; one int64 per vertex of
        # 401x401 alone is 1.2 MiB
        peaks = []
        for side in (41, 401):
            g, c = lattice_box(2, side)
            in_region = region(g, c, 4)
            tracemalloc.start()
            try:
                _kernels.simulate_exits(g.indptr, g.indices, g.weights, g.mu,
                                        in_region, c, 1000, 1600, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 2 * peaks[0]

    def test_memory_per_walk(self):
        # walker state and the step's buffers are allocated once, at entry:
        # a step that allocates batch-sized arrays peaks above 60 bytes a walk
        g, _ = sierpinski_gasket(6)
        n = 100_000
        in_region = region(g, 0, 16)
        tracemalloc.start()
        try:
            _kernels.simulate_exits(g.indptr, g.indices, g.weights, g.mu,
                                    in_region, 0, n, 100 * 16 * 16, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 60 * n

    def test_region_past_int32_offsets_refused(self, monkeypatch):
        # row offsets are local id << BUCKET_BITS in int32: with 28 bucket
        # bits a region may hold 7 vertices, and B(c,3) holds 13.  The
        # refusal comes before the table, which would take 1 GiB a vertex
        def no_table(*args):
            raise AssertionError("table built for a refused region")

        g, c = lattice_box(2, 21)
        monkeypatch.setattr(_kernels, "BUCKET_BITS", 28)
        monkeypatch.setattr(_kernels, "_bucket_table", no_table)
        with pytest.raises(ValueError, match="walk region of 13 vertices"):
            _kernels.simulate_exits(g.indptr, g.indices, g.weights, g.mu,
                                    region(g, c, 3), c, 10, 10, 1)


def check_bucket_table(g, in_region):
    """Every table entry against ``_row_choice`` on the host arrays at the
    two ends of its bucket; returns the table and the region's rows."""
    aug = host_profile(g)
    rows, ptr, raug, code = _kernels._region_csr(g.indptr, g.indices,
                                                 g.weights, g.mu, in_region)
    # the region's profile is the host's, entry for entry
    at = np.concatenate([np.arange(g.indptr[v], g.indptr[v + 1])
                         for v in rows])
    assert raug.tobytes() == aug[at].tobytes()
    table = _kernels._bucket_table(rows, ptr, raug, code).ravel()
    b = _kernels.BUCKET_BITS
    j = np.arange(1 << b)
    u_lo = (j << (53 - b)) * 2.0 ** -53
    u_hi = (((j + 1) << (53 - b)) - 1) * 2.0 ** -53
    assert u_hi[-1] == U_MAX
    pos = np.repeat(rows, j.size)
    key_lo = pos + np.tile(u_lo, rows.size)
    key_hi = pos + np.tile(u_hi, rows.size)
    span = int(np.diff(g.indptr).max()) - 1
    k_lo = _kernels._row_choice(g.indptr, aug, pos, key_lo, span)
    k_hi = _kernels._row_choice(g.indptr, aug, pos, key_hi, span)
    nbr = g.indices[k_lo]
    want = np.where(in_region[nbr], np.searchsorted(rows, nbr), -2 - nbr)
    fixed = table != _kernels.AMBIGUOUS
    assert np.array_equal(k_lo[fixed], k_hi[fixed])
    assert np.array_equal(table[fixed], want[fixed])
    # an ambiguous bucket holds the row threshold its low end sits below
    amb = ~fixed
    assert np.all(aug[k_lo[amb]] > key_lo[amb])
    assert np.all(aug[k_lo[amb]] <= key_hi[amb])
    return table.reshape(rows.size, j.size), rows


class TestBucketTable:
    def test_entries_match_row_choice(self):
        for g, x in walk_hosts():
            table, _ = check_bucket_table(g, region(g, x, 3))
            assert (table == _kernels.AMBIGUOUS).any()
            assert (table < _kernels.AMBIGUOUS).any()
            assert (table >= 0).any()

    def test_last_bucket_key_rounds_to_row_end(self):
        # the triangle of test_key_rounding_to_row_end: the last bucket's
        # top key v + U_MAX rounds to v + 1.0 and takes the row's last entry
        g = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1e-30)])
        table, rows = check_bucket_table(g, np.ones(3, dtype=bool))
        for v in (1, 2):
            assert v + U_MAX == v + 1.0
            last = g.indices[g.indptr[v + 1] - 1]
            assert table[v, -1] == np.searchsorted(rows, last)


class TestRowChoice:
    def test_matches_host_wide_search(self):
        # reference rule: the first aug entry > v + u over the whole host,
        # clamped to the end of row v
        u = np.concatenate([[0.0, U_MAX], np.linspace(0, 1, 97)[:-1],
                            u01_np(np.arange(64, dtype=np.uint64), 0)])
        for g, _ in walk_hosts():
            aug = host_profile(g)
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
        aug = host_profile(g)
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

    @given(connected_graphs(), st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_random_hosts_match_exact_solver(self, g, data):
        x = data.draw(st.integers(0, g.vertex_count - 1))
        # B(x, ecc(x)) misses the farthest vertices; B(x, ecc(x) + 1) is
        # the whole host
        R = data.draw(st.integers(1, int(eccentricities(g)[x])))
        # P(T > 2k Ebar) <= 2^-k from any start, so a cap of 100 Ebar
        # leaves each walk a 2^-50 chance of reaching it
        cap = int(100 * max_exit_time(g, x, R)) + 1
        est = mc_exit_time(g, x, R, WalkConfig(
            seed=data.draw(st.integers(0, 2 ** 64 - 1)), n_walks=4000,
            step_cap=cap))
        assert est.capped_count == 0
        assert abs(est.mean - mean_exit_time(g, x, R)) <= 4 * est.std_error

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
            with pytest.raises(ValueError, match=rf"seed {seed} outside"):
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

    def test_weighted_two_neighbour_ratio(self):
        # weights 2:1 -> transition probabilities 2/3 : 1/3
        g = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 1.0)])
        n = 60_000
        hits = mc_exit_sample(g, 1, 1, WalkConfig(seed=4, n_walks=n)
                              ).exit_counts[0]
        p = 2 / 3
        assert abs(hits - n * p) <= 4 * np.sqrt(n * p * (1 - p))

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
