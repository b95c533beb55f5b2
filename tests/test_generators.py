import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from einstein_lab.conditions import _loglog_fit
from einstein_lab.generators import (FamilySpec, apply_radial_weights,
                                     binary_tree, build, lattice_box,
                                     sierpinski_gasket, vicsek_tree)
from einstein_lab.graph import eccentricities, min_transition
from einstein_lab.potential import mean_exit_time, resistance_annulus


class TestLattice:
    def test_1d_is_path(self):
        g, c = lattice_box(1, 5)
        assert g.vertex_count == 5
        assert len(g.edges) == 4
        assert c == 2

    def test_2d_counts(self):
        g, c = lattice_box(2, 3)
        assert (g.vertex_count, len(g.edges)) == (9, 12)

    def test_3d_counts(self):
        g, c = lattice_box(3, 3)
        assert (g.vertex_count, len(g.edges)) == (27, 54)
        assert c == 13

    def test_even_side_rejected(self):
        with pytest.raises(ValueError):
            lattice_box(2, 40)

    def test_bad_dim_rejected(self):
        with pytest.raises(ValueError):
            lattice_box(4, 5)

    def test_exit_exponent_near_two(self):
        g, c = lattice_box(2, 41)
        fit = _loglog_fit([4, 8, 16], [mean_exit_time(g, c, R)
                                       for R in (4, 8, 16)])
        assert fit.exponent == pytest.approx(2.0, abs=0.15)


class TestGasket:
    def test_level1(self):
        g, corner = sierpinski_gasket(1)
        assert (g.vertex_count, len(g.edges)) == (6, 9)
        assert corner == 0

    def test_vertex_formula(self):
        for k in range(1, 6):
            g, _ = sierpinski_gasket(k)
            assert g.vertex_count == (3 ** (k + 1) + 3) // 2
            assert len(g.edges) == 3 ** (k + 1)

    def test_level_range(self):
        with pytest.raises(ValueError):
            sierpinski_gasket(0)
        with pytest.raises(ValueError):
            sierpinski_gasket(9)

    def test_dyadic_exit_ratio_near_five(self):
        # self-similar time scaling: one level up multiplies E by ~5
        g, corner = sierpinski_gasket(6)
        for R in (8, 16):
            ratio = mean_exit_time(g, corner, 2 * R) / mean_exit_time(g, corner, R)
            assert ratio == pytest.approx(5.0, abs=0.4)


class TestVicsek:
    def test_counts(self):
        for k, n in ((1, 5), (2, 21), (3, 101), (4, 501)):
            g, hub = vicsek_tree(k)
            assert g.vertex_count == n
            assert len(g.edges) == n - 1      # tree
            assert hub == 0

    def test_level1_star(self):
        g, hub = vicsek_tree(1)
        assert g.distances(hub).tolist() == [0, 1, 1, 1, 1]

    def test_hub_p0(self):
        g, _ = vicsek_tree(3)
        assert min_transition(g)[0] == pytest.approx(0.25)

    def test_resistance_grows_linearly(self):
        g, hub = vicsek_tree(4)
        radii = [2, 4, 8]
        fit = _loglog_fit(radii, [resistance_annulus(g, hub, R, 2 * R)
                                  for R in radii])
        assert fit.exponent == pytest.approx(1.0, abs=0.15)


class TestBinaryTree:
    def test_counts(self):
        g, root = binary_tree(2)
        assert (g.vertex_count, len(g.edges)) == (7, 6)
        assert root == 0

    def test_depth(self):
        g, root = binary_tree(4)
        assert eccentricities(g)[root] == 4


class TestWeightRules:
    def test_radial_levels(self):
        g, c = lattice_box(1, 5)
        h = apply_radial_weights(g, c, 2.0)
        # edge level = min endpoint distance from the center
        want = {(0, 1): 2.0, (1, 2): 1.0, (2, 3): 1.0, (3, 4): 2.0}
        assert {(u, v): w for u, v, w in h.edges} == want

    @given(st.floats(min_value=0.25, max_value=4.0),
           st.sampled_from([(1, 31), (2, 9), (3, 5)]))
    @settings(max_examples=40, deadline=None)
    @example(0.7, (2, 9))       # numpy's 0.7 ** 4 is not Python's
    @example(1.3, (1, 31))      # nor its 1.3 ** 7
    def test_radial_weights_match_edge_loop(self, lam, box):
        g, c = lattice_box(*box)
        d = g.distances(c)
        want = [(u, v, w * lam ** int(min(d[u], d[v])))
                for u, v, w in g.edges]
        assert apply_radial_weights(g, c, lam).edges == want

    def test_lambda_bounds(self):
        g, c = lattice_box(1, 5)
        with pytest.raises(ValueError):
            apply_radial_weights(g, c, 0.1)
        with pytest.raises(ValueError):
            apply_radial_weights(g, c, 5.0)

    def test_build_dispatch(self):
        g, c = build(FamilySpec(family="sierpinski", size=2))
        assert g.vertex_count == 15
        g, c = build(FamilySpec(family="lattice", size=5, dim=1,
                                weight_rule="radial", radial_lambda=0.5))
        assert np.isclose(g.mu.sum(), 2 * (0.5 + 1 + 1 + 0.5))
        with pytest.raises(ValueError):
            build(FamilySpec(family="moebius", size=3))


def test_all_families_pass_validation():
    # WeightedGraph construction enforces connectivity/positivity; touching
    # each family here keeps the emitted structures honest
    for g, _ in (lattice_box(3, 5), sierpinski_gasket(3), vicsek_tree(3),
                 binary_tree(5)):
        assert min_transition(g)[0] > 0
