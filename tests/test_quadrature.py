import math

import numpy as np
import pytest

from oracles import PhaseSpaceGrid, integrate_grid
from wignerosc.quadrature import QuadratureRule, gauss_hermite, laguerre, laguerre_table


class TestLaguerre:
    def test_order_zero_is_one(self):
        assert laguerre(0, 3.7) == 1.0

    def test_order_one(self):
        assert laguerre(1, 2.0) == pytest.approx(-1.0, abs=1e-15)

    def test_order_two(self):
        # 1 - 2x + x^2/2 at x = 2
        assert laguerre(2, 2.0) == pytest.approx(-1.0, abs=1e-15)

    def test_vectorized(self):
        x = np.linspace(-3, 3, 11)
        assert np.allclose(laguerre(1, x), 1.0 - x)

    def test_recurrence_identity(self):
        x = np.linspace(-50.0, 50.0, 401)
        for n in range(1, 21):
            lhs = (n + 1) * laguerre(n + 1, x)
            rhs = (2 * n + 1 - x) * laguerre(n, x) - n * laguerre(n - 1, x)
            scale = np.maximum(np.abs(lhs), 1.0)
            assert np.max(np.abs(lhs - rhs) / scale) < 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0.0)
        with pytest.raises(ValueError):
            laguerre(2, math.nan)
        with pytest.raises(ValueError):
            laguerre_table(3, [0.0, math.inf])

    def test_table_rows_are_orders(self):
        x = np.linspace(0.0, 40.0, 7).reshape(7, 1)
        table = laguerre_table(6, x)
        assert table.shape == (7, 7, 1)
        for n in range(7):
            assert np.array_equal(table[n], laguerre(n, x))


class TestGaussHermite:
    def test_single_node(self):
        rule = gauss_hermite(1)
        assert rule.nodes[0] == 0.0
        assert rule.weights[0] == pytest.approx(math.sqrt(math.pi), rel=1e-15)

    def test_two_nodes(self):
        rule = gauss_hermite(2)
        assert rule.nodes == pytest.approx([-1 / math.sqrt(2), 1 / math.sqrt(2)], abs=1e-14)
        assert rule.weights == pytest.approx([math.sqrt(math.pi) / 2] * 2, rel=1e-14)

    def test_weight_sum(self):
        for n in (1, 2, 5, 16, 64, 128):
            rule = gauss_hermite(n)
            assert abs(np.sum(rule.weights) - math.sqrt(math.pi)) < 1e-12

    @pytest.mark.parametrize("n", [2, 5, 8, 20, 40])
    def test_moment_exactness(self, n):
        # exact for x^d, d <= 2n-1: even moments are gamma((d+1)/2)
        rule = gauss_hermite(n)
        for degree in range(0, 2 * n, 2):
            exact = math.gamma((degree + 1) / 2.0)
            quad = float(np.sum(rule.weights * rule.nodes**degree))
            assert abs(quad - exact) < 1e-10 * abs(exact)
        for degree in range(1, 2 * n, 2):
            odd_scale = math.gamma((degree + 2) / 2.0)
            assert abs(np.sum(rule.weights * rule.nodes**degree)) < 1e-10 * odd_scale

    def test_quartic_moment(self):
        rule = gauss_hermite(5)
        quad = float(np.sum(rule.weights * rule.nodes**4))
        assert abs(quad - 0.75 * math.sqrt(math.pi)) < 1e-12

    def test_range_check(self):
        with pytest.raises(ValueError):
            gauss_hermite(0)
        with pytest.raises(ValueError):
            gauss_hermite(129)

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            QuadratureRule(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            QuadratureRule(np.array([0.0, 1.0]), np.array([1.0, -1.0]))


class TestPhaseSpaceGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseSpaceGrid(-1.0, 129)
        with pytest.raises(ValueError):
            PhaseSpaceGrid(1.0, 128)
        with pytest.raises(ValueError):
            PhaseSpaceGrid(1.0, 1)
        with pytest.raises(ValueError):
            PhaseSpaceGrid(1.0, 129, dim=3)

    def test_cell_volume(self):
        grid = PhaseSpaceGrid(2.0, 5, dim=2)
        assert grid.cell_volume == pytest.approx(1.0)

    def test_refined_nests(self):
        grid = PhaseSpaceGrid(3.0, 65)
        fine = grid.refined()
        assert fine.points == 129
        assert np.allclose(fine.axis()[::2], grid.axis())


class TestIntegrateGrid:
    def test_zero(self):
        grid = PhaseSpaceGrid(1.0, 5)
        assert integrate_grid(np.zeros((5, 5)), grid) == 0.0

    def test_constant_area(self):
        grid = PhaseSpaceGrid(1.0, 9)
        assert integrate_grid(np.ones((9, 9)), grid) == pytest.approx(4.0, rel=1e-14)

    def test_gaussian(self):
        grid = PhaseSpaceGrid(8.0, 257)
        ax = grid.axis()
        samples = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2))
        assert integrate_grid(samples, grid) == pytest.approx(math.pi, abs=1e-8)

    def test_linearity(self):
        rng = np.random.default_rng(42)
        grid = PhaseSpaceGrid(2.0, 33)
        f = rng.normal(size=(33, 33))
        g = rng.normal(size=(33, 33))
        combined = integrate_grid(2.5 * f - 1.25 * g, grid)
        separate = 2.5 * integrate_grid(f, grid) - 1.25 * integrate_grid(g, grid)
        assert combined == pytest.approx(separate, abs=1e-12)

    def test_shape_mismatch(self):
        grid = PhaseSpaceGrid(1.0, 5, dim=4)
        with pytest.raises(ValueError):
            integrate_grid(np.zeros((5, 5)), grid)

    def test_four_dimensional(self):
        grid = PhaseSpaceGrid(1.0, 5, dim=4)
        assert integrate_grid(np.ones((5,) * 4), grid) == pytest.approx(16.0, rel=1e-13)
