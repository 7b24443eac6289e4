import math

import numpy as np
import pytest

from oracles import PhaseSpaceGrid, integrate_grid
from wignerosc.fock_dynamics import FockPairState, OscillatorParams, WignerField, pair_field
from wignerosc.info_measures import linear_entropy, normalization


def absolute_moment(power, a):
    """integral |x|^power exp(-a x^2) dx over the real line."""
    return math.gamma((power + 1) / 2) / a ** ((power + 1) / 2)


class TestGaussHermite:
    """The library's Gauss-Hermite integrals: exact for every profile up to the field's degree."""

    @pytest.mark.parametrize("n", [2, 5, 8, 20, 40])
    def test_moment_exactness(self, n):
        # W = z_i^j exp(-|z|^2) declared of degree n, for every j <= n, on each axis in turn:
        # its integral and the integral of its square, which the purity takes, are Gaussian moments
        for power in range(n + 1):
            axis = power % 4
            field = WignerField(lambda *z: z[axis] ** power, n)
            scale = absolute_moment(power, 1.0) * math.pi**1.5
            exact = scale if power % 2 == 0 else 0.0
            assert abs(normalization(field) - exact) < 1e-10 * scale
            square = absolute_moment(2 * power, 2.0) * (math.pi / 2) ** 1.5
            purity = (2 * math.pi) ** 2 * square
            assert 1.0 - linear_entropy(field) == pytest.approx(purity, rel=1e-10)

    def test_range_check(self):
        # |32> x |0> has degree 64: the square needs 65 nodes, one past the 64 whose 4-d grid holds 2^24 points
        field = pair_field(FockPairState(32, 0, OscillatorParams()))
        with pytest.raises(ValueError, match="needs 65 Gauss-Hermite nodes"):
            linear_entropy(field)


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
