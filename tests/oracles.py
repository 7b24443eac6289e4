"""Independent reference computations for the test suite.

Everything here deliberately avoids the library's evaluation paths:
occupation probabilities come from enumerating beam-splitter amplitudes
in mpmath, negativities from 30-digit radial integrals split at the
roots of the monomial-form profile, and purities and negativities from
dense trapezoid grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

DIGITS = 30


def _populations_mp(k: int, ell: int, theta: float) -> list:
    """Mode-1 occupation probabilities as 30-digit mpmath numbers.

    Expands (c a + s b)^k (c b - s a)^l / sqrt(k! l!) over the number
    basis by direct enumeration; entry j is the probability of finding j
    quanta in the first mode.
    """
    with mp.workdps(DIGITS):
        c, s = mp.cos(mp.mpf(theta)), mp.sin(mp.mpf(theta))
        total = k + ell
        amps = [mp.mpf(0)] * (total + 1)
        for i in range(k + 1):
            for m in range(ell + 1):
                term = mp.binomial(k, i) * mp.binomial(ell, m) * c ** (i + m) * (-s) ** (ell - m) * s ** (k - i)
                amps[i + ell - m] += term
        norm = mp.factorial(k) * mp.factorial(ell)
        return [a * a * mp.factorial(j) * mp.factorial(total - j) / norm for j, a in enumerate(amps)]


def mixed_populations(k: int, ell: int, theta: float) -> np.ndarray:
    """Occupation probabilities of the first mode after rotating |k> x |l>."""
    return np.array([float(p) for p in _populations_mp(k, ell, theta)])


def mixed_state_entropy(k: int, ell: int, theta: float) -> float:
    """Linear entropy 1 - sum(P^2) of the rotated pair's single mode."""
    probs = mixed_populations(k, ell, theta)
    return 1.0 - float(np.sum(probs**2))


def mutual_information_pair(k: int, ell: int, theta: float) -> float:
    """Both marginals share the population multiset, the joint is pure."""
    return 2.0 * mixed_state_entropy(k, ell, theta)


def radial_negativity(populations) -> float:
    """integral e^{-u} (|Q| - Q) du, Q(u) = sum_n (-1)^n P_n L_n(2u), at 30 digits.

    W(q, p) = e^{-u} Q(u) / pi with u = q^2 + p^2.  Q is expanded in
    monomials, its positive real roots come from mpmath's polyroots, and
    each interval between them on which Q < 0 is integrated by mpmath quad.
    """
    with mp.workdps(DIGITS):
        coeffs = [mp.mpf(0)] * len(populations)  # lowest power first
        for n, p in enumerate(populations):
            p = mp.mpf(p)
            for i in range(n + 1):
                coeffs[i] += p * (-1) ** n * mp.binomial(n, i) * (-2) ** i / mp.factorial(i)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()

        def q(u):
            return mp.polyval(coeffs[::-1], u)

        cuts = [mp.mpf(0)]
        if len(coeffs) > 1:
            roots = mp.polyroots(coeffs[::-1], maxsteps=400, extraprec=400)
            cuts += sorted(mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(10) ** -20 and mp.re(r) > 0)
        cuts.append(mp.inf)
        total = mp.mpf(0)
        for lo, hi in zip(cuts, cuts[1:]):
            mid = lo + 1 if hi == mp.inf else (lo + hi) / 2
            if q(mid) < 0:
                total -= 2 * mp.quad(lambda u: mp.exp(-u) * q(u), [lo, hi])
        return float(total)


def negativity_pair(k: int, ell: int, theta: float, mode: int) -> float:
    """Reference negativity of one mode of the rotated pair.

    Mode 2 holds the quanta mode 1 lacks, so its populations are mode 1's
    reversed.
    """
    probs = _populations_mp(k, ell, theta)
    return radial_negativity(probs if mode == 1 else probs[::-1])


def fock1_negativity_closed_form(theta: float = 0.0) -> float:
    """Exact |1> x |0> mode-1 negativity: 2[(1+c)exp(-c/(1+c)) - 1], c = cos(2 theta)."""
    c = math.cos(2.0 * theta)
    if c <= 0.0:
        return 0.0
    return 2.0 * ((1.0 + c) * math.exp(-c / (1.0 + c)) - 1.0)


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Uniform grid on [-extent, extent]^dim with an odd point count.

    Odd counts keep the phase-space origin on the grid, where the extrema
    of number-state Wigner functions sit; sampling it avoids a systematic
    bias in negativity integrals.
    """

    extent: float
    points: int
    dim: int = 2

    def __post_init__(self):
        if not (self.extent > 0 and math.isfinite(self.extent)):
            raise ValueError("extent must be positive and finite")
        if self.dim not in (2, 4):
            raise ValueError("grid dimension must be 2 or 4")
        if self.points < 3 or self.points % 2 == 0:
            raise ValueError("point count must be odd and >= 3")

    @property
    def step(self) -> float:
        return 2.0 * self.extent / (self.points - 1)

    @property
    def cell_volume(self) -> float:
        return self.step**self.dim

    def axis(self) -> np.ndarray:
        return np.linspace(-self.extent, self.extent, self.points)

    def refined(self) -> "PhaseSpaceGrid":
        """Grid with halved spacing; the old nodes are a subset of the new."""
        return PhaseSpaceGrid(self.extent, 2 * self.points - 1, self.dim)


def integrate_grid(samples, grid: PhaseSpaceGrid) -> float:
    """Trapezoid-rule integral of samples laid out on grid.

    samples must have shape (points,)*dim in axis order matching
    meshgrid(..., indexing="ij") over grid.axis().
    """
    arr = np.asarray(samples, dtype=float)
    expected = (grid.points,) * grid.dim
    if arr.shape != expected:
        raise ValueError(f"samples shape {arr.shape} does not match grid {expected}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples must be finite")
    out = arr
    for _ in range(grid.dim):
        out = np.trapezoid(out, dx=grid.step, axis=-1)
    return float(out)


def _grid_values(values_fn, grid: PhaseSpaceGrid) -> np.ndarray:
    ax = grid.axis()
    return np.asarray(values_fn(ax[:, None], ax[None, :]), dtype=float)


def dense_grid_purity(values_fn, extent: float, points: int, hbar: float = 1.0) -> float:
    """(2 pi hbar) * integral(W^2) for a single-mode field on a dense grid."""
    grid = PhaseSpaceGrid(extent, points)
    vals = _grid_values(values_fn, grid)
    return 2.0 * math.pi * hbar * integrate_grid(vals * vals, grid)


def dense_grid_negativity(values_fn, extent: float, points: int) -> float:
    """integral(|W|) - integral(W) for a single-mode field on a dense grid."""
    grid = PhaseSpaceGrid(extent, points)
    vals = _grid_values(values_fn, grid)
    return integrate_grid(np.abs(vals) - vals, grid)
