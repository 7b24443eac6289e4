"""Independent reference computations for the test suite.

Everything here deliberately avoids the library's evaluation paths:
occupation probabilities come from enumerating beam-splitter amplitudes
in mpmath, negativities from 30-digit radial integrals split at the
roots of the monomial-form profile, single-mode marginals from scipy's
Laguerre polynomials, purities and negativities from dense trapezoid
grids, Gaussian Wigner functions from the inverse covariance, the
model's drift and diffusion in physical units and its Hamiltonian flow
as matrices, Gaussian moments from fourth-order Runge-Kutta steps of the
moment equations, steady states from a Kronecker solve of the Lyapunov
equation, one-step moment maps from scipy's expm, and 30-digit moments
and mode tracks from mpmath's expm of Van Loan's block.  Nothing here
imports the library.
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


def marginal_wigner(populations, q, p, a_q: float = 1.0, a_p: float = 1.0, hbar: float = 1.0):
    """Wigner function of the number-diagonal state sum_j P_j |j><j| at (q, p).

    sum_j (-1)^j P_j L_j(2s) e^{-s} / (pi hbar) with s = a_q q^2 + a_p p^2 and
    a_q a_p = 1/hbar^2; the Laguerre values come from scipy.
    """
    from scipy.special import eval_laguerre

    s = a_q * np.square(q) + a_p * np.square(p)
    profile = sum((-1) ** j * prob * eval_laguerre(j, 2.0 * s) for j, prob in enumerate(populations))
    return np.exp(-s) * profile / (math.pi * hbar)


def gaussian_wigner(mean, cov, *coords):
    """exp(-(z - d)^T sigma^-1 (z - d) / 2) / ((2 pi)^N sqrt(det sigma)) at z = coords, broadcast."""
    mean, cov = np.asarray(mean, dtype=float), np.asarray(cov, dtype=float)
    if len(coords) != mean.size:
        raise ValueError(f"expected {mean.size} coordinates, got {len(coords)}")
    diff = np.stack(np.broadcast_arrays(*[np.asarray(c, dtype=float) for c in coords]), axis=-1) - mean
    quad = np.einsum("...i,ij,...j->...", diff, np.linalg.inv(cov), diff)
    return np.exp(-0.5 * quad) / ((2.0 * math.pi) ** (mean.size // 2) * math.sqrt(np.linalg.det(cov)))


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


def drift_and_diffusion(alpha, beta, hbar, gamma, decay_rate, mbar) -> tuple[np.ndarray, np.ndarray]:
    """Drift A and diffusion D of the model in physical (q1, p1, q2, p2).

    Hamilton's equations of H = alpha^2 (p1^2 + p2^2) + beta^2 (q1^2 + q2^2) + gamma (p1 q2 - p2 q1):
    q1' = 2 alpha^2 p1 + gamma q2, p1' = -2 beta^2 q1 + gamma p2, and the mode-2 mirror images
    under the opposite coupling sign.  The bath damps mode 1 at decay_rate / 2 and diffuses it at
    decay_rate (2 mbar + 1) times its vacuum variances hbar alpha / beta and hbar beta / alpha.
    """
    a2, b2, damp = 2.0 * alpha**2, 2.0 * beta**2, -decay_rate / 2.0
    drift = np.array([
        [damp, a2, gamma, 0.0],
        [-b2, damp, 0.0, gamma],
        [-gamma, 0.0, 0.0, a2],
        [0.0, -gamma, -b2, 0.0],
    ])
    noise = decay_rate * (2.0 * mbar + 1.0) * hbar
    return drift, np.diag([noise * alpha / beta, noise * beta / alpha, 0.0, 0.0])


def hamiltonian_flow(mass, omega, gamma, t) -> np.ndarray:
    """The 4 x 4 matrix carrying (q1, p1, q2, p2) along Hamilton's equations for a time t.

    The rotation mixing the mode planes at gamma, [[c, s], [-s, c]] at gamma t,
    times each mode's own rotation at omega, which turns q into p / (m omega).
    """
    cg, sg = math.cos(gamma * t), math.sin(gamma * t)
    cw, sw = math.cos(omega * t), math.sin(omega * t)
    ratio = mass * omega
    return np.kron([[cg, sg], [-sg, cg]], [[cw, sw / ratio], [-sw * ratio, cw]])


def rk4_moments(drift, diffusion, mean, cov, t_grid, max_step: float):
    """Moments on t_grid from classical fourth-order Runge-Kutta steps.

    Integrates d' = A d, sigma' = A sigma + sigma A^T + D, splitting each
    grid interval into equal substeps no longer than max_step.  Returns
    means (n, 4) and covariances (n, 4, 4).
    """
    d = np.array(mean, dtype=float)
    sigma = np.array(cov, dtype=float)

    def derivative(d, sigma):
        return drift @ d, drift @ sigma + sigma @ drift.T + diffusion

    means, covs = [d], [sigma]
    for span in np.diff(np.asarray(t_grid, dtype=float)):
        substeps = max(1, math.ceil(span / max_step))
        h = span / substeps
        for _ in range(substeps):
            k1d, k1s = derivative(d, sigma)
            k2d, k2s = derivative(d + 0.5 * h * k1d, sigma + 0.5 * h * k1s)
            k3d, k3s = derivative(d + 0.5 * h * k2d, sigma + 0.5 * h * k2s)
            k4d, k4s = derivative(d + h * k3d, sigma + h * k3s)
            d = d + (h / 6.0) * (k1d + 2 * k2d + 2 * k3d + k4d)
            sigma = sigma + (h / 6.0) * (k1s + 2 * k2s + 2 * k3s + k4s)
        means.append(d)
        covs.append(sigma)
    return np.array(means), np.array(covs)


def lyapunov_steady_state(drift, diffusion) -> np.ndarray:
    """sigma with A sigma + sigma A^T + D = 0, from (I x A + A x I) vec sigma = -vec D."""
    n = drift.shape[0]
    eye = np.eye(n)
    vec = np.linalg.solve(np.kron(eye, drift) + np.kron(drift, eye), -diffusion.ravel())
    return vec.reshape(n, n)


def van_loan_map(drift, diffusion, step: float):
    """(Phi, Q) of one step from a single scipy expm of Van Loan's 8x8 block."""
    from scipy.linalg import expm

    n = drift.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -drift
    block[:n, n:] = diffusion
    block[n:, n:] = drift.T
    ex = expm(block * step)
    phi = ex[n:, n:].T
    return phi, phi @ ex[:n, n:]


def van_loan_moments_mp(drift, diffusion, mean, cov, times) -> list:
    """Moments (d, sigma) at each time as 30-digit mpmath matrices.

    One mpmath expm of Van Loan's block [[-A, D], [0, A^T]] t per time gives
    Phi = F22^T and Q = Phi F12, so d = Phi d(0) and sigma = Phi sigma(0) Phi^T + Q.
    Inputs are mpmath numbers or floats, each float taken as exact.
    """
    n = len(mean)
    with mp.workdps(DIGITS):
        block = mp.zeros(2 * n, 2 * n)
        for i in range(n):
            for j in range(n):
                block[i, j] = -mp.mpf(drift[i][j])
                block[i, n + j] = mp.mpf(diffusion[i][j])
                block[n + i, n + j] = mp.mpf(drift[j][i])
        d0 = mp.matrix([mp.mpf(v) for v in mean])
        s0 = mp.matrix([[mp.mpf(v) for v in row] for row in cov])
        out = []
        for t in times:
            ex = mp.expm(block * mp.mpf(float(t)))
            phi = ex[n:, n:].T
            out.append((phi * d0, phi * s0 * phi.T + phi * ex[:n, n:]))
        return out


def mode_tracks_mp(mean, cov, thermal_variance: float) -> tuple:
    """Fidelity to the zero-mean state thermal_variance * I and coherence in bits, at 30 digits.

    The moments are one mode's, in vacuum units (mpmath or float entries).
    The fidelity is 2 / (sqrt(Delta + delta) - sqrt(delta)) exp(-d^T sigma_+^-1 d / 2),
    the coherence S_th(nbar) - S_th((nu - 1)/2) with
    S_th(n) = (n + 1) log2(n + 1) - n log2(n) and nbar = (tr sigma + |d|^2 - 2)/4.
    """
    with mp.workdps(DIGITS):
        d = mp.matrix([mp.mpf(mean[0]), mp.mpf(mean[1])])
        s = mp.matrix([[mp.mpf(cov[i][j]) for j in range(2)] for i in range(2)])
        v = mp.mpf(thermal_variance)
        splus = s + v * mp.eye(2)
        big = mp.det(splus)
        small = (mp.det(s) - 1) * (v * v - 1)
        quad = (d.T * mp.inverse(splus) * d)[0]
        fid = 2 / (mp.sqrt(big + small) - mp.sqrt(small)) * mp.exp(-quad / 2)

        def entropy(x):
            return (x + 1) * mp.log(x + 1, 2) - (x * mp.log(x, 2) if x > 0 else 0)

        nbar = (s[0, 0] + s[1, 1] + d[0] ** 2 + d[1] ** 2 - 2) / 4
        return fid, entropy(nbar) - entropy((mp.sqrt(mp.det(s)) - 1) / 2)
