"""Closed-form Wigner dynamics of two oscillators with a rotational coupling.

The system is a pair of identical harmonic oscillators coupled through the
angular-momentum-like term gamma*(p1*q2 - p2*q1),

    H = alpha^2 (p1^2 + p2^2) + beta^2 (q1^2 + q2^2) + gamma (p1 q2 - p2 q1),

with alpha^2 = 1/(2m) and beta^2 = m omega^2 / 2.  The coupling commutes
with the total excitation number, so everything stays exactly solvable:

* Energies split the normal modes by +-gamma around the uncoupled ladder.
* Hamilton's flow factorizes into an intra-mode rotation at omega and a
  rotation mixing the two mode planes at gamma; both are written out in
  closed form in :func:`classical_trajectory`.
* A product of number states |k> x |l> evolves by evaluating the t=0
  Wigner function at inter-mode-rotated coordinates with angle gamma*t.
  The intra-mode omega rotation is dropped throughout: single-mode
  number-state Wigner functions are circularly symmetric in their own
  plane, so it is invisible in every evaluated quantity.

Each single-mode marginal of the evolving pair is the Wigner function of
a state diagonal in the number basis.  Its populations follow from one
eigendecomposition in the block of k + l quanta, so the marginals take a
closed form with no integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import laguerre, laguerre_table

__all__ = [
    "FockPairState",
    "OscillatorParams",
    "PhasePoint",
    "classical_trajectory",
    "energy",
    "envelope_rates",
    "evolved_wigner",
    "hamiltonian_symbol",
    "marginal_wigner",
    "mode_populations",
    "radial_profile",
    "stationary_wigner",
]


@dataclass(frozen=True)
class OscillatorParams:
    """Masses, frequencies and couplings defining the two-mode Hamiltonian."""

    mass: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("mass", "omega", "hbar"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")

    @property
    def alpha(self) -> float:
        return 1.0 / math.sqrt(2.0 * self.mass)

    @property
    def beta(self) -> float:
        return math.sqrt(self.mass) * self.omega / math.sqrt(2.0)


@dataclass(frozen=True)
class PhasePoint:
    """A point (q1, p1, q2, p2) of the four-dimensional phase space."""

    q1: float
    p1: float
    q2: float
    p2: float

    def __post_init__(self):
        for name in ("q1", "p1", "q2", "p2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.q1, self.p1, self.q2, self.p2])


@dataclass(frozen=True)
class FockPairState:
    """Product of number states |k> x |l> of the two modes at t = 0.

    Stationary only for gamma = 0; for gamma != 0 the joint Wigner
    function rotates between the mode planes at angle gamma*t.
    """

    k: int
    ell: int
    params: OscillatorParams

    def __post_init__(self):
        if int(self.k) != self.k or int(self.ell) != self.ell:
            raise ValueError("quantum numbers must be integers")
        if self.k < 0 or self.ell < 0:
            raise ValueError("quantum numbers must be nonnegative")


def _coords(point):
    """Accept a PhasePoint or any 4-sequence of broadcastable coordinates."""
    if isinstance(point, PhasePoint):
        return point.q1, point.p1, point.q2, point.p2
    q1, p1, q2, p2 = point
    return (np.asarray(q1, dtype=float), np.asarray(p1, dtype=float),
            np.asarray(q2, dtype=float), np.asarray(p2, dtype=float))


def envelope_rates(params: OscillatorParams) -> tuple[float, float]:
    """Per-mode Gaussian rates (a_q, a_p): W ~ exp(-a_q q^2 - a_p p^2).

    The rates satisfy a_q * a_p = 1/hbar^2, so the per-mode change of
    variables to unit-rate coordinates carries the Jacobian hbar.
    """
    a_q = params.alpha / (params.beta * params.hbar)
    a_p = params.beta / (params.alpha * params.hbar)
    return a_q, a_p


def energy(n1: int, n2: int, params: OscillatorParams) -> float:
    """Energy eigenvalue 2*hbar*alpha*beta*(n1+n2+1) + hbar*gamma*(n1-n2)."""
    if n1 < 0 or n2 < 0:
        raise ValueError("quantum numbers must be nonnegative")
    hw = 2.0 * params.hbar * params.alpha * params.beta
    return hw * (n1 + n2 + 1) + params.hbar * params.gamma * (n1 - n2)


def hamiltonian_symbol(params: OscillatorParams):
    """The classical Hamiltonian as a function on phase space."""
    a2 = params.alpha**2
    b2 = params.beta**2
    g = params.gamma

    def symbol(q1, p1, q2, p2):
        return a2 * (p1 * p1 + p2 * p2) + b2 * (q1 * q1 + q2 * q2) + g * (p1 * q2 - p2 * q1)

    return symbol


def stationary_wigner(n1: int, n2: int, point, params: OscillatorParams):
    """Wigner function of the energy eigenstate with quantum numbers (n1, n2).

    Gaussian envelope times Laguerre factors in the two normal-mode radii
    r^2 +- 2(p1 q2 - p2 q1)/hbar; n1 labels the branch whose energy grows
    with gamma, so that the phase-space average of the Hamiltonian equals
    :func:`energy` (n1, n2).  Normalized over the full phase space.
    """
    if n1 < 0 or n2 < 0:
        raise ValueError("quantum numbers must be nonnegative")
    q1, p1, q2, p2 = _coords(point)
    a_q, a_p = envelope_rates(params)
    x1, y1 = np.sqrt(a_q) * q1, np.sqrt(a_p) * p1
    x2, y2 = np.sqrt(a_q) * q2, np.sqrt(a_p) * p2
    r2 = x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2
    cross = y1 * x2 - y2 * x1
    sign = -1.0 if (n1 + n2) % 2 else 1.0
    norm = sign / (math.pi**2 * params.hbar**2)
    return norm * np.exp(-r2) * laguerre(n1, r2 + 2 * cross) * laguerre(n2, r2 - 2 * cross)


def classical_trajectory(initial: PhasePoint, t: float, params: OscillatorParams) -> PhasePoint:
    """Solve Hamilton's equations from the given initial point.

    The flow is the product of the intra-mode rotation at omega and the
    inter-mode rotation at gamma; its Jacobian determinant is 1.
    """
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    x0, px0 = initial.q1, initial.p1
    y0, py0 = initial.q2, initial.p2
    cw, sw = math.cos(params.omega * t), math.sin(params.omega * t)
    cg, sg = math.cos(params.gamma * t), math.sin(params.gamma * t)
    k = params.beta / params.alpha
    q1 = x0 * cw * cg + y0 * cw * sg + k * (py0 * sw * sg + px0 * sw * cg)
    q2 = y0 * cw * cg - x0 * cw * sg - k * (px0 * sw * sg - py0 * sw * cg)
    p1 = px0 * cw * cg + py0 * cw * sg - (y0 * sw * sg + x0 * sw * cg) / k
    p2 = py0 * cw * cg - px0 * cw * sg + (x0 * sw * sg - y0 * sw * cg) / k
    return PhasePoint(q1, p1, q2, p2)


def evolved_wigner(state: FockPairState, point, t: float):
    """Joint Wigner function of the evolving pair at time t.

    Equals the t=0 product state evaluated at coordinates rotated between
    the mode planes by theta = gamma*t; the envelope exp(-r^2) is
    invariant under that rotation, so only the Laguerre radii rotate.
    """
    if not math.isfinite(t):
        raise ValueError("time must be finite")
    params = state.params
    q1, p1, q2, p2 = _coords(point)
    a_q, a_p = envelope_rates(params)
    x1, y1 = np.sqrt(a_q) * q1, np.sqrt(a_p) * p1
    x2, y2 = np.sqrt(a_q) * q2, np.sqrt(a_p) * p2
    theta = params.gamma * t
    c, s = math.cos(theta), math.sin(theta)
    rho1 = (c * x1 - s * x2) ** 2 + (c * y1 - s * y2) ** 2
    rho2 = (s * x1 + c * x2) ** 2 + (s * y1 + c * y2) ** 2
    sign = -1.0 if (state.k + state.ell) % 2 else 1.0
    norm = sign / (math.pi**2 * params.hbar**2)
    r2 = x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2
    return norm * np.exp(-r2) * laguerre(state.k, 2 * rho1) * laguerre(state.ell, 2 * rho2)


def mode_populations(state: FockPairState, t, mode: int = 1) -> np.ndarray:
    """Number-state populations P_j, j = 0..k+l, of one mode at time(s) t.

    The coupling keeps the pair in the block of N = k + l quanta.  In the
    basis |j, N-j> its generator is, up to phases, the real tridiagonal
    matrix with off-diagonals sqrt((j+1)(N-j)), so one eigendecomposition
    V diag(lambda) V^T gives the amplitudes (V e^{-i lambda theta} V^T)[j, k]
    at every mixing angle theta = gamma*t at once (Campos, Saleh & Teich,
    PRA 40, 1371, 1989).  Mode 2 holds N - j quanta when mode 1 holds j,
    so its populations are mode 1's reversed.  The result has t's shape
    plus a trailing axis of length N + 1.
    """
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    theta = state.params.gamma * np.asarray(t, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValueError("time must be finite")
    total = int(state.k + state.ell)
    j = np.arange(total)
    off = np.sqrt((j + 1.0) * (total - j))
    lam, vec = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    amps = (np.exp(-1j * theta[..., None] * lam) * vec[int(state.k)]) @ vec.T
    probs = amps.real**2 + amps.imag**2
    return probs if mode == 1 else probs[..., ::-1]


def radial_profile(populations, s, hbar: float = 1.0):
    """sum_j (-1)^j P_j L_j(2s) / (pi hbar) at the scaled squared radius s.

    The Wigner function of the number-diagonal state sum_j P_j |j><j| is
    this profile times its envelope exp(-s), with s = a_q q^2 + a_p p^2.
    """
    probs = np.asarray(populations, dtype=float)
    signs = (-1.0) ** np.arange(probs.size)
    table = laguerre_table(probs.size - 1, 2.0 * np.asarray(s, dtype=float))
    return np.tensordot(signs * probs, table, axes=1) / (math.pi * hbar)


def marginal_wigner(state: FockPairState, t: float, mode: int, point):
    """Single-mode marginal W_mode(q, p) of the evolving pair at time t."""
    q, p = point
    a_q, a_p = envelope_rates(state.params)
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    s = a_q * q * q + a_p * p * p
    probs = mode_populations(state, t, mode)
    out = np.exp(-s) * radial_profile(probs, s, state.params.hbar)
    return float(out) if np.ndim(out) == 0 else out
