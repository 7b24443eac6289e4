"""Closed-form Wigner dynamics of two oscillators with a rotational coupling.

The system is a pair of identical harmonic oscillators coupled through the
angular-momentum-like term gamma*(p1*q2 - p2*q1).  In vacuum units,

    H = (hbar omega / 2) (q1^2 + p1^2 + q2^2 + p2^2) + hbar gamma (p1 q2 - p2 q1),

so hbar and omega enter only the energies.  The coupling commutes with
the total excitation number, so everything stays exactly solvable:

* Energies split the normal modes by +-hbar*gamma around the uncoupled ladder.
* Hamilton's flow factorizes into an intra-mode rotation at omega and a
  rotation mixing the two mode planes at gamma.
* A product of number states |k> x |l> evolves by evaluating the t=0
  Wigner function at inter-mode-rotated coordinates with angle gamma*t.
  The intra-mode omega rotation is dropped throughout: single-mode
  number-state Wigner functions are circularly symmetric in their own
  plane, so it is invisible in every evaluated quantity.

Each single-mode marginal of the evolving pair is the Wigner function of
a state diagonal in the number basis.  Its populations follow from one
eigendecomposition in the block of k + l quanta, so the information
measures need no integration over the marginals.

The joint Wigner function of the pair is written once, as the profile of
a :class:`WignerField`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "FockPairState",
    "OscillatorParams",
    "WignerField",
    "energy",
    "mode_populations",
    "pair_field",
]


@dataclass(frozen=True)
class OscillatorParams:
    """Frequency, reduced Planck constant and coupling of the two-mode Hamiltonian."""

    omega: float = 1.0
    hbar: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        for name, value in (("omega", self.omega), ("hbar", self.hbar)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not math.isfinite(self.gamma):
            raise ValueError("gamma must be finite")


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


@dataclass(frozen=True)
class WignerField:
    """W(z) = exp(-|z|^2) * profile(*z) at z = (q1, p1, q2, p2) in vacuum units.

    The profile is a polynomial of degree at most degree, safe to evaluate far
    outside the envelope; degree sizes the quadrature rules exact for it.
    """

    profile: Callable
    degree: int

    def __post_init__(self):
        if int(self.degree) != self.degree or self.degree < 0:
            raise ValueError(f"degree must be a nonnegative integer, got {self.degree}")

    def __call__(self, *z):
        if len(z) != 4:
            raise ValueError(f"expected 4 coordinates, got {len(z)}")
        z = [np.asarray(c, dtype=float) for c in z]
        return np.exp(-sum(c * c for c in z)) * self.profile(*z)


def energy(n1: int, n2: int, params: OscillatorParams) -> float:
    """Energy eigenvalue hbar*omega*(n1+n2+1) + hbar*gamma*(n1-n2)."""
    if n1 < 0 or n2 < 0:
        raise ValueError("quantum numbers must be nonnegative")
    return params.hbar * params.omega * (n1 + n2 + 1) + params.hbar * params.gamma * (n1 - n2)


def pair_field(state: FockPairState, t: float = 0.0) -> WignerField:
    """Two-mode field of the evolving pair at time t.

    The t=0 product state evaluated at coordinates rotated between the
    mode planes by theta = gamma*t; the envelope is invariant under that
    rotation, so only the Laguerre radii rotate.
    """
    from numpy.polynomial.laguerre import lagval

    if not math.isfinite(t):
        raise ValueError("time must be finite")
    theta = state.params.gamma * t
    if not math.isfinite(theta):
        raise OverflowError(f"the mixing angle gamma * t leaves the floats at t = {t:.6g}")
    norm = (-1.0 if (state.k + state.ell) % 2 else 1.0) / math.pi**2
    c, s = math.cos(theta), math.sin(theta)
    unit_k, unit_l = ([0.0] * n + [1.0] for n in (state.k, state.ell))  # L_n as a Laguerre series

    def profile(x1, y1, x2, y2):
        rho1 = (c * x1 - s * x2) ** 2 + (c * y1 - s * y2) ** 2
        rho2 = (s * x1 + c * x2) ** 2 + (s * y1 + c * y2) ** 2
        return norm * lagval(2 * rho1, unit_k) * lagval(2 * rho2, unit_l)

    return WignerField(profile, 2 * (state.k + state.ell))


def mode_populations(state: FockPairState, t, mode: int = 1) -> np.ndarray:
    """Number-state populations P_j, j = 0..k+l, of one mode at time(s) t.

    The coupling keeps the pair in the block of N = k + l quanta.  In the
    basis |j, N-j> its generator is, up to phases, the real tridiagonal
    matrix with off-diagonals sqrt((j+1)(N-j)), so one eigendecomposition
    V diag(lambda) V^T gives the amplitudes (V e^{-i lambda theta} V^T)[j, k]
    at every mixing angle theta = gamma*t at once (Campos, Saleh & Teich,
    PRA 40, 1371, 1989).  Mode 2 holds N - j quanta when mode 1 holds j,
    so its populations are mode 1's reversed.  The result has t's shape
    plus a trailing axis of length N + 1.  A time whose angle gamma*t, or an
    angle whose phases theta*lambda, leave the floats raises OverflowError
    naming it; a time that is not finite raises ValueError.
    """
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("time must be finite")
    total = int(state.k + state.ell)
    j = np.arange(total)
    off = np.sqrt((j + 1.0) * (total - j))
    lam, vec = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    with np.errstate(over="ignore"):  # angles and phases past the floats are named below
        theta = state.params.gamma * t
        if not np.isfinite(theta).all():
            first = t[~np.isfinite(theta)].flat[0]
            raise OverflowError(f"the mixing angle gamma * t leaves the floats at t = {first:.6g}")
        phase = theta[..., None] * lam
    if not np.isfinite(phase).all():
        first = theta[~np.isfinite(phase).all(axis=-1)].flat[0]
        raise OverflowError(f"the phases theta * lambda leave the floats at theta = {first:.6g}")
    amps = (np.exp(-1j * phase) * vec[int(state.k)]) @ vec.T
    probs = amps.real**2 + amps.imag**2
    return probs if mode == 1 else probs[..., ::-1]
