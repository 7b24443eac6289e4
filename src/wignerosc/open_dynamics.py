"""Dissipative Gaussian dynamics: one mode damped, the other along for the ride.

Mode 1 couples to a Markovian thermal reservoir (rate Gamma, occupation
mbar) while exchanging excitations with mode 2 through the rotational
coupling gamma.  The moments obey d' = A d, sigma' = A sigma + sigma A^T + D,
with the model's drift A and diffusion D.
Moments are in vacuum units: the bath damps mode 1 at Gamma/2 and diffuses
it at Gamma (2 mbar + 1), and A = I (x) omega J + C (x) I splits into
commuting parts, C = [[-Gamma/2, gamma], [-gamma, 0]].  So, at every time
at once,

    E(t) = e^{Ct} (x) R(omega t),  sigma(t) = E sigma(0) E^T + (2 mbar + 1) M(t) (x) I,  d(t) = E d(0),

with M(t) = I - e^{Ct} e^{C^T t} = Gamma int_0^t e^{Cs} P_1 e^{C^T s} ds, P_1 = diag(1, 0).
C + C^T = -Gamma P_1 <= 0 makes e^{Ct} a contraction, so M(t) >= 0, and the
map then takes every physical sigma(0) to a physical sigma(t): evolve_coupled
checks M(t) >= 0, a 2x2 certificate, in place of each 4x4 state, and computes
only the mode-1 moments its tracks need; the record builds d(t) and sigma(t)
from E when they are first read.  The steady state is the thermal
(2 mbar + 1) I for every gamma.
Intervals where the mode-1 fidelity to that state decreases flag information
flowing back from mode 2, the standard witness of non-Markovian behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fock_dynamics import OscillatorParams
from .gaussian_states import (
    GaussianState,
    ThermalBath,
    UnphysicalStateError,
    _point_error,
    _require_finite,
    _require_floor,
    moment_coherence,
    moment_fidelity,
    validate_moments,
)

__all__ = [
    "EvolutionRecord",
    "backflow_intervals",
    "evolve_coupled",
    "rising_intervals",
    "thermalize_closed_form",
]


@dataclass(frozen=True)
class EvolutionRecord:
    """Time series of a coupled dissipative run: the reduced mode-1 fidelity to the
    bath's asymptotic thermal state and coherence tracks, and the run's initial
    state, coupling and bath, from which the two-mode means (n, 4) and covariances
    (n, 4, 4) and the backflow intervals are derived on first access."""

    times: np.ndarray
    fidelity_track: np.ndarray
    coherence_track: np.ndarray
    initial: GaussianState
    params: OscillatorParams
    bath: ThermalBath

    def __post_init__(self):
        for name in ("times", "fidelity_track", "coherence_track"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not (self.times.ndim == 1 and np.isfinite(self.times).all() and np.all(np.diff(self.times) > 0)):
            raise ValueError("times must be finite and strictly increasing")
        if self.fidelity_track.shape != self.times.shape or self.coherence_track.shape != self.times.shape:
            raise ValueError("tracks must hold one entry per time")
        if self.initial.modes != 2:
            raise ValueError("initial state must have two modes")

    @cached_property
    def _moments(self) -> tuple[np.ndarray, np.ndarray]:
        """E d(0) and E sigma(0) E^T + (2 mbar + 1) M (x) I at each time, through validate_moments."""
        asymptote = 2.0 * self.bath.mean_occupation + 1.0
        with np.errstate(over="ignore", invalid="ignore"):  # reported by validate_moments
            (f11, f12, f22), (m11, m12, m22) = _exchange(self.bath.decay_rate, self.params.gamma, self.times)
            scale = _noise_scale(self.bath.decay_rate, self.params.gamma)
            m12, m22 = scale * m12, scale * scale * m22
            cos, sin = np.cos(self.params.omega * self.times), np.sin(self.params.omega * self.times)
            flow = np.stack([f11, f12, -f12, f22], axis=-1).reshape(-1, 2, 2)
            turn = np.stack([cos, sin, -sin, cos], axis=-1).reshape(-1, 2, 2)  # R(omega t)
            gen = np.einsum("nij,nkl->nikjl", flow, turn).reshape(-1, 4, 4)  # e^{Ct} (x) R
            noise = np.stack([m11, m12, m12, m22], axis=-1).reshape(-1, 2, 2)
            means = gen @ self.initial.mean
            covs = gen @ self.initial.cov @ gen.transpose(0, 2, 1) + asymptote * np.kron(noise, np.eye(2))  # M (x) I
        return means, validate_moments(means, covs, self.times)

    @property
    def means(self) -> np.ndarray:
        """The two-mode means (n, 4), built with the covariances on first access."""
        return self._moments[0]

    @property
    def covs(self) -> np.ndarray:
        """The two-mode covariances (n, 4, 4), built with the means on first access."""
        return self._moments[1]

    @cached_property
    def backflow_intervals(self) -> list[tuple[float, float]]:
        """The maximal stretches where the fidelity track drops, at the default tolerance."""
        return backflow_intervals(self.times, self.fidelity_track)

    @property
    def states(self) -> list[GaussianState]:
        """The two-mode state at each time, built and validated on each access."""
        return [GaussianState(d, s) for d, s in zip(self.means, self.covs)]


def thermalize_closed_form(state: GaussianState, bath: ThermalBath, t: float) -> GaussianState:
    """Exact single-mode thermalization under the bath alone.

    sigma(t) = e^{-Gamma t} sigma(0) + (1 - e^{-Gamma t})(2 mbar + 1) I and
    d(t) = e^{-Gamma t / 2} d(0); as t grows the state tends to the
    asymptotic thermal state of the reservoir.
    """
    if state.modes != 1:
        raise ValueError("closed-form thermalization is single-mode")
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("time must be nonnegative")
    decay = math.exp(-bath.decay_rate * t)
    target = (2.0 * bath.mean_occupation + 1.0) * np.eye(2)
    return GaussianState(math.sqrt(decay) * state.mean, decay * state.cov + (1.0 - decay) * target)


def _noise_scale(rate: float, gamma: float) -> float:
    """s = min(1, |gamma| / (Gamma/4)): _exchange returns M12 / s and M22 / s^2."""
    quarter, g = rate / 4.0, abs(gamma)
    return 1.0 if g >= quarter else g / quarter


def _exchange(rate: float, gamma: float, t: np.ndarray):
    """e^{Ct} = [[f11, f12], [-f12, f22]] and M(t) = I - e^{Ct} e^{C^T t} = [[m11, m12], [m12, m22]]
    at the times t, as ((f11, f12, f22), (m11, m12 / s, m22 / s^2)) with s = _noise_scale(rate, gamma).

    e^{Ct} = even(t) I + odd(t) B with B = C + Gamma/4, B^2 = -kappa^2, kappa^2 =
    (|gamma| - Gamma/4)(|gamma| + Gamma/4) taken as a product of square roots.  Above the
    exceptional point |gamma| = Gamma/4, even = e^{-Gamma t/4} cos(kappa t) and odd =
    e^{-Gamma t/4} sin(kappa t)/kappa; at it, even = e^{-Gamma t/4} and odd = t even.  Below
    it, with k = |kappa|, cosh and sinh are written in e^{-at} and e^{-at} e^{-2kt},
    a = Gamma/4 - k = gamma^2/(Gamma/4 + k), so no factor grows.

    The first column of e^{Ct} is (o', -gamma o), o = odd, so M = Gamma int_0^t of its outer
    square: M12 = -Gamma gamma o^2 / 2, M22 = Gamma G with G = gamma^2 int o^2
    (:func:`_coupled_energy`), and, as o'' + (Gamma/2) o' + gamma^2 o = 0, M11 = Gamma int o'^2
    = Gamma (G + even odd).  These carry the factors Gamma and gamma and are exact at t = 0.
    Where 1 - |row|^2 of e^{Ct} is at least 1/2 it has no cancellation, and gives M11 or M22.
    Below the exceptional point M22 falls as gamma^2 and leaves the floats first, at
    |gamma| of about 1e-155: there the off-diagonal and M22 are returned divided by
    s = |gamma| / (Gamma/4) and s^2, with gamma^2 replaced by (Gamma/4)^2 in G, so that the
    matrix diag(1, 1/s) M diag(1, 1/s), positive semidefinite exactly when M is, stays in the floats.
    """
    quarter, g = rate / 4.0, abs(gamma)
    coupling = max(g, quarter)  # |gamma| / s
    if g > quarter:
        kappa = math.sqrt(g - quarter) * math.sqrt(g + quarter)
        decay = np.exp(-quarter * t)
        even, odd = decay * np.cos(kappa * t), decay * np.sin(kappa * t) / kappa
    elif g == quarter:
        even, odd = np.exp(-quarter * t), t * np.exp(-quarter * t)
    else:
        k = math.sqrt(quarter - g) * math.sqrt(quarter + g)
        slow = np.exp(-g * (g / (quarter + k)) * t)
        gap = np.expm1(-2.0 * k * t)  # e^{-2kt} - 1
        even, odd = slow * (1.0 + 0.5 * gap), slow * (-0.5 / k) * gap
    f11, f12, f22 = even - quarter * odd, gamma * odd, even + quarter * odd
    row1, row2 = 1.0 - f11 * f11 - f12 * f12, 1.0 - f12 * f12 - f22 * f22  # 1 - |row i|^2
    energy = np.zeros_like(t)
    need = (row1 < 0.5) | (row2 < 0.5)
    energy[need] = _coupled_energy(quarter, g, t[need], g)
    spread = energy  # G / s^2
    if coupling != g:
        spread = np.zeros_like(t)
        spread[need] = _coupled_energy(quarter, g, t[need], coupling)
    m11 = np.where(row1 >= 0.5, row1, rate * (energy + even * odd))
    m22 = rate * spread
    far = row2 >= 0.5
    m22[far] = row2[far] / _noise_scale(rate, gamma) ** 2
    return (f11, f12, f22), (m11, -0.5 * rate * (math.copysign(coupling, gamma) * odd) * odd, m22)


_SERIES_TERMS = 27  # m = 0..26: the terms fall by 4 or more each
_RECURRENCE_TOP = 70  # started from J_70 = 0: for x < 12 that moves J_2 > 1e-3 by at most x^68/71! < 3e-29
_INVERSE_FACTORIALS = [1.0 / math.factorial(n + 1) for n in range(_RECURRENCE_TOP)]


def _coupled_energy(quarter: float, g: float, t: np.ndarray, c: float) -> np.ndarray:
    """c^2 int_0^t o(s)^2 ds for the odd part o of e^{Ct}, g = |gamma|, at the times t; G at c = g.

    With k = |kappa| and o = e^{-qs} sinh(ks)/k (sin for kappa real), q = Gamma/4:
    where k >= q/2 and k t >= 1 the closed form of the regime, each of its terms at
    most about 10 times the value; elsewhere the series
    c^2 int_0^t o^2 = 2 (c t)^2 t sum_m (+-(2kt)^2)^m J_{2m+2}(2qt), J_n(x) = int_0^1 v^n e^{-xv} dv / n!,
    the sign + below the exceptional point.  Its terms fall by 4 or more each, and J_n
    comes from the downward recurrence J_n = e^{-x}/(n + 1)! + x J_{n+1}, which adds
    positive terms only.  _exchange asks for it only where M11 or M22 < 1/2, and there
    the series points have x = 2qt < 12.
    """
    k = math.sqrt(abs(g - quarter)) * math.sqrt(g + quarter)
    under = g > quarter
    out = np.empty_like(t)
    closed = (k >= 0.5 * quarter) & (k * t >= 1.0)
    tc, ts = t[closed], t[~closed]
    if tc.size:

        def flat(c):  # int_0^t e^{-cs} ds; t where x = c t is below the normal floats, as e^{-x} = 1 - x there
            x = c * tc
            return np.divide(-np.expm1(-x), c, out=tc.copy(), where=x >= np.finfo(float).tiny)

        if under:  # (g/k)^2 (flat(2q) - Re int_0^t e^{-(2q - 2ik)s} ds) / 2
            decay, sin, cos = np.exp(-2.0 * quarter * tc), np.sin(k * tc), np.cos(k * tc)  # 2kt may overflow
            wave = (0.5 * (quarter / g) * (1.0 - decay * (cos - sin) * (cos + sin)) + (k / g) * decay * sin * cos) / g
            out[closed] = 0.5 * (c / k) ** 2 * (flat(2.0 * quarter) - wave)
        else:  # eigenvalues -a and -b of C: o = (e^{-as} - e^{-bs}) / (2k)
            b = quarter + k
            out[closed] = (c / (2.0 * k)) ** 2 * (flat(2.0 * g * (g / b)) - 2.0 * flat(2.0 * quarter) + flat(2.0 * b))
    if ts.size:
        x, w = 2.0 * quarter * ts, 4.0 * (k * ts) ** 2 * (-1.0 if under else 1.0)
        damp, rise, total = np.exp(-x), np.zeros_like(ts), np.zeros_like(ts)
        for n in range(_RECURRENCE_TOP - 1, 1, -1):
            rise = damp * _INVERSE_FACTORIALS[n] + x * rise  # J_n
            if n % 2 == 0 and n <= 2 * _SERIES_TERMS:
                total = total * w + rise  # Horner in w = +-(2kt)^2
        out[~closed] = 2.0 * (c * ts) ** 2 * ts * total
    return out


def evolve_coupled(
    initial: GaussianState, params: OscillatorParams, bath: ThermalBath, t_grid
) -> EvolutionRecord:
    """Propagate the coupled dissipative dynamics exactly over the requested grid.

    Only the tracks are computed: from the closed form of the module docstring,
    the mode-1 moments in the frame turning with R(omega t), d1 = sum_k e_1k d_k(0)
    and sigma_1 = sum_kl e_1k e_1l sigma_kl(0) + (2 mbar + 1) M11 I.  Each time is
    checked: d1 and sigma_1 finite, nu_1 >= 1 - PHYSICALITY_SLACK, and M(t) >= 0,
    which with the physical initial state makes the two-mode state physical.  The
    tracks, the reduced mode-1 fidelity to the reservoir's asymptotic thermal state
    and the mode-1 coherence, come from d1 and sigma_1; a track value past the
    floats raises OverflowError naming its time.  The record derives the two-mode
    moments, validated, and the backflow intervals when they are first read.
    The tracks' domain is that of gaussian_states.MAX_MOMENT: an initial state in
    it and mbar at most MAX_MOMENT.  As e^{Ct} is a contraction, d1 and sigma_1 then
    stay within a small factor of that domain at every time, well inside the
    kernels' margin.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if not (t_grid.ndim == 1 and t_grid.size and t_grid[0] == 0.0 and np.isfinite(t_grid[-1])
            and np.all(np.diff(t_grid) > 0)):
        raise ValueError("t_grid must be one-dimensional and finite, start at 0 and increase strictly")
    if initial.modes != 2:
        raise ValueError("initial state must have two modes")
    asymptote = 2.0 * bath.mean_occupation + 1.0
    if not math.isfinite(asymptote):
        raise OverflowError("the asymptotic variance 2 mbar + 1 leaves the floats")

    # moments that leave the floats, with a phase kappa t among them, are reported once, by _require_finite below
    with np.errstate(over="ignore", invalid="ignore"):
        (f11, f12, f22), (m11, m12, m22) = _exchange(bath.decay_rate, params.gamma, t_grid)
        mean1 = np.stack([f11, f12], axis=-1) @ initial.mean.reshape(2, 2)  # in the frame turning with R
        # sigma_1 = f11^2 sigma_11(0) + f11 f12 (sigma_12(0) + sigma_21(0)) + f12^2 sigma_22(0) + (2 mbar + 1) m11 I
        s0 = initial.cov
        blocks = np.array([s0[:2, :2].ravel(), (s0[:2, 2:] + s0[2:, :2]).ravel(), s0[2:, 2:].ravel()])
        cov1 = (np.stack([f11 * f11, f11 * f12, f12 * f12], axis=-1) @ blocks).reshape(-1, 2, 2)
        cov1[:, 0, 0] += asymptote * m11
        cov1[:, 1, 1] += asymptote * m11
    _require_finite(t_grid, mean1, cov1, m11, m12, m22)
    _require_floor(cov1[:, None], t_grid)
    # m12 and m22 come scaled by 1/s and 1/s^2, which keeps the certificate's sign and its entries in the floats
    uncertified = ~((m11 >= 0.0) & (m22 >= 0.0) & (np.abs(m12) <= np.sqrt(m11.clip(0.0)) * np.sqrt(m22.clip(0.0))))
    if uncertified.any():
        message = "the bath's M(t) is not positive semidefinite"
        raise _point_error(message, np.argmax(uncertified), t_grid, UnphysicalStateError)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported below, at the first time
        fid = moment_fidelity(mean1, cov1, np.zeros(2), asymptote * np.eye(2))
        coh = moment_coherence(mean1, cov1)
    bad = ~(np.isfinite(fid) & np.isfinite(coh))
    if bad.any():
        raise _point_error("the fidelity and coherence tracks leave the floats", np.argmax(bad), t_grid, OverflowError)
    return EvolutionRecord(t_grid, fid, coh, initial, params, bath)


def _monotone_violations(times, track, tol: float, rising: bool) -> list[tuple[float, float]]:
    if not tol >= 0:  # nan included
        raise ValueError(f"tol must be nonnegative, got {tol}")
    times = np.asarray(times, dtype=float)
    track = np.asarray(track, dtype=float)
    if times.shape != track.shape:
        raise ValueError("times and track must have equal length")
    steps = np.diff(track)
    hit = steps > tol if rising else steps < -tol
    # a run of hits i = a..b-1 spans times[a]..times[b]
    edges = np.diff(np.concatenate(([0], hit.astype(np.int8), [0])))
    return [
        (float(times[a]), float(times[b]))
        for a, b in zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1))
    ]


def backflow_intervals(times, fidelity_track, tol: float = 1e-9) -> list[tuple[float, float]]:
    """Maximal intervals where the fidelity to the asymptote decreases.

    A sample-to-sample drop larger than tol opens an interval; adjacent
    drops merge.  Nonempty output witnesses information returning to the
    damped mode, i.e. dynamics that no memoryless reduction can produce.
    """
    return _monotone_violations(times, fidelity_track, tol, rising=False)


def rising_intervals(times, track, tol: float = 1e-9) -> list[tuple[float, float]]:
    """Maximal intervals where a track increases; used for coherence revivals."""
    return _monotone_violations(times, track, tol, rising=True)
