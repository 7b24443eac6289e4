"""Dissipative Gaussian dynamics: one mode damped, the other along for the ride.

Mode 1 couples to a Markovian thermal reservoir (rate Gamma, occupation
mbar) while exchanging excitations with mode 2 through the rotational
coupling gamma.  The moments obey d' = A d, sigma' = A sigma + sigma A^T + D,
with the model's drift A and diffusion D.
Moments are in vacuum units: the bath damps mode 1 at Gamma/2 and diffuses
it at Gamma (2 mbar + 1), and A = I (x) omega J + C (x) I splits into
commuting parts, C = [[-Gamma/2, gamma], [-gamma, 0]].  So, at every time
at once,

    E(t) = e^{Ct} (x) R(omega t),  sigma(t) = E (sigma(0) - sigma_inf) E^T + sigma_inf,  d(t) = E d(0),

with the thermal steady state sigma_inf = (2 mbar + 1) I for every gamma.
Intervals where the mode-1 fidelity to that state decreases flag information
flowing back from mode 2, the standard witness of non-Markovian behavior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fock_dynamics import OscillatorParams
from .gaussian_states import (
    GaussianState,
    ThermalBath,
    _point_error,
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
    """Time series of a coupled dissipative run: the two-mode moments
    means (n, 4) and covs (n, 4, 4) at each time, the reduced mode-1
    fidelity to the bath's asymptotic thermal state and coherence tracks,
    and the maximal stretches where that fidelity decreases."""

    times: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    fidelity_track: np.ndarray
    coherence_track: np.ndarray
    backflow_intervals: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self):
        for name in ("times", "means", "covs", "fidelity_track", "coherence_track"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.times.ndim != 1 or np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        n = self.times.size
        shapes = [a.shape for a in (self.means, self.covs, self.fidelity_track, self.coherence_track)]
        if shapes != [(n, 4), (n, 4, 4), (n,), (n,)]:
            raise ValueError("moments and tracks must hold one entry per time")

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


def _exchange_flow(rate: float, gamma: float, t: np.ndarray) -> np.ndarray:
    """e^{Ct} = even(t) I + odd(t) B at the times t, (n, 2, 2), with B = C + Gamma/4.

    B^2 = -kappa^2, kappa^2 = (|gamma| - Gamma/4)(|gamma| + Gamma/4) taken as a product of
    square roots.  Above the exceptional point |gamma| = Gamma/4, even = e^{-Gamma t/4} cos(kappa t)
    and odd = e^{-Gamma t/4} sin(kappa t)/kappa; at it, even = e^{-Gamma t/4} and odd = t even.
    Below it, with k = |kappa|, cosh and sinh are written in e^{-at} and e^{-at} e^{-2kt},
    a = Gamma/4 - k = gamma^2/(Gamma/4 + k), so no factor grows.
    """
    quarter, g = rate / 4.0, abs(gamma)
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
    flow = [even - quarter * odd, gamma * odd, -gamma * odd, even + quarter * odd]
    return np.stack(flow, axis=-1).reshape(-1, 2, 2)


def evolve_coupled(
    initial: GaussianState, params: OscillatorParams, bath: ThermalBath, t_grid
) -> EvolutionRecord:
    """Propagate the coupled dissipative dynamics exactly over the requested grid.

    The moments come from the closed form of the module docstring; every
    state must pass GaussianState's checks.  The tracks, the reduced mode-1
    fidelity to the reservoir's asymptotic thermal state and the mode-1
    coherence, are evaluated on the mode-1 moments in the frame turning
    with R(omega t); a track value past the floats raises OverflowError
    naming its time.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or t_grid[0] != 0.0 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be one-dimensional, start at 0 and increase strictly")
    if initial.modes != 2:
        raise ValueError("initial state must have two modes")
    asymptote = 2.0 * bath.mean_occupation + 1.0
    if not math.isfinite(asymptote):
        raise OverflowError("the asymptotic variance 2 mbar + 1 leaves the floats")

    # moments that leave the floats, with a phase kappa t or omega t among them, are reported
    # once, by validate_moments below
    with np.errstate(over="ignore", invalid="ignore"):
        flow = _exchange_flow(bath.decay_rate, params.gamma, t_grid)
        excess = initial.cov - asymptote * np.eye(4)  # sigma(0) - sigma_inf
        cos, sin = np.cos(params.omega * t_grid), np.sin(params.omega * t_grid)
        turn = np.stack([cos, sin, -sin, cos], axis=-1).reshape(-1, 2, 2)
        gen = (flow[:, :, None, :, None] * turn[:, None, :, None, :]).reshape(-1, 4, 4)  # E = e^{Ct} (x) R
        means = (gen.reshape(-1, 4) @ initial.mean).reshape(-1, 4)
        covs = np.einsum("nij,jk,nlk->nil", gen, excess, gen, optimize=True) + asymptote * np.eye(4)
    covs = validate_moments(means, covs, t_grid)

    # mode 1 in the turning frame: d1 = sum_k e_1k d_k, sigma_1 = sum_kl e_1k e_1l Delta_kl + sigma_inf
    row = flow[:, 0]
    mean1 = row @ initial.mean.reshape(2, 2)
    blocks = excess.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)  # row kl holds Delta_kl
    cov1 = ((row[:, :, None] * row[:, None, :]).reshape(-1, 4) @ blocks).reshape(-1, 2, 2) + asymptote * np.eye(2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported below, at the first time
        fid = moment_fidelity(mean1, cov1, np.zeros(2), asymptote * np.eye(2))
        coh = moment_coherence(mean1, cov1)
    bad = ~(np.isfinite(fid) & np.isfinite(coh))
    if bad.any():
        raise _point_error("the fidelity and coherence tracks leave the floats", np.argmax(bad), t_grid, OverflowError)
    return EvolutionRecord(t_grid, means, covs, fid, coh, backflow_intervals(t_grid, fid))


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
