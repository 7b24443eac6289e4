"""Dissipative Gaussian dynamics: one mode damped, the other along for the ride.

Mode 1 couples to a Markovian thermal reservoir (rate Gamma, occupation
mbar) while exchanging excitations with mode 2 through the rotational
coupling gamma.  For Gaussian states the whole evolution closes on the
first moments and the covariance matrix,

    d' = A d,        sigma' = A sigma + sigma A^T + D,

with A the Hamiltonian flow matrix plus -Gamma/2 on the mode-1 block and
D = Gamma (2 mbar + 1) on that block.  A step Delta is exactly the map
d -> Phi d, sigma -> Phi sigma Phi^T + Q with Phi = e^{A Delta}, so the
coupled run has no discretization error; with gamma = 0 the damped mode
thermalizes in closed form.

The interesting diagnostics live on the reduced mode-1 state: its
fidelity against the bath's asymptotic thermal state and its coherence.
Intervals where that fidelity decreases flag information flowing back
from the rest of the system, the standard witness of non-Markovian
behavior; with a strictly Markovian setup (gamma = 0) none occur.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fock_dynamics import OscillatorParams
from .gaussian_states import (
    GaussianState,
    ThermalBath,
    moment_coherence,
    moment_fidelity,
    validate_moments,
)

__all__ = [
    "EvolutionRecord",
    "backflow_intervals",
    "drift_and_diffusion",
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
    hbar: float = 1.0
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
        return [GaussianState(d, s, self.hbar) for d, s in zip(self.means, self.covs)]


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
    target = (2.0 * bath.mean_occupation + 1.0) * state.hbar * np.eye(2)
    return GaussianState(
        math.sqrt(decay) * state.mean,
        decay * state.cov + (1.0 - decay) * target,
        state.hbar,
    )


def _out_of_range(quantity: str, *parameters: str) -> OverflowError:
    """OverflowError naming the quantity and, as ``parameters``, the fields that set it."""
    exc = OverflowError(f"{quantity} leaves the floats")
    exc.parameters = parameters
    return exc


def drift_and_diffusion(params: OscillatorParams, bath: ThermalBath) -> tuple[np.ndarray, np.ndarray]:
    """Drift and diffusion matrices in the ordering (q1, p1, q2, p2).

    The Hamiltonian part follows q1' = 2 alpha^2 p1 + gamma q2,
    p1' = -2 beta^2 q1 + gamma p2 and the mode-2 mirror images with the
    opposite coupling sign; the bath damps and diffuses mode 1 only.
    Coefficients beyond the float range raise OverflowError.
    """
    try:
        a2 = 2.0 * params.alpha**2
    except OverflowError:
        raise _out_of_range("the drift coefficient 2 alpha^2 = 1/m", "mass") from None
    try:
        b2 = 2.0 * params.beta**2
    except OverflowError:
        raise _out_of_range("the drift coefficient 2 beta^2 = m omega^2", "mass", "omega") from None
    g = params.gamma
    damp = -bath.decay_rate / 2.0
    drift = np.array([[damp, a2, g, 0.0], [-b2, damp, 0.0, g], [-g, 0.0, 0.0, a2], [0.0, -g, -b2, 0.0]])
    noise = bath.decay_rate * (2.0 * bath.mean_occupation + 1.0) * params.hbar
    if not math.isfinite(noise):
        raise _out_of_range(
            "the diffusion coefficient Gamma (2 mbar + 1) hbar", "decay_rate", "mean_occupation", "hbar"
        )
    diffusion = np.zeros((4, 4))
    diffusion[0, 0] = diffusion[1, 1] = noise
    return drift, diffusion


def _step_map(drift: np.ndarray, diffusion: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact map (Phi, Q) of the moment equations over one step.

    Van Loan's F = exp([[-A, D], [0, A^T]] delta) gives Phi = F22^T and
    Q = Phi F12 at delta = step / 2^m, with ||block||_1 delta <= 1/2; then m
    doublings (Phi, Q) -> (Phi^2, Phi Q Phi^T + Q) reach the step.  These
    only add positive semidefinite terms, where one exponential over the
    whole step would cancel a growing exp(-A step).
    """
    n = drift.shape[0]
    block = np.block([[-drift, diffusion], [np.zeros_like(drift), drift.T]])
    reach = 2.0 * np.abs(block).sum(axis=0).max() * step
    if not math.isfinite(reach):
        raise _out_of_range("the generator norm times the time step")
    doublings = max(0, math.ceil(math.log2(reach)))
    scaled = block * (step / 2.0**doublings)
    total, term, order = np.eye(2 * n), np.eye(2 * n), 0
    while True:  # Taylor terms shrink at least as 2^-k / k!, so one stops changing the sum
        order += 1
        term = term @ scaled / order
        if np.array_equal(total + term, total):
            break
        total += term
    phi = total[n:, n:].T
    noise = phi @ total[:n, n:]
    noise = 0.5 * (noise + noise.T)
    for _ in range(doublings):
        noise = phi @ noise @ phi.T + noise
        phi = phi @ phi
    return phi, noise


def evolve_coupled(
    initial: GaussianState, params: OscillatorParams, bath: ThermalBath, t_grid
) -> EvolutionRecord:
    """Propagate the coupled dissipative dynamics exactly over the requested grid.

    Each distinct spacing gets one step map, acting on (vec sigma, d, 1)
    as a 21 x 21 matrix.  Every state must pass GaussianState's checks.
    The tracks are the reduced mode-1 fidelity to the reservoir's
    asymptotic thermal state and the reduced mode-1 coherence.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or t_grid[0] != 0.0:
        raise ValueError("t_grid must be one-dimensional and start at 0")
    if np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if initial.modes != 2:
        raise ValueError("initial state must have two modes")
    if abs(initial.hbar - params.hbar) > 1e-12:
        raise ValueError("initial state and oscillator parameters disagree on hbar")

    drift, diffusion = drift_and_diffusion(params, bath)
    steps, which = np.unique(np.diff(t_grid), return_inverse=True)
    maps = []
    # moments that leave the floats are reported once, by validate_moments below
    with np.errstate(over="ignore", invalid="ignore"):
        for step in steps:
            phi, noise = _step_map(drift, diffusion, float(step))
            affine = np.zeros((21, 21))
            affine[:16, :16] = np.kron(phi, phi)  # vec(Phi sigma Phi^T), row-major vec
            affine[:16, 20] = noise.ravel()
            affine[16:20, 16:20] = phi
            affine[20, 20] = 1.0
            maps.append(affine)
        z = np.empty((t_grid.size, 21))
        z[0] = np.concatenate((initial.cov.ravel(), initial.mean, [1.0]))
        for i, k in enumerate(which.tolist(), start=1):
            np.dot(maps[k], z[i - 1], out=z[i])

    hbar, means = initial.hbar, z[:, 16:20]
    covs = validate_moments(means, z[:, :16].reshape(-1, 4, 4), hbar, t_grid)
    d1, s1 = means[:, :2] / math.sqrt(hbar), covs[:, :2, :2] / hbar
    fid = moment_fidelity(d1, s1, np.zeros(2), (2.0 * bath.mean_occupation + 1.0) * np.eye(2))
    return EvolutionRecord(
        t_grid, means, covs, fid, moment_coherence(d1, s1), hbar, backflow_intervals(t_grid, fid)
    )


def _monotone_violations(times, track, tol: float, rising: bool) -> list[tuple[float, float]]:
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
