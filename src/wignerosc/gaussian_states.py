"""Gaussian states as first moments plus covariance matrix.

Conventions: moments are in vacuum units and sigma_AB = <AB + BA> - 2<A><B>,
so the vacuum has sigma = identity, and every physical single-mode state has
nu = sqrt(det sigma) >= 1, with equality for pure states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import MAX_MOMENT

__all__ = [
    "GaussianState",
    "ThermalBath",
    "UnphysicalStateError",
    "coherence",
    "fidelity",
    "moment_coherence",
    "moment_fidelity",
    "reduce_mode",
    "state_to_record",
    "thermal_state",
    "validate_moments",
]

PHYSICALITY_SLACK = 1e-9
# The kernels' numeric domain, MAX_MOMENT = 1e60 from the package: covariances with tr sigma <= 4 MAX_MOMENT + 2,
# as of a thermal state of MAX_MOMENT quanta, and mean entries at most MAX_MOMENT in magnitude.  There the
# fidelity's largest term, (det sigma_1 - 1)(det sigma_2 - 1), stays below 2e241, and no determinant or
# quadratic form leaves the floats.


class UnphysicalStateError(ValueError):
    """Covariance matrix below the vacuum uncertainty floor."""


@dataclass(frozen=True)
class GaussianState:
    """First-moments vector (q1, p1, ...) and 2N x 2N covariance matrix."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size not in (2, 4):
            raise ValueError("mean must have length 2 or 4")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(f"covariance shape {cov.shape} does not match mean length {mean.size}")
        cov = validate_moments(mean[None], cov[None])[0]
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def modes(self) -> int:
        return self.mean.size // 2


@dataclass(frozen=True)
class ThermalBath:
    """Markovian reservoir: decay rate and mean occupation of the environment.

    A zero decay rate is accepted and means the bath is switched off.
    """

    decay_rate: float
    mean_occupation: float

    def __post_init__(self):
        if not (math.isfinite(self.decay_rate) and self.decay_rate >= 0):
            raise ValueError("decay rate must be nonnegative and finite")
        if not (math.isfinite(self.mean_occupation) and self.mean_occupation >= 0):
            raise ValueError("mean occupation must be nonnegative and finite")


def _det2(blocks):
    """Determinants of 2x2 matrices stacked along the leading axes."""
    return blocks[..., 0, 0] * blocks[..., 1, 1] - blocks[..., 0, 1] * blocks[..., 1, 0]


def _nu(blocks):
    """Single-mode invariants nu = sqrt(det) of 2x2 blocks, roundoff below 0 read as 0."""
    return np.sqrt(np.maximum(_det2(blocks), 0.0))


def _point_error(message: str, index, times=None, error: type = ValueError) -> Exception:
    """error(message) naming the point by its time when times is given, with ``index`` its position."""
    exc = error(message + ("" if times is None else f" at t = {times[index]:.6g}"))
    exc.index = int(index)
    return exc


def _require_finite(times, *stacks) -> None:
    """ValueError naming the first point at which a stack, one entry per point along axis 0, is not finite."""
    if not all(np.isfinite(stack).all() for stack in stacks):
        good = np.logical_and.reduce([np.isfinite(stack).reshape(len(stack), -1).all(axis=1) for stack in stacks])
        raise _point_error("moments must be finite", np.argmax(~good), times)


def _require_floor(blocks, times=None) -> None:
    """UnphysicalStateError naming the first point, then its first mode, of the 2x2 blocks
    (n, modes, 2, 2) with nu < 1 - PHYSICALITY_SLACK."""
    nus = _nu(blocks)  # (n, modes)
    low = nus < 1.0 - PHYSICALITY_SLACK
    if low.any():
        i, mode = np.argwhere(low)[0]  # row-major: the first failing point, then its first failing mode
        message = f"mode {mode + 1} has nu = {nus[i, mode]:.6g} < 1"
        raise _point_error(message, i, times, UnphysicalStateError)


def validate_moments(means, covs, times=None) -> np.ndarray:
    """GaussianState's checks over stacks (n, 2N) and (n, 2N, 2N); returns covs symmetrized.

    Moments finite, covariances symmetric to 1e-12 relative and positive
    definite, every mode at nu >= 1 - PHYSICALITY_SLACK.  Errors name
    the first failing point, by its time when times is given, and carry
    its position in the stack as ``index``."""

    _require_finite(times, means, covs)
    transposed = np.swapaxes(covs, -1, -2)
    gap = np.abs(covs - transposed)
    if gap.max() > 1e-12:  # below that no point fails, each scale being at least 1
        bad = gap.max(axis=(-2, -1)) > 1e-12 * np.maximum(1.0, np.abs(covs).max(axis=(-2, -1)))
        if bad.any():
            raise _point_error("covariance must be symmetric", np.argmax(bad), times)
    covs = 0.5 * covs + 0.5 * transposed  # halves first: no overflow near the top of the floats
    try:
        np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:  # named: the first point with an eigenvalue <= 0
        first = np.argmax(np.linalg.eigvalsh(covs)[..., 0] <= 0)
        raise _point_error("covariance must be positive definite", first, times)
    _require_floor(np.stack([covs[..., i : i + 2, i : i + 2] for i in range(0, covs.shape[-1], 2)], axis=-3), times)
    return covs


def thermal_state(nbar: float) -> GaussianState:
    """Single-mode thermal state: zero mean, sigma = (2 nbar + 1) * I."""
    if nbar < 0:
        raise ValueError("mean photon number must be nonnegative")
    return GaussianState(np.zeros(2), (2.0 * nbar + 1.0) * np.eye(2))


def reduce_mode(state: GaussianState, mode: int) -> GaussianState:
    """Marginal over the other mode: keep one 2x2 diagonal block of sigma."""
    if state.modes != 2:
        raise ValueError("mode reduction needs a two-mode state")
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")
    i = 2 * (mode - 1)
    return GaussianState(state.mean[i : i + 2], state.cov[i : i + 2, i : i + 2])


def moment_fidelity(mean1, cov1, mean2, cov2):
    """Single-mode Gaussian fidelity in [0, 1] from moments in vacuum units, over leading axes.

    F = 2 (sqrt(Delta + delta) + sqrt(delta)) / Delta * exp(-d^T sigma_+^-1 d / 2)
    with Delta = det(sigma_+), delta = (det sigma_1 - 1)(det sigma_2 - 1),
    d the difference of the means and sigma_+ the sum of the covariances.
    The prefactor is 2 / (sqrt(Delta + delta) - sqrt(delta)) without the
    cancellation of that difference for mixed states, and sigma_+^-1 is
    its 2 x 2 adjugate over Delta.  Both states lie in the domain of
    MAX_MOMENT, where no term leaves the floats.
    """
    splus = cov1 + cov2
    big_delta = _det2(splus)
    small_delta = np.maximum((_det2(cov1) - 1.0) * (_det2(cov2) - 1.0), 0.0)  # 0 if pure
    dq, dp = np.moveaxis(np.asarray(mean1 - mean2), -1, 0)
    quad = splus[..., 1, 1] * dq * dq - (splus[..., 0, 1] + splus[..., 1, 0]) * dq * dp + splus[..., 0, 0] * dp * dp
    value = 2.0 * (np.sqrt(big_delta + small_delta) + np.sqrt(small_delta)) / big_delta
    return np.clip(value * np.exp(-0.5 * quad / big_delta), 0.0, 1.0)


def fidelity(state1: GaussianState, state2: GaussianState) -> float:
    """Overlap of two single-mode Gaussian states, in [0, 1]; see :func:`moment_fidelity`."""
    if state1.modes != 1 or state2.modes != 1:
        raise ValueError("fidelity is implemented for single-mode states")
    return float(moment_fidelity(state1.mean, state1.cov, state2.mean, state2.cov))


def moment_coherence(mean, cov):
    """Coherence in bits from single-mode moments in vacuum units, over leading axes.

    S_th(nbar) - S(rho): the thermal reference has the state's mean photon
    number nbar, and the state's entropy is S_th(m), m = (nu - 1)/2.  With
    delta = nbar - m = (|d|^2 + ((s11 - s22)^2 + 4 s12^2)/(tr sigma + 2 nu))/4,
    free of the cancellation tr sigma - 2 nu, the difference is
    [(m + 1) log1p(delta/(m + 1)) - m log1p(delta/m) + delta log1p(1/(m + delta))] / ln 2,
    whose m = 0 and delta = 0 terms are exactly 0.  Past m = 4.5 the first two
    terms, which cancel to about 1e-16 m, are taken as the integral over [m, m + 1]
    of log1p(delta/s) - delta/(s + delta) by 8-point Gauss-Legendre.  The state lies
    in the domain of MAX_MOMENT, where det sigma and |d|^2 stay in the floats.
    """
    s11, s12, s22 = cov[..., 0, 0], cov[..., 0, 1], cov[..., 1, 1]
    nu = np.maximum(_nu(cov), 1.0)
    m = 0.5 * (nu - 1.0)
    spread = ((s11 - s22) ** 2 + 4.0 * s12 * s12) / (s11 + s22 + 2.0 * nu)
    delta = 0.25 * (np.sum(np.square(mean), axis=-1) + spread)
    ratio = np.divide(delta, m, out=np.zeros_like(delta), where=m > 0.0)
    x = m + delta
    near = x < 1.0  # there 1/x may overflow: log1p(1/x) = log1p(x) - log(x), with no cancellation
    inverse = np.divide(1.0, x, out=np.zeros_like(delta), where=~near)
    logs = np.log(x, out=np.zeros_like(delta), where=near & (delta > 0.0))
    excess = np.where(near, np.log1p(x) - logs, np.log1p(inverse))  # log1p(1/x), times delta below
    pair = (m + 1.0) * np.log1p(delta / (m + 1.0)) - m * np.log1p(ratio)
    if np.any(m > 4.5):
        from numpy.polynomial.legendre import leggauss

        nodes, weights = leggauss(8)
        s = np.maximum(m, 4.5)[..., None] + 0.5 * (nodes + 1.0)
        step = delta[..., None]
        pair = np.where(m > 4.5, 0.5 * np.sum(weights * (np.log1p(step / s) - step / (s + step)), axis=-1), pair)
    nats = pair + delta * excess
    return np.maximum(nats / math.log(2.0), 0.0)


def coherence(state: GaussianState) -> float:
    """Distance in bits from the closest thermal state, zero exactly for thermal states."""
    if state.modes != 1:
        raise ValueError("coherence is implemented for single-mode states")
    return float(moment_coherence(state.mean, state.cov))


def state_to_record(state: GaussianState) -> dict:
    """Flat serializable record {N, d, sigma}."""
    return {
        "N": state.modes,
        "d": [float(v) for v in state.mean],
        "sigma": [[float(v) for v in row] for row in state.cov],
    }
