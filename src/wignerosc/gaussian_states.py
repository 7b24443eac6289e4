"""Gaussian states as first moments plus covariance matrix.

Conventions: moments are in vacuum units and sigma_AB = <AB + BA> - 2<A><B>,
so the vacuum has sigma = identity, and every physical single-mode state has
nu = sqrt(det sigma) >= 1, with equality for pure states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _power_scale(*blocks):
    """1 where the summed trace of the 2x2 blocks is below 2^256, else the even power of two, exact to scale
    by, to [2^254, 2^256).  The trace is summed in quarters, so it stays finite to the top of the floats."""
    exponent = np.frexp(sum(0.25 * b[..., 0, 0] + 0.25 * b[..., 1, 1] for b in blocks))[1] + 2
    return np.ldexp(1.0, -2 * np.maximum((exponent - 255) // 2, 0)) if np.any(exponent > 256) else 1.0


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
    (n, modes, 2, 2) with nu < 1 - PHYSICALITY_SLACK; nu is taken of blocks scaled as in the kernels."""
    unit = _power_scale(blocks)
    with np.errstate(over="ignore", invalid="ignore"):  # a trace past the floats is far above the floor
        nus = _nu(blocks * np.expand_dims(unit, (-2, -1))) / unit  # (n, modes)
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
    its 2 x 2 adjugate over Delta.  Each block whose trace passes 2^256 is
    scaled by a power of two first, sigma_+ before its sum is formed, so no
    sum or determinant leaves the floats.
    """
    unit, unit1, unit2 = _power_scale(cov1, cov2), _power_scale(cov1), _power_scale(cov2)  # 1/s of each block
    scale = np.expand_dims(unit, (-2, -1))
    splus = cov1 * scale + cov2 * scale
    cov1, cov2 = (cov1.T * unit1).T, (cov2.T * unit2).T  # each block times its unit
    big_delta = _det2(splus)  # Delta / s+^2
    small_delta = np.maximum((_det2(cov1) - unit1 * unit1) * (_det2(cov2) - unit2 * unit2), 0.0)  # 0 if pure
    ratio = (unit / unit1) * (unit / unit2)  # s1 s2 / s+^2; small_delta is delta / (s1 s2)^2
    dq, dp = np.moveaxis(np.asarray(mean1 - mean2), -1, 0) * np.sqrt(unit)  # d^T sigma_+^-1 d is unchanged
    quad = splus[..., 1, 1] * dq * dq - (splus[..., 0, 1] + splus[..., 1, 0]) * dq * dp + splus[..., 0, 0] * dp * dp
    total = big_delta * unit * unit + ratio * (ratio * small_delta)  # (Delta + delta) / s+^4
    value = 2.0 * (np.sqrt(total) + ratio * np.sqrt(small_delta)) / big_delta
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
    of log1p(delta/s) - delta/(s + delta) by 8-point Gauss-Legendre.  Where
    |d|^2 passes the floats, :func:`_far_coherence` takes over.
    """
    unit = _power_scale(cov)  # det sigma may pass the floats where nu does not: nu of the scaled block
    scaled = (cov.T * unit).T
    s11, s12, s22 = scaled[..., 0, 0], scaled[..., 0, 1], scaled[..., 1, 1]
    nu = np.maximum(_nu(scaled) / unit, 1.0)
    m = 0.5 * (nu - 1.0)
    spread = ((s11 - s22) ** 2 + 4.0 * s12 * s12) / (s11 + s22 + 2.0 * nu * unit) / unit
    with np.errstate(over="ignore"):
        square = np.sum(np.square(mean), axis=-1)
    far = square == np.inf
    delta = 0.25 * (np.where(far, 0.0, square) + spread)
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
    if np.any(far):
        nats = np.where(far, _far_coherence(0.5 * np.hypot(mean[..., 0], mean[..., 1]), m, spread), nats)
    return np.maximum(nats / math.log(2.0), 0.0)


def _far_coherence(half, m, spread):
    """moment_coherence in nats where |d|^2 passes the floats, from half = |d|/2 > 2^511.

    Then nbar = m + delta >= 2^1022, so S_th(nbar) = log(nbar) + 1 to rounding and
    log(nbar) = 2 log(half) + log1p((m + spread/4) / half^2).  Below m = 2^40 the
    coherence is log(nbar) + 1 - S_th(m), with log(nbar) > 708 and S_th(m) < 30.  From
    there on it is log1p(delta/m) - [(m + 1) log1p(1/m) - 1], the bracket below 2^-41,
    with delta/m = r^2 + spread/(4m), r = half/sqrt(m), read as 2 log(r) past r = 2^500.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # the branches np.where drops
        total = 2.0 * np.log(half) + np.log1p((m + 0.25 * spread) / half / half)
        entropy = np.log1p(m) + np.where(m > 0.0, m * np.log1p(1.0 / m), 0.0)  # S_th(m)
        r = half / np.sqrt(m)
        ratio_log = np.where(r < 2.0**500, np.log1p(r * r + 0.25 * spread / m), 2.0 * np.log(r))
        return np.where(m < 2.0**40, total + 1.0 - entropy, ratio_log - ((m + 1.0) * np.log1p(1.0 / m) - 1.0))


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
