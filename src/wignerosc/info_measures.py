"""Informational functionals of Wigner functions.

Linear entropy S = 1 - (2 pi hbar)^N integral(W^2), the mutual information
I = S(W_1) + S(W_2) - S(W) built from single-mode marginals, the Wigner
negativity delta = integral(|W|) - integral(W), and phase-space
expectation values integral(W * O).

A :class:`WignerField` bundles an evaluator with the Gaussian envelope it
decays under.  Every field produced here writes W = profile * exp(-sum_i
a_i z_i^2) with the profile computed in a numerically safe form, which
lets the quadratic functionals above be evaluated by Gauss-Hermite rules
exactly (polynomial profiles) or to machine accuracy.  For the number-state
pair the mutual information and the negativity need no integration at all:
both follow in closed form from the single-mode populations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import fock_dynamics as fd
from . import gaussian_states as gs
from .quadrature import QuadratureRule, gauss_hermite, laguerre, laguerre_table

__all__ = [
    "WignerField",
    "eigenstate_field",
    "expectation_value",
    "gaussian_field",
    "linear_entropy",
    "marginal_field",
    "mutual_information",
    "negativity",
    "normalization",
    "pair_field",
]

@dataclass(frozen=True)
class WignerField:
    """A Wigner function together with its Gaussian-envelope factorization.

    evaluator(*coords) returns W at broadcastable coordinate arrays in the
    order (q1, p1[, q2, p2]).  When envelope_rates and profile are set,
    W = profile(*coords) * exp(-sum_i rates[i]*coords[i]^2) and profile is
    safe to evaluate far outside the envelope.  profile_degree bounds the
    polynomial degree of the profile when it is one, which sizes the
    quadrature rules that integrate it exactly.
    """

    evaluator: Callable
    mode_count: int
    hbar: float
    envelope_rates: tuple[float, ...] | None = None
    profile: Callable | None = None
    profile_degree: int | None = None

    def __post_init__(self):
        if self.mode_count not in (1, 2):
            raise ValueError("mode_count must be 1 or 2")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        if self.envelope_rates is not None:
            rates = tuple(float(r) for r in self.envelope_rates)
            if len(rates) != 2 * self.mode_count or any(r <= 0 for r in rates):
                raise ValueError("envelope_rates must be 2N positive reals")
            object.__setattr__(self, "envelope_rates", rates)

    def __call__(self, *coords):
        return self.evaluator(*coords)

    def _require_envelope(self, what: str):
        if self.envelope_rates is None or self.profile is None:
            raise ValueError(f"{what} needs a field with an explicit Gaussian envelope")


def pair_field(state: fd.FockPairState, t: float = 0.0) -> WignerField:
    """Two-mode field of the evolving number-state pair."""
    params = state.params
    a_q, a_p = fd.envelope_rates(params)
    sign = -1.0 if (state.k + state.ell) % 2 else 1.0
    norm = sign / (math.pi**2 * params.hbar**2)
    theta = params.gamma * t
    c, s = math.cos(theta), math.sin(theta)

    def profile(q1, p1, q2, p2):
        x1, y1 = np.sqrt(a_q) * np.asarray(q1, float), np.sqrt(a_p) * np.asarray(p1, float)
        x2, y2 = np.sqrt(a_q) * np.asarray(q2, float), np.sqrt(a_p) * np.asarray(p2, float)
        rho1 = (c * x1 - s * x2) ** 2 + (c * y1 - s * y2) ** 2
        rho2 = (s * x1 + c * x2) ** 2 + (s * y1 + c * y2) ** 2
        return norm * laguerre(state.k, 2 * rho1) * laguerre(state.ell, 2 * rho2)

    return WignerField(
        evaluator=lambda q1, p1, q2, p2: fd.evolved_wigner(state, (q1, p1, q2, p2), t),
        mode_count=2,
        hbar=params.hbar,
        envelope_rates=(a_q, a_p, a_q, a_p),
        profile=profile,
        profile_degree=2 * (state.k + state.ell),
    )


def eigenstate_field(n1: int, n2: int, params: fd.OscillatorParams) -> WignerField:
    """Two-mode field of the stationary eigenstate (n1, n2)."""
    a_q, a_p = fd.envelope_rates(params)
    sign = -1.0 if (n1 + n2) % 2 else 1.0
    norm = sign / (math.pi**2 * params.hbar**2)

    def profile(q1, p1, q2, p2):
        x1, y1 = np.sqrt(a_q) * np.asarray(q1, float), np.sqrt(a_p) * np.asarray(p1, float)
        x2, y2 = np.sqrt(a_q) * np.asarray(q2, float), np.sqrt(a_p) * np.asarray(p2, float)
        r2 = x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2
        cross = y1 * x2 - y2 * x1
        return norm * laguerre(n1, r2 + 2 * cross) * laguerre(n2, r2 - 2 * cross)

    return WignerField(
        evaluator=lambda q1, p1, q2, p2: fd.stationary_wigner(n1, n2, (q1, p1, q2, p2), params),
        mode_count=2,
        hbar=params.hbar,
        envelope_rates=(a_q, a_p, a_q, a_p),
        profile=profile,
        profile_degree=2 * (n1 + n2),
    )


def marginal_field(state: fd.FockPairState, t: float, mode: int) -> WignerField:
    """Single-mode marginal of the evolving pair as a field.

    The marginal is the Wigner function of the mode's number-diagonal
    state, so its profile is the Laguerre series of
    :func:`fock_dynamics.radial_profile` in s = a_q q^2 + a_p p^2, a
    polynomial of degree k + l in s.
    """
    a_q, a_p = fd.envelope_rates(state.params)
    probs = fd.mode_populations(state, t, mode)

    def profile(q, p):
        q = np.asarray(q, float)
        p = np.asarray(p, float)
        return fd.radial_profile(probs, a_q * q * q + a_p * p * p, state.params.hbar)

    return WignerField(
        evaluator=lambda q, p: fd.marginal_wigner(state, t, mode, (q, p)),
        mode_count=1,
        hbar=state.params.hbar,
        envelope_rates=(a_q, a_p),
        profile=profile,
        profile_degree=2 * (state.k + state.ell),
    )


def gaussian_field(state: "gs.GaussianState") -> WignerField:
    """Field view of a Gaussian state.

    States with a diagonal covariance also expose an envelope/profile
    split (the profile is then exp(linear), not polynomial), which is
    enough for Gauss-Hermite functionals to converge to machine accuracy.
    """
    sigma = state.cov
    rates = None
    profile = None
    if np.allclose(sigma, np.diag(np.diag(sigma)), atol=1e-14):
        variances = np.diag(sigma)
        rates = tuple(1.0 / (2.0 * v) for v in variances)
        d = state.mean
        norm = 1.0 / ((2 * math.pi) ** state.modes * math.sqrt(np.linalg.det(sigma)))

        def profile(*coords):
            coords = [np.asarray(z, float) for z in coords]
            lin = sum(
                (d[i] * z - 0.5 * d[i] ** 2) / variances[i] for i, z in enumerate(coords)
            )
            return norm * np.exp(lin)

    return WignerField(
        evaluator=lambda *coords: gs.gaussian_wigner(state, *coords),
        mode_count=state.modes,
        hbar=state.hbar,
        envelope_rates=rates,
        profile=profile,
        profile_degree=None,
    )


def _auto_rule(field: WignerField, squared: bool) -> QuadratureRule:
    degree = field.profile_degree
    if degree is None:
        return gauss_hermite(32)
    needed = degree + 1 if squared else degree // 2 + 1
    return gauss_hermite(max(8, needed))


def _envelope_points(field: WignerField, rule: QuadratureRule, scale: float):
    """Quadrature points z_i = x_i / sqrt(scale * a_i) per axis, with the
    combined weight array and the Jacobian of the substitution."""
    rates = field.envelope_rates
    axes = [rule.nodes / math.sqrt(scale * a) for a in rates]
    grids = np.meshgrid(*axes, indexing="ij")
    weight = rule.weights
    combo = weight
    for _ in range(len(rates) - 1):
        combo = np.multiply.outer(combo, weight)
    jacobian = math.prod(1.0 / math.sqrt(scale * a) for a in rates)
    return grids, combo, jacobian


def linear_entropy(field: WignerField, rule: QuadratureRule | None = None) -> float:
    """1 - (2 pi hbar)^N * integral(W^2) over the field's phase space.

    Zero for pure states; results within 1e-9 of the [0, 1] bounds are
    clamped onto them.
    """
    field._require_envelope("linear_entropy")
    if rule is None:
        rule = _auto_rule(field, squared=True)
    grids, combo, jacobian = _envelope_points(field, rule, scale=2.0)
    vals = field.profile(*grids)
    purity = (2 * math.pi * field.hbar) ** field.mode_count * jacobian * float(
        np.sum(combo * vals * vals)
    )
    s = 1.0 - purity
    if -1e-9 <= s < 0.0:
        return 0.0
    if 1.0 < s <= 1.0 + 1e-9:
        return 1.0
    return s


def normalization(field: WignerField, rule: QuadratureRule | None = None) -> float:
    """integral(W) over the field's phase space (1 for a valid state)."""
    field._require_envelope("normalization")
    if rule is None:
        rule = _auto_rule(field, squared=False)
    grids, combo, jacobian = _envelope_points(field, rule, scale=1.0)
    vals = field.profile(*grids)
    return jacobian * float(np.sum(combo * vals))


def _reduced_field(field: WignerField, mode: int, rule: QuadratureRule) -> WignerField:
    """Marginal of a generic enveloped two-mode field over the other mode."""
    field._require_envelope("marginalization")
    if field.mode_count != 2:
        raise ValueError("marginalization needs a two-mode field")
    keep = (0, 1) if mode == 1 else (2, 3)
    drop = (2, 3) if mode == 1 else (0, 1)
    rates = field.envelope_rates
    ax_q = rule.nodes / math.sqrt(rates[drop[0]])
    ax_p = rule.nodes / math.sqrt(rates[drop[1]])
    jac = 1.0 / math.sqrt(rates[drop[0]] * rates[drop[1]])
    qq, pp = np.meshgrid(ax_q, ax_p, indexing="ij")
    ww = np.multiply.outer(rule.weights, rule.weights)

    def profile(q, p):
        q = np.asarray(q, float)
        p = np.asarray(p, float)
        out = np.zeros(np.broadcast(q, p).shape)
        for qi, pi, wi in zip(qq.ravel(), pp.ravel(), ww.ravel()):
            args = [None] * 4
            args[keep[0]], args[keep[1]] = q, p
            args[drop[0]], args[drop[1]] = qi, pi
            out = out + wi * field.profile(*args)
        return jac * out

    kept_rates = (rates[keep[0]], rates[keep[1]])

    def evaluator(q, p):
        q = np.asarray(q, float)
        p = np.asarray(p, float)
        env = np.exp(-(kept_rates[0] * q * q + kept_rates[1] * p * p))
        return env * profile(q, p)

    return WignerField(
        evaluator=evaluator,
        mode_count=1,
        hbar=field.hbar,
        envelope_rates=kept_rates,
        profile=profile,
        profile_degree=field.profile_degree,
    )


def mutual_information(state, t=0.0, rule: QuadratureRule | None = None):
    """S(W_1) + S(W_2) - S(W) between the two modes.

    For the evolving number-state pair the joint state is pure and both
    marginals carry the same populations, so this is exactly
    2 (1 - sum_j P_j^2) = 4 sum_{i<j} P_i P_j; t may then be an array of
    times.  The pair sum has no cancellation near product states and is
    never negative.  Any two-mode field with an envelope is reduced by
    Gauss-Hermite quadrature instead.  Zero for product states.
    """
    if isinstance(state, fd.FockPairState):
        probs = fd.mode_populations(state, t)
        below = np.cumsum(probs, axis=-1)[..., :-1]  # sum_{i<j} P_i for j = 1..N
        info = 4.0 * np.sum(probs[..., 1:] * below, axis=-1)
        return float(info) if info.ndim == 0 else info
    if not isinstance(state, WignerField):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    if state.mode_count != 2:
        raise ValueError("mutual information needs a two-mode state")
    if rule is None:
        rule = _auto_rule(state, squared=True)
    parts = [_reduced_field(state, mode, rule) for mode in (1, 2)]
    return (
        linear_entropy(parts[0], rule)
        + linear_entropy(parts[1], rule)
        - linear_entropy(state, rule)
    )


_SCAN_BUDGET = 1 << 20  # scan values of f held at once by negativity


def _scaled_table(n: int, v: np.ndarray) -> np.ndarray:
    """e^{-v/2} L_j(v) for j = 0..n; every entry lies in [-1, 1] for v >= 0."""
    return laguerre_table(n, v) * np.exp(-0.5 * v)


def _series(coeffs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_j coeffs[b, j] e^{-v_b/2} L_j(v_b) for each row b."""
    return np.einsum("bj,jb->b", coeffs, _scaled_table(coeffs.shape[1] - 1, v))


def negativity(populations):
    """integral(|W|) - integral(W) >= 0 of the single-mode state sum_j P_j |j><j|.

    populations is one vector P_0..P_N or a 2-d array with one vector per
    row (a float or an array of values is returned).  Every marginal of the
    rotated pair is such a state (:func:`fock_dynamics.mode_populations`).

    With v = 2 (a_q q^2 + a_p p^2), integral(W) = int_0^inf f(v) dv / 2 for
    f = e^{-v/2} Q(v), Q = sum_j (-1)^j P_j L_j(v).  The negativity, twice
    the weight of W's negative part, is therefore the integral of |f| where
    f < 0.  The tail T(x) = int_x^inf f dv is again a Laguerre series,
    T = 2 sum_j (-1)^j (P_j + 2 sum_{i>j} P_i) e^{-x/2} L_j(x) (Kenfack &
    Zyczkowski, J. Opt. B 6, 396, 2004).  Over the cuts c = 0, the roots
    of f in increasing order, and infinity, the negativity is
    sum_i max(0, T(c_{i+1}) - T(c_i)), with no quadrature.

    The roots are bracketed by the sign changes of f on a scan of
    [0, 4N+6+12 sqrt(N+1)], past the largest root, that is uniform in
    sqrt(v) because the roots crowd the origin; one vectorized bisection
    refines them all.  A root error d moves T by O(d^2), so the result is
    exact to rounding unless two roots share one scan cell, whose lobe is
    then missed.  Rows are processed in chunks of at most _SCAN_BUDGET scan
    values, so memory does not grow with the number of rows.
    """
    probs = np.asarray(populations, dtype=float)
    if probs.ndim not in (1, 2) or probs.shape[-1] == 0:
        raise ValueError("populations must be a nonempty vector or a 2-d array of vectors")
    if not np.all(np.isfinite(probs)):
        raise ValueError("populations must be finite")
    rows = np.atleast_2d(probs)
    n = rows.shape[1] - 1
    v = np.linspace(0.0, math.sqrt(4 * n + 6 + 12 * math.sqrt(n + 1)), 64 * (n + 1) + 257) ** 2
    chunk = max(1, _SCAN_BUDGET // v.size)
    if rows.shape[0] > chunk:
        return np.concatenate([negativity(rows[i : i + chunk]) for i in range(0, rows.shape[0], chunk)])
    signs = (-1.0) ** np.arange(n + 1)
    f_coeffs = signs * rows
    tail = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]  # sum_{i>=j} P_i
    tail_coeffs = 2.0 * signs * (2.0 * tail - rows)

    below = f_coeffs @ _scaled_table(n, v) < 0.0
    which, cell = np.nonzero(below[:, :-1] != below[:, 1:])
    lo, hi = v[cell], v[cell + 1]
    lo_below = below[which, cell]
    coeffs = f_coeffs[which]
    # brackets start at most 0.2 wide in v; 40 halvings leave under 2e-13
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo_side = (_series(coeffs, mid) < 0.0) == lo_below
        lo = np.where(lo_side, mid, lo)
        hi = np.where(lo_side, hi, mid)
    at_root = _series(tail_coeffs[which], 0.5 * (lo + hi))

    at_zero = tail_coeffs.sum(axis=1)  # every L_j(0) = 1
    first = np.ones(which.size, dtype=bool)
    first[1:] = which[1:] != which[:-1]
    last = np.ones(which.size, dtype=bool)
    last[:-1] = first[1:]
    before = np.empty_like(at_root)
    before[1:] = at_root[:-1]
    before[first] = at_zero[which[first]]
    out = np.zeros(rows.shape[0])
    np.add.at(out, which, np.maximum(at_root - before, 0.0))
    out[which[last]] += np.maximum(-at_root[last], 0.0)  # last root to infinity, T(inf) = 0
    return float(out[0]) if probs.ndim == 1 else out


def expectation_value(field: WignerField, observable: Callable, rule: QuadratureRule | None = None) -> float:
    """Phase-space average integral(W * O) of an observable symbol.

    Exact when profile and symbol are polynomials inside the rule's
    exactness window; the normalized-W convention absorbs the usual
    Planck-cell prefactor.
    """
    field._require_envelope("expectation_value")
    if rule is None:
        rule = _auto_rule(field, squared=True)
    grids, combo, jacobian = _envelope_points(field, rule, scale=1.0)
    vals = field.profile(*grids) * observable(*grids)
    return jacobian * float(np.sum(combo * vals))
