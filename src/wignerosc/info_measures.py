"""Informational functionals of Wigner functions.

Linear entropy S = 1 - (2 pi)^2 integral(W^2), the mutual information
I = S(W_1) + S(W_2) - S(W) built from single-mode marginals, and the Wigner
negativity delta = integral(|W|) - integral(W).

The integrals take the two-mode :class:`~wignerosc.fock_dynamics.WignerField`
of the pair, W = profile * exp(-|z|^2) in vacuum units with a polynomial profile,
and evaluate exactly by Gauss-Hermite rules from numpy's ``hermgauss``,
imported only when a field is integrated.  For the number-state pair the
mutual information and the negativity need no integration at all: both
follow in closed form from the single-mode populations.
"""

from __future__ import annotations

import math

import numpy as np

from .fock_dynamics import FockPairState, WignerField, mode_populations

__all__ = [
    "MAX_QUANTA",
    "NegativityError",
    "linear_entropy",
    "mutual_information",
    "negativity",
    "normalization",
    "pair_information",
]


def _envelope_points(field: WignerField, squared: bool):
    """Gauss-Hermite points exact for the field's profile, or for its square when squared.

    Returns the nodes x / sqrt(scale) as four open grids, each laid along its own
    axis of a 4-d array so that they broadcast against one another, scale 2 for
    the square's envelope exp(-2|z|^2); the combined weights, the one full 4-d
    array; and the Jacobian scale^-2 of the substitution.  A rule of more than
    64 nodes, whose 4-d grid passes 2^24 points, is a ValueError.
    """
    from numpy.polynomial.hermite import hermgauss

    nodes = max(8, field.degree + 1 if squared else field.degree // 2 + 1)
    if nodes > 64:
        raise ValueError(f"a field of degree {field.degree} needs {nodes} Gauss-Hermite nodes, more than 64")
    x, weight = hermgauss(nodes)
    scale = 2.0 if squared else 1.0
    grids = np.meshgrid(*[x / math.sqrt(scale)] * 4, indexing="ij", sparse=True)
    return grids, math.prod(np.ix_(*[weight] * 4)), scale**-2


def linear_entropy(field: WignerField) -> float:
    """1 - (2 pi)^2 * integral(W^2) over the field's phase space.

    Zero for pure states; results within 1e-9 of the [0, 1] bounds are
    clamped onto them.
    """
    grids, combo, jacobian = _envelope_points(field, squared=True)
    vals = field.profile(*grids)
    purity = (2 * math.pi) ** 2 * jacobian * float(np.sum(combo * vals * vals))
    s = 1.0 - purity
    if -1e-9 <= s < 0.0:
        return 0.0
    if 1.0 < s <= 1.0 + 1e-9:
        return 1.0
    return s


def normalization(field: WignerField) -> float:
    """integral(W) over the field's phase space (1 for a valid state)."""
    grids, combo, jacobian = _envelope_points(field, squared=False)
    vals = field.profile(*grids)
    return jacobian * float(np.sum(combo * vals))


def mutual_information(state: FockPairState, t=0.0):
    """S(W_1) + S(W_2) - S(W) between the two modes of the evolving pair.

    The joint state is pure and both marginals carry the same populations,
    so this is exactly 2 (1 - sum_j P_j^2) = 4 sum_{i<j} P_i P_j, which
    pair_information evaluates; t may be an array of times.  Zero for
    product states.
    """
    if not isinstance(state, FockPairState):
        raise TypeError(f"mutual information needs a FockPairState, got {type(state).__name__}")
    info = pair_information(mode_populations(state, t))
    return float(info) if info.ndim == 0 else info


def pair_information(probs: np.ndarray) -> np.ndarray:
    """4 sum_{i<j} P_i P_j over the trailing axis of one mode's populations P_0..P_N.

    The mutual information of a pure pair whose modes share these
    populations.  The pair sum has no cancellation near product states, is
    never negative and is capped at its maximum 2N/(N+1), which roundoff
    could pass by an ulp.
    """
    below = np.cumsum(probs, axis=-1)[..., :-1]  # sum_{i<j} P_i for j = 1..N
    total = probs.shape[-1] - 1
    return np.minimum(4.0 * np.sum(probs[..., 1:] * below, axis=-1), 2.0 * total / (total + 1))


MAX_QUANTA = 313  # largest N whose negativity scan stays in the floats
_SCAN_BUDGET = 1 << 20  # scan values of f held at once by negativity
_NEWTON_CAP = 64  # iterations before negativity gives up; random pairs up to N = 200 need at most 5


class NegativityError(ArithmeticError):
    """The negativity of a number-state population vector cannot be certified."""


def _scaled_table(n: int, v: np.ndarray) -> np.ndarray:
    """e^{-v/2} L_j(v) for j = 0..n; every entry lies in [-1, 1] for v >= 0.

    numpy's lagvander runs the three-term recurrence unscaled, so past n = MAX_QUANTA
    it leaves the floats on the negativity scan; that raises NegativityError.
    """
    from numpy.polynomial.laguerre import lagvander

    with np.errstate(over="ignore", invalid="ignore"):
        table = np.moveaxis(lagvander(v, n), -1, 0) * np.exp(-0.5 * v)
    if not np.isfinite(table).all():
        raise NegativityError(
            f"the Laguerre values of order {n} leave the floats on the negativity scan "
            f"(at most {MAX_QUANTA} quanta are supported)"
        )
    return table


def negativity(populations):
    """integral(|W|) - integral(W) >= 0 of the single-mode state sum_j P_j |j><j|.

    populations is one vector P_0..P_N or a 2-d array with one vector per
    row (a float or an array of values is returned).  Every marginal of the
    rotated pair is such a state (:func:`fock_dynamics.mode_populations`).

    With v = 2 (q^2 + p^2), integral(W) = int_0^inf f(v) dv / 2 for
    f = e^{-v/2} Q(v), Q = sum_j (-1)^j P_j L_j(v).  The negativity, twice
    the weight of W's negative part, is therefore the integral of |f| where
    f < 0.  The tail T(x) = int_x^inf f dv is again a Laguerre series,
    T = 2 sum_j (-1)^j (P_j + 2 sum_{i>j} P_i) e^{-x/2} L_j(x) (Kenfack &
    Zyczkowski, J. Opt. B 6, 396, 2004).  Over the cuts c = 0, the roots
    of f in increasing order, and infinity, the negativity is
    sum_i max(0, T(c_{i+1}) - T(c_i)), with no quadrature.

    The roots are bracketed by the sign changes of f on a scan of
    [0, 4N+6+12 sqrt(N+1)], past the largest root, that is uniform in
    sqrt(v) because the roots crowd the origin.  A Newton iteration,
    started at the secant of each bracket's scan values, refines them all
    at once; its slope f' = e^{-v/2} Q' - f/2 comes from the same Laguerre
    values, since L_j' = -sum_{i<j} L_i.  Every iterate stays in its sign
    bracket [a, b], falling back to the midpoint when a step leaves it.  A
    root error d moves T by about |f'| d^2 / 2, so a root stops once its
    Newton step s has |f'| s^2 <= 1e-18 (|f'| <= N + 1/2, so this holds
    whenever |s| <= 1e-12), or, where f is rounding noise and s with it,
    once (b - a) max(|f(a)|, |f(b)|) <= 1e-18.
    The result is thus exact to rounding unless two roots share one scan
    cell, whose lobe is then missed.  The scan table is built once; rows
    are processed in chunks of at most _SCAN_BUDGET scan values, so memory
    does not grow with the number of rows.  Past N = MAX_QUANTA quanta the
    Laguerre values leave the floats and NegativityError is raised.
    """
    probs = np.asarray(populations, dtype=float)
    if probs.ndim not in (1, 2) or probs.shape[-1] == 0:
        raise ValueError("populations must be a nonempty vector or a 2-d array of vectors")
    if not np.all(np.isfinite(probs)):
        raise ValueError("populations must be finite")
    rows = np.atleast_2d(probs)
    n = rows.shape[1] - 1
    v = np.linspace(0.0, math.sqrt(4 * n + 6 + 12 * math.sqrt(n + 1)), 64 * (n + 1) + 257) ** 2
    table = _scaled_table(n, v)
    chunk = max(1, _SCAN_BUDGET // v.size)
    out = np.empty(rows.shape[0])
    for i in range(0, rows.shape[0], chunk):
        out[i : i + chunk] = _negativity_rows(rows[i : i + chunk], v, table)
    return float(out[0]) if probs.ndim == 1 else out


def _negativity_rows(rows: np.ndarray, v: np.ndarray, table: np.ndarray) -> np.ndarray:
    """negativity of each row, with the scan points v and their scaled Laguerre table."""
    n = rows.shape[1] - 1
    signs = (-1.0) ** np.arange(n + 1)
    f_coeffs = signs * rows
    tail = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]  # sum_{i>=j} P_i
    tail_coeffs = 2.0 * signs * (2.0 * tail - rows)
    slope_coeffs = f_coeffs - np.cumsum(f_coeffs[:, ::-1], axis=1)[:, ::-1]  # -sum_{i>j} c_i: Q'

    scan = f_coeffs @ table
    below = scan < 0.0
    # flat indices in row-major order, as np.nonzero gives them, but much faster
    which, cell = np.divmod(np.flatnonzero(below[:, :-1] != below[:, 1:]), v.size - 1)
    lo, hi = v[cell], v[cell + 1]
    lo_below = below[which, cell]
    f_lo, f_hi = scan[which, cell], scan[which, cell + 1]
    x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))  # f_lo, f_hi differ in sign, so x is in [lo, hi]
    coeffs = np.stack((f_coeffs[which], slope_coeffs[which], tail_coeffs[which]))
    for _ in range(_NEWTON_CAP):
        f, slope, at_root = np.einsum("smj,jm->sm", coeffs, _scaled_table(n, x))
        slope -= 0.5 * f
        lo_side = (f < 0.0) == lo_below
        lo, f_lo = np.where(lo_side, x, lo), np.where(lo_side, f, f_lo)
        hi, f_hi = np.where(lo_side, hi, x), np.where(lo_side, f_hi, f)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -f / slope
            settled = (np.abs(slope) * step * step <= 1e-18) | (
                (hi - lo) * np.maximum(np.abs(f_lo), np.abs(f_hi)) <= 1e-18
            )
        if settled.all():
            break
        new = x + step
        # closed bracket: a converged root may land on its own bracket end
        new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
        x = np.where(settled, x, new)
    else:
        raise NegativityError(f"Newton refinement of the roots did not settle in {_NEWTON_CAP} iterations")

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
    return out
