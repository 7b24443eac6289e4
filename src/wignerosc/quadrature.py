"""Laguerre polynomials by their three-term recurrence.

They are the radial profile of every number-state Wigner function, and
their table drives the negativity scan.  The Gauss-Hermite rules that
integrate Gaussian-weighted polynomials come from numpy
(``numpy.polynomial.hermite.hermgauss``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["laguerre", "laguerre_table"]


def _laguerre_orders(n: int, x: np.ndarray):
    """Yield L_0(x), ..., L_n(x) by (k+1) L_{k+1} = (2k+1-x) L_k - k L_{k-1}."""
    if n < 0:
        raise ValueError(f"polynomial order must be nonnegative, got {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError("laguerre argument must be finite")
    prev = np.ones_like(x)
    yield prev
    if n == 0:
        return
    cur = 1.0 - x
    yield cur
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
        yield cur


def laguerre(n: int, x):
    """Evaluate the Laguerre polynomial L_n(x).

    The recurrence is stable for the moderate orders needed here.
    Vectorized in x; scalar input returns a float.
    """
    arr = np.asarray(x, dtype=float)
    for value in _laguerre_orders(n, arr):
        pass
    return float(value) if arr.ndim == 0 else value


def laguerre_table(n: int, x) -> np.ndarray:
    """L_0(x), ..., L_n(x) stacked along a new leading axis of length n + 1."""
    return np.stack(list(_laguerre_orders(n, np.asarray(x, dtype=float))))
