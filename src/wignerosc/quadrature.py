"""Integration kernels shared by the physics modules.

Gaussian-weighted integrals of polynomials (normalizations and purities)
are exact under Gauss-Hermite rules.  Laguerre
polynomials, the radial profile of every number-state Wigner function,
are evaluated here by the stable three-term recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GAUSS_HERMITE_MAX",
    "QuadratureRule",
    "gauss_hermite",
    "laguerre",
    "laguerre_table",
]

GAUSS_HERMITE_MAX = 128


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


@dataclass(frozen=True)
class QuadratureRule:
    """Abscissae and weights of a one-dimensional quadrature rule."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.nodes.ndim != 1 or self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if self.nodes.size > 1 and np.any(np.diff(self.nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")

    def __len__(self) -> int:
        return self.nodes.size


def _hermite_columns(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal Hermite values p_0..p_n at x via the three-term recurrence."""
    values = np.empty((n + 1,) + x.shape)
    values[0] = math.pi**-0.25
    if n >= 1:
        values[1] = math.sqrt(2.0) * x * values[0]
    for k in range(1, n):
        values[k + 1] = (
            x * values[k] - math.sqrt(k / 2.0) * values[k - 1]
        ) / math.sqrt((k + 1) / 2.0)
    return values[n], values[:n]


def gauss_hermite(n: int) -> QuadratureRule:
    """Rule integrating f against the weight exp(-x^2) over the real line.

    Golub-Welsch eigen-decomposition of the symmetric tridiagonal Jacobi
    matrix seeds the nodes; two Newton steps on the orthonormal Hermite
    polynomial polish them, and the weights come from the Christoffel sum
    1/sum_k p_k(x_i)^2.  (The raw eigenvector-based weights lose relative
    accuracy at the extreme nodes, where the first eigenvector component
    drops below machine epsilon.)  Exact for polynomial degree <= 2n-1;
    the node set is symmetrized so odd integrands cancel to the last bit.
    """
    if not 1 <= n <= GAUSS_HERMITE_MAX:
        raise ValueError(f"node count must be in [1, {GAUSS_HERMITE_MAX}], got {n}")
    if n == 1:
        return QuadratureRule(np.zeros(1), np.array([math.sqrt(math.pi)]))
    off = np.sqrt(np.arange(1, n) / 2.0)
    jacobi = np.diag(off, 1) + np.diag(off, -1)
    nodes = np.linalg.eigvalsh(jacobi)
    for _ in range(2):
        top, lower = _hermite_columns(n, nodes)
        derivative = math.sqrt(2.0 * n) * lower[n - 1]
        nodes = nodes - top / derivative
    _, lower = _hermite_columns(n, nodes)
    weights = 1.0 / np.sum(lower**2, axis=0)
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    return QuadratureRule(nodes, weights)
