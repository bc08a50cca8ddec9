"""Finite-difference stencils and local polynomial interpolation.

First derivatives use centered stencils of the configured order in the
interior and matching-order one-sided stencils at the edges (no boundary
condition is imposed; edge rows simply use the widest available window).
Nested second derivatives are always formed by applying the first-derivative
operator twice, never by a dedicated second-derivative stencil.  A plan
carries its grid, so d_dC(values, plan) needs nothing else; a run's plan is
SimConfig.plan, built once per config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .state import SpatialGrid

STENCIL_ORDERS = (2, 4)  # the accuracy orders of the first-derivative stencils
_FLOAT64 = np.dtype(np.float64)


def fornberg_weights(xs: np.ndarray, x0: float, deriv: int) -> np.ndarray:
    """Finite-difference weights for the deriv-th derivative at x0 from nodes xs.

    Standard Fornberg recursion; exact for polynomials up to degree
    len(xs) - 1.
    """
    n = len(xs)
    if deriv >= n:
        raise ValueError("need more nodes than derivative order")
    w = np.zeros((deriv + 1, n))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, n):
        mn = min(i, deriv)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = ((xs[i] - x0) * w[k, j] - k * w[k - 1, j]) / c3
            w[0, j] = (xs[i] - x0) * w[0, j] / c3
        c1 = c2
    return w[deriv]


@dataclass(frozen=True)
class StencilPlan:
    """First-derivative plan for a uniform grid and its dense operator matrix:
    centered rows in the interior, one-sided rows at the edges."""

    grid: SpatialGrid
    order: int
    matrix: np.ndarray                  # (n, n) dense derivative operator

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def interior(self) -> slice:
        """Node range covered by the centered stencil."""
        half = self.order // 2
        return slice(half, self.grid.n_points - half)


def build_plan(grid: SpatialGrid, order: int) -> StencilPlan:
    if order not in STENCIL_ORDERS:
        raise ValueError(f"stencil order must be 2 or 4, got {order}")
    nodes = grid.nodes
    n = grid.n_points
    half = order // 2
    width = order + 1
    D = np.zeros((n, n))
    for i in range(n):
        lo = min(max(i - half, 0), n - width)
        D[i, lo:lo + width] = fornberg_weights(nodes[lo:lo + width], nodes[i], 1)
    return StencilPlan(grid, order, D)


def _grid_values(values, grid: SpatialGrid) -> np.ndarray:
    """values as a float (n,) or (n, k) array, n the number of grid nodes."""
    values = np.asarray(values, dtype=float)
    if values.shape[:1] != (grid.n_points,) or values.ndim > 2:
        raise ValueError(
            f"values shape {values.shape} does not match grid ({grid.n_points}[, k])"
        )
    return values


def d_dC(values: np.ndarray, plan: StencilPlan) -> np.ndarray:
    """First derivative of nodal values with respect to the label C along the
    first axis; a stacked (n, k) array is one BLAS matrix product, whose
    columns can differ from 1-D calls in the last bits.

    A contiguous float64 (n,) array, the RK stages' only input, skips the
    _grid_values check and runs as ndarray.dot: the same single gemv as the
    matmul, bit for bit, at about half the call overhead.  The cheapest
    tests come first; a float64 dtype that is not numpy's own instance only
    takes the checked path."""
    D = plan.matrix
    if (type(values) is np.ndarray and values.ndim == 1 and values.dtype is _FLOAT64
            and len(values) == len(D) and values.flags.c_contiguous):
        return D.dot(values)
    return D @ _grid_values(values, plan.grid)


def interpolate(values: np.ndarray, grid: SpatialGrid, c_query: float):
    """Cubic 4-point Lagrange interpolation of nodal values at c_query.

    Exact for polynomials up to degree 3; the query must lie inside the grid.
    Interpolates along the first axis: a float for 1-D values, one value per
    column for a stacked (n, k) array.
    """
    values = _grid_values(values, grid)
    nodes = grid.nodes
    if not (nodes[0] <= c_query <= nodes[-1]):
        raise ValueError(f"query {c_query} outside grid [{nodes[0]}, {nodes[-1]}]")
    k = int(np.searchsorted(nodes, c_query)) - 1
    j = min(max(k - 1, 0), grid.n_points - 4)
    xs = nodes[j:j + 4]
    ys = values[j:j + 4]
    out = 0.0
    for i in range(4):
        li = 1.0
        for jj in range(4):
            if jj != i:
                li *= (c_query - xs[jj]) / (xs[i] - xs[jj])
        out += ys[i] * li
    return float(out) if out.ndim == 0 else out
