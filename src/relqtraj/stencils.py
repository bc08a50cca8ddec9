"""Finite-difference stencils and local polynomial interpolation.

First derivatives use centered stencils of the configured order in the
interior and matching-order one-sided stencils at the edges (no boundary
condition is imposed; edge rows simply use the widest available window).
Nested second derivatives are always formed by applying the first-derivative
operator twice, never by a dedicated second-derivative stencil.  A plan is
the read-only (n, n) derivative matrix D itself, so d_dC(values, D) is one
product; a run's plan is SimConfig.plan, built once per config.

Every weight comes from fornberg_weights: derivative order 1 for the plan
rows, all filled by one call on the stack of row windows, and order 0 for
interpolate.  Building the matrix calls no BLAS routine, so it is bitwise
the same under every BLAS kernel; only d_dC's products depend on one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .state import SpatialGrid

STENCIL_ORDERS = (2, 4)  # the accuracy orders of the first-derivative stencils
_FLOAT64 = np.dtype(np.float64)


def fornberg_weights(xs: np.ndarray, x0: float | np.ndarray, deriv: int) -> np.ndarray:
    """Finite-difference weights for the deriv-th derivative at x0 from nodes xs.

    Fornberg's recursion (Math. Comp. 51, 699, 1988); exact for polynomials up
    to degree n - 1 on n nodes, and deriv = 0 gives interpolation weights.  xs
    may be a stack (..., n) of node windows with one point x0 (...) each: every
    window runs the operations of a single (n,) window in the same order, so
    its weights are bitwise its own one-window result.
    """
    xs = np.asarray(xs, dtype=float)
    n = xs.shape[-1]
    if deriv >= n:
        raise ValueError("need more nodes than derivative order")
    dx = xs - np.asarray(x0, dtype=float)[..., None]
    w = np.zeros((deriv + 1,) + xs.shape)
    w[0, ..., 0] = 1.0
    c1 = 1.0
    for i in range(1, n):
        c3 = xs[..., i, None] - xs[..., :i]
        c2 = c3[..., 0]
        for j in range(1, i):  # left to right, as one window multiplies
            c2 = c2 * c3[..., j]
        for k in range(min(i, deriv), 0, -1):
            w[k, ..., i] = c1 * (k * w[k - 1, ..., i - 1] - dx[..., i - 1] * w[k, ..., i - 1]) / c2
        w[0, ..., i] = -c1 * dx[..., i - 1] * w[0, ..., i - 1] / c2
        for k in range(min(i, deriv), 0, -1):
            w[k, ..., :i] = (dx[..., i, None] * w[k, ..., :i] - k * w[k - 1, ..., :i]) / c3
        w[0, ..., :i] = dx[..., i, None] * w[0, ..., :i] / c3
        c1 = c2
    return w[deriv]


def interior(order: int, n: int) -> slice:
    """Node range of n nodes covered by the centered stencil of this order."""
    return slice(order // 2, n - order // 2)


def build_plan(grid: SpatialGrid, order: int) -> np.ndarray:
    """The read-only (n, n) first-derivative matrix, one-sided rows at the edges."""
    if order not in STENCIL_ORDERS:
        raise ValueError(f"stencil order must be 2 or 4, got {order}")
    n = grid.n_points
    rows = np.arange(n)[:, None]
    cols = np.clip(rows - order // 2, 0, n - order - 1) + np.arange(order + 1)
    D = np.zeros((n, n))
    D[rows, cols] = fornberg_weights(grid.nodes[cols], grid.nodes, 1)
    D.setflags(write=False)
    return D


def _grid_values(values, n: int) -> np.ndarray:
    """values as a float (n,) or (n, k) array, n the number of grid nodes."""
    values = np.asarray(values, dtype=float)
    if values.shape[:1] != (n,) or values.ndim > 2:
        raise ValueError(f"values shape {values.shape} does not match grid ({n}[, k])")
    return values


def d_dC(values: np.ndarray, D: np.ndarray) -> np.ndarray:
    """First derivative of nodal values with respect to the label C along the
    first axis, by the plan D; a stacked (n, k) array is one BLAS matrix
    product, whose columns can differ from 1-D calls in the last bits.

    A contiguous float64 (n,) array, the RK stages' only input, skips the
    _grid_values check and runs as ndarray.dot: the same single gemv as the
    matmul, bit for bit, at about half the call overhead.  The cheapest
    tests come first; a float64 dtype that is not numpy's own instance only
    takes the checked path."""
    if (type(values) is np.ndarray and values.ndim == 1 and values.dtype is _FLOAT64
            and len(values) == len(D) and values.flags.c_contiguous):
        return D.dot(values)
    return D @ _grid_values(values, len(D))


def interpolate(values: np.ndarray, grid: SpatialGrid, c_query: float):
    """Cubic 4-point Lagrange interpolation of nodal values at c_query, with
    the weights fornberg_weights gives at derivative order 0.

    Exact for polynomials up to degree 3; the query must lie inside the grid.
    Interpolates along the first axis: a float for 1-D values, one value per
    column for a stacked (n, k) array, each column bitwise its 1-D call (the
    four terms are summed one by one, in node order).
    """
    values = _grid_values(values, grid.n_points)
    nodes = grid.nodes
    if not (nodes[0] <= c_query <= nodes[-1]):
        raise ValueError(f"query {c_query} outside grid [{nodes[0]}, {nodes[-1]}]")
    k = int(np.searchsorted(nodes, c_query)) - 1
    j = min(max(k - 1, 0), grid.n_points - 4)
    w = fornberg_weights(nodes[j:j + 4], c_query, 0)
    y = values[j:j + 4]
    out = y[0] * w[0] + y[1] * w[1] + y[2] * w[2] + y[3] * w[3]
    return float(out) if out.ndim == 0 else out
