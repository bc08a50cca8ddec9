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
the same under every kernel; d_dC, the package's only BLAS call, alone
depends on one.  Both act on the last axis, a stack row bitwise its 1-D call.
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
    order, n = int(order), grid.n_points  # 4.0 is the order 4
    rows = np.arange(n)[:, None]
    cols = np.clip(rows - order // 2, 0, n - order - 1) + np.arange(order + 1)
    D = np.zeros((n, n))
    D[rows, cols] = fornberg_weights(grid.nodes[cols], grid.nodes, 1)
    D.setflags(write=False)
    return D


def _grid_values(values, n: int) -> np.ndarray:
    """values as a float array (..., n), n the number of grid nodes."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1:] != (n,):
        raise ValueError(f"values shape {values.shape} does not match grid (..., {n})")
    return values


def d_dC(values: np.ndarray, D: np.ndarray) -> np.ndarray:
    """First derivative along the last axis, in the label C or (pde_residual)
    in T, by the plan D: np.matvec, one gemv per row of a stack (..., n).

    A float64 ndarray of numpy's own type and native dtype goes straight to
    the product, a 1-D one as ndarray.dot: the same single gemv, bit for bit,
    at less call overhead.  Only when numpy refuses its shape does it take
    the _grid_values check, which names the grid; any other input (a
    subclass, a list, another dtype or byte order) takes that path first."""
    if type(values) is np.ndarray and values.dtype is _FLOAT64:
        try:
            return D.dot(values) if values.ndim == 1 else np.matvec(D, values)
        except ValueError:  # numpy's shape error; _grid_values raises the named one
            pass
    return np.matvec(D, _grid_values(values, len(D)))


def interpolate(values: np.ndarray, grid: SpatialGrid, c_query: float):
    """Cubic 4-point Lagrange interpolation of nodal values at c_query, with
    the weights fornberg_weights gives at derivative order 0.

    Exact for polynomials up to degree 3; the query must lie inside the grid.
    Interpolates along the last axis: a float for 1-D values, one value per
    row for a stack (..., n), each bitwise its 1-D call (the four terms are
    summed one by one, in node order).
    """
    values = _grid_values(values, grid.n_points)
    nodes = grid.nodes
    if not (nodes[0] <= c_query <= nodes[-1]):
        raise ValueError(f"query {c_query} outside grid [{nodes[0]}, {nodes[-1]}]")
    k = int(np.searchsorted(nodes, c_query)) - 1
    j = min(max(k - 1, 0), grid.n_points - 4)
    w = fornberg_weights(nodes[j:j + 4], c_query, 0)
    y = values[..., j:j + 4]
    out = y[..., 0] * w[0] + y[..., 1] * w[1] + y[..., 2] * w[2] + y[..., 3] * w[3]
    return float(out) if out.ndim == 0 else out
