"""Metric quantities of the co-moving ensemble frame.

On each constant-T slice the induced spatial metric reduces to the scalar
gamma = x_C^2 - c^2 t_C^2, which must stay positive for the slice to remain
spacelike, a state rule: a timelike slice of a stack is its error's index.
The time-space block g01 = eta_ab x^a_T x^b_C vanishes for an orthogonal
trajectory/slice foliation; it is monitored as a residual, never projected
away, so drift stays visible as a correctness signal.

compute_geometry is the first layer of every RK stage and record, on one
(4, N) slice or a (K, 4, N) stack (dynamics._slice); Q, tau_T and the force
follow from its (t_C, x_C) rows and gamma.  The g01 residual is never needed
to advance the ensemble, so attach_g01 computes it only for recorded and
read-back slices, from the rates (t_T, x_T) the stage has already formed.
"""

from __future__ import annotations

import numpy as np

from .state import INF, T_ROW, TX_ROWS, X_ROW, ZERO, SimConfig, StateValidationError
from .stencils import d_dC


def compute_geometry(y, config: SimConfig):
    """(tx_C, gamma) of the slice with rows t, x = y[..., 0, :], y[..., 1, :],
    or of a stack of them: the label-derivatives (t_C, x_C) as the rows
    (..., 2, N) of one d_dC call, which compute_force scales as a whole, and
    gamma = x_C^2 - c^2 t_C^2 with c^2 = config.c_sq, both squares one
    product tx_C * tx_C (g01 is attach_g01's).  Raises StateValidationError,
    naming the first node (index: its slice of a stack), unless gamma is
    positive and finite; its fast pass is one count of the mask
    0 < gamma < inf, which a NaN fails.
    """
    tx_C = d_dC(y[TX_ROWS], config.plan)
    sq = tx_C * tx_C
    gamma = sq[X_ROW] - config.c_sq * sq[T_ROW]
    if np.count_nonzero((gamma > ZERO) & (gamma < INF)) != gamma.size:
        *k, j = np.unravel_index(np.argmin((gamma > 0) & np.isfinite(gamma)), gamma.shape)
        g = gamma[(*k, j)]
        kind = "non-positive" if g <= 0 else "non-finite"
        raise StateValidationError(f"{kind} spatial metric gamma = {g:.6g} at node {j}: "
                                   "slice is no longer spacelike", *map(int, k))
    return tx_C, gamma


def attach_g01(tx_C, d, config: SimConfig) -> np.ndarray:
    """The time-space metric residual g01 = eta_ab x^a_T x^b_C = -c^2 t_T t_C
    + x_T x_C of a slice or a stack, from compute_geometry's (t_C, x_C) rows
    with c^2 = config.c_sq and the rates (t_T, x_T) = tau_T (u0 / c, u1), the
    first two rows of d (..., rows, N), the slice's RK stage rates
    (dynamics._slice)."""
    return -config.c_sq * d[T_ROW] * tx_C[T_ROW] + d[X_ROW] * tx_C[X_ROW]
