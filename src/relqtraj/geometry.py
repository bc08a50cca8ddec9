"""Metric quantities of the co-moving ensemble frame.

On each constant-T slice the induced spatial metric reduces to the scalar
gamma = x_C^2 - c^2 t_C^2, which must stay positive for the slice to remain
spacelike; like every state rule, a broken one raises StateValidationError.
The time-space block g01 = eta_ab x^a_T x^b_C vanishes for an orthogonal
trajectory/slice foliation; it is monitored as a residual, never projected
away, so drift stays visible as a correctness signal.

compute_geometry is the first layer of every RK stage (dynamics.eom_rhs);
Q, tau_T and the force follow from its (t_C, x_C) rows and gamma.  The g01
residual is never needed to advance the ensemble, so attach_g01 builds the
record, gamma and g01, only for recorded snapshots and slices read back for
verification, from the rates (t_T, x_T) the stage has already formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .state import SimConfig, StateValidationError
from .stencils import d_dC


@dataclass(frozen=True)
class GeometryFields:
    """A record's geometry: gamma and the g01 residual, from attach_g01."""
    gamma: np.ndarray
    g01_residual: np.ndarray


def compute_geometry(t, x, T: float, config: SimConfig):
    """(tx_C, gamma) of the slice with coordinate arrays t, x at ensemble
    time T: the label-derivatives (t_C, x_C) as the rows of one (2, N) array,
    which compute_force scales as a whole, and gamma = x_C^2 - c^2 t_C^2
    with c^2 = config.c_sq, without the g01 residual (see attach_g01).

    Each derivative is its own gemv (d_dC on a 1-D row); both squares are
    the one exactly-rounded product tx_C * tx_C.  Raises StateValidationError,
    naming the first node and its value, unless gamma is positive and finite;
    its fast pass is one minimum and one maximum reduction.
    """
    tx_C = np.array((d_dC(t, config.plan), d_dC(x, config.plan)))
    sq = tx_C * tx_C
    gamma = sq[1] - config.c_sq * sq[0]
    if not (np.minimum.reduce(gamma) > 0 and np.maximum.reduce(gamma) < math.inf):
        k = int(np.argmin((gamma > 0) & np.isfinite(gamma)))
        kind = "non-positive" if gamma[k] <= 0 else "non-finite"
        raise StateValidationError(
            f"{kind} spatial metric gamma = {gamma[k]:.6g} at node {k} "
            f"(T = {T:.6g}): slice is no longer spacelike"
        )
    return tx_C, gamma


def attach_g01(tx_C, gamma, d, config: SimConfig) -> GeometryFields:
    """The geometry record of a slice: gamma and the time-space metric
    residual eta_ab x^a_T x^b_C = -c^2 t_T t_C + x_T x_C, built from
    compute_geometry's (t_C, x_C) rows with c^2 = config.c_sq and d = (t_T,
    x_T) = tau_T (u0 / c, u1) the first two rate rows of the slice's RK stage
    (dynamics._slice).  The rows themselves are not kept: nothing reads them."""
    return GeometryFields(gamma, -config.c_sq * d[0] * tx_C[0] + d[1] * tx_C[1])
