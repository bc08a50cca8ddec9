"""Non-relativistic 1d quantum-trajectory solver.

Independent reference for the large-c limit: same grids, stencils and weight
machinery as the relativistic solver, but its own dynamics.  Here the slice
metric is gamma = x_C^2, coordinate time is the evolution parameter, and the
equations are

    dx/dt = v        dv/dt = f_Q / m,   f_Q = -(1 / x_C) dQ/dC .
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dynamics import _rk4
from .qpotential import log_form_Q
from .state import SimConfig, SpatialGrid, WeightFunction, step_counts
from .stencils import StencilPlan, build_plan, d_dC


@dataclass(frozen=True)
class NonRelState:
    t: float
    x: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.x.shape != self.v.shape:
            raise ValueError("x and v must have the same shape")
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.v))):
            raise ValueError("non-finite state")
        if np.any(np.diff(self.x) <= 0):
            raise ValueError("x must be strictly increasing (no trajectory crossing)")


def _potential(
    x, w: WeightFunction, grid: SpatialGrid, plan: StencilPlan, hbar: float, mass: float
):
    """(Q, x_C) for positions x(C), with gamma = x_C^2."""
    x_C = d_dC(np.asarray(x, dtype=float), grid, plan)
    if (x_C <= 0).any():
        raise ValueError("x must be monotone in C")
    gamma = x_C ** 2
    return log_form_Q(w.dlog_f(grid.nodes), gamma, grid, plan, hbar, mass), x_C


def nonrel_Q(
    x: np.ndarray,
    w: WeightFunction,
    grid: SpatialGrid,
    plan: StencilPlan,
    hbar: float,
    mass: float,
) -> np.ndarray:
    """Quantum potential for trajectory positions x(C), with gamma = x_C^2."""
    return _potential(x, w, grid, plan, hbar, mass)[0]


def nonrel_rhs(
    state: NonRelState, config: SimConfig, plan: Optional[StencilPlan] = None
):
    """(dx/dt, dv/dt) for the free particle."""
    if plan is None:
        plan = build_plan(config.grid, config.stencil_order)
    Q, x_C = _potential(state.x, config.weight, config.grid, plan, config.hbar, config.mass)
    f_Q = -d_dC(Q, config.grid, plan) / x_C
    return state.v.copy(), f_Q / config.mass


def nonrel_integrate(
    config: SimConfig,
    initial_state: Optional[NonRelState] = None,
    cadence: float = 1.0,
) -> list:
    """Fixed-step RK4 from t = 0 to t_final; returns NonRelState snapshots.

    t_final and cadence must be whole multiples of dt (ValueError otherwise).
    """
    n_steps, stride = step_counts(config, cadence)
    plan = build_plan(config.grid, config.stencil_order)

    def rhs(y, _h):
        return np.stack(nonrel_rhs(NonRelState(0.0, y[0], y[1]), config, plan))

    if initial_state is None:
        y = np.stack([config.grid.nodes.copy(), np.zeros(config.grid.n_points)])
    else:
        y = np.stack([initial_state.x, initial_state.v])
    out = []
    for k in range(n_steps + 1):
        if k % stride == 0 or k == n_steps:
            out.append(NonRelState(k * config.dt, y[0].copy(), y[1].copy()))
        if k == n_steps:
            break
        y = _rk4(rhs, y, config.dt)
    return out
