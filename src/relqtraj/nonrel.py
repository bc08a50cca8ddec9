"""Non-relativistic 1d quantum-trajectory solver.

Independent reference for the large-c limit.  It shares the machinery of the
relativistic solver (grids, stencils, weights, the state guard, the RK4
combine, the fixed-step driver, log_form_Q and the config's cached
constants) but not its physics: here the slice metric is gamma = x_C^2,
coordinate time is the evolution parameter, and the equations are

    dx/dt = v        dv/dt = f_Q / m,   f_Q = -(1 / x_C) dQ/dC .

The RK stages step the raw (2, N) array (x, v) that a NonRelState wraps
and keep the bit-identity rules of the dynamics module docstring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _rk4, run_fixed_steps
from .qpotential import log_form_Q
from .state import ZERO, SimConfig, StateValidationError, check_state
from .stencils import d_dC


@dataclass(frozen=True)
class NonRelState:
    """Rows x, v of the read-only (2, N) array y, at coordinate time t."""

    t: float
    y: np.ndarray

    def __post_init__(self):
        check_state(self.y, 2)
        self.y.setflags(write=False)

    x = property(lambda self: self.y[0])
    v = property(lambda self: self.y[1])


def nonrel_Q(x, config: SimConfig):
    """(Q, x_C) for positions x(C), with gamma = x_C^2 = x_C * x_C and Q by
    log_form_Q from the config's weight, hbar and mass."""
    x_C = d_dC(x, config.plan)
    if np.count_nonzero(x_C <= ZERO):
        raise StateValidationError("x must be monotone in C")
    return log_form_Q(x_C * x_C, config), x_C


def nonrel_rhs(y: np.ndarray, config: SimConfig) -> np.ndarray:
    """Right-hand side rows (dx/dt, dv/dt) of one RK stage y = (x, v),
    shape (2, N), for the free particle.

    The stage is checked by the state guard first and raises
    StateValidationError when it breaks an invariant or is not (2, N).
    """
    check_state(y, 2)
    Q, x_C = nonrel_Q(y[0], config)
    f_Q = -d_dC(Q, config.plan) / x_C
    return np.array((y[1], f_Q / config.m))


def nonrel_integrate(config: SimConfig, cadence: float = 1.0) -> list:
    """Fixed-step RK4 from rest at x = C, t = 0, to t_final; returns one
    NonRelState per record.

    t_final and cadence must be whole multiples of dt (ValueError otherwise).
    On failure raises IntegrationError with the partial list attached.
    """
    def rhs(y, _h):
        return nonrel_rhs(y, config)

    def step(y, _t):
        return _rk4(rhs, y, config)

    y = np.stack([config.grid.nodes, np.zeros(config.grid.n_points)])
    return run_fixed_steps(config, cadence, y, step, NonRelState, [])
