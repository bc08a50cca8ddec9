"""Ensemble-time evolution: quantum force, time-dilation factor, RK4 driver.

The first-order system advanced in the ensemble proper time T is

    dt/dT  = tau_T u0 / c          dU0/dT = tau_T f0 / m
    dx/dT  = tau_T u1              dU1/dT = tau_T f1 / m

with tau_T = exp(-Q / m c^2) and the force components (for x^alpha = (ct, x))

    f0 = -(c t_C / gamma) dQ/dC        f1 = -(x_C / gamma) dQ/dC

so the force is the slice-restricted gradient of the quantum potential mapped
back to inertial components, always orthogonal to the four-velocity.

The solver steps the raw (4, N) array y = (t, x, u0, u1) that an
EnsembleState wraps: each RK stage is checked against the ensemble
invariants by check_state_arrays, then _slice computes every slice field
once from y with the config's plan and dlogf.  An EnsembleState, and the g01
residual, are built only for recorded snapshots.  make_snapshot is the one
function that turns a state (and optionally a stored Q) into every field of
a slice; the solver, the snapshot reader and the closed-form sampler all go
through it.

run_fixed_steps is the one stepping loop: integrate and the non-relativistic
solver give it their own step and record functions, and it owns the step
counts, the record cadence and the failure handling of both.  A step's
output is checked by the next stage guard or record, so a bad step is
reported at the T it reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import GeometryFields, GeometryError, attach_g01, slice_metric
from .qpotential import log_form_Q
from .state import (
    EnsembleState,
    SimConfig,
    StateValidationError,
    WeightFunction,
    check_state_arrays,
    norm_violation,
)
from .stencils import StencilPlan, d_dC

ABORT_FACTOR = 10.0  # rk4_step aborts when norm drift exceeds this times invariant_tol
STEP_MULTIPLE_RTOL = 1e-9  # t_final and cadence must be this close to k * dt


@dataclass(frozen=True)
class QuantumFields:
    Q: np.ndarray
    Q_C: np.ndarray
    f0: np.ndarray
    f1: np.ndarray
    tau_T: np.ndarray


@dataclass(frozen=True)
class Snapshot:
    state: EnsembleState
    geometry: GeometryFields
    quantum: QuantumFields

    tau_ensemble = property(lambda self: self.state.tau_ensemble)


@dataclass
class SnapshotSeries:
    config: SimConfig
    snapshots: list

    def __iter__(self):
        return iter(self.snapshots)

    def __len__(self):
        return len(self.snapshots)

    def append(self, snapshot):
        self.snapshots.append(snapshot)

    @property
    def times(self):
        return [s.tau_ensemble for s in self.snapshots]


class IntegrationError(RuntimeError):
    """Evolution aborted; carries the records completed so far in `series`."""

    def __init__(self, message: str, series=None):
        super().__init__(message)
        self.series = series


def compute_Q(
    geom: GeometryFields,
    w: WeightFunction,
    plan: StencilPlan,
    hbar: float,
    mass: float,
):
    """Quantum potential and its label-derivative on one slice."""
    dlogf = w.dlog_f(plan.grid.nodes)
    Q = log_form_Q(dlogf, geom.gamma, plan, hbar, mass)
    Q_C = d_dC(Q, plan)
    return Q, Q_C


def _force(t_C, x_C, gamma, Q_C, c):
    return -c * t_C / gamma * Q_C, -x_C / gamma * Q_C


def compute_force(geom: GeometryFields, Q_C: np.ndarray, c: float):
    """Inertial components (f0, f1) of the quantum force, f0 for the ct slot."""
    return _force(geom.t_C, geom.x_C, geom.gamma, Q_C, c)


def tau_factor(Q: np.ndarray, mass: float, c: float) -> np.ndarray:
    """Local rate of proper time against ensemble time, exp(-Q / m c^2)."""
    return np.exp(-np.asarray(Q, dtype=float) / (mass * c ** 2))


def _slice(y, T, config: SimConfig, Q=None):
    """Every field of the slice y = (t, x, u0, u1) at ensemble time T:
    (t_C, x_C, gamma, Q, Q_C, tau_T, f0, f1).  Q is computed from the
    config's weight unless it is given."""
    plan = config.plan
    t_C, x_C, gamma = slice_metric(y[0], y[1], T, plan, config.c)
    if Q is None:
        Q = log_form_Q(config.dlogf, gamma, plan, config.hbar, config.mass)
    Q_C = d_dC(Q, plan)
    tau = tau_factor(Q, config.mass, config.c)
    f0, f1 = _force(t_C, x_C, gamma, Q_C, config.c)
    return t_C, x_C, gamma, Q, Q_C, tau, f0, f1


def make_snapshot(
    state: EnsembleState, config: SimConfig, Q: Optional[np.ndarray] = None
) -> Snapshot:
    """Every field of a recorded slice: geometry with the g01 residual, Q,
    Q_C, tau_T and the force.  Q is computed from the config's weight unless
    it is given (a stored or closed-form potential)."""
    t_C, x_C, gamma, Q, Q_C, tau, f0, f1 = _slice(state.y, state.tau_ensemble, config, Q)
    geom = attach_g01(GeometryFields(t_C, x_C, gamma), state, tau, config.c)
    return Snapshot(state, geom, QuantumFields(Q, Q_C, f0, f1, tau))


def _stage_rhs(y, T, config: SimConfig) -> np.ndarray:
    """Right-hand side rows (dt/dT, dx/dT, dU0/dT, dU1/dT) of one RK stage
    y = (t, x, u0, u1), shape (4, N).

    The stage is checked against the EnsembleState invariants first and
    raises StateValidationError when it breaks one.
    """
    check_state_arrays(y)
    _, _, _, _, _, tau, f0, f1 = _slice(y, T, config)
    return np.array([
        tau * y[2] / config.c,
        tau * y[3],
        tau * f0 / config.mass,
        tau * f1 / config.mass,
    ])


def _rk4(rhs, y, dt):
    """One classical RK4 step of y' = rhs(y, h) over dt; h is the stage's offset."""
    k1 = rhs(y, 0.0)
    k2 = rhs(y + 0.5 * dt * k1, 0.5 * dt)
    k3 = rhs(y + 0.5 * dt * k2, 0.5 * dt)
    k4 = rhs(y + dt * k3, dt)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def eom_rhs(state: EnsembleState, config: SimConfig) -> np.ndarray:
    """Right-hand side rows (dt/dT, dx/dT, dU0/dT, dU1/dT) of the
    ensemble-time evolution equations, shape (4, N)."""
    return _stage_rhs(state.y, state.tau_ensemble, config)


def rk4_step(y: np.ndarray, T: float, config: SimConfig) -> np.ndarray:
    """One classical four-stage Runge-Kutta step of size config.dt from the (4, N)
    array y at ensemble time T; a stage that breaks an invariant raises StateValidationError."""
    dt = config.dt
    y = _rk4(lambda y, h: _stage_rhs(y, T + h, config), y, dt)
    worst = float(np.max(norm_violation(y[2], y[3], config.c)))
    if worst > ABORT_FACTOR * config.invariant_tol:
        raise IntegrationError(
            f"four-velocity norm drift {worst:.3e} exceeds "
            f"{ABORT_FACTOR:g} x invariant_tol = {ABORT_FACTOR * config.invariant_tol:.1e} "
            f"after step to T = {T + dt:.6g}"
        )
    return y


def rest_initial_state(config: SimConfig) -> EnsembleState:
    """Ensemble at rest on the t = 0 slice with labels C as positions."""
    n = config.grid.n_points
    return EnsembleState(0.0, np.array([np.zeros(n), config.grid.nodes,
                                        np.full(n, config.c), np.zeros(n)]))


def step_counts(config: SimConfig, cadence: float) -> tuple:
    """(n_steps, stride) of a fixed-step run: steps to t_final and steps
    between snapshots.

    t_final and cadence must both be whole multiples of dt, so the run ends
    at t_final and records every cadence exactly as asked; anything else
    is rejected with ValueError rather than rounded to a different run.
    """
    if not (cadence > 0 and math.isfinite(cadence)):
        raise ValueError(f"cadence must be positive and finite, got {cadence}")
    counts = []
    for name, span in (("t_final", config.t_final), ("cadence", cadence)):
        k = round(span / config.dt)
        if not math.isclose(k * config.dt, span, rel_tol=STEP_MULTIPLE_RTOL):
            raise ValueError(
                f"{name} = {span:g} is not a whole multiple of dt = {config.dt:g}"
            )
        counts.append(k)
    return tuple(counts)


def run_fixed_steps(config: SimConfig, cadence: float, y, step, record, out):
    """Advance y = step(y, T) from T = 0 to t_final, appending record(T, y) to
    out every `cadence` and at the end, with T = k * dt after k steps.  A failed
    step or record raises IntegrationError naming T, with out attached."""
    n_steps, stride = step_counts(config, cadence)
    for k in range(n_steps + 1):
        T = k * config.dt
        try:
            if k % stride == 0 or k == n_steps:
                out.append(record(T, y))
            if k == n_steps:
                break
            y = step(y, T)
        except IntegrationError as exc:
            raise IntegrationError(str(exc), out) from exc
        except (GeometryError, StateValidationError, FloatingPointError) as exc:
            raise IntegrationError(f"run failed at T = {T:.6g}: {exc}", out) from exc
    return out


def integrate(
    config: SimConfig,
    initial_state: Optional[EnsembleState] = None,
    cadence: float = 1.0,
) -> SnapshotSeries:
    """Fixed-step RK4 from T = 0 to t_final, recording snapshots every
    `cadence` units of T plus the final state.

    t_final and cadence must be whole multiples of dt (ValueError otherwise).
    On failure raises IntegrationError with the partial series attached.
    """
    state = rest_initial_state(config) if initial_state is None else initial_state
    return run_fixed_steps(config, cadence, state.y, lambda y, T: rk4_step(y, T, config),
                           lambda T, y: make_snapshot(EnsembleState(T, y), config),
                           SnapshotSeries(config=config, snapshots=[]))
