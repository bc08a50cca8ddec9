"""Ensemble-time evolution: quantum force, time-dilation factor, RK4 driver.

The first-order system advanced in the ensemble proper time T is

    dt/dT  = tau_T u0 / c          dU0/dT = tau_T f0 / m
    dx/dT  = tau_T u1              dU1/dT = tau_T f1 / m

with tau_T = exp(-Q / m c^2) and the force components (for x^alpha = (ct, x))

    f0 = -(c t_C / gamma) dQ/dC        f1 = -(x_C / gamma) dQ/dC

so the force is the slice-restricted gradient of the quantum potential mapped
back to inertial components, always orthogonal to the four-velocity.

The solver steps the raw (4, N) array y = (t, x, u0, u1) that an
EnsembleState wraps.  rk4_step runs eom_rhs 4 times per step; eom_rhs checks
the stage (check_state), then _slice runs one function per layer:
compute_geometry ((t_C, x_C) as one (2, N) array, gamma), compute_Q (Q, Q_C),
tau_factor, compute_force ((f0, f1) as one (2, N) array) and the rate rows.
make_snapshot runs the same chain (optionally on a stored Q) and builds the
g01 residual from the first two rate rows, for recorded snapshots only; the
solver, the snapshot reader and the closed-form sampler all go through it.

On N = 25 a stage's cost is the count and kind of its numpy calls, not
arithmetic, so the chain is written to make few and cheap ones while every
output stays bit for bit what the plain 1-D expressions give.  Three
bit-identity rules keep it so, on both solvers' stages.  First, rows are
stacked only for exactly-rounded elementwise operations whose regrouping
is exact: x / 1.0 == x, (-1) x == -x, -a / b == a / -b, max(a / k) ==
max(a) / k for k > 0, and the squares of stacked rows are one product
y * y.  Second, log, exp and gamma^(-1/2) stay on 1-D
arrays, and every derivative is one gemv per vector (d_dC on a 1-D row): a
stacked gemm sums in another order and differs by up to 5e-15.  Third, no
array operation takes a Python scalar: under numpy 2's scalar promotion
(NEP 50) a Python-float operand costs about 0.2-0.4 us more per call than a
0-d float64 array and gives the same bits.  So every constant is a 0-d array
cached on the config (c_sq, neg_mc_sq, neg_hbar_sq_over_2m, m, rk_weights)
or a module constant (state.ZERO, the 1/4 and -1/2 of log_form_Q), x ** 2
is x * x, 2 k is k + k, and a guard's minimum or maximum is one
np.minimum.reduce or np.maximum.reduce.

run_fixed_steps is the one stepping loop: integrate and the non-relativistic
solver give it their own step and record functions, and it owns the step
counts, the record cadence and the failure handling of both: a broken rule
(StateValidationError) or failed arithmetic (ArithmeticError) in a step or
record becomes there, and only there, an IntegrationError at the T reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

import numpy as np

from .geometry import GeometryFields, attach_g01, compute_geometry
from .qpotential import log_form_Q
from .state import (
    EnsembleState,
    SimConfig,
    StateValidationError,
    check_positive,
    check_state,
    norm_violation,
)
from .stencils import d_dC

ABORT_FACTOR = 10.0  # rk4_step aborts when norm drift exceeds this times invariant_tol
STEP_MULTIPLE_RTOL = 1e-9  # t_final and cadence must be this close to k * dt


@dataclass(frozen=True)
class QuantumFields:
    Q: np.ndarray
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

    def stack(self, *fields):
        """The named per-node fields ("state.u0", "quantum.Q", ...) of every
        snapshot as (K, N) arrays, one row per snapshot."""
        return [np.array([get(s) for s in self.snapshots]) for get in map(attrgetter, fields)]


class IntegrationError(RuntimeError):
    """A run failed at the T its message names (made by run_fixed_steps only);
    `series` carries the records completed before it."""

    def __init__(self, message: str, series):
        super().__init__(message)
        self.series = series


def compute_Q(gamma: np.ndarray, config: SimConfig, Q: Optional[np.ndarray] = None):
    """(Q, Q_C): the quantum potential on a slice of spatial metric gamma and
    its label-derivative.  Q is computed from the config's weight unless it
    is given (a stored or closed-form potential)."""
    if Q is None:
        Q = log_form_Q(gamma, config)
    return Q, d_dC(Q, config.plan)


def compute_force(tx_C, gamma, Q_C, config: SimConfig) -> np.ndarray:
    """Inertial components of the quantum force as the rows (f0, f1) of one
    (2, N) array, f0 for the ct slot: (-c t_C, -x_C) / gamma * Q_C, from
    compute_geometry's (t_C, x_C) rows and the config's force_sign rows
    (-c, -1).  Since (-1) x == -x, each row is bitwise its 1-D expression."""
    return tx_C * config.force_sign / gamma * Q_C


def tau_factor(Q: np.ndarray, config: SimConfig) -> np.ndarray:
    """Local rate of proper time against ensemble time, exp(-Q / m c^2),
    computed as exp(Q / -(m c^2)) with -(m c^2) = config.neg_mc_sq:
    -a / b == a / -b exactly."""
    return np.exp(Q / config.neg_mc_sq)


def _slice(y, T, config: SimConfig, Q=None):
    """The fields of the slice y = (t, x, u0, u1) at ensemble time T that a
    stage or a record uses: (tx_C, gamma, Q, tau_T, f, d), layer by layer;
    tx_C and f are (2, N) and the rate rows d = (u0, u1, f0, f1) tau_T /
    rhs_divisor (c, 1, m, m) are (4, N), three operations bitwise the 1-D
    rows (x / 1.0 == x).  Q_C enters only the force."""
    tx_C, gamma = compute_geometry(y[0], y[1], T, config)
    Q, Q_C = compute_Q(gamma, config, Q)
    tau = tau_factor(Q, config)
    f = compute_force(tx_C, gamma, Q_C, config)
    return tx_C, gamma, Q, tau, f, np.concatenate((y[2:], f)) * tau / config.rhs_divisor


def make_snapshot(state: EnsembleState, config: SimConfig,
                  Q: Optional[np.ndarray] = None) -> Snapshot:
    """The record of a slice: its state, gamma with the g01 residual, Q, the
    force and tau_T, the fields that the writer and the invariant checks
    read.  Q is computed from the config's weight unless it is given (a
    stored or closed-form potential)."""
    tx_C, gamma, Q, tau, f, d = _slice(state.y, state.tau_ensemble, config, Q)
    return Snapshot(state, attach_g01(tx_C, gamma, d[:2], config),
                    QuantumFields(Q, *f, tau))


def eom_rhs(y, T, config: SimConfig) -> np.ndarray:
    """Right-hand side rows (dt/dT, dx/dT, dU0/dT, dU1/dT) of one RK stage
    y = (t, x, u0, u1), shape (4, N), from _slice.  The stage is checked
    first, by the state guard, and raises StateValidationError when it
    breaks an invariant or is not (4, N)."""
    check_state(y, 4)
    return _slice(y, T, config)[-1]


def _rk4(rhs, y, config: SimConfig):
    """One classical RK4 step of y' = rhs(y, h) over config.dt, h the stage's
    offset: y + dt/6 (k1 + 2 k2 + 2 k3 + k4), with the weights dt/2, dt and
    dt/6 of config.rk_weights and 2 k written k + k (the same bits)."""
    half, full, sixth = config.rk_weights
    h = 0.5 * config.dt
    k1 = rhs(y, 0.0)
    k2 = rhs(y + half * k1, h)
    k3 = rhs(y + half * k2, h)
    k4 = rhs(y + full * k3, config.dt)
    return y + sixth * (k1 + (k2 + k2) + (k3 + k3) + k4)


def rk4_step(y: np.ndarray, T: float, config: SimConfig) -> np.ndarray:
    """One classical four-stage Runge-Kutta step of size config.dt from the (4, N)
    array y at ensemble time T; a stage that breaks an invariant, or a norm drift
    over ABORT_FACTOR x invariant_tol (the mass shell), raises StateValidationError."""
    y = _rk4(lambda y, h: eom_rhs(y, T + h, config), y, config)
    # max(|v| / c^2) == max(|v|) / c^2 exactly, so one division by c^2
    drift = np.maximum.reduce(np.abs(norm_violation(y[2:], config.c_sq)))
    worst = float(drift) / config.c ** 2
    if worst > ABORT_FACTOR * config.invariant_tol:
        raise StateValidationError(
            f"four-velocity norm drift {worst:.3e} exceeds "
            f"{ABORT_FACTOR:g} x invariant_tol = {ABORT_FACTOR * config.invariant_tol:.1e} "
            f"after step to T = {T + config.dt:.6g}"
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
    check_positive(cadence=cadence)
    counts = []
    for name, span in (("t_final", config.t_final), ("cadence", cadence)):
        steps = span / config.dt
        if not math.isfinite(steps):
            raise ValueError(f"{name} / dt = {span:g} / {config.dt:g} is not finite")
        k = round(steps)
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
        except (StateValidationError, ArithmeticError) as exc:
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
    A failure, a record with a non-finite field included, raises
    IntegrationError with the finite records before it attached.
    """
    state = rest_initial_state(config) if initial_state is None else initial_state
    return run_fixed_steps(config, cadence, state.y, lambda y, T: rk4_step(y, T, config),
                           lambda T, y: finite_record(make_snapshot(EnsembleState(T, y), config)),
                           SnapshotSeries(config=config, snapshots=[]))


def finite_record(s: Snapshot) -> Snapshot:
    """A record s that integrate or analytic keeps; FloatingPointError names the
    first of its tau_T, f0, f1 and g01 that is not finite (make_snapshot lets
    verify see a NaN)."""
    for name in ("quantum.tau_T", "quantum.f0", "quantum.f1", "geometry.g01_residual"):
        if not np.isfinite(attrgetter(name)(s)).all():
            raise FloatingPointError(f"non-finite {name.partition('.')[2]}")
    return s
