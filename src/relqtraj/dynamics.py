"""Ensemble-time evolution: quantum force, time-dilation factor, RK4 driver.

The first-order system advanced in the ensemble proper time T is

    dt/dT  = tau_T u0 / c          dU0/dT = tau_T f0 / m
    dx/dT  = tau_T u1              dU1/dT = tau_T f1 / m

with tau_T = exp(-Q / m c^2) and the force components (for x^alpha = (ct, x))

    f0 = -(c t_C / gamma) dQ/dC        f1 = -(x_C / gamma) dQ/dC

so the force is the slice-restricted gradient of the quantum potential mapped
back to inertial components, always orthogonal to the four-velocity.

No term holds T, so no stage function takes it.  A state is its (4, N)
array y = (t, x, u0, u1), in no wrapper: rk4_step runs eom_rhs 4 times per
step on it; eom_rhs checks the stage (check_state), then _slice runs
one function per layer: compute_geometry ((t_C, x_C) and gamma), compute_Q
(Q, Q_C), tau_factor, compute_force ((f0, f1) as one (2, N) array) and the
rate rows, for any leading shape: a stage or a record is one (4, N) slice,
a series read back or sampled (record_series) one (K, 4, N) stack.

On N = 25 a stage's cost is the count and kind of its numpy calls, not
arithmetic, so the chain is written to make few and cheap ones while every
output stays bit for bit what the plain 1-D expressions give.  Three
bit-identity rules keep it so, on both solvers' stages and on a stack.
First, rows are stacked only for exactly-rounded elementwise operations
whose regrouping is exact: x / 1.0 == x, (-1) x == -x, -a / b == a / -b,
max(a / k) == max(a) / k for k > 0, and the squares of stacked rows are one
product y * y.  Second, every derivative is one gemv per row (d_dC): a
stacked gemm sums in another order and differs by up to 5e-15.  Third, no
array operation takes a Python scalar: under numpy 2's scalar promotion
(NEP 50) a Python-float operand costs about 0.2-0.4 us more per call than a
0-d float64 array and gives the same bits.  So every constant is a 0-d array
cached on the config (c_sq, neg_mc_sq, neg_hbar_sq_over_2m, m, rk_weights)
or a module constant (state.ZERO and INF, the 1/4 and -1/2 of
log_form_Q), x ** 2 is x * x, 2 k is k + k, a guard's test is one
np.count_nonzero of a mask and the norm drift's maximum one
np.maximum.reduce.

run_fixed_steps is the one stepping loop: integrate and the non-relativistic
solver give it their own step and record functions, and it owns the step
counts, the run's T, the record cadence and the failure handling of both:
a broken rule (StateValidationError) or failed arithmetic (ArithmeticError)
in a step or record becomes there, and only there, an IntegrationError.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .geometry import attach_g01, compute_geometry
from .qpotential import log_form_Q
from .state import (
    ROW,
    U_ROWS,
    SimConfig,
    StateValidationError,
    _read_only,
    check_positive,
    check_state,
    norm_violation,
)
from .stencils import d_dC

ABORT_FACTOR = 10.0  # rk4_step aborts when norm drift exceeds this times invariant_tol
STEP_MULTIPLE_RTOL = 1e-9  # t_final and cadence must be this close to k * dt


# No program path reads a Record.  Its only readers are bench/workloads.py's
# Headline.check, FineIO.check (via _state_arrays), Sweep and bench/make_reference.py.
class Record(namedtuple("Record", "tau_ensemble t x u0 u1 Q")):
    """One slice of a series, a read-only view of its arrays: T, and the
    rows s.state.t, x, u0, u1 and s.quantum.Q (state and quantum are s)."""

    __slots__ = ()
    state = quantum = property(lambda self: self)


@dataclass(frozen=True)
class SnapshotSeries:
    """K recorded slices of one run as read-only arrays: times (K,), held to
    check_times, the states y (K, 4, N) and the fields of one _slice pass,
    gamma, Q, tau_T and g01 (K, N) and the force f = (f0, f1) (K, 2, N).
    Iterating it, or .snapshots, gives the Records that only bench/ reads."""

    config: SimConfig
    times: np.ndarray
    y: np.ndarray
    gamma: np.ndarray
    Q: np.ndarray
    tau_T: np.ndarray
    f: np.ndarray
    g01: np.ndarray

    def __post_init__(self):  # value data: every array read-only
        check_times(self.times, len(self.y))
        for a in (self.times, self.y, self.gamma, self.Q, self.tau_T, self.f, self.g01):
            a.setflags(write=False)

    def __len__(self):
        return len(self.times)

    def __iter__(self):
        return map(Record, self.times.tolist(), *self.y.transpose(1, 0, 2), self.Q)

    snapshots = property(lambda self: list(self))


def check_times(T: np.ndarray, states: int) -> None:
    """The series time rules, stated here only: T (states,), each finite and
    after the one before; else StateValidationError, index the first bad T."""
    if not isinstance(T, np.ndarray) or T.shape != (states,):
        raise StateValidationError("snapshot times must be " + (
            f"one per state: shape {T.shape} for {states} states"
            if isinstance(T, np.ndarray) else f"an array, not a {type(T).__name__}"))
    ok = np.isfinite(T)
    ok[1:] &= T[1:] > T[:-1]
    if not ok.all():  # T[k] is not finite, or T[k - 1] is and T[k] is not after it
        k = int(np.argmin(ok))
        rule = (f"strictly increase: T = {T[k - 1]:.17g} is followed by T = {T[k]:.17g}"
                if np.isfinite(T[k]) else f"be finite: T = {T[k]:.17g}")
        raise StateValidationError(f"snapshot times must {rule}", k)


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
    """Inertial components of the quantum force as the rows (..., 2, N) =
    (f0, f1), f0 for the ct slot: (-c t_C, -x_C) / gamma * Q_C, from
    compute_geometry's (t_C, x_C) rows and the config's force_sign rows
    (-c, -1).  Since (-1) x == -x, each row is bitwise its 1-D expression."""
    return tx_C * config.force_sign / gamma[ROW] * Q_C[ROW]


def tau_factor(Q: np.ndarray, config: SimConfig) -> np.ndarray:
    """Local rate of proper time against ensemble time, exp(-Q / m c^2),
    computed as exp(Q / -(m c^2)) with -(m c^2) = config.neg_mc_sq:
    -a / b == a / -b exactly."""
    return np.exp(Q / config.neg_mc_sq)


def _slice(y, config: SimConfig, Q=None):
    """The fields (tx_C, gamma, Q, tau_T, f, d) of the slice y = (t, x, u0, u1),
    or of a stack y (K, 4, N), layer by layer; tx_C and f are (..., 2, N) and
    the rate rows d = (u0, u1, f0, f1) tau_T / rhs_divisor (c, 1, m, m) are
    (..., 4, N), three operations bitwise the 1-D rows (x / 1.0 == x).  Q_C
    enters only the force."""
    tx_C, gamma = compute_geometry(y, config)
    Q, Q_C = compute_Q(gamma, config, Q)
    tau = tau_factor(Q, config)
    f = compute_force(tx_C, gamma, Q_C, config)
    d = np.concatenate((y[U_ROWS], f), axis=-2) * tau[ROW] / config.rhs_divisor
    return tx_C, gamma, Q, tau, f, d


def record_series(config: SimConfig, times, y, Q=None) -> SnapshotSeries:
    """The SnapshotSeries of the states y (K, 4, N) at times (K,), checked by
    check_times and check_state before one _slice pass, Q given (K, N) or not."""
    check_times(times, len(y))
    check_state(y, 4, stack=True)
    tx_C, gamma, Q, tau, f, d = _slice(y, config, Q)
    return SnapshotSeries(config, times, y, gamma, Q, tau, f, attach_g01(tx_C, d, config))


def eom_rhs(y, config: SimConfig) -> np.ndarray:
    """Right-hand side rows (dt/dT, dx/dT, dU0/dT, dU1/dT) of one RK stage
    y = (t, x, u0, u1), shape (4, N), from _slice.  The stage is checked
    first, by the state guard, and raises StateValidationError when it
    breaks an invariant or is not (4, N)."""
    check_state(y, 4)
    return _slice(y, config)[-1]


def _rk4(rhs, y, config: SimConfig):
    """One classical RK4 step of the autonomous y' = rhs(y, config) over
    config.dt: y + dt/6 (k1 + 2 k2 + 2 k3 + k4), with the weights dt/2, dt and
    dt/6 of config.rk_weights and 2 k written k + k (the same bits)."""
    half, full, sixth = config.rk_weights
    k1 = rhs(y, config)
    k2 = rhs(y + half * k1, config)
    k3 = rhs(y + half * k2, config)
    k4 = rhs(y + full * k3, config)
    return y + sixth * (k1 + (k2 + k2) + (k3 + k3) + k4)


def rk4_step(y: np.ndarray, config: SimConfig) -> np.ndarray:
    """One classical four-stage Runge-Kutta step of size config.dt from the (4, N)
    array y; a stage that breaks an invariant, or a norm drift over
    ABORT_FACTOR x invariant_tol (the mass shell), raises StateValidationError."""
    y = _rk4(eom_rhs, y, config)
    # max(|v| / c^2) == max(|v|) / c^2 exactly, so one division by c^2
    drift = np.maximum.reduce(np.abs(norm_violation(y[2:], config.c_sq)))
    worst = float(drift) / config.c ** 2
    if worst > ABORT_FACTOR * config.invariant_tol:
        raise StateValidationError(f"four-velocity norm drift {worst:.3e} exceeds {ABORT_FACTOR:g}"
                                   f" x invariant_tol = {ABORT_FACTOR * config.invariant_tol:.1e}")
    return y


def rest_initial_state(config: SimConfig) -> np.ndarray:
    """The read-only (4, N) array (t, x, u0, u1) of the ensemble at rest on
    the t = 0 slice, labels C as positions; integrate's first record checks it."""
    n = config.grid.n_points
    return _read_only(np.array([np.zeros(n), config.grid.nodes, np.full(n, config.c),
                                np.zeros(n)]))


def step_counts(config: SimConfig, cadence: float) -> tuple:
    """(n_steps, stride) of a fixed-step run: steps to t_final and steps
    between snapshots; the one statement of a runnable plan.

    t_final and cadence must both be whole multiples of dt, so the run ends
    at t_final and records every cadence exactly as asked; anything else
    is rejected with ValueError rather than rounded to a different run.  A
    weight without a density (kind "none") is a ValueError too: there is no
    Q to evolve by.
    """
    if config.weight.kind == "none":
        raise ValueError("weight.kind none has no density, so no quantum potential to run by")
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


def run_fixed_steps(config: SimConfig, cadence: float, y, step, record, collect):
    """Advance y = step(y) from T = 0 to t_final, keeping record(T, y) every
    `cadence` and at the end, with T = k * dt after k steps; returns
    collect(the list of records).  A failed step or record raises
    IntegrationError naming T, with collect(the records before it) attached."""
    n_steps, stride = step_counts(config, cadence)
    out = []
    for k in range(n_steps + 1):
        T = k * config.dt
        try:
            if k % stride == 0 or k == n_steps:
                out.append(record(T, y))
            if k == n_steps:
                break
            y = step(y)
        except (StateValidationError, ArithmeticError) as exc:
            raise IntegrationError(f"run failed at T = {T:.6g}: {exc}", collect(out)) from exc
    return collect(out)


def integrate(config: SimConfig, y0=None, cadence: float = 1.0) -> SnapshotSeries:
    """Fixed-step RK4 from the (4, N) array y0 (the rest state by default) at
    T = 0 to t_final, recording every `cadence` units of T and the final
    state: each record, y0 first, is checked (check_state), then one _slice
    pass on its (4, N) slice.  t_final and cadence must be whole multiples of
    dt (ValueError otherwise).  A failure, a record refused by check_state or
    finite_record included, raises IntegrationError with the records before it."""
    y0 = rest_initial_state(config) if y0 is None else y0
    n = config.grid.n_points
    shapes = ((), (4, n), (n,), (n,), (n,), (2, n), (n,))  # a record's T, y and fields

    def record(T, y):  # a step's output; its stages checked only their inputs
        check_state(y, 4)
        tx_C, gamma, Q, tau, f, d = _slice(y, config)
        g01 = attach_g01(tx_C, d, config)
        finite_record(tau, f, g01)
        return T, y, gamma, Q, tau, f, g01

    def collect(records):  # each column as one (K, ...) array, K = 0 included
        columns = zip(*records) if records else [()] * len(shapes)
        return SnapshotSeries(config, *(np.reshape(c, (len(records), *s)) for c, s in
                                        zip(columns, shapes)))

    return run_fixed_steps(config, cadence, y0, partial(rk4_step, config=config), record,
                           collect)


def finite_record(tau_T, f, g01) -> None:
    """Raise FloatingPointError naming the first of tau_T, f0, f1 and g01 that
    is not finite in the first record of a slice or a stack that has one, by
    one mask: integrate and analytic keep only finite records (a read keeps
    them all, so verify sees a NaN)."""
    bad = ~np.isfinite(np.concatenate((tau_T[ROW], f, g01[ROW]), axis=-2))
    if bad.any():
        row = np.argmax(bad.any(axis=-1)) % 4  # of the first record with a bad row
        raise FloatingPointError(f"non-finite {('tau_T', 'f0', 'f1', 'g01')[row]}")
