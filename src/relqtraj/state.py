"""Core data model: label grids, trajectory weights, ensemble states, run config.

The weight function f(C) is carried in closed form through ln f and
d ln f / dC.  The quantum potential depends on f only through logarithmic
derivatives of f^(1/2), so the log form sidesteps underflow in the far
tails and makes the dynamics exactly independent of any normalization
constant of f.

EnsembleState wraps the solver's (4, N) array (t, x, u0, u1) of one slice.
check_state_arrays is the one statement of the ensemble invariants, for
every state and RK stage; SimConfig holds every config default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .stencils import STENCIL_ORDERS, StencilPlan, build_plan

MIN_POINTS = 9          # widest stencil pair (two nested 5-point windows)
_FIELDS = {4: ("t", "x", "u0", "u1"), 2: ("x", "v")}  # state rows by row count


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid of trajectory labels C, compared and hashed as the value
    (c_min, c_max, n_points); nodes is np.linspace of it, read-only."""

    c_min: float
    c_max: float
    n_points: int

    def __post_init__(self):
        if not (math.isfinite(self.c_min) and math.isfinite(self.c_max)):
            raise ValueError("grid bounds must be finite")
        if self.n_points < MIN_POINTS:
            raise ValueError(f"n_points must be >= {MIN_POINTS}, got {self.n_points}")
        if self.c_max <= self.c_min:
            raise ValueError("c_max must exceed c_min")

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(self.c_min, self.c_max, self.n_points)
        nodes.setflags(write=False)
        return nodes


def make_grid(c_min: float, c_max: float, n_points: int) -> SpatialGrid:
    return SpatialGrid(float(c_min), float(c_max), int(n_points))


@dataclass(frozen=True)
class WeightFunction:
    """Per-trajectory probability weight f(C), held as ln f and its C-derivative.

    ``kind`` is one of "gaussian", "exponential", "uniform" for the built-in
    families; diagnostic code may construct instances with other callables.
    """

    kind: str
    log_f: Callable[[np.ndarray], np.ndarray]
    dlog_f: Callable[[np.ndarray], np.ndarray]
    params: tuple = ()


def gaussian_weight(a: float) -> WeightFunction:
    """f(C) = exp(-a C^2), unnormalized."""
    if not (a > 0 and math.isfinite(a)):
        raise ValueError("gaussian width parameter must be positive and finite")
    return WeightFunction(
        kind="gaussian",
        log_f=lambda C: -a * np.asarray(C, dtype=float) ** 2,
        dlog_f=lambda C: -2.0 * a * np.asarray(C, dtype=float),
        params=(a,),
    )


def exponential_weight(kappa: float) -> WeightFunction:
    """f(C) = exp(-2 kappa C)."""
    if not math.isfinite(kappa):
        raise ValueError("kappa must be finite")
    return WeightFunction(
        kind="exponential",
        log_f=lambda C: -2.0 * kappa * np.asarray(C, dtype=float),
        dlog_f=lambda C: np.full_like(np.asarray(C, dtype=float), -2.0 * kappa),
        params=(kappa,),
    )


def uniform_weight() -> WeightFunction:
    """f(C) = 1."""
    return WeightFunction(
        kind="uniform",
        log_f=lambda C: np.zeros_like(np.asarray(C, dtype=float)),
        dlog_f=lambda C: np.zeros_like(np.asarray(C, dtype=float)),
        params=(),
    )


class StateValidationError(ValueError):
    """An ensemble state violates a structural invariant."""


def check_state_arrays(y: np.ndarray) -> None:
    """Raise StateValidationError unless y is a valid ensemble: every value
    finite and x strictly increasing, and u0 > 0 where there is a u0.  y is
    (t, x, u0, u1), shape (4, N), or the non-relativistic (x, v), shape (2, N).
    The error names the first broken invariant, in that order: the first
    field with a non-finite value, then u0, then the ordering of x.
    """
    if not np.isfinite(y).all():
        bad = int(np.argmin(np.isfinite(y).all(axis=1)))
        raise StateValidationError(f"non-finite values in field {_FIELDS[len(y)][bad]}")
    if len(y) == 4 and not (y[2] > 0).all():
        raise StateValidationError("u0 must be positive (forward-in-time propagation)")
    x = y[1] if len(y) == 4 else y[0]
    if not (x[1:] > x[:-1]).all():
        k = int(np.argmin(np.diff(x)))
        raise StateValidationError(
            f"trajectory ordering lost between nodes {k} and {k + 1} "
            f"(x = {x[k]:.6g}, {x[k + 1]:.6g}): ensemble degeneration"
        )


def check_state(y: np.ndarray, rows: int) -> None:
    """check_state_arrays for a state array, its shape (rows, N) checked first."""
    if y.ndim != 2 or len(y) != rows:
        raise StateValidationError(f"state array has shape {y.shape}, want ({rows}, N)")
    check_state_arrays(y)


@dataclass(frozen=True)
class EnsembleState:
    """Per-node trajectory data on one simultaneity submanifold.

    tau_ensemble is the ensemble proper time T of the slice; y is the
    read-only (4, N) array of rows t, x (inertial coordinates of each
    trajectory) and u0, u1 (four-velocity components for x^alpha = (c t, x)).
    """

    tau_ensemble: float
    y: np.ndarray

    def __post_init__(self):
        check_state(self.y, 4)
        self.y.setflags(write=False)  # states are immutable value data

    t = property(lambda self: self.y[0])
    x = property(lambda self: self.y[1])
    u0 = property(lambda self: self.y[2])
    u1 = property(lambda self: self.y[3])


def norm_violation(u0, u1, c: float) -> np.ndarray:
    """|eta_ab U^a U^b + c^2| / c^2, elementwise over the four-velocity arrays."""
    return np.abs(-u0 ** 2 + u1 ** 2 + c ** 2) / c ** 2


@dataclass(frozen=True)
class SimConfig:
    """Physical constants, grid, integrator step and tolerances for one run.
    The run's derivative operator (plan) and the weight's log-derivative on
    the grid nodes (dlogf) are derived once, on first use."""

    c: float
    weight: WeightFunction
    grid: SpatialGrid
    t_final: float
    mass: float = 1.0
    hbar: float = 1.0
    dt: float = 1e-3
    stencil_order: int = 4
    residual_tol: float = 1e-5
    invariant_tol: float = 1e-8

    def __post_init__(self):
        for name in ("mass", "hbar", "c", "dt", "residual_tol", "invariant_tol"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not (self.t_final >= 0 and math.isfinite(self.t_final)):
            raise ValueError(f"t_final must be nonnegative and finite, got {self.t_final}")
        if self.stencil_order not in STENCIL_ORDERS:
            raise ValueError(f"stencil_order must be 2 or 4, got {self.stencil_order}")

    @cached_property
    def plan(self) -> StencilPlan:
        return build_plan(self.grid, self.stencil_order)

    @cached_property
    def dlogf(self) -> np.ndarray:
        dlogf = np.array(self.weight.dlog_f(self.grid.nodes), dtype=float)
        dlogf.setflags(write=False)
        return dlogf
