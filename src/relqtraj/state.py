"""Core data model: label grids, trajectory weights, ensemble states, run config.

The weight function f(C) is the value (kind, terms, params): terms are the
(power, coefficient) pairs of the polynomial ln f, and d ln f / dC is their
term-wise derivative.  The quantum potential depends on f only through
logarithmic derivatives of f^(1/2), so the log form sidesteps underflow in
the far tails and makes the dynamics exactly independent of any
normalization constant of f.

EnsembleState wraps the solver's (4, N) array (t, x, u0, u1) of one slice.
check_state is the one statement of a state's shape and invariants, for
every state and RK stage, but for the spacelike slice (gamma > 0), which
geometry.compute_geometry states; both raise StateValidationError.
SimConfig holds every config default and caches the constants of an RK
stage as numpy arrays, never Python floats, by the third bit-identity
rule of the dynamics module docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .stencils import STENCIL_ORDERS, build_plan

MIN_POINTS = 9          # widest stencil pair (two nested 5-point windows)
_FIELDS = {4: ("t", "x", "u0", "u1"), 2: ("x", "v")}  # state rows by row count


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def scalar_array(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array: the stage's operand for a
    constant, bitwise the Python float in every elementwise operation."""
    return _read_only(np.array(value, dtype=np.float64))


ZERO = scalar_array(0.0)  # the bound of the stage guards' sign tests


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid of trajectory labels C, compared and hashed as the value
    (c_min, c_max, n_points) of finite span; nodes is np.linspace of it, read-only."""

    c_min: float
    c_max: float
    n_points: int

    def __post_init__(self):
        if not math.isfinite(self.c_max - self.c_min):
            raise ValueError(f"grid span {self.c_max:g} - {self.c_min:g} is not finite")
        if self.n_points < MIN_POINTS:
            raise ValueError(f"n_points must be >= {MIN_POINTS}, got {self.n_points}")
        if self.c_max <= self.c_min:
            raise ValueError("c_max must exceed c_min")

    @cached_property
    def nodes(self) -> np.ndarray:
        return _read_only(np.linspace(self.c_min, self.c_max, self.n_points))


def make_grid(c_min: float, c_max: float, n_points: int) -> SpatialGrid:
    if not float(n_points).is_integer():
        raise ValueError(f"n_points must be an integer, got {n_points}")
    return SpatialGrid(float(c_min), float(c_max), int(n_points))


@dataclass(frozen=True)
class WeightFunction:
    """Per-trajectory probability weight f(C): kind is "gaussian",
    "exponential" or "uniform", params its parameters and terms the sparse
    (power, coefficient) pairs of ln f, the one field of ln f and d ln f / dC."""

    kind: str
    terms: tuple = ()
    params: tuple = ()

    def __post_init__(self):  # a constant term never reaches d ln f / dC
        if not all(math.isfinite(k * a) for k, a in self.terms if k):
            raise ValueError(f"{self.kind} weight has a non-finite d ln f / dC coefficient")

    def log_f(self, C) -> np.ndarray:
        return _polynomial(self.terms, C)

    def dlog_f(self, C) -> np.ndarray:
        return _polynomial(tuple((k - 1, k * a) for k, a in self.terms if k), C)


def _polynomial(terms, C) -> np.ndarray:
    """The sum of a * C ** k over the (k, a) terms in order, zeros for none.
    The first term is not added to a zero, so its signed zeros stay."""
    C = np.asarray(C, dtype=float)
    parts = [a * C ** k for k, a in terms]
    return sum(parts[1:], parts[0]) if parts else np.zeros_like(C)


def gaussian_weight(a: float) -> WeightFunction:
    """f(C) = exp(-a C^2), unnormalized."""
    check_positive(a=a)
    return WeightFunction("gaussian", ((2, -a),), (a,))


def exponential_weight(kappa: float) -> WeightFunction:
    """f(C) = exp(-2 kappa C)."""
    return WeightFunction("exponential", ((1, -2.0 * kappa),), (kappa,))


def uniform_weight() -> WeightFunction:
    """f(C) = 1."""
    return WeightFunction("uniform")


class StateValidationError(ValueError):
    """An ensemble state violates a structural invariant."""


def check_state(y: np.ndarray, rows: int) -> None:
    """Raise StateValidationError unless y is a valid ensemble of shape
    (rows, N), (t, x, u0, u1) for rows = 4 or the non-relativistic (x, v) for
    rows = 2: every value finite, x strictly increasing, u0 > 0 where there
    is a u0.  The error names the first broken rule, in that order: the
    shape, the first field with a non-finite value, u0, the ordering of x.

    Each invariant is one mask counted by np.count_nonzero, which costs a
    fraction of ndarray.all() on a stage's small arrays; the fault is located
    only once a count comes up short.
    """
    if y.ndim != 2 or len(y) != rows or rows not in _FIELDS:
        raise StateValidationError(f"state array has shape {y.shape}, want ({rows}, N)")
    finite = np.isfinite(y)
    if np.count_nonzero(finite) != y.size:
        bad = int(np.argmin(finite.all(axis=1)))
        raise StateValidationError(f"non-finite values in field {_FIELDS[rows][bad]}")
    if rows == 4 and np.count_nonzero(y[2] > ZERO) != y.shape[1]:
        raise StateValidationError("u0 must be positive (forward-in-time propagation)")
    x = y[1] if rows == 4 else y[0]
    increasing = x[1:] > x[:-1]
    if np.count_nonzero(increasing) != increasing.size:
        k = int(np.argmin(np.diff(x)))
        raise StateValidationError(
            f"trajectory ordering lost between nodes {k} and {k + 1} "
            f"(x = {x[k]:.6g}, {x[k + 1]:.6g}): ensemble degeneration"
        )


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


def norm_violation(u, c_sq) -> np.ndarray:
    """eta_ab U^a U^b + c^2 = u1^2 - u0^2 + c^2, elementwise over the
    four-velocity rows u = (u0, u1) stacked on the first axis, with c_sq =
    c^2 (SimConfig.c_sq): zero on the mass shell.  Both squares are one
    product u * u.  The relative drift is its magnitude over c^2."""
    sq = u * u
    return sq[1] - sq[0] + c_sq


def check_positive(**values: float) -> None:
    """Raise ValueError naming the first value that is not positive and finite."""
    for name, v in values.items():
        if not (v > 0 and math.isfinite(v)):
            raise ValueError(f"{name} must be positive and finite, got {v}")


@dataclass(frozen=True)
class SimConfig:
    """Physical constants, grid, integrator step and tolerances for one run.
    The run's derivative matrix (plan), the weight on the grid nodes
    (weight_f, for rho_star) and half its log-derivative there (half_dlogf,
    for log_form_Q), the constant rows of the RK stage (force_sign,
    rhs_divisor) and its read-only 0-d constants (c_sq, neg_mc_sq,
    neg_hbar_sq_over_2m, m, rk_weights) are derived once, the squares at
    construction and the rest on first use; not config keys."""

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
        check_positive(mass=self.mass, hbar=self.hbar, c=self.c, dt=self.dt,
                       residual_tol=self.residual_tol, invariant_tol=self.invariant_tol)
        if not (self.t_final >= 0 and math.isfinite(self.t_final)):
            raise ValueError(f"t_final must be nonnegative and finite, got {self.t_final}")
        if self.stencil_order not in STENCIL_ORDERS:
            raise ValueError(f"stencil_order must be 2 or 4, got {self.stencil_order}")
        try:  # Python's ** raises past about 1.34e154
            self.c_sq, self.neg_mc_sq, self.neg_hbar_sq_over_2m
        except OverflowError:
            raise ValueError(f"c = {self.c:g} or hbar = {self.hbar:g} squares past a float") \
                from None

    @cached_property
    def plan(self) -> np.ndarray:
        return build_plan(self.grid, self.stencil_order)

    @cached_property
    def weight_f(self) -> np.ndarray:
        """f = exp(ln f) on the grid nodes, the numerator of rho_star."""
        return _read_only(np.exp(self.weight.log_f(self.grid.nodes)))

    @cached_property
    def half_dlogf(self) -> np.ndarray:
        """(ln f^(1/2))' on the grid nodes, the weight's share of L' in log_form_Q."""
        return _read_only(0.5 * np.asarray(self.weight.dlog_f(self.grid.nodes), dtype=float))

    @cached_property
    def force_sign(self) -> np.ndarray:
        """(2, N) rows -c and -1 taking the rows (t_C, x_C) to the force's
        (ct, x) components in dynamics.compute_force."""
        return _rows(self.grid.n_points, -self.c, -1.0)

    @cached_property
    def rhs_divisor(self) -> np.ndarray:
        """(4, N) rows c, 1, m, m dividing tau_T (u0, u1, f0, f1) into the
        rows of dynamics.eom_rhs; x / 1.0 == x, so the x row is tau_T u1."""
        return _rows(self.grid.n_points, self.c, 1.0, self.mass, self.mass)

    @cached_property
    def c_sq(self) -> np.ndarray:
        """c^2, for gamma = x_C^2 - c^2 t_C^2 and the norm check."""
        return scalar_array(self.c ** 2)

    @cached_property
    def neg_mc_sq(self) -> np.ndarray:
        """-(m c^2), the divisor of Q in tau_T = exp(Q / -(m c^2))."""
        return scalar_array(-(self.mass * self.c ** 2))

    @cached_property
    def neg_hbar_sq_over_2m(self) -> np.ndarray:
        """-(hbar^2 / 2m), the prefactor of the quantum potential."""
        return scalar_array(-(self.hbar ** 2 / (2.0 * self.mass)))

    @cached_property
    def m(self) -> np.ndarray:
        """The mass m, dividing the non-relativistic force."""
        return scalar_array(self.mass)

    @cached_property
    def rk_weights(self) -> tuple:
        """The RK4 step weights (dt / 2, dt, dt / 6)."""
        return tuple(map(scalar_array, (0.5 * self.dt, self.dt, self.dt / 6.0)))


def _rows(n: int, *values: float) -> np.ndarray:
    """Read-only (len(values), n) array, row i filled with values[i].  A full
    row block rather than a (k, 1) column: a product of equal shapes takes
    numpy's elementwise fast path, about 1 us less per call at N = 25 than
    a broadcast."""
    return _read_only(np.repeat(np.array(values)[:, None], n, axis=1))
