"""Core data model: label grids, trajectory weights, ensemble states, run config.

The weight function f(C) is the value (kind, terms, params): terms are the
(power, coefficient) pairs of the polynomial ln f, and d ln f / dC is their
term-wise derivative.  The quantum potential depends on f only through
logarithmic derivatives of f^(1/2), so the log form sidesteps underflow in
the far tails and makes the dynamics exactly independent of any
normalization constant of f.

A state is its array, (4, N) rows (t, x, u0, u1) or the non-relativistic
(2, N) rows (x, v).  check_state is the one statement of a state's shape
and invariants, for every RK stage, record and (K, 4, N) stack of a
series, but for the spacelike slice (gamma > 0), which
geometry.compute_geometry states; both raise StateValidationError.
SimConfig holds every config default and caches the constants of an RK
stage as numpy arrays, never Python floats, by the third bit-identity rule
of the dynamics module docstring.
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
INF = scalar_array(math.inf)  # the bound of compute_geometry's finiteness test
# Index tuples of the rows (..., rows, N) of a slice or a stack, and of the
# head and tail nodes (..., N - 1) of a row, built once (a literal
# a[..., None, :] builds its slice on every call, about 0.1 us more).
ROW, T_ROW, X_ROW = (..., None, slice(None)), (..., 0, slice(None)), (..., 1, slice(None))
U0_ROW = (..., 2, slice(None))
TX_ROWS, U_ROWS = (..., slice(2), slice(None)), (..., slice(2, None), slice(None))
HEAD, TAIL = (..., slice(-1)), (..., slice(1, None))


def integer(value, name: str = "value") -> int:
    """value as an int, or ValueError naming it: 25, 25.0 and "25.0" pass, 17.9 fails."""
    v = float(value)
    if not v.is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(v)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform grid of trajectory labels C, compared and hashed as the value
    (c_min, c_max, n_points) of finite span; nodes is np.linspace of it, read-only.
    A non-integral n_points is refused, and an integral float is held as int."""

    c_min: float
    c_max: float
    n_points: int

    def __post_init__(self):
        object.__setattr__(self, "n_points", integer(self.n_points, "n_points"))
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
    return SpatialGrid(float(c_min), float(c_max), n_points)


@dataclass(frozen=True)
class WeightFunction:
    """Per-trajectory probability weight f(C): kind is "gaussian",
    "exponential", "uniform" or "none", params its parameters and terms the
    sparse (power, coefficient) pairs of ln f, the one field of ln f and
    d ln f / dC."""

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


def no_density_weight() -> WeightFunction:
    """No closed-form density: ln f = nan (so f and rho_star are NaN) and
    d ln f / dC = 0.  Every call shares the one math.nan, so two such weights
    compare equal and hash alike."""
    return WeightFunction("none", ((0, math.nan),))


class StateValidationError(ValueError):
    """An ensemble state or series violates a structural invariant; index is
    the first bad slice of a stack or series, which its caller names, or None."""

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


def check_state(y: np.ndarray, rows: int, stack: bool = False) -> None:
    """Raise StateValidationError unless y is a valid ensemble of shape
    (rows, N), or with stack a (K, rows, N) stack of them: (t, x, u0, u1)
    for rows = 4 or the non-relativistic (x, v) for rows = 2, every value
    finite, u0 > 0 where there is a u0, x strictly increasing.  The error
    names the first broken rule, in that order: the shape, the first field
    with a non-finite value, u0, the ordering of x.  It guards each RK stage
    (eom_rhs, nonrel_rhs), each record of integrate and nonrel_integrate and
    the stack of record_series.

    Each rule is one np.count_nonzero of a mask over the whole array, a
    fraction of the cost of ndarray.all() on a stage's small arrays.  Only a
    short count locates the fault, on a stack by checking its states in
    turn: the first bad one raises, with its index.
    """
    if (not isinstance(y, np.ndarray) or y.ndim != 2 + stack or y.shape[-2] != rows
            or rows not in _FIELDS):
        got = (f"array has shape {y.shape}" if isinstance(y, np.ndarray)
               else f"is a {type(y).__name__}, not an array")
        raise StateValidationError(f"state {got}, want ({'K, ' * stack}{rows}, N)")
    x = y[X_ROW if rows == 4 else T_ROW]  # the x row of (t, x, u0, u1) or (x, v)
    finite = np.count_nonzero(np.isfinite(y)) == y.size
    forward = rows == 2 or not np.count_nonzero(y[U0_ROW] <= ZERO)  # finite u0: not > 0 is <= 0
    ordered = not np.count_nonzero(x[TAIL] <= x[HEAD])
    if finite and forward and ordered:
        return
    for k, state in enumerate(y if stack else ()):
        try:
            check_state(state, rows)
        except StateValidationError as exc:
            raise StateValidationError(str(exc), k) from None
    if not finite:
        bad = int(np.argmin(np.isfinite(y).all(axis=1)))
        raise StateValidationError(f"non-finite values in field {_FIELDS[rows][bad]}")
    if not forward:
        raise StateValidationError("u0 must be positive (forward-in-time propagation)")
    k = int(np.argmin(np.diff(x)))
    raise StateValidationError(f"trajectory ordering lost between nodes {k} and {k + 1} "
                               f"(x = {x[k]:.6g}, {x[k + 1]:.6g}): ensemble degeneration")


# No program path builds an EnsembleState.  Its only readers are the
# benchmark's: bench/spans.py's TARGETS and bench/workloads.py's fine_io pacers.
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
    """Physical constants, grid, integrator step and tolerances for one run;
    an integral stencil_order is held as an int.  The run's derivative
    matrix (plan), half the weight's log-derivative on the grid nodes
    (half_dlogf, for log_form_Q), the constant rows of the RK stage
    (force_sign, rhs_divisor) and its read-only 0-d constants (c_sq,
    neg_mc_sq, neg_hbar_sq_over_2m, m, rk_weights) are derived once, the
    squares at construction and the rest on first use; not config keys."""

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
        object.__setattr__(self, "stencil_order", integer(self.stencil_order, "stencil_order"))
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
