"""Manufactured-solution test of the relativistic solver's spatial order.

The method of manufactured solutions (Roache, J. Fluids Eng. 124, 4, 2002):
pick a smooth field y*(T, C) = (t*, x*, u0*, u1*) on the mass shell, derive
with sympy the source S = d_T y* - RHS(y*) of the continuum equations, and
advance the solver forced by S.  The forced run tracks y* up to the solver's
own truncation error, so max |y - y*| measures the label stencils at any T,
on a field that is not the free gaussian.  Q is the nested-derivative form of
the operator, not the log form that log_form_Q evaluates.

The run: gaussian weight a = 1/2 on [-5, 5], c = 3, m = hbar = 1, stencil
order 4, dt = 1e-2.  At N = 65 the time error, |y(dt) - y(dt / 2)|, reads
1.6e-10 at T = 0.2, under a thousandth of the space error asserted there.
The non-relativistic solver gets the same test through nonrel_rhs, on the
same x* with v* = d_T x*; its time error there reads 9.5e-11.
"""

import math
from functools import partial

import numpy as np
import pytest

import relqtraj as rq
from relqtraj.dynamics import _rk4, eom_rhs, run_fixed_steps
from relqtraj.nonrel import nonrel_rhs

sympy = pytest.importorskip("sympy")

DT = 1e-2


def _nested_Q(A, root_gamma, C):
    """Q = -(hbar^2 / 2m) gamma^(-1/4) f^(-1/2) d_C(A_C / gamma^(1/2)) for
    A = f^(1/2) gamma^(-1/4), m = hbar = 1; gamma^(-1/4) f^(-1/2) = 1 / (A gamma^(1/2))."""
    D = sympy.diff(A, C) / root_gamma
    return -sympy.Rational(1, 2) / (A * root_gamma) * sympy.diff(D, C)


def _manufactured(T, C, y, rhs):
    """(y*, S) as numpy functions of (T, C) that give the rows of y* and of
    the source S = d_T y* - rhs(y*); a field is (y*, S, the solver's
    right-hand side as a function of (y, config))."""
    source = [sympy.diff(yk, T) - rk for yk, rk in zip(y, rhs)]
    return tuple(sympy.lambdify((T, C), rows, "numpy", cse=True) for rows in (y, source))


@pytest.fixture(scope="module")
def field():
    """The field y* = (t*, x*, u0*, u1*) of the relativistic solver."""
    T, C = sympy.symbols("T C", real=True)
    c, m, tenth = 3, 1, sympy.Rational(1, 10)
    t = T * (1 + tenth * sympy.sin(3 * tenth * C))
    x = C + tenth * T ** 2 * sympy.sin(7 * tenth * C)
    u1 = tenth * c * T * sympy.cos(C / 2)
    y = (t, x, sympy.sqrt(c ** 2 + u1 ** 2), u1)
    t_C, x_C = sympy.diff(t, C), sympy.diff(x, C)
    gamma = x_C ** 2 - c ** 2 * t_C ** 2
    Q = _nested_Q(sympy.exp(-C ** 2 / 4) * gamma ** sympy.Rational(-1, 4), sympy.sqrt(gamma), C)
    Q_C = sympy.diff(Q, C)
    tau = sympy.exp(-Q / (m * c ** 2))
    rhs = (tau * y[2] / c, tau * y[3], -tau * c * t_C / gamma * Q_C / m,
           -tau * x_C / gamma * Q_C / m)
    return (*_manufactured(T, C, y, rhs), eom_rhs)


@pytest.fixture(scope="module")
def nonrel_field():
    """The field y* = (x*, v*) of the non-relativistic solver: the same x*,
    with v* = d_T x*.  gamma^(1/2) is written x_C, which stays positive on
    this field, so that sympy differentiates no Abs."""
    T, C = sympy.symbols("T C", real=True)
    x = C + sympy.Rational(1, 10) * T ** 2 * sympy.sin(sympy.Rational(7, 10) * C)
    x_C = sympy.diff(x, C)
    Q = _nested_Q(sympy.exp(-C ** 2 / 4) / sympy.sqrt(x_C), x_C, C)
    y = (x, sympy.diff(x, T))
    rhs = (y[1], -sympy.diff(Q, C) / x_C)
    return (*_manufactured(T, C, y, rhs), nonrel_rhs)


def _rows(f, T, C):
    """The rows of a lambdified field at (T, C); a row that sympy reduced to a
    constant is broadcast over C."""
    return np.array(np.broadcast_arrays(*f(T, C), C)[:-1])


def _run(field, n, t_final, dt):
    """(y, y*) at t_final of the forced run on n labels."""
    y_star, source, rhs = field
    cfg = rq.SimConfig(mass=1.0, hbar=1.0, c=3.0, weight=rq.gaussian_weight(0.5),
                       grid=rq.make_grid(-5, 5, n), t_final=t_final, dt=dt, invariant_tol=1.0)
    C = cfg.grid.nodes
    ones = np.ones_like(C)

    def forced(y, cfg):  # autonomous: T rides in a last row, dT/dT = 1
        return np.vstack((rhs(y[:-1], cfg) + _rows(source, y[-1, 0], C), ones))

    y0 = np.vstack((_rows(y_star, 0.0, C), np.zeros_like(C)))
    records = run_fixed_steps(cfg, t_final, y0, partial(_rk4, forced, config=cfg),
                              lambda T, y: y[:-1], list)
    return records[-1], _rows(y_star, t_final, C)


def _errors(field, t_final, ns):
    """max |y - y*| over the rows at t_final for each n, and the time error
    |y(dt) - y(dt / 2)| of the finest run."""
    runs = {n: _run(field, n, t_final, DT) for n in ns}
    errors = {n: float(np.abs(y - y_star).max()) for n, (y, y_star) in runs.items()}
    fine = _run(field, max(ns), t_final, DT / 2)[0]
    return errors, float(np.abs(runs[max(ns)][0] - fine).max())


def _check_tenfold_fall_at_short_time(field):
    errors, time_error = _errors(field, 0.2, (17, 65))
    assert errors[17] >= 10 * errors[65], errors
    assert time_error < 0.1 * errors[65]


def _check_third_order_at_unit_time(field):
    errors, time_error = _errors(field, 1.0, (25, 65))
    order = math.log(errors[25] / errors[65]) / math.log(64 / 24)  # h = 10 / (N - 1)
    assert order >= 3, errors
    assert time_error < 0.1 * min(errors.values())


def test_short_time_error_falls_tenfold(field):
    # 7.9e-6 at N = 17, 3.8e-7 at N = 65: a 21x fall.  A fall alone is not
    # enough: with the 1/4 of L in log_form_Q made 1/2 the error still
    # falls, but only 1.1x
    _check_tenfold_fall_at_short_time(field)


@pytest.mark.xfail(raises=AssertionError,
                   reason="ROADMAP item 3: the grid-scale instability, driven from the edges, "
                          "grows the error with N within one unit of T (6.2e-4 at N = 25, "
                          "9.0e-2 at N = 65)")
def test_unit_time_error_falls_at_third_order(field):
    _check_third_order_at_unit_time(field)


def test_nonrel_short_time_error_falls_tenfold(nonrel_field):
    # 6.6e-6 at N = 17, 2.5e-7 at N = 65: a 26x fall.  With the 1/4 of L in
    # log_form_Q made 1/2 it falls only 1.15x
    _check_tenfold_fall_at_short_time(nonrel_field)


@pytest.mark.xfail(raises=AssertionError,
                   reason="ROADMAP item 3: the grid-scale instability, driven from the edges, "
                          "keeps the error from falling with N at T = 1 (6.5e-4 / 9.2e-4 / "
                          "5.2e-4 / 2.7e-4 / 1.5e-3 at N = 17 / 25 / 33 / 49 / 65)")
def test_nonrel_unit_time_error_falls_at_third_order(nonrel_field):
    _check_third_order_at_unit_time(nonrel_field)
