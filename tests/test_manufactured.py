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
"""

import math

import numpy as np
import pytest

import relqtraj as rq
from relqtraj.dynamics import _rk4, eom_rhs, run_fixed_steps

sympy = pytest.importorskip("sympy")

DT = 1e-2


@pytest.fixture(scope="module")
def field():
    """(y*, S) as numpy functions of (T, C) that give the four rows."""
    T, C = sympy.symbols("T C", real=True)
    c, m, hbar, tenth = 3, 1, 1, sympy.Rational(1, 10)
    t = T * (1 + tenth * sympy.sin(3 * tenth * C))
    x = C + tenth * T ** 2 * sympy.sin(7 * tenth * C)
    u1 = tenth * c * T * sympy.cos(C / 2)
    y = (t, x, sympy.sqrt(c ** 2 + u1 ** 2), u1)
    t_C, x_C = sympy.diff(t, C), sympy.diff(x, C)
    gamma = x_C ** 2 - c ** 2 * t_C ** 2
    A = sympy.exp(-C ** 2 / 4) * gamma ** sympy.Rational(-1, 4)  # f^(1/2) gamma^(-1/4)
    D = sympy.diff(A, C) / sympy.sqrt(gamma)
    # Q = -(hbar^2 / 2m) gamma^(-1/4) f^(-1/2) D', and gamma^(-1/4) f^(-1/2) = 1 / (A gamma^(1/2))
    Q = -sympy.Rational(hbar ** 2, 2 * m) / (A * sympy.sqrt(gamma)) * sympy.diff(D, C)
    Q_C = sympy.diff(Q, C)
    tau = sympy.exp(-Q / (m * c ** 2))
    rhs = (tau * y[2] / c, tau * y[3], -tau * c * t_C / gamma * Q_C / m,
           -tau * x_C / gamma * Q_C / m)
    source = [sympy.diff(yk, T) - rk for yk, rk in zip(y, rhs)]
    return tuple(sympy.lambdify((T, C), rows, "numpy", cse=True) for rows in (y, source))


def _run(field, n, t_final, dt):
    """(y, y*) at t_final of the forced run on n labels."""
    y_star, source = field
    cfg = rq.SimConfig(mass=1.0, hbar=1.0, c=3.0, weight=rq.gaussian_weight(0.5),
                       grid=rq.make_grid(-5, 5, n), t_final=t_final, dt=dt, invariant_tol=1.0)
    C = cfg.grid.nodes

    def step(y, T):
        return _rk4(lambda y, h: eom_rhs(y, T + h, cfg) + np.array(source(T + h, C)), y, cfg)

    records = run_fixed_steps(cfg, t_final, np.array(y_star(0.0, C)), step, lambda T, y: y, [])
    return records[-1], np.array(y_star(t_final, C))


def _errors(field, t_final, ns):
    """max |y - y*| over the four rows at t_final for each n, and the time
    error |y(dt) - y(dt / 2)| of the finest run."""
    runs = {n: _run(field, n, t_final, DT) for n in ns}
    errors = {n: float(np.abs(y - y_star).max()) for n, (y, y_star) in runs.items()}
    fine = _run(field, max(ns), t_final, DT / 2)[0]
    return errors, float(np.abs(runs[max(ns)][0] - fine).max())


def test_short_time_error_falls_tenfold(field):
    # 7.9e-6 at N = 17, 3.8e-7 at N = 65: a 21x fall.  A fall alone is not
    # enough: with the 1/4 of L in log_form_Q made 1/2 the error still
    # falls, but only 1.1x
    errors, time_error = _errors(field, 0.2, (17, 65))
    assert errors[17] >= 10 * errors[65], errors
    assert time_error < 0.1 * errors[65]


@pytest.mark.xfail(raises=AssertionError,
                   reason="ROADMAP item 3: the grid-scale instability, driven from the edges, "
                          "grows the error with N within one unit of T (6.2e-4 at N = 25, "
                          "9.0e-2 at N = 65)")
def test_unit_time_error_falls_at_third_order(field):
    errors, time_error = _errors(field, 1.0, (25, 65))
    order = math.log(errors[25] / errors[65]) / math.log(64 / 24)  # h = 10 / (N - 1)
    assert order >= 3, errors
    assert time_error < 0.1 * min(errors.values())
