"""Independent oracle for the unit-metric hyperbolic family's weight.

The closed-form solution fixes Q(C) = -m c^2 ln(B C) but leaves the
trajectory density implicit.  With gamma = 1 the density obeys the linear
ODE u'' = (2 m^2 c^2 / hbar^2) ln(B C) u for u = f^(1/2); integrating it
with a high-accuracy adaptive solver (entirely independent of the package's
stencil machinery) yields a weight whose quantum potential must reproduce
the closed form.  It is no polynomial in C, so it is not a WeightFunction
value but an object with the same attributes: kind, params, log_f, dlog_f.
"""

from types import SimpleNamespace

import numpy as np
from scipy.integrate import solve_ivp


def hyperbolic_unit_metric_weight(B, mass, hbar, c, c_lo, c_hi):
    if not (0 < c_lo < c_hi):
        raise ValueError("need 0 < c_lo < c_hi")
    k2 = 2.0 * mass ** 2 * c ** 2 / hbar ** 2

    def rhs(C, y):
        return [y[1], k2 * np.log(B * C) * y[0]]

    c0 = 0.5 * (c_lo + c_hi)
    kw = dict(dense_output=True, rtol=1e-12, atol=1e-14, max_step=0.01)
    left = solve_ivp(rhs, (c0, c_lo), [1.0, 0.0], **kw)
    right = solve_ivp(rhs, (c0, c_hi), [1.0, 0.0], **kw)
    assert left.success and right.success

    def u_up(C):
        C = np.asarray(C, dtype=float)
        out = np.empty((2,) + C.shape)
        lo = C <= c0
        if np.any(lo):
            out[:, lo] = left.sol(C[lo])
        if np.any(~lo):
            out[:, ~lo] = right.sol(C[~lo])
        return out

    def log_f(C):
        u, _ = u_up(C)
        if np.any(u <= 0):
            raise ValueError("density oracle left its positive branch")
        return 2.0 * np.log(u)

    def dlog_f(C):
        u, up = u_up(C)
        return 2.0 * up / u

    return SimpleNamespace(kind="hyperbolic-ode", params=(B,), log_f=log_f, dlog_f=dlog_f)
