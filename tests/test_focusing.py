"""The focusing Gaussian: an exact solution of the discrete non-relativistic system.

A Gaussian weight exp(-C^2 / 2) (sigma = 1) with the initial velocity field
v = k C has the self-similar solution x = C s(t), with the Ermakov law

    s(t)^2 = (1 + k t)^2 + (hbar t / (2 m sigma^2))^2,

whose waist is at t* = -k / (k^2 + 1/4) for m = hbar = 1.  x is linear in C
and its slice metric is uniform, so the label stencils are exact on it: the
discrete system holds this solution to roundoff, and max |x - C s(t)| over a
run measures roundoff amplified by the grid-scale mode alone.  That mode
grows as 1 / s^2, so a focus (k < 0) is where it shows first.  The runs go
to t = 4 at dt = 1e-3 through the solver's own stage (nonrel_rhs), RK4
combine (_rk4) and driver (run_fixed_steps), the error taken at every step.

Measured max |x - C s(t)|: 1.7e-13 at k = 0 and 1.05e-9 at k = -1 for
N = 17 labels on [-5, 5]; at k = -1, 1.07e-5 for N = 25 and 0.18 for N = 33,
and N = 49 loses its ordering at t = 1.031.
"""

import math
from functools import partial

import numpy as np
import pytest

import relqtraj as rq
from relqtraj.dynamics import IntegrationError, _rk4, run_fixed_steps
from relqtraj.nonrel import nonrel_rhs

TOL = 1e-8
_MODE = pytest.mark.xfail(raises=(AssertionError, IntegrationError), strict=True,
                          reason="ROADMAP items 3 and 4: the grid-scale mode amplifies "
                                 "roundoff past 1e-8 in the focus at N > 17")


def _ermakov(t, k):
    """s(t) for sigma = m = hbar = 1."""
    return math.sqrt((1.0 + k * t) ** 2 + (t / 2.0) ** 2)


def focusing_error(n, k):
    """max over every step to t = 4 of |x - C s(t)| for N = n labels."""
    cfg = rq.SimConfig(mass=1.0, hbar=1.0, c=3.0, weight=rq.gaussian_weight(0.5),
                       grid=rq.make_grid(-5, 5, n), t_final=4.0, dt=1e-3)
    C = cfg.grid.nodes
    errors = run_fixed_steps(cfg, cfg.dt, np.array([C, k * C]),
                             partial(_rk4, nonrel_rhs, config=cfg),
                             lambda t, y: np.abs(y[0] - C * _ermakov(t, k)).max(), list)
    return max(errors)


@pytest.mark.parametrize("n, k", [
    (17, 0.0),
    (17, -1.0),
    pytest.param(25, -1.0, marks=_MODE),
    pytest.param(33, -1.0, marks=_MODE),
    pytest.param(49, -1.0, marks=_MODE),
], ids=["N17-k0", "N17-k-1", "N25-k-1", "N33-k-1", "N49-k-1"])
def test_the_focusing_gaussian_holds_to_roundoff(n, k):
    assert focusing_error(n, k) <= TOL
