"""Quantum potential of a trajectory ensemble, evaluated in log space.

The operator is

    Q = -(hbar^2 / 2m) * (gamma^(-1/4) f^(-1/2))
        * d_dC[ gamma^(-1/2) * d_dC( f^(1/2) gamma^(-1/4) ) ]

With A = f^(1/2) gamma^(-1/4) and L = ln A = (ln f)/2 - (ln gamma)/4 the
same quantity expands to

    Q = -(hbar^2 / 2m) * [ gamma^(-1/2) * (gamma^(-1/2))' * L'
                           + gamma^(-1) * (L'^2 + L'') ]

which is how it is computed here: the weight enters only through its exact
log-derivative, so a constant rescaling of f leaves Q bitwise unchanged, and
weights that are tiny at the grid edges never underflow.  Both second
derivatives arise as two successive stencil applications.

In an RK stage it is the second layer, after geometry.compute_geometry: called
by dynamics.compute_Q (three of the stage's five d_dC calls) or nonrel.nonrel_Q.
"""

from __future__ import annotations

import numpy as np

from .state import SimConfig, scalar_array
from .stencils import d_dC

_QUARTER = scalar_array(0.25)    # the 1/4 of L = (ln f)/2 - (ln gamma)/4
_NEG_HALF = scalar_array(-0.5)   # the exponent of gamma^(-1/2)


def log_form_Q(gamma: np.ndarray, config: SimConfig) -> np.ndarray:
    """Quantum potential of the spatial metric gamma, a slice (N,) or a stack
    (K, N) of slices, from half the closed-form weight log-derivative,
    (ln f^(1/2))' = (ln f)'/2 (config.half_dlogf), and the prefactor
    -(hbar^2 / 2m) (config.neg_hbar_sq_over_2m); gamma > 0 is the caller's
    guard (compute_geometry, or x_C > 0 in nonrel_Q).  Every operation is
    elementwise or a d_dC gemv per row, so a stack row is bitwise its 1-D
    call.  Raises FloatingPointError if Q is not finite (one count of a mask)."""
    plan = config.plan
    ln_gamma = np.log(gamma)
    Lp = config.half_dlogf - _QUARTER * d_dC(ln_gamma, plan)
    Lpp = d_dC(Lp, plan)
    inv_sqrt_gamma = gamma ** _NEG_HALF
    Gp = d_dC(inv_sqrt_gamma, plan)
    Q = config.neg_hbar_sq_over_2m * (inv_sqrt_gamma * Gp * Lp + (Lp * Lp + Lpp) / gamma)
    if np.count_nonzero(np.isfinite(Q)) != Q.size:
        raise FloatingPointError("non-finite quantum potential")
    return Q
