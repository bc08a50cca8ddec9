"""Closed-form trajectory ensembles used as solver oracles.

Four families: boosted straight-line (quantum inertial) motion, the
exponential-weight ensemble at rest with a constant time-contraction rate,
and two hyperbolic families that solve the evolution equations exactly but
are singular (light-cone trajectories), so they are not viable initial
conditions and serve only as sampled comparison data.  Each family carries
its whole definition: the map (T, C) -> (t, x, u0, u1), the weight of its
labels and, where the density has no closed form, its closed-form Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .state import WeightFunction, exponential_weight, no_density_weight, uniform_weight


def _stack4(t, x, u0, u1):
    return np.array(np.broadcast_arrays(t, x, u0, u1), dtype=float)


@dataclass(frozen=True)
class AnalyticEnsemble:
    """A closed-form map (T, C) -> (t, x, u0, u1), one (4, ...) array, the
    weight of its labels and, if given, its closed-form Q(C, mass)."""

    evaluate: Callable
    weight: WeightFunction
    Q: Optional[Callable] = None


def inertial_ensemble(beta0: float, c: float) -> AnalyticEnsemble:
    """Uniformly boosted parallel straight lines; |beta0| < 1."""
    if not abs(beta0) < 1:
        raise ValueError(f"boost must satisfy |beta0| < 1, got {beta0}")
    G = 1.0 / math.sqrt(1.0 - beta0 ** 2)

    def evaluate(T, C):
        t = G * (T + beta0 * C / c)
        x = G * (C + beta0 * c * T)
        return _stack4(t, x, G * c, G * beta0 * c)

    return AnalyticEnsemble(evaluate, uniform_weight())


def exponential_ensemble(kappa: float, mass: float, hbar: float, c: float) -> AnalyticEnsemble:
    """Rest-frame ensemble with exponential weight: x = C, t advances at the
    constant contraction rate exp[(1/2)(hbar kappa / m c)^2]; a kappa whose
    rate overflows a float is a ValueError."""
    try:
        rate = math.exp(0.5 * (hbar * kappa / (mass * c)) ** 2)
    except (OverflowError, ZeroDivisionError):  # m c may underflow to 0
        raise ValueError(f"kappa = {kappa:g}: the contraction rate "
                         f"exp[(1/2)(hbar kappa / m c)^2] overflows") from None
    return AnalyticEnsemble(lambda T, C: _stack4(rate * T, C, c, 0.0), exponential_weight(kappa))


def hyperbolic_gamma_one_ensemble(B: float, c: float) -> AnalyticEnsemble:
    """Constant-acceleration family with unit slice metric:
    t = (C/c) sinh(c B T), x = C cosh(c B T).  Singular at C = 0; Q is
    defined where B C > 0, and the density has no closed form."""
    if B == 0:
        raise ValueError("B must be nonzero")

    def evaluate(T, C):
        if np.any(C == 0):
            raise ValueError("C = 0 is a singular point of this family")
        t = (C / c) * np.sinh(c * B * T)
        x = C * np.cosh(c * B * T)
        # dt/dT = B C cosh and dx/dT = c B C sinh give dtau/dT = B C, so
        # dividing the slice velocity by B C leaves the unit four-velocity:
        return _stack4(t, x, c * np.cosh(c * B * T), c * np.sinh(c * B * T))

    # no closed-form density: ln f is NaN, and so is rho_star
    return AnalyticEnsemble(evaluate, no_density_weight(),
                            lambda C, mass: hyperbolic_gamma_one_Q(B, C, mass, c))


def hyperbolic_gamma_one_Q(B: float, C, mass: float, c: float):
    """Closed-form quantum potential of the unit-metric hyperbolic family."""
    C = np.asarray(C, dtype=float)
    if np.any(B * C <= 0):
        raise ValueError("Q is defined where B*C > 0")
    return -mass * c ** 2 * np.log(B * C)


def hyperbolic_gamma_T_ensemble(A: float, c: float) -> AnalyticEnsemble:
    """Straight-line fan through the origin: t = T cosh(A C), x = c T sinh(A C).
    Slice metric c^2 A^2 T^2 is uniform in C; degenerate at T = 0."""
    if A == 0:
        raise ValueError("A must be nonzero")

    def evaluate(T, C):
        if np.any(T == 0):
            raise ValueError("T = 0 is a degenerate slice of this family")
        t = T * np.cosh(A * C)
        x = c * T * np.sinh(A * C)
        return _stack4(t, x, c * np.cosh(A * C), c * np.sinh(A * C))

    return AnalyticEnsemble(evaluate, uniform_weight())
