"""Invariant evaluation, evolution-equation residuals, derived observables.

All checks run over recorded snapshot series (in-memory or reloaded from
disk), never against integrator internals, so the same verification applies
to externally produced trajectory files.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le, lt
from typing import List, Optional

import numpy as np

from .dynamics import STEP_MULTIPLE_RTOL, SnapshotSeries
from .state import MIN_POINTS, make_grid, norm_violation
from .stencils import build_plan, d_dC, interior, interpolate

ORTHOGONALITY_EPS = 1e-30      # guards the force-scale denominator
REFERENCE_ZERO_REL_TOL = 1e-3  # |Q| at the reference labels, relative to max |Q|;
                               # the zeros sit there only as c -> infinity and
                               # move by O(1/c^2) otherwise (~2.6e-3 at c = 3,
                               # T = 1, whatever the resolution)
RESIDUAL_CADENCE_MAX = 0.05    # coarser recordings swamp the residual with
                               # time-differencing error (a correct c = 3 run
                               # reads 1.3e-4 at 0.1, 8.3e-6 at 0.05)


@dataclass(frozen=True)
class InvariantRecord:
    name: str
    max_abs_violation: float
    T_at_max: float
    C_at_max: float
    tolerance: float
    passed: bool

    verdict = property(lambda self: "pass" if self.passed else "FAIL")


@dataclass
class InvariantReport:
    records: List[InvariantRecord]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def __getitem__(self, name: str) -> InvariantRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)


def derived_fields(series: SnapshotSeries):
    """(beta, rho_star) of a series, each (K, N): speed in units of c and
    invariant density f / sqrt(gamma), f = exp(ln f) on the grid nodes."""
    y, cfg = series.y, series.config
    f = np.exp(cfg.weight.log_f(cfg.grid.nodes))
    return np.abs(y[:, 3]) / y[:, 2], f / np.sqrt(series.gamma)


def _worst(block: np.ndarray, Ts, Cs):
    """(value, T, C) at the largest entry of a non-empty (snapshot, point)
    block, the first in row order on ties; a NaN counts as the largest value."""
    k, j = np.unravel_index(int(np.argmax(block)), block.shape)
    return float(block[k, j]), float(Ts[k]), float(Cs[j])


def evaluate_invariants(
    series: SnapshotSeries,
    invariant_tol: Optional[float] = None,
    residual_tol: Optional[float] = None,
) -> InvariantReport:
    """Evaluate the full invariant list over a snapshot series.

    Kinematic checks: four-velocity normalization (relative to c^2), force
    orthogonality (scaled by c times the largest force component), the
    time-space metric residual (absolute) and strict subluminality.  The two
    evolution-equation residuals are added when the recording admits them
    (residual_admitted).  The quantum potential is checked to vanish at the
    reference labels when reference_zero_ratio gives a ratio (gaussian
    weights with a reference label on the grid).

    Every record is the worst point of one (snapshot, point) block, found by
    _worst; a NaN anywhere in a block fails its record.
    """
    if len(series) == 0:
        raise ValueError("empty snapshot series")
    cfg = series.config
    tol = cfg.invariant_tol if invariant_tol is None else invariant_tol
    rtol = cfg.residual_tol if residual_tol is None else residual_tol
    Ts, nodes = series.times, cfg.grid.nodes

    u0, u1, f0, f1 = series.y[:, 2], series.y[:, 3], series.f[:, 0], series.f[:, 1]
    fmax = np.maximum(np.abs(f0).max(axis=1), np.abs(f1).max(axis=1))[:, None]
    orth = np.abs(-u0 * f0 + u1 * f1) / (cfg.c * fmax + ORTHOGONALITY_EPS)
    norm = np.abs(norm_violation(np.array((u0, u1)), cfg.c_sq)) / cfg.c_sq
    checks = [
        ("four_velocity_norm", _worst(norm, Ts, nodes), tol, le),
        ("force_orthogonality", _worst(orth, Ts, nodes), tol, le),
        ("simultaneity_g01", _worst(np.abs(series.g01), Ts, nodes), tol, le),
        ("subluminality", _worst(np.abs(u1) / u0 - 1.0, Ts, nodes), 0.0, lt),
    ]
    if residual_admitted(series):
        res_t, res_x, sn, nd = pde_residual(series)
        checks += [(name, _worst(np.abs(res[sn, nd]), Ts[sn], nodes[nd]), rtol, le)
                   for name, res in (("pde_residual_t", res_t), ("pde_residual_x", res_x))]
    ref = reference_zero_ratio(series)
    if ref:
        checks.append(("reference_trajectory_zeros", ref, REFERENCE_ZERO_REL_TOL, le))
    return InvariantReport([InvariantRecord(name, *worst, t, passes(worst[0], t))
                            for name, worst, t, passes in checks])


def _uniform_cadence(times) -> bool:
    d = np.diff(times)
    return len(d) > 0 and float(np.max(np.abs(d - d[0]))) <= (
        STEP_MULTIPLE_RTOL * max(abs(d[0]), 1.0))


def residual_admitted(series: SnapshotSeries) -> bool:
    """The recording rule of the evolution-equation residuals: at least
    MIN_POINTS snapshots (two nested 5-point time stencils), uniformly
    spaced, at most RESIDUAL_CADENCE_MAX apart in T."""
    ts = series.times
    return (len(ts) >= MIN_POINTS and _uniform_cadence(ts)
            and ts[1] - ts[0] <= RESIDUAL_CADENCE_MAX * (1 + STEP_MULTIPLE_RTOL))


def reference_zero_ratio(series: SnapshotSeries):
    """Largest |Q| at the reference labels +-sqrt(1/a) of a gaussian weight
    exp(-a C^2), relative to the per-snapshot max |Q|; returns (ratio, T, C)
    at the worst point.  Slices with Q = 0 everywhere are skipped; None when
    nothing is left to check (a weight of another kind, neither label on the
    grid, or no slice with Q != 0).  The zeros sit at +-sqrt(1/a) only as
    c -> infinity, where the slice metric is uniform in C; at finite c the
    label dependence of tau_T shifts them by O(1/c^2), independently of the
    resolution, so a correct strongly relativistic run fails the check."""
    cfg = series.config
    if cfg.weight.kind != "gaussian":
        return None
    (a,) = cfg.weight.params
    c_ref = 1.0 / np.sqrt(a)
    labels = [cq for cq in (c_ref, -c_ref) if cfg.grid.c_min <= cq <= cfg.grid.c_max]
    Q = series.Q
    qmax = np.abs(Q).max(axis=1)
    rows = qmax != 0.0
    if not (labels and rows.any()):
        return None
    at_labels = np.array([interpolate(Q[rows], cfg.grid, cq) for cq in labels]).T
    return _worst(np.abs(at_labels) / qmax[rows, None], series.times[rows], labels)


def pde_residual(series: SnapshotSeries):
    """Residuals d_T(d_T y / tau_T) / tau_T - f / m of the two second-order
    evolution equations, y = t with the force row f0 / c and y = x with f1,
    evaluated from each stored snapshot's t, x, tau_T and force with nested
    fourth-order central differences in ensemble time: the time plan applied
    by d_dC to the (2, N, K) stack of t and x, T on the last axis.

    Returns (residual_t, residual_x, interior_snapshots, interior_nodes):
    arrays of shape (n_snapshots, n_points) and the slices over which both
    the time and space differencing are fully centered.
    """
    cfg, ts = series.config, series.times
    K = len(ts)
    if K < MIN_POINTS:
        raise ValueError(f"need at least {MIN_POINTS} uniformly spaced snapshots, got {K}")
    if not _uniform_cadence(ts):
        raise ValueError("snapshots must be recorded at uniform cadence")

    tplan = build_plan(make_grid(ts[0], ts[-1], K), 4)
    tau, tx = series.tau_T.T, series.y[:, :2].transpose(1, 2, 0)  # T on the last axis
    ddtx = d_dC(d_dC(tx, tplan) / tau, tplan) / tau
    res_t, res_x = ddtx.transpose(0, 2, 1) - (series.f[:, 0] / cfg.c, series.f[:, 1]) / cfg.m

    interior_snaps = slice(4, K - 4)          # two nested central time stencils
    return res_t, res_x, interior_snaps, interior(cfg.stencil_order, cfg.grid.n_points)
