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

from .dynamics import SnapshotSeries
from .state import WeightFunction, make_grid, norm_violation
from .stencils import build_plan, d_dC, interpolate

ORTHOGONALITY_EPS = 1e-30      # guards the force-scale denominator
REFERENCE_ZERO_REL_TOL = 1e-3  # |Q| at the reference labels, relative to max |Q|;
                               # the zeros sit there only as c -> infinity and
                               # move by O(1/c^2) otherwise (~2.6e-3 at c = 3,
                               # T = 1, whatever the resolution)
RESIDUAL_CADENCE_MAX = 0.05    # coarser recordings swamp the residual with
                               # time-differencing error (a correct c = 3 run
                               # reads 1.3e-4 at 0.1, 8.3e-6 at 0.05)
RESIDUAL_MIN_SNAPSHOTS = 9     # two nested 5-point time stencils


@dataclass(frozen=True)
class InvariantRecord:
    name: str
    max_abs_violation: float
    T_at_max: float
    C_at_max: float
    tolerance: float
    passed: bool


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


def derived_fields(state, geom, w: WeightFunction, grid):
    """(beta, rho_star): speed in units of c and invariant density
    f / sqrt(gamma), per node."""
    f = np.exp(w.log_f(grid.nodes))
    return np.abs(state.u1) / state.u0, f / np.sqrt(geom.gamma)


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
    evolution-equation residuals need a fine uniform recording: they are
    added when there are at least RESIDUAL_MIN_SNAPSHOTS uniform snapshots no
    more than RESIDUAL_CADENCE_MAX apart.  For gaussian weights the quantum
    potential is additionally checked to vanish at the reference labels
    +-sqrt(1/a) that lie on the grid (no record when neither does).
    That check is exact only as c -> infinity, where the slice metric is
    uniform in C; at finite c the label dependence of tau_T shifts the zeros
    by O(1/c^2), independently of the resolution, so a correct strongly
    relativistic run fails it.

    Every record is the worst point of one (snapshot, point) block, found by
    _worst; a NaN anywhere in a block fails its record.
    """
    if len(series) == 0:
        raise ValueError("empty snapshot series")
    cfg = series.config
    tol = cfg.invariant_tol if invariant_tol is None else invariant_tol
    rtol = cfg.residual_tol if residual_tol is None else residual_tol
    Ts, nodes = np.asarray(series.times), cfg.grid.nodes

    u0, u1, f0, f1, g01 = series.stack("state.u0", "state.u1", "quantum.f0",
                                       "quantum.f1", "geometry.g01_residual")
    fmax = np.maximum(np.abs(f0).max(axis=1), np.abs(f1).max(axis=1))[:, None]
    orth = np.abs(-u0 * f0 + u1 * f1) / (cfg.c * fmax + ORTHOGONALITY_EPS)
    norm = np.abs(norm_violation(np.array((u0, u1)), cfg.c_sq)) / cfg.c ** 2
    checks = [
        ("four_velocity_norm", _worst(norm, Ts, nodes), tol, le),
        ("force_orthogonality", _worst(orth, Ts, nodes), tol, le),
        ("simultaneity_g01", _worst(np.abs(g01), Ts, nodes), tol, le),
        ("subluminality", _worst(np.abs(u1) / u0 - 1.0, Ts, nodes), 0.0, lt),
    ]
    if (
        len(series) >= RESIDUAL_MIN_SNAPSHOTS
        and _uniform_cadence(series)
        and Ts[1] - Ts[0] <= RESIDUAL_CADENCE_MAX * (1 + 1e-9)
    ):
        res_t, res_x, sn, nd = pde_residual(series)
        checks += [(name, _worst(np.abs(res[sn, nd]), Ts[sn], nodes[nd]), rtol, le)
                   for name, res in (("pde_residual_t", res_t), ("pde_residual_x", res_x))]
    ref = cfg.weight.kind == "gaussian" and reference_zero_ratio(series, cfg.weight.params[0])
    if ref:
        checks.append(("reference_trajectory_zeros", ref, REFERENCE_ZERO_REL_TOL, le))
    return InvariantReport([InvariantRecord(name, *worst, t, passes(worst[0], t))
                            for name, worst, t, passes in checks])


def _uniform_cadence(series: SnapshotSeries) -> bool:
    ts = np.asarray(series.times)
    d = np.diff(ts)
    return len(d) > 0 and float(np.max(np.abs(d - d[0]))) <= 1e-9 * max(abs(d[0]), 1.0)


def reference_zero_ratio(series: SnapshotSeries, a: float):
    """Largest |Q| at the reference labels +-sqrt(1/a), relative to the
    per-snapshot max |Q|; returns (ratio, T, C) at the worst point.  Slices
    with Q = 0 everywhere are skipped; None when nothing is left to check
    (neither label on the grid, or no slice with Q != 0)."""
    cfg = series.config
    c_ref = 1.0 / np.sqrt(a)
    labels = [cq for cq in (c_ref, -c_ref) if cfg.grid.c_min <= cq <= cfg.grid.c_max]
    (Q,) = series.stack("quantum.Q")
    qmax = np.abs(Q).max(axis=1)
    rows = qmax != 0.0
    if not (labels and rows.any()):
        return None
    at_labels = np.array([interpolate(Q[rows].T, cfg.grid, cq) for cq in labels]).T
    return _worst(np.abs(at_labels) / qmax[rows, None], np.asarray(series.times)[rows], labels)


def pde_residual(series: SnapshotSeries):
    """Residuals of the two second-order evolution equations, evaluated from
    stored snapshots with the same spatial stencils the solver used and
    nested fourth-order central differences in ensemble time.

    Returns (residual_t, residual_x, interior_snapshots, interior_nodes):
    arrays of shape (n_snapshots, n_points) and the slices over which both
    the time and space differencing are fully centered.
    """
    cfg = series.config
    K = len(series)
    if K < RESIDUAL_MIN_SNAPSHOTS:
        raise ValueError(
            f"need at least {RESIDUAL_MIN_SNAPSHOTS} uniformly spaced snapshots, got {K}"
        )
    if not _uniform_cadence(series):
        raise ValueError("snapshots must be recorded at uniform cadence")

    ts = series.times
    tgrid = make_grid(ts[0], ts[-1], K)
    tplan = build_plan(tgrid, 4)
    t, x, Q, t_C, x_C, gamma, Q_C = series.stack(
        "state.t", "state.x", "quantum.Q", "geometry.t_C", "geometry.x_C",
        "geometry.gamma", "quantum.Q_C")

    eQ = np.exp(Q / (cfg.mass * cfg.c ** 2))
    res_t, res_x = (eQ * d_dC(eQ * d_dC(y, tplan), tplan)
                    + (y_C / gamma) * Q_C / cfg.mass
                    for y, y_C in ((t, t_C), (x, x_C)))

    interior_snaps = slice(4, K - 4)          # two nested central time stencils
    return res_t, res_x, interior_snaps, cfg.plan.interior
