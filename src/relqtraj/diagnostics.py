"""Invariant evaluation, evolution-equation residuals, derived observables.

All checks run over recorded snapshot series (in-memory or reloaded from
disk), never against integrator internals, so the same verification applies
to externally produced trajectory files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .dynamics import SnapshotSeries
from .state import WeightFunction, make_grid
from .stencils import build_plan, interpolate

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
class DerivedFields:
    beta: np.ndarray
    rho_star: np.ndarray


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


def derived_fields(state, geom, w: WeightFunction, grid) -> DerivedFields:
    """Speed in units of c and invariant density f/sqrt(gamma), per node."""
    beta = np.abs(state.u1) / state.u0
    f = np.exp(w.log_f(grid.nodes))
    return DerivedFields(beta=beta, rho_star=f / np.sqrt(geom.gamma))


def _track_max(cur, arr, T, nodes):
    k = int(np.argmax(arr))
    v = float(arr[k])
    if cur is None or v > cur[0]:
        return (v, float(T), float(nodes[k]))
    return cur


def evaluate_invariants(
    series: SnapshotSeries,
    invariant_tol: Optional[float] = None,
    residual_tol: Optional[float] = None,
    include_residual: bool = True,
) -> InvariantReport:
    """Evaluate the full invariant list over a snapshot series.

    Kinematic checks: four-velocity normalization (relative to c^2), force
    orthogonality (scaled by c times the largest force component), the
    time-space metric residual (absolute) and strict subluminality.  The two
    evolution-equation residuals need a fine uniform recording: unless
    include_residual is False they are added when there are at least
    RESIDUAL_MIN_SNAPSHOTS uniform snapshots no more than RESIDUAL_CADENCE_MAX
    apart.  For gaussian weights the quantum potential is additionally
    checked to vanish at the reference labels +-sqrt(1/a).
    That check is exact only as c -> infinity, where the slice metric is
    uniform in C; at finite c the label dependence of tau_T shifts the zeros
    by O(1/c^2), independently of the resolution, so a correct strongly
    relativistic run fails it.
    """
    if len(series) == 0:
        raise ValueError("empty snapshot series")
    cfg = series.config
    c = cfg.c
    tol = cfg.invariant_tol if invariant_tol is None else invariant_tol
    rtol = cfg.residual_tol if residual_tol is None else residual_tol
    nodes = cfg.grid.nodes

    norm = orth = g01 = sub = None
    for s in series:
        st, qf = s.state, s.quantum
        norm = _track_max(norm, st.norm_violation(c), s.tau_ensemble, nodes)
        fmax = max(float(np.max(np.abs(qf.f0))), float(np.max(np.abs(qf.f1))))
        o = np.abs(-st.u0 * qf.f0 + st.u1 * qf.f1) / (c * fmax + ORTHOGONALITY_EPS)
        orth = _track_max(orth, o, s.tau_ensemble, nodes)
        if s.geometry.g01_residual is None:
            raise ValueError(
                f"snapshot at T = {s.tau_ensemble:g} lacks the g01 residual; "
                "attach it with attach_g01 before evaluating invariants"
            )
        g01 = _track_max(g01, np.abs(s.geometry.g01_residual), s.tau_ensemble, nodes)
        sub = _track_max(sub, np.abs(st.u1) / st.u0 - 1.0, s.tau_ensemble, nodes)

    records = [
        InvariantRecord("four_velocity_norm", *norm, tol, norm[0] <= tol),
        InvariantRecord("force_orthogonality", *orth, tol, orth[0] <= tol),
        InvariantRecord("simultaneity_g01", *g01, tol, g01[0] <= tol),
        InvariantRecord("subluminality", *sub, 0.0, sub[0] < 0.0),
    ]

    ts = series.times
    if (
        include_residual
        and len(series) >= RESIDUAL_MIN_SNAPSHOTS
        and _uniform_cadence(series)
        and ts[1] - ts[0] <= RESIDUAL_CADENCE_MAX * (1 + 1e-9)
    ):
        res_t, res_x, sn, nd = pde_residual(series)
        for name, res in (("pde_residual_t", res_t), ("pde_residual_x", res_x)):
            block = np.abs(res[sn, nd])
            k = np.unravel_index(int(np.argmax(block)), block.shape)
            v = float(block[k])
            T_at = series.snapshots[sn.start + k[0]].tau_ensemble
            C_at = nodes[nd.start + k[1]]
            records.append(InvariantRecord(name, v, T_at, float(C_at), rtol, v <= rtol))

    if cfg.weight.kind == "gaussian":
        a = cfg.weight.params[0]
        ref = reference_zero_ratio(series, a)
        records.append(
            InvariantRecord(
                "reference_trajectory_zeros",
                ref[0],
                ref[1],
                ref[2],
                REFERENCE_ZERO_REL_TOL,
                ref[0] <= REFERENCE_ZERO_REL_TOL,
            )
        )
    return InvariantReport(records)


def _uniform_cadence(series: SnapshotSeries) -> bool:
    ts = np.asarray(series.times)
    d = np.diff(ts)
    return len(d) > 0 and float(np.max(np.abs(d - d[0]))) <= 1e-9 * max(abs(d[0]), 1.0)


def reference_zero_ratio(series: SnapshotSeries, a: float):
    """Largest |Q| at the reference labels +-sqrt(1/a), relative to the
    per-snapshot max |Q|; returns (ratio, T, C) at the worst point."""
    cfg = series.config
    c_ref = 1.0 / np.sqrt(a)
    labels = [cq for cq in (c_ref, -c_ref) if cfg.grid.c_min <= cq <= cfg.grid.c_max]
    worst = None
    for s in series:
        qmax = float(np.max(np.abs(s.quantum.Q)))
        if qmax == 0.0:
            continue
        for cq in labels:
            r = abs(interpolate(s.quantum.Q, cfg.grid, cq)) / qmax
            if worst is None or r > worst[0]:
                worst = (r, s.tau_ensemble, cq)
    return worst if worst is not None else (0.0, 0.0, 0.0)


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
    Dt = tplan.matrix

    t_all = np.stack([s.state.t for s in series])
    x_all = np.stack([s.state.x for s in series])
    Q_all = np.stack([s.quantum.Q for s in series])
    tC_all = np.stack([s.geometry.t_C for s in series])
    xC_all = np.stack([s.geometry.x_C for s in series])
    g_all = np.stack([s.geometry.gamma for s in series])
    QC_all = np.stack([s.quantum.Q_C for s in series])

    eQ = np.exp(Q_all / (cfg.mass * cfg.c ** 2))
    res_t = eQ * (Dt @ (eQ * (Dt @ t_all))) + (tC_all / g_all) * QC_all / cfg.mass
    res_x = eQ * (Dt @ (eQ * (Dt @ x_all))) + (xC_all / g_all) * QC_all / cfg.mass

    half_s = cfg.stencil_order // 2
    interior_snaps = slice(4, K - 4)          # two nested central time stencils
    interior_nodes = slice(half_s, cfg.grid.n_points - half_s)
    return res_t, res_x, interior_snaps, interior_nodes
