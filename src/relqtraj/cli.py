"""Command-line interface.

Subcommands:
  simulate        run the relativistic solver from a config file
  analytic        sample a closed-form ensemble onto a grid
  verify          re-check invariants of a snapshot directory
  compare-limits  relativistic vs non-relativistic (or second config) runs
  figures         emit plot-data polylines from a snapshot directory

Exit codes: 0 success / all checks pass, 1 validation error,
2 runtime or invariant failure.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analytic import (
    exponential_ensemble,
    hyperbolic_gamma_one_Q,
    hyperbolic_gamma_one_ensemble,
    hyperbolic_gamma_T_ensemble,
    inertial_ensemble,
    sample_state,
)
from .diagnostics import (
    RESIDUAL_CADENCE_MAX,
    RESIDUAL_MIN_SNAPSHOTS,
    evaluate_invariants,
)
from .dynamics import IntegrationError, SnapshotSeries, integrate, make_snapshot
from .geometry import GeometryError
from .nonrel import nonrel_integrate
from .snapshot_io import (
    ConfigError,
    parse_config,
    read_snapshots,
    write_report,
    write_snapshots,
    write_table,
)
from .state import SimConfig, StateValidationError, make_grid, uniform_weight, exponential_weight
from .stencils import STENCIL_ORDERS

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _load_config(path: str) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def _cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    start = _now()
    t0 = time.perf_counter()
    try:
        series = integrate(cfg, cadence=args.cadence)
    except IntegrationError as exc:
        # persist whatever completed before the abort
        if exc.series is not None and len(exc.series) > 0:
            write_snapshots(exc.series, args.out, code_version=__version__,
                            start_time=start, end_time=_now(),
                            cadence=args.cadence)
            print(f"simulate: aborted, {len(exc.series)} partial snapshots "
                  f"kept in {args.out}", file=sys.stderr)
        raise
    wall = time.perf_counter() - t0
    report = evaluate_invariants(series)
    write_snapshots(
        series,
        args.out,
        code_version=__version__,
        start_time=start,
        end_time=_now(),
        report=report,
        cadence=args.cadence,
    )
    print(
        f"simulate: {len(series)} snapshots to {args.out} "
        f"({wall:.2f} s, final T = {series.times[-1]:g})"
    )
    for r in report.records:
        print(f"  {r.name}: max {r.max_abs_violation:.3e} "
              f"(tol {r.tolerance:.1e}) {'pass' if r.passed else 'FAIL'}")
    return EXIT_OK if report.all_pass else EXIT_RUNTIME


def _cmd_analytic(args) -> int:
    grid = make_grid(args.grid_min, args.grid_max, args.grid_n)
    times = [float(s) for s in args.times.split(",")]
    m, hb, c = args.mass, args.hbar, args.c
    Q = None  # given only for the family with a closed-form Q but no density
    if args.kind == "inertial":
        ens = inertial_ensemble(args.beta0, c)
        weight = uniform_weight()
    elif args.kind == "exponential":
        ens = exponential_ensemble(args.kappa, m, hb, c)
        weight = exponential_weight(args.kappa)
    elif args.kind == "hyperbolic-gamma-one":
        if grid.c_min <= 0:
            raise ConfigError("hyperbolic-gamma-one sampling needs grid.min > 0")
        ens = hyperbolic_gamma_one_ensemble(args.B, c)
        Q = hyperbolic_gamma_one_Q(args.B, grid.nodes, m, c)
        # no closed-form density exists: ln f is NaN, and so is rho_star
        weight = replace(uniform_weight(), log_f=lambda C: np.full(np.shape(C), np.nan))
    elif args.kind == "hyperbolic-gamma-t":
        if any(T == 0 for T in times):
            raise ConfigError("hyperbolic-gamma-t is degenerate at T = 0")
        ens = hyperbolic_gamma_T_ensemble(args.A, c)
        weight = uniform_weight()
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown kind {args.kind}")

    cfg = SimConfig(
        mass=m, hbar=hb, c=c, weight=weight, grid=grid,
        t_final=max(times) if max(times) > 0 else 1.0, stencil_order=args.stencil_order,
    )
    snapshots = [make_snapshot(sample_state(ens, grid, T), cfg, Q) for T in times]
    series = SnapshotSeries(config=cfg, snapshots=snapshots)
    write_snapshots(series, args.out, code_version=__version__,
                    start_time=_now(), end_time=_now())
    print(f"analytic: {len(snapshots)} {args.kind} snapshots to {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    # a non-finite or overflowing stored cell gives NaN records, not numpy warnings
    with np.errstate(invalid="ignore", over="ignore"):
        series = read_snapshots(args.snapshots)
        report = evaluate_invariants(
            series,
            invariant_tol=args.tol_invariant,
            residual_tol=args.tol_residual,
        )
    out = args.report or f"{args.snapshots.rstrip('/')}/report.tsv"
    write_report(report, out)
    for r in report.records:
        print(f"{r.name}: max {r.max_abs_violation:.3e} at T={r.T_at_max:g} "
              f"C={r.C_at_max:g} (tol {r.tolerance:.1e}) "
              f"{'pass' if r.passed else 'FAIL'}")
    if not any(r.name.startswith("pde_residual") for r in report.records):
        print(f"note: evolution-equation residuals skipped; they need at least "
              f"{RESIDUAL_MIN_SNAPSHOTS} uniformly spaced snapshots no more than "
              f"{RESIDUAL_CADENCE_MAX:g} apart in T (rerun simulate with --cadence "
              f"{RESIDUAL_CADENCE_MAX:g} or finer)")
    print(f"verify: report written to {out}")
    return EXIT_OK if report.all_pass else EXIT_RUNTIME


def _cmd_compare_limits(args) -> int:
    cfg = _load_config(args.config)
    series = integrate(cfg, cadence=args.cadence)
    if args.config2:
        other = integrate(_load_config(args.config2), cadence=args.cadence)
        xs_other = {s.tau_ensemble: s.state.x for s in other}
        label = "second config"
    elif args.nonrel:
        nr = nonrel_integrate(cfg, cadence=args.cadence)
        xs_other = {s.t: s.x for s in nr}
        label = "non-relativistic reference"
    else:
        raise ConfigError("compare-limits needs --nonrel or --config2")
    shared = [s for s in series if s.tau_ensemble in xs_other]
    if all(s.tau_ensemble == 0.0 for s in shared):
        raise ConfigError("compare-limits: the runs share no snapshot time after T = 0 "
                          "(snapshot times are k * dt), so there is nothing to compare")
    xs = np.array([s.state.x for s in shared])
    max_dx = max(float(np.max(np.abs(s.state.x - xs_other[s.tau_ensemble]))) for s in shared)
    max_dt = max(float(np.max(np.abs(s.state.t - s.tau_ensemble))) for s in shared)
    print(f"compare-limits vs {label}: {len(shared)} of {len(series)} slices compared")
    print(f"  max |x difference|      = {max_dx:.6e}  (x range {xs.max() - xs.min():.6g})")
    print(f"  max |t - T| (first run) = {max_dt:.6e}")
    return EXIT_OK


def _cmd_figures(args) -> int:
    with np.errstate(invalid="ignore", over="ignore"):  # as in verify
        series = read_snapshots(args.snapshots)
    os.makedirs(args.out, exist_ok=True)
    nodes = series.config.grid.nodes
    # (K, N) per field: one row per snapshot, one column per label
    T = np.repeat(np.array(series.times)[:, None], len(nodes), axis=1)
    C = np.broadcast_to(nodes, T.shape)
    t = np.array([s.state.t for s in series])
    x = np.array([s.state.x for s in series])
    tables = (
        # trajectories run label by label, the other tables slice by slice
        ("fig_trajectories.tsv", ("C", "T", "t", "x"), tuple(a.T for a in (C, T, t, x))),
        ("fig_simultaneity.tsv", ("T", "C", "t", "x"), (T, C, t, x)),
        ("fig_gamma.tsv", ("T", "C", "gamma"),
         (T, C, np.array([s.geometry.gamma for s in series]))),
        ("fig_q.tsv", ("T", "C", "Q"), (T, C, np.array([s.quantum.Q for s in series]))),
    )
    paths = []
    for fname, header, columns in tables:
        paths.append(os.path.join(args.out, fname))
        write_table(paths[-1], header, [a.ravel() for a in columns])
    print("figures: " + ", ".join(paths))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="relqtraj",
        description="Relativistic quantum trajectory-ensemble solver (1+1d)",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="integrate a config and write snapshots")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cadence", type=float, default=1.0,
                   help="ensemble-time interval between snapshots (default 1.0)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analytic", help="sample a closed-form ensemble")
    p.add_argument("--kind", required=True, choices=[
        "inertial", "exponential", "hyperbolic-gamma-one", "hyperbolic-gamma-t"])
    p.add_argument("--out", required=True)
    p.add_argument("--beta0", type=float, default=0.0, help="boost for inertial")
    p.add_argument("--kappa", type=float, default=0.5, help="decay rate for exponential")
    p.add_argument("--B", type=float, default=1.0, help="hyperbolic-gamma-one parameter")
    p.add_argument("--A", type=float, default=1.0, help="hyperbolic-gamma-t parameter")
    p.add_argument("--mass", type=float, default=SimConfig.mass)
    p.add_argument("--hbar", type=float, default=SimConfig.hbar)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--grid-min", type=float, required=True)
    p.add_argument("--grid-max", type=float, required=True)
    p.add_argument("--grid-n", type=int, required=True)
    p.add_argument("--stencil-order", type=int, default=SimConfig.stencil_order,
                   choices=STENCIL_ORDERS)
    p.add_argument("--times", default="0,1,2,3,4,5,6,7,8,9,10",
                   help="comma-separated ensemble times to sample")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("verify", help="re-check invariants of a snapshot directory")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--tol-invariant", type=float, default=None,
                   help="override the manifest's invariant tolerance")
    p.add_argument("--tol-residual", type=float, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compare-limits",
                       help="compare a run against the non-relativistic solver or a second config")
    p.add_argument("--config", required=True)
    p.add_argument("--config2", default=None)
    p.add_argument("--nonrel", action="store_true")
    p.add_argument("--cadence", type=float, default=1.0)
    p.set_defaults(func=_cmd_compare_limits)

    p = sub.add_parser("figures", help="emit plot-data files from snapshots")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_figures)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, StateValidationError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (IntegrationError, GeometryError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
