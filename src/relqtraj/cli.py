"""Command-line interface.

Subcommands:
  simulate        run the relativistic solver from a config file
  analytic        sample a closed-form ensemble onto a grid
  verify          re-check invariants of a snapshot directory
  compare-limits  relativistic vs non-relativistic (or second config) runs
  figures         emit plot-data polylines from a snapshot directory

Exit codes: 0 success / all checks pass, 1 validation or usage error (a
ValueError), 2 runtime failure (IntegrationError, ArithmeticError, OSError).
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .analytic import (
    exponential_ensemble,
    hyperbolic_gamma_one_ensemble,
    hyperbolic_gamma_T_ensemble,
    inertial_ensemble,
    sample_state,
)
from .diagnostics import RESIDUAL_CADENCE_MAX, evaluate_invariants, residual_admitted
from .dynamics import IntegrationError, SnapshotSeries, finite_record, integrate, make_snapshot
from .nonrel import nonrel_integrate
from .snapshot_io import (
    ConfigError,
    format_cells,
    parse_config,
    read_snapshots,
    write_report,
    write_snapshots,
    write_table,
)
from .state import MIN_POINTS, SimConfig, check_positive, make_grid
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
    run = {"code_version": __version__, "start_time": _now()}
    t0 = time.perf_counter()
    try:
        series = integrate(cfg, cadence=args.cadence)
    except IntegrationError as exc:
        if exc.series:  # persist whatever completed before the abort
            write_snapshots(exc.series, args.out, **run, end_time=_now(), cadence=args.cadence)
            print(f"simulate: aborted, {len(exc.series)} partial snapshots kept in {args.out}")
        raise
    wall = time.perf_counter() - t0
    report = evaluate_invariants(series)
    write_snapshots(series, args.out, report=report, **run, end_time=_now(), cadence=args.cadence)
    print(f"simulate: {len(series)} snapshots and report.tsv to {args.out} "
          f"({wall:.2f} s, final T = {series.times[-1]:g})")
    return _print_report(report, series)


def _print_report(report, series) -> int:
    """Print the records and any skipped-residual note; return the exit code."""
    for r in report.records:
        print(f"{r.name}: max {r.max_abs_violation:.3e} at T={r.T_at_max:g} "
              f"C={r.C_at_max:g} (tol {r.tolerance:.1e}) {r.verdict}")
    if not residual_admitted(series):
        print(f"note: evolution-equation residuals skipped; they need at least "
              f"{MIN_POINTS} uniformly spaced snapshots no more than "
              f"{RESIDUAL_CADENCE_MAX:g} apart in T (rerun simulate with --cadence "
              f"{RESIDUAL_CADENCE_MAX:g} or finer)")
    return EXIT_OK if report.all_pass else EXIT_RUNTIME


# --kind -> (its parameter flag, the flag's default, the closed-form family
# it samples, built from the parameter p and the parsed arguments a)
_KINDS = {
    "inertial": ("beta0", 0.0, lambda p, a: inertial_ensemble(p, a.c)),
    "exponential": ("kappa", 0.5, lambda p, a: exponential_ensemble(p, a.mass, a.hbar, a.c)),
    "hyperbolic-gamma-one": ("B", 1.0, lambda p, a: hyperbolic_gamma_one_ensemble(p, a.c)),
    "hyperbolic-gamma-t": ("A", 1.0, lambda p, a: hyperbolic_gamma_T_ensemble(p, a.c)),
}


def _cmd_analytic(args) -> int:
    flag, default, family = _KINDS[args.kind]
    for other, _, _ in _KINDS.values():
        if other != flag and getattr(args, other) is not None:
            raise ValueError(f"--{other} does not apply to --kind {args.kind}")
    param = default if getattr(args, flag) is None else getattr(args, flag)
    grid = make_grid(args.grid_min, args.grid_max, args.grid_n)
    times = [float(s) for s in args.times.split(",")]
    # a series starts at its initial slice, T = 0, and ends at its last entry
    for T in times:
        if not (T >= 0 and math.isfinite(T)):
            raise ValueError(f"--times entry {T:g} is not a nonnegative finite ensemble time")
    check_positive(mass=args.mass, hbar=args.hbar, c=args.c)  # before a family divides by them
    ens = family(param, args)
    # the config refuses a c or hbar that squares past a float before Q squares c
    cfg = SimConfig(
        mass=args.mass, hbar=args.hbar, c=args.c, weight=ens.weight, grid=grid,
        t_final=max(times), stencil_order=args.stencil_order,
    )
    # a closed-form Q is given only for the family whose density has none
    Q = None if ens.Q is None else ens.Q(grid.nodes, args.mass)
    snapshots = [finite_record(make_snapshot(sample_state(ens, grid, T), cfg, Q)) for T in times]
    series = SnapshotSeries(config=cfg, snapshots=snapshots)
    write_snapshots(series, args.out, code_version=__version__, start_time=_now(),
                    end_time=_now(), kind=args.kind, **{flag: param})
    print(f"analytic: {len(snapshots)} {args.kind} snapshots to {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    # the tolerances a config would refuse are usage errors, before anything is read
    check_positive(**{flag: tol for flag, tol in (("--tol-invariant", args.tol_invariant),
                                                  ("--tol-residual", args.tol_residual))
                      if tol is not None})
    series = read_snapshots(args.snapshots)
    report = evaluate_invariants(series, invariant_tol=args.tol_invariant,
                                 residual_tol=args.tol_residual)
    out = args.report or f"{args.snapshots.rstrip('/')}/report.tsv"
    write_report(report, out)
    print(f"verify: report written to {out}")
    return _print_report(report, series)


def _cmd_compare_limits(args) -> int:
    cfg = _load_config(args.config)
    cfg2 = _load_config(args.config2) if args.config2 else None
    if cfg2 is not None and cfg2.grid != cfg.grid:
        raise ConfigError(f"compare-limits: the two configs label different grids "
                          f"({cfg.grid} and {cfg2.grid}); x is compared label by label")
    series = integrate(cfg, cadence=args.cadence)
    if cfg2 is not None:
        other = integrate(cfg2, cadence=args.cadence)
        xs_other = {s.tau_ensemble: s.state.x for s in other}
        label = "second config"
    else:  # --nonrel; argparse requires exactly one of the two
        nr = nonrel_integrate(cfg, cadence=args.cadence)
        xs_other = {s.t: s.x for s in nr}
        label = "non-relativistic reference"
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
    series = read_snapshots(args.snapshots)
    times, nodes = series.times, series.config.grid.nodes
    # (K, N) per field: one row per snapshot, one column per label
    t, x, gamma, Q = series.stack("state.t", "state.x", "geometry.gamma", "quantum.Q")
    del series  # the tables need only these: free the snapshots before the cells are made
    os.makedirs(args.out, exist_ok=True)
    K, N = len(times), len(nodes)
    # Each value is formatted once, and a field's cells are kept only while
    # its tables are written.  Every column runs slice by slice, K blocks of
    # N labels; T and C repeat their cells to fill it.
    T = [cell for cell in format_cells(times) for _ in range(N)]
    C = format_cells(nodes) * K
    paths = []

    def write(fname, header, *columns):  # rows streamed, not held as a list
        paths.append(os.path.join(args.out, fname))
        write_table(paths[-1], itertools.chain([header], zip(*columns, strict=True)))

    def by_label(cells):  # the same cells label by label, N blocks of K slices
        return (cell for j in range(N) for cell in cells[j::N])

    t, x = format_cells(t), format_cells(x)
    # trajectories run label by label, the other tables slice by slice
    write("fig_trajectories.tsv", ("C", "T", "t", "x"), *map(by_label, (C, T, t, x)))
    write("fig_simultaneity.tsv", ("T", "C", "t", "x"), T, C, t, x)
    del t, x
    write("fig_gamma.tsv", ("T", "C", "gamma"), T, C, format_cells(gamma))
    write("fig_q.tsv", ("T", "C", "Q"), T, C, format_cells(Q))
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
    p.add_argument("--kind", required=True, choices=_KINDS)
    p.add_argument("--out", required=True)
    for kind, (flag, default, _) in _KINDS.items():
        p.add_argument(f"--{flag}", type=float,
                       help=f"the {kind} parameter, only for that kind (default {default:g})")
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
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--config2", default=None)
    target.add_argument("--nonrel", action="store_true")
    p.add_argument("--cadence", type=float, default=1.0)
    p.set_defaults(func=_cmd_compare_limits)

    p = sub.add_parser("figures", help="emit plot-data files from snapshots")
    p.add_argument("--snapshots", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_figures)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error is a validation error; --help is not
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        # a non-finite value is reported by a guard or a NaN record, not by numpy warnings
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (IntegrationError, ArithmeticError, OSError) as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
