"""Command-line interface.

Subcommands:
  simulate        run the relativistic solver from a config file
  analytic        sample a closed-form ensemble onto a grid
  verify          re-check invariants of a snapshot directory
  compare-limits  relativistic vs non-relativistic (or second config) runs
  figures         emit plot-data polylines from a snapshot directory

Exit codes: 0 success / all checks pass, 1 validation or usage error (a
ValueError), 2 runtime failure (IntegrationError, ArithmeticError, OSError,
MemoryError).
"""

from __future__ import annotations

import argparse
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
)
from .diagnostics import RESIDUAL_CADENCE_MAX, evaluate_invariants, residual_admitted
from .dynamics import IntegrationError, finite_record, integrate, record_series, step_counts
from .nonrel import nonrel_integrate
from .snapshot_io import (
    ConfigError,
    load_config,
    read_snapshots,
    write_report,
    write_series,
    write_snapshots,
)
from .state import MIN_POINTS, SimConfig, StateValidationError, check_positive, make_grid
from .stencils import STENCIL_ORDERS

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    n_steps, stride = step_counts(cfg, args.cadence)
    start = {"code_version": __version__, "start_time": _now()}

    def run(series):  # the manifest's run lines, after an abort as well
        return dict(start, end_time=_now(), cadence=args.cadence, n_steps=n_steps,
                    stride=stride, final_T=series.times[-1])

    t0 = time.perf_counter()
    try:
        series = integrate(cfg, cadence=args.cadence)
    except IntegrationError as exc:
        if exc.series:  # persist whatever completed before the abort
            write_snapshots(exc.series, args.out, **run(exc.series))
            print(f"simulate: aborted, {len(exc.series)} partial snapshots kept in {args.out}")
        raise
    wall = time.perf_counter() - t0
    report = evaluate_invariants(series)
    write_snapshots(series, args.out, report=report, **run(series))
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
    times = []
    for entry in args.times.split(","):  # a series runs from T = 0 to its last entry
        try:
            times.append(float(entry))
        except ValueError:  # not a number: refused below, as a NaN is
            times.append(np.nan)
        if not 0 <= times[-1] < np.inf:
            raise ValueError(f"--times entry {entry.strip()} is not a finite nonnegative time")
    times = np.array(times)
    check_positive(mass=args.mass, hbar=args.hbar, c=args.c)  # before a family divides by them
    ens = family(param, args)
    # the config refuses a c or hbar that squares past a float before Q squares c
    cfg = SimConfig(
        mass=args.mass, hbar=args.hbar, c=args.c, weight=ens.weight, grid=grid,
        t_final=max(times), stencil_order=args.stencil_order,
    )
    # a closed-form Q is given only for the family whose density has none
    Q = None if ens.Q is None else np.tile(ens.Q(grid.nodes, args.mass), (len(times), 1))
    y = np.stack(ens.evaluate(times[:, None], grid.nodes), 1)  # on the (K, 1) x (N,) grid
    try:
        series = record_series(cfg, times, y, Q)
    except StateValidationError as exc:  # every fault here has an index: its --times entry
        raise StateValidationError(f"--times entry T = {times[exc.index]:.6g}: {exc}") from exc
    finite_record(series.tau_T, series.f, series.g01)
    write_snapshots(series, args.out, code_version=__version__, start_time=_now(),
                    end_time=_now(), kind=args.kind, **{flag: param})
    print(f"analytic: {len(series)} {args.kind} snapshots to {args.out}")
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
    cfg = load_config(args.config)
    cfg2 = load_config(args.config2) if args.config2 else None
    if cfg2 is not None and cfg2.grid != cfg.grid:
        raise ConfigError(f"compare-limits: the two configs label different grids "
                          f"({cfg.grid} and {cfg2.grid}); x is compared label by label")
    for plan in filter(None, (cfg, cfg2)):  # both run plans, refused before either runs
        step_counts(plan, args.cadence)
    series = integrate(cfg, cadence=args.cadence)
    if cfg2 is not None:
        other = integrate(cfg2, cadence=args.cadence)
        times, xs_other = other.times, other.y[:, 1]
        label = "second config"
    else:  # --nonrel; argparse requires exactly one of the two
        nr = nonrel_integrate(cfg, cadence=args.cadence)
        times, xs_other = np.array([s.t for s in nr]), np.array([s.x for s in nr])
        label = "non-relativistic reference"
    shared = np.isin(series.times, times)  # both record at k * dt, in T order
    T = series.times[shared]
    if not T.any():
        raise ConfigError("compare-limits: the runs share no snapshot time after T = 0 "
                          "(snapshot times are k * dt), so there is nothing to compare")
    t, xs = series.y[shared, 0], series.y[shared, 1]
    max_dx = float(np.max(np.abs(xs - xs_other[np.searchsorted(times, T)])))
    max_dt = float(np.max(np.abs(t - T[:, None])))
    print(f"compare-limits vs {label}: {len(T)} of {len(series)} slices compared")
    print(f"  max |x difference|      = {max_dx:.6e}  (x range {xs.max() - xs.min():.6g})")
    print(f"  max |t - T| (first run) = {max_dt:.6e}")
    return EXIT_OK


def _cmd_figures(args) -> int:
    series = read_snapshots(args.snapshots)
    os.makedirs(args.out, exist_ok=True)
    T, C, t, x = series.times, series.config.grid.nodes, series.y[:, 0], series.y[:, 1]
    paths = []
    # trajectories run label by label, the other tables slice by slice
    for name, header, *table in (("fig_trajectories.tsv", ("C", "T", "t", "x"), C, T, t.T, x.T),
                                 ("fig_simultaneity.tsv", ("T", "C", "t", "x"), T, C, t, x),
                                 ("fig_gamma.tsv", ("T", "C", "gamma"), T, C, series.gamma),
                                 ("fig_q.tsv", ("T", "C", "Q"), T, C, series.Q)):
        paths.append(os.path.join(args.out, name))
        write_series(paths[-1], header, *table)
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
    except (IntegrationError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"runtime failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
