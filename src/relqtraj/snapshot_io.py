"""Config parsing and snapshot/report serialization.

Config files are flat "key = value" text.  Snapshot series are written as
one tab-separated table per slice (17 significant digits, enough to round-
trip float64 exactly) plus a manifest that echoes every input needed to
reproduce the run bitwise.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

import numpy as np

from .diagnostics import InvariantReport, derived_fields
from .dynamics import SnapshotSeries, make_snapshot
from .state import (
    EnsembleState,
    SimConfig,
    exponential_weight,
    gaussian_weight,
    make_grid,
    uniform_weight,
)

SNAPSHOT_COLUMNS = ("T", "C", "t", "x", "u0", "u1", "gamma", "Q", "tau_T", "beta", "rho_star")

_DEFAULTS = {
    "mass": 1.0,
    "hbar": 1.0,
    "time.dt": 1e-3,
    "stencil.order": 4,
    "tol.residual": 1e-5,
    "tol.invariant": 1e-8,
}
_REQUIRED = ("weight.kind", "c", "grid.min", "grid.max", "grid.n", "time.final")
_KNOWN = set(_DEFAULTS) | set(_REQUIRED) | {"weight.a", "weight.kappa"}


class ConfigError(ValueError):
    """Bad run configuration text."""


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _integer(s: str) -> int:
    """An integer-valued config entry; "25" and "25.0" pass, "17.9" does not."""
    v = float(s)
    if not v.is_integer():
        raise ValueError(f"not an integer: {s!r}")
    return int(v)


def parse_config(text: str) -> SimConfig:
    """Parse flat key-value configuration text into a validated SimConfig."""
    kv = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KNOWN:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in kv:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        kv[key] = (val, lineno)

    for key in _REQUIRED:
        if key not in kv:
            raise ConfigError(f"missing required key {key!r}")

    def take(key, conv=float):
        if key in kv:
            val, lineno = kv.pop(key)
            try:
                return conv(val)
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad value for {key!r}: {val!r}") from exc
        return _DEFAULTS[key]

    kind_raw, kind_line = kv.pop("weight.kind")
    kind = kind_raw.lower()
    if kind == "gaussian":
        if "weight.a" not in kv:
            raise ConfigError("weight.kind gaussian requires weight.a")
        weight = gaussian_weight(take("weight.a"))
    elif kind == "exponential":
        if "weight.kappa" not in kv:
            raise ConfigError("weight.kind exponential requires weight.kappa")
        weight = exponential_weight(take("weight.kappa"))
    elif kind == "uniform":
        weight = uniform_weight()
    else:
        raise ConfigError(f"line {kind_line}: unknown weight.kind {kind_raw!r}")
    for stray in ("weight.a", "weight.kappa"):
        if stray in kv:
            raise ConfigError(f"key {stray!r} does not apply to weight.kind {kind!r}")

    try:
        grid = make_grid(take("grid.min"), take("grid.max"), take("grid.n", conv=_integer))
        cfg = SimConfig(
            mass=take("mass"),
            hbar=take("hbar"),
            c=take("c"),
            weight=weight,
            grid=grid,
            t_final=take("time.final"),
            dt=take("time.dt"),
            stencil_order=take("stencil.order", conv=_integer),
            residual_tol=take("tol.residual"),
            invariant_tol=take("tol.invariant"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def config_to_text(cfg: SimConfig) -> str:
    """Flat key-value echo of a SimConfig; parse_config inverts it exactly."""
    lines = [
        f"mass = {_fmt(cfg.mass)}",
        f"hbar = {_fmt(cfg.hbar)}",
        f"c = {_fmt(cfg.c)}",
        f"weight.kind = {cfg.weight.kind}",
    ]
    if cfg.weight.kind == "gaussian":
        lines.append(f"weight.a = {_fmt(cfg.weight.params[0])}")
    elif cfg.weight.kind == "exponential":
        lines.append(f"weight.kappa = {_fmt(cfg.weight.params[0])}")
    lines += [
        f"grid.min = {_fmt(cfg.grid.c_min)}",
        f"grid.max = {_fmt(cfg.grid.c_max)}",
        f"grid.n = {cfg.grid.n_points}",
        f"time.final = {_fmt(cfg.t_final)}",
        f"time.dt = {_fmt(cfg.dt)}",
        f"stencil.order = {cfg.stencil_order}",
        f"tol.residual = {_fmt(cfg.residual_tol)}",
        f"tol.invariant = {_fmt(cfg.invariant_tol)}",
    ]
    return "\n".join(lines) + "\n"


def write_table(fname: str, header, columns) -> None:
    """Tab-separated table: the header row, then row i holds element i of
    every (equal-length) column, each value to 17 significant digits."""
    cells = [map(_fmt, np.asarray(col, dtype=float).tolist()) for col in columns]
    try:
        with open(fname, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\t".join(header) + "\n")
            fh.writelines("\t".join(row) + "\n" for row in zip(*cells))
    except OSError as exc:
        raise OSError(f"cannot write table {fname}: {exc}") from exc


def _snapshot_filename(T: float) -> str:
    return f"snap_T{format(float(T), '.10g')}.tsv"


def write_snapshots(
    series: SnapshotSeries,
    path: str,
    code_version: str = "",
    start_time: str = "",
    end_time: str = "",
    report: Optional[InvariantReport] = None,
    cadence: Optional[float] = None,
) -> List[str]:
    """One TSV table per snapshot plus manifest.tsv; returns written paths."""
    cfg = series.config
    os.makedirs(path, exist_ok=True)
    nodes = cfg.grid.nodes
    written = []
    names = []
    for s in series:
        df = derived_fields(s.state, s.geometry, cfg.weight, cfg.grid)
        name = _snapshot_filename(s.tau_ensemble)
        fname = os.path.join(path, name)
        write_table(fname, SNAPSHOT_COLUMNS, (  # in SNAPSHOT_COLUMNS order
            np.full(cfg.grid.n_points, s.tau_ensemble), nodes,
            s.state.t, s.state.x, s.state.u0, s.state.u1,
            s.geometry.gamma, s.quantum.Q, s.quantum.tau_T, df.beta, df.rho_star,
        ))
        written.append(fname)
        names.append(name)

    manifest = os.path.join(path, "manifest.tsv")
    with open(manifest, "w", encoding="utf-8", newline="\n") as fh:
        for line in config_to_text(cfg).splitlines():
            key, _, val = line.partition(" = ")
            fh.write(f"config.{key}\t{val}\n")
        fh.write(f"run.code_version\t{code_version}\n")
        fh.write(f"run.start_time\t{start_time}\n")
        fh.write(f"run.end_time\t{end_time}\n")
        if cadence is not None:
            fh.write(f"run.cadence\t{_fmt(cadence)}\n")
        for i, (name, s) in enumerate(zip(names, series)):
            fh.write(f"snapshot.{i}\t{name}\t{_fmt(s.tau_ensemble)}\n")
        if report is not None:
            for r in report.records:
                fh.write(
                    f"invariant.{r.name}\t{_fmt(r.max_abs_violation)}\t"
                    f"{'pass' if r.passed else 'FAIL'}\n"
                )
    written.append(manifest)
    return written


def read_snapshots(path: str) -> SnapshotSeries:
    """Rebuild a SnapshotSeries from a snapshot directory.

    Stored t, x, u0, u1, Q round-trip bitwise; geometry derivatives, forces
    and the g01 residual are recomputed from them with the same stencils the
    run used, so verification never trusts integrator internals.  A table
    whose header, C or T column differs from SNAPSHOT_COLUMNS, the manifest's
    grid nodes or its manifest T is rejected with ValueError, as is a manifest
    line with the wrong number of fields or a bad snapshot index or T.
    """
    manifest = os.path.join(path, "manifest.tsv")
    if not os.path.exists(manifest):
        raise FileNotFoundError(f"no manifest.tsv in {path}")
    config_lines = []
    snap_files: List[Tuple[int, str, float]] = []
    with open(manifest, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            key, *values = raw.rstrip("\n").split("\t")
            try:
                if key.startswith("config."):
                    (value,) = values
                    config_lines.append(f"{key[len('config.'):]} = {value}")
                elif key.startswith("snapshot."):
                    name, T = values
                    snap_files.append((int(key[len("snapshot."):]), name, float(T)))
            except ValueError as exc:  # wrong field count, bad index or T
                raise ValueError(
                    f"{manifest}: line {lineno}: malformed entry {raw.rstrip()!r}") from exc
    cfg = parse_config("\n".join(config_lines))
    snap_files.sort()
    snapshots = []
    for _, name, T in snap_files:
        fname = os.path.join(path, name)
        with open(fname, "r", encoding="utf-8") as fh:
            if tuple(fh.readline().rstrip("\n").split("\t")) != SNAPSHOT_COLUMNS:
                raise ValueError(f"{fname}: header row is not {' '.join(SNAPSHOT_COLUMNS)}")
            try:
                # rows in SNAPSHOT_COLUMNS order, each contiguous like the solver's arrays
                Ts, C, t, x, u0, u1, _, Q, _, _, _ = np.ascontiguousarray(
                    np.loadtxt(fh, delimiter="\t", ndmin=2).T)
            except ValueError as exc:  # a row or every row of the wrong length
                raise ValueError(f"{fname}: {exc}") from exc
        if not np.array_equal(C, cfg.grid.nodes):
            raise ValueError(f"{fname}: column C is not the manifest's grid nodes")
        if not (Ts == T).all():
            raise ValueError(f"{fname}: column T is not the manifest's T = {_fmt(T)}")
        snapshots.append(make_snapshot(EnsembleState(T, t, x, u0, u1), cfg, Q=Q))
    return SnapshotSeries(config=cfg, snapshots=snapshots)


def write_report(report: InvariantReport, path: str) -> None:
    """Verification report: one row per invariant."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("name\tmax_violation\tT_at_max\tC_at_max\ttolerance\tpass\n")
        for r in report.records:
            fh.write(
                f"{r.name}\t{_fmt(r.max_abs_violation)}\t{_fmt(r.T_at_max)}\t"
                f"{_fmt(r.C_at_max)}\t{_fmt(r.tolerance)}\t"
                f"{'pass' if r.passed else 'FAIL'}\n"
            )
