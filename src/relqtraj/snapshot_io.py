"""Config parsing and snapshot/report serialization.

Config files are flat "key = value" text, every key stated once in _KEYS and
_WEIGHTS.  Snapshot series are written as one tab-separated table per slice
(17 significant digits, enough to round-trip float64 exactly) plus a manifest
that echoes every input needed to reproduce the run bitwise.
"""

from __future__ import annotations

import os
from operator import attrgetter
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


# Every config key: the SimConfig attribute it sets and the converter of its
# text, in the order config_to_text writes them.  A key the text leaves out
# takes the SimConfig default.
_KEYS = {
    "mass": ("mass", float),
    "hbar": ("hbar", float),
    "c": ("c", float),
    "weight.kind": ("weight.kind", str.lower),
    "weight.a": ("weight.params", float),  # the weight's one parameter
    "weight.kappa": ("weight.params", float),
    "grid.min": ("grid.c_min", float),
    "grid.max": ("grid.c_max", float),
    "grid.n": ("grid.n_points", _integer),
    "time.final": ("t_final", float),
    "time.dt": ("dt", float),
    "stencil.order": ("stencil_order", _integer),
    "tol.residual": ("residual_tol", float),
    "tol.invariant": ("invariant_tol", float),
}
# weight.kind -> (factory, the key of its parameter or None)
_WEIGHTS = {
    "gaussian": (gaussian_weight, "weight.a"),
    "exponential": (exponential_weight, "weight.kappa"),
    "uniform": (uniform_weight, None),
}
_REQUIRED = ("weight.kind", "c", "grid.min", "grid.max", "grid.n", "time.final")


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
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in kv:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        kv[key] = (val, lineno)

    for key in _REQUIRED:
        if key not in kv:
            raise ConfigError(f"missing required key {key!r}")

    fields = {"": {}, "grid": {}, "weight": {}}  # by owner: SimConfig, grid, weight
    for key, (val, lineno) in kv.items():
        attr, conv = _KEYS[key]
        owner, _, name = attr.rpartition(".")
        try:
            fields[owner][name] = conv(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {val!r}") from exc

    kind = fields["weight"].pop("kind")
    if kind not in _WEIGHTS:
        val, lineno = kv["weight.kind"]
        raise ConfigError(f"line {lineno}: unknown weight.kind {val!r}")
    factory, param = _WEIGHTS[kind]
    if param is not None and param not in kv:
        raise ConfigError(f"weight.kind {kind} requires {param}")
    for _, other in _WEIGHTS.values():
        if other in kv and other != param:
            raise ConfigError(f"key {other!r} does not apply to weight.kind {kind!r}")
    try:  # fields["weight"] now holds only the kind's parameter, if it has one
        return SimConfig(weight=factory(*fields["weight"].values()),
                         grid=make_grid(**fields["grid"]), **fields[""])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def config_to_text(cfg: SimConfig) -> str:
    """Flat key-value echo of a SimConfig; parse_config inverts it exactly.
    Every key is written but the parameter keys of the other weight kinds."""
    others = {p for kind, (_, p) in _WEIGHTS.items() if kind != cfg.weight.kind}
    lines = []
    for key, (attr, _) in _KEYS.items():
        if key not in others:
            value = attrgetter(attr)(cfg)
            if isinstance(value, tuple):  # a weight's one parameter
                (value,) = value
            lines.append(f"{key} = {value if isinstance(value, (str, int)) else _fmt(value)}")
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
    """One TSV table per snapshot plus manifest.tsv; returns written paths.
    Two snapshots whose T give one file name (10 significant digits) are a
    ValueError, raised before any file is written."""
    cfg = series.config
    names = {}  # file name -> T, one entry per snapshot
    for s in series:
        name = _snapshot_filename(s.tau_ensemble)
        if name in names:
            raise ValueError(f"snapshots at T = {_fmt(names[name])} and T = "
                             f"{_fmt(s.tau_ensemble)} would share the file {name}")
        names[name] = s.tau_ensemble
    os.makedirs(path, exist_ok=True)
    nodes = cfg.grid.nodes
    written = []
    for name, s in zip(names, series):
        df = derived_fields(s.state, s.geometry, cfg.weight, cfg.grid)
        fname = os.path.join(path, name)
        write_table(fname, SNAPSHOT_COLUMNS, (  # in SNAPSHOT_COLUMNS order
            np.full(cfg.grid.n_points, s.tau_ensemble), nodes,
            *s.state.y,  # t, x, u0, u1
            s.geometry.gamma, s.quantum.Q, s.quantum.tau_T, df.beta, df.rho_star,
        ))
        written.append(fname)

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
    line with the wrong number of fields, a bad snapshot index or T, or a
    snapshot name that is not a plain file name inside path.
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
                    if name in ("", os.curdir, os.pardir) or os.path.basename(name) != name:
                        raise ValueError(f"not a file name in {path}: {name!r}")
                    snap_files.append((int(key[len("snapshot."):]), name, float(T)))
            except ValueError as exc:  # wrong field count, bad index, name or T
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
                # rows in SNAPSHOT_COLUMNS order, one contiguous array like the solver's
                cols = np.ascontiguousarray(np.loadtxt(fh, delimiter="\t", ndmin=2).T)
                Ts, C, _, _, _, _, _, Q, _, _, _ = cols
            except ValueError as exc:  # a row or every row of the wrong length
                raise ValueError(f"{fname}: {exc}") from exc
        if not np.array_equal(C, cfg.grid.nodes):
            raise ValueError(f"{fname}: column C is not the manifest's grid nodes")
        if not (Ts == T).all():
            raise ValueError(f"{fname}: column T is not the manifest's T = {_fmt(T)}")
        snapshots.append(make_snapshot(EnsembleState(T, cols[2:6]), cfg, Q=Q))  # t, x, u0, u1
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
