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


# A float cell: 17 significant digits, enough to round-trip float64 exactly.
_CELL = "%.17g"


def _fmt(v: float) -> str:
    return _CELL % float(v)


def format_cells(values) -> List[str]:
    """The 17-digit cells of a float array of any shape, read flat, from one
    string-formatting operation."""
    flat = np.asarray(values, dtype=float).ravel().tolist()
    return ((_CELL + "\n") * len(flat) % tuple(flat)).splitlines()


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


def write_table(fname: str, rows) -> None:
    """Tab-separated lines, one per row of cell strings, streamed to the
    file from any iterable: the one function that opens an output file.  A
    header-plus-columns table is the header followed by zip(*columns), its
    columns the equal-length cell sequences format_cells gives."""
    try:
        with open(fname, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines("\t".join(row) + "\n" for row in rows)
    except OSError as exc:
        raise OSError(f"cannot write table {fname}: {exc}") from exc


def _snapshot_filename(T: float) -> str:
    return f"snap_T{format(float(T), '.10g')}.tsv"


def write_snapshots(
    series: SnapshotSeries,
    path: str,
    report: Optional[InvariantReport] = None,
    **run,
) -> List[str]:
    """One TSV table per snapshot, manifest.tsv and, given a report,
    write_report's report.tsv; returns the written paths.  Each keyword in
    run (the CLI's code_version, start_time and end_time, then simulate's
    cadence or analytic's kind and parameter) becomes a run.<key> line of
    the manifest, in call order; a float value is one 17-digit cell.
    Snapshot times that do not strictly increase, or two snapshots whose T
    give one file name (10 significant digits), are a ValueError, raised
    before any file is written."""
    cfg, times = series.config, series.times
    for T0, T1 in zip(times, times[1:]):
        if not T1 > T0:
            raise ValueError(f"snapshot times must strictly increase: T = {_fmt(T0)} "
                             f"is followed by T = {_fmt(T1)}")
    names = {}  # file name -> T, one entry per snapshot
    for s in series:
        name = _snapshot_filename(s.tau_ensemble)
        if name in names:
            raise ValueError(f"snapshots at T = {_fmt(names[name])} and T = "
                             f"{_fmt(s.tau_ensemble)} would share the file {name}")
        names[name] = s.tau_ensemble
    os.makedirs(path, exist_ok=True)
    n = cfg.grid.n_points
    C = format_cells(cfg.grid.nodes)
    T_cells = format_cells(times)  # the tables' T and the manifest's
    written = []
    for name, T, s in zip(names, T_cells, series):
        # t, x, u0, u1, gamma, Q, tau_T, beta, rho_star, n cells each
        cells = format_cells((*s.state.y, s.geometry.gamma, s.quantum.Q, s.quantum.tau_T,
                              *derived_fields(s.state, s.geometry, cfg)))
        columns = ([T] * n, C, *(cells[k:k + n] for k in range(0, len(cells), n)))
        written.append(os.path.join(path, name))
        write_table(written[-1], [SNAPSHOT_COLUMNS, *zip(*columns, strict=True)])

    rows = [(f"config.{key}", val) for key, _, val in
            (line.partition(" = ") for line in config_to_text(cfg).splitlines())]
    rows += [(f"run.{key}", val if isinstance(val, str) else _fmt(val))
             for key, val in run.items()]
    rows += [(f"snapshot.{i}", name, T) for i, (name, T) in enumerate(zip(names, T_cells))]
    written.append(os.path.join(path, "manifest.tsv"))
    write_table(written[-1], rows)
    if report is not None:
        written.append(os.path.join(path, "report.tsv"))
        write_report(report, written[-1])
    return written


def read_snapshots(path: str) -> SnapshotSeries:
    """Rebuild a SnapshotSeries from a snapshot directory.

    Stored t, x, u0, u1, Q round-trip bitwise; geometry derivatives, forces
    and the g01 residual are recomputed from them with the same stencils the
    run used, so verification never trusts integrator internals.  A table
    whose header, C or T column differs from SNAPSHOT_COLUMNS, the manifest's
    grid nodes or its manifest T is rejected with ValueError, as is a table
    with no data rows, a manifest line with the wrong number of fields, a bad
    snapshot index or T, or a snapshot name that is not a plain file name
    inside path; so is a manifest that lists no snapshot, repeats an index
    or whose T do not strictly increase in index order (gaps are legal).
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
    if not snap_files:
        raise ValueError(f"{manifest}: lists no snapshot")
    for (i, _, T0), (j, _, T1) in zip(snap_files, snap_files[1:]):
        if i == j:
            raise ValueError(f"{manifest}: snapshot index {i} is listed twice")
        if not T1 > T0:
            raise ValueError(f"{manifest}: snapshot.{j} has T = {_fmt(T1)}, "
                             f"not after snapshot.{i}'s T = {_fmt(T0)}")
    snapshots = []
    for _, name, T in snap_files:
        fname = os.path.join(path, name)
        with open(fname, "r", encoding="utf-8") as fh:
            if tuple(fh.readline().rstrip("\n").split("\t")) != SNAPSHOT_COLUMNS:
                raise ValueError(f"{fname}: header row is not {' '.join(SNAPSHOT_COLUMNS)}")
            rows = fh.readlines()
            if not any(row.strip() for row in rows):
                raise ValueError(f"{fname}: no data rows")
            try:
                # rows in SNAPSHOT_COLUMNS order, one contiguous array like the solver's
                cols = np.ascontiguousarray(
                    np.loadtxt(rows, delimiter="\t", comments=None, ndmin=2).T)
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
    rows = [(r.name, _fmt(r.max_abs_violation), _fmt(r.T_at_max), _fmt(r.C_at_max),
             _fmt(r.tolerance), r.verdict) for r in report.records]
    write_table(path, [("name", "max_violation", "T_at_max", "C_at_max", "tolerance", "pass"),
                       *rows])
