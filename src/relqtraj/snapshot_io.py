"""Config parsing and snapshot/report serialization.

Config files are flat "key = value" text, every key stated once in _KEYS and
_WEIGHTS, and load_config reads one from disk.  A series is written as one
tab-separated table of the columns read_snapshots reads, N rows per slice (17
significant digits, exact for float64), plus manifest.txt: the config file
that reruns it bitwise, with the run's facts as comments.
"""

from __future__ import annotations

import os
from operator import attrgetter
from typing import List, Optional

import numpy as np

from .diagnostics import InvariantReport
from .dynamics import SnapshotSeries, record_series
from .state import (
    SimConfig,
    StateValidationError,
    exponential_weight,
    gaussian_weight,
    integer,
    make_grid,
    no_density_weight,
    uniform_weight,
)

SNAPSHOT_COLUMNS = ("T", "C", "t", "x", "u0", "u1", "Q")


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
    "grid.n": ("grid.n_points", integer),
    "time.final": ("t_final", float),
    "time.dt": ("dt", float),
    "stencil.order": ("stencil_order", integer),
    "tol.residual": ("residual_tol", float),
    "tol.invariant": ("invariant_tol", float),
}
# weight.kind -> (factory, the key of its parameter or None)
_WEIGHTS = {
    "gaussian": (gaussian_weight, "weight.a"),
    "exponential": (exponential_weight, "weight.kappa"),
    "uniform": (uniform_weight, None),
    "none": (no_density_weight, None),  # no closed-form density (analytic's hyperbolic-gamma-one)
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


def load_config(path: str) -> SimConfig:
    """parse_config of the config file at path, the one reader of a config on
    disk; a ConfigError or non-UTF-8 text is a ConfigError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_config(fh.read())
        except (ConfigError, UnicodeDecodeError) as exc:  # a ConfigError's line N is the file's
            raise ConfigError(f"{path}: {exc}") from exc


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


def write_table(fname: str, text) -> None:
    """Write text, an iterable of strings, to the file in order: the one
    function that opens an output file, so every output shares one newline
    rule, one encoding and one error."""
    try:
        with open(fname, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(text)
    except OSError as exc:
        raise OSError(f"cannot write table {fname}: {exc}") from exc


def write_series(fname: str, header, outer, inner, *fields) -> None:
    """A series table: the header, then one row per (outer[k], inner[j]) pair
    of the (len(outer), len(inner)) fields, outer-major: the outer cell, the
    inner cell, then each field's cell, all 17-digit cells.  The rows of one
    outer value are one string-formatting operation, through a row template
    built once per table that holds the inner cells; rows are streamed."""
    template = "".join(f"%s\t{cell}" + f"\t{_CELL}" * len(fields) + "\n"
                       for cell in format_cells(inner))
    row = np.empty((len(inner), 1 + len(fields)), dtype=object)  # outer cell, Python floats

    def text():
        yield "\t".join(header) + "\n"
        for cell, values in zip(format_cells(outer), np.stack(fields, axis=-1), strict=True):
            row[:, 0], row[:, 1:] = cell, values
            yield template % tuple(row.ravel().tolist())

    write_table(fname, text())


def write_snapshots(
    series: SnapshotSeries,
    path: str,
    report: Optional[InvariantReport] = None,
    **run,
) -> List[str]:
    """The series as one TSV table, snapshots.tsv: N rows per snapshot, in T
    order, under one SNAPSHOT_COLUMNS header; the fields read_snapshots
    recomputes (bitwise) are not written.  Then manifest.txt and, given a
    report, write_report's report.tsv; returns the written paths.  The table
    is one write_series call, T outer and C inner.  The manifest is
    config_to_text, then each keyword in run (the CLI's code_version,
    start_time and end_time, then simulate's cadence, n_steps, stride and
    final_T or analytic's kind and parameter) as a "# run.<key> = <value>"
    comment, in call order; a float value is one 17-digit cell.  An empty
    series is a ValueError, raised before any file is written."""
    cfg, times = series.config, series.times
    if not times.size:
        raise ValueError("a snapshot series to write needs at least one snapshot")
    os.makedirs(path, exist_ok=True)
    written = [os.path.join(path, "snapshots.tsv"), os.path.join(path, "manifest.txt")]
    write_series(written[0], SNAPSHOT_COLUMNS, times, cfg.grid.nodes,
                 *series.y.transpose(1, 0, 2), series.Q)
    notes = [f"# run.{key} = {val if isinstance(val, str) else _fmt(val)}\n"
             for key, val in run.items()]
    write_table(written[1], [config_to_text(cfg), *notes])
    if report is not None:
        written.append(os.path.join(path, "report.tsv"))
        write_report(report, written[-1])
    return written


def _data_rows(fh):
    """The rows of fh from its position that np.loadtxt reads: every line but
    an empty one, which it skips (a line of only whitespace is a bad row)."""
    return (row for row in iter(fh.readline, "") if row != "\n")


def _bad_row(fh, width: int) -> Optional[str]:
    """What is wrong with the first row of fh, read from its position, that
    is not width numbers: its count of values or a cell; None if none is.
    Rows are counted as data rows (_data_rows), the first being 1."""
    for k, row in enumerate(_data_rows(fh), start=1):
        cells = row.rstrip("\n").split("\t")
        if len(cells) != width:
            return f"data row {k} holds {len(cells)} values, not {width}"
        for j, (column, cell) in enumerate(zip(SNAPSHOT_COLUMNS, cells)):
            try:  # by np.loadtxt's own rules: float() also takes a cell such as 1_0
                np.loadtxt([row], delimiter="\t", comments=None, usecols=j)
            except ValueError:
                return f"data row {k} holds {cell!r} in column {column}, not a number"
    return None


def read_snapshots(path: str) -> SnapshotSeries:
    """Rebuild a SnapshotSeries from a snapshot directory: the config from
    its manifest.txt (by load_config), the snapshots from its snapshots.tsv.

    Stored t, x, u0, u1, Q round-trip bitwise; gamma, tau_T, the force and
    g01 are recomputed from them, bitwise the written series' fields, with
    the run's stencils in one record_series pass over the (K, 4, N) stack,
    so verification never trusts integrator internals.  A missing
    manifest.txt or snapshots.tsv is a FileNotFoundError, a bad manifest
    load_config's ConfigError, and a ValueError a table whose header is not
    SNAPSHOT_COLUMNS, that has no data rows, a row that does not hold one
    number per column (named by its data row), a row count that is not a
    whole number of N-row slices, a T column that is not constant within a
    slice (all NaN is constant: the series rules name it), a C column that is
    not the manifest grid's nodes, or a slice that fails the series time
    rules, check_state or the spacelike guard, in that order (named by the
    error's index and its data rows)."""
    for name in ("manifest.txt", "snapshots.tsv"):
        if not os.path.exists(os.path.join(path, name)):
            raise FileNotFoundError(f"no {name} in {path}")
    cfg = load_config(os.path.join(path, "manifest.txt"))
    fname = os.path.join(path, "snapshots.tsv")
    n, width = cfg.grid.n_points, len(SNAPSHOT_COLUMNS)
    with open(fname, "r", encoding="utf-8") as fh:
        if tuple(fh.readline().rstrip("\n").split("\t")) != SNAPSHOT_COLUMNS:
            raise ValueError(f"{fname}: header row is not {' '.join(SNAPSHOT_COLUMNS)}")
        start = fh.tell()
        if next(_data_rows(fh), None) is None:  # loadtxt warns on no data
            raise ValueError(f"{fname}: no data rows")
        fh.seek(start)
        try:
            table = np.loadtxt(fh, delimiter="\t", comments=None, ndmin=2)
        except ValueError as exc:  # a row of another length than the first, or a bad cell
            fh.seek(start)
            raise ValueError(f"{fname}: {_bad_row(fh, width) or exc}") from exc
    rows, cols = table.shape
    if cols != width:
        raise ValueError(f"{fname}: rows hold {cols} values, not {width}")
    if rows % n:
        raise ValueError(f"{fname}: {rows} data rows are not a whole number of {n}-row slices")
    # (K, 7, N): each slice's state rows t, x, u0, u1 and its Q row are contiguous
    slices = np.ascontiguousarray(table.reshape(-1, n, width).transpose(0, 2, 1))
    Ts = slices[:, 0]
    mixed = np.flatnonzero(((Ts != Ts[:, :1]) & ~(np.isnan(Ts) & np.isnan(Ts[:, :1]))).any(1))
    if mixed.size:
        k = mixed[0]
        raise ValueError(f"{fname}: column T is not constant in slice {k} "
                         f"(data rows {k * n + 1} to {(k + 1) * n})")
    if not (slices[:, 1] == cfg.grid.nodes).all():
        raise ValueError(f"{fname}: column C is not the manifest's grid nodes")
    try:  # the states t, x, u0, u1
        return record_series(cfg, Ts[:, 0], slices[:, 2:6], Q=slices[:, 6])
    except StateValidationError as exc:  # every fault here has an index: its slice
        k = exc.index
        raise StateValidationError(f"{fname}: slice {k} (data rows {k * n + 1} to "
                                   f"{(k + 1) * n}): {exc}") from exc


def write_report(report: InvariantReport, path: str) -> None:
    """Verification report: one row per invariant."""
    rows = [("name", "max_violation", "T_at_max", "C_at_max", "tolerance", "pass"),
            *((r.name, _fmt(r.max_abs_violation), _fmt(r.T_at_max), _fmt(r.C_at_max),
               _fmt(r.tolerance), r.verdict) for r in report.records)]
    write_table(path, ["\t".join(row) + "\n" for row in rows])
