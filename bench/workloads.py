"""The three benchmark workloads and their correctness gates.

Each workload is a class.  Constructing it is the set-up (config parse, plan
build and, for fine_io, building the snapshot series); ``run(scratch)`` does
one timed repeat and returns an ``Outcome``.  Every call into the package goes
through a module attribute (``rq.integrate``, ``cli.main``), so the tracer's
wrappers see it.  No relqtraj function is called outside a repeat's timed
window, which keeps traced self times and the repeat's wall time comparable.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np

import relqtraj as rq
from relqtraj import cli

HEADLINE_CONFIG = os.path.join("configs", "gaussian_c3.txt")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference", "headline.json")

# Final state of the headline run must match the recorded one to within
# STATE_TOL * (1 + |reference|) per value; today it matches bitwise.
STATE_TOL = 1e-8
# An invariant is "no worse" when it is at most reference + INVARIANT_SLACK * |reference|.
INVARIANT_SLACK = 1e-6


@dataclass
class Outcome:
    """One timed repeat: operations attempted, failures, time samples, counts.

    ``times`` maps a metric to its samples: one per operation, so a sweep
    repeat gives one sample per row.  ``windows`` holds each timed stage's
    (stage, start, end) on the ``time.perf_counter`` clock; the stages are
    the keys of the workload's ``pacers``.
    """

    ops: int = 0
    failures: list = field(default_factory=list)
    times: dict = field(default_factory=dict)
    windows: list = field(default_factory=list)
    snapshots: int = 0          # Snapshot objects produced by relqtraj calls
    bytes_written: int = 0
    snaps_written: int = 0
    bytes_read: int = 0
    snaps_read: int = 0
    notes: list = field(default_factory=list)

    @property
    def failed(self):
        """Failed operations; each failure message names one operation."""
        return min(self.ops, len(self.failures))

    @property
    def wall(self):
        return sum(self.times.get("wall_s", ()))


def _read(root, rel):
    with open(os.path.join(root, rel), "r", encoding="utf-8") as fh:
        return fh.read()


def _with_values(text, values):
    """Config text with the given keys' values replaced (floats as repr)."""
    out = []
    for line in text.splitlines():
        key = line.split("#", 1)[0].partition("=")[0].strip()
        if key in values:
            line = f"{key} = {values[key]!r}"
        out.append(line)
    return "\n".join(out) + "\n"


def _sizes(paths):
    return sum(os.path.getsize(p) for p in paths)


def _state_arrays(snap):
    return {"t": snap.state.t, "x": snap.state.x, "u0": snap.state.u0, "u1": snap.state.u1}


def _known_failures(report):
    return [f"known failure reported by the program: {r.name} = {r.max_abs_violation:.3e} "
            f"(tol {r.tolerance:.1e}) at T={r.T_at_max:g}"
            for r in report.records if not r.passed]


class Headline:
    """The paper's run: configs/gaussian_c3.txt at cadence 1, the simulate path."""

    name = "headline"
    setup_repeats = 7
    # Per timed stage, the loops wall_s times per period: (module, function, calls per period).
    pacers = {"simulate": (("dynamics", "rk4_step", 1),)}
    cadence = 1.0

    def __init__(self, root, seed):
        self.cfg = rq.parse_config(_read(root, HEADLINE_CONFIG))
        # Set-up is import, parse and plan build for every workload; the
        # solvers build their own plan again inside the timed part.
        rq.build_plan(self.cfg.grid, self.cfg.stencil_order)
        self.n_steps = int(round(self.cfg.t_final / self.cfg.dt))
        self.n_points = self.cfg.grid.n_points
        with open(REFERENCE, "r", encoding="utf-8") as fh:
            self.ref = json.load(fh)

    def run(self, scratch):
        out = os.path.join(scratch, "simulate")
        o = Outcome(ops=1)
        t0 = time.perf_counter()
        try:
            series = rq.integrate(self.cfg, cadence=self.cadence)
        except rq.IntegrationError as exc:
            o.failures.append(f"IntegrationError: {exc}")
            return o
        t1 = time.perf_counter()
        report = rq.evaluate_invariants(series)
        written = rq.write_snapshots(series, out, code_version=rq.__version__,
                                     report=report, cadence=self.cadence)
        t2 = time.perf_counter()
        o.times = {"wall_s": [t2 - t0], "step_us": [(t1 - t0) / self.n_steps * 1e6]}
        o.windows = [("simulate", t0, t2)]
        o.snapshots = len(series)
        o.snaps_written, o.bytes_written = len(series), _sizes(written)
        o.failures += self.check(series, report)
        o.notes += _known_failures(report)
        return o

    def check(self, series, report):
        bad = []
        final = series.snapshots[-1]
        if final.tau_ensemble != self.ref["final_T"]:
            bad.append(f"final T {final.tau_ensemble!r} != reference {self.ref['final_T']!r}")
        for key, got in _state_arrays(final).items():
            want = np.asarray(self.ref["final_state"][key])
            err = float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))
            if not err <= STATE_TOL:
                bad.append(f"final {key} off the reference by {err:.3e} (tol {STATE_TOL:g})")
        got = {r.name: r.max_abs_violation for r in report.records}
        if set(got) != set(self.ref["invariants"]):
            bad.append(f"invariant set {sorted(got)} != reference {sorted(self.ref['invariants'])}")
        for name, want in self.ref["invariants"].items():
            if name in got and not got[name] <= want + INVARIANT_SLACK * abs(want):
                bad.append(f"invariant {name} = {got[name]:.6e} is worse than the reference {want:.6e}")
        return bad


class FineIO:
    """The headline config up to T = 1 at cadence 0.01 (101 snapshots): write, read, verify, figures."""

    name = "fine_io"
    setup_repeats = 7
    # A short horizon keeps the series build in set-up at 10^3 steps, so
    # several set-ups fit in a run; the snapshot count and size set the I/O.
    horizon = 1.0
    cadence = 0.01
    # write_snapshots calls derived_fields and read_snapshots builds one
    # EnsembleState per snapshot; `figures` reads the series again first.
    pacers = {"write": (("diagnostics", "derived_fields", 1),),
              "read": (("state", "EnsembleState", 1),),
              "verify": (),
              "figures": (("state", "EnsembleState", 1),)}

    def __init__(self, root, seed):
        cfg = rq.parse_config(_with_values(_read(root, HEADLINE_CONFIG),
                                           {"time.final": self.horizon}))
        rq.build_plan(cfg.grid, cfg.stencil_order)
        self.n_points = cfg.grid.n_points
        self.series = rq.integrate(cfg, cadence=self.cadence)
        self.report = rq.evaluate_invariants(self.series)

    def run(self, scratch):
        snaps = os.path.join(scratch, "snapshots")
        figs = os.path.join(scratch, "figures")
        report_path = os.path.join(snaps, "report.tsv")
        o = Outcome(ops=1)
        t0 = time.perf_counter()
        written = rq.write_snapshots(self.series, snaps, code_version=rq.__version__,
                                     report=self.report, cadence=self.cadence)
        t1 = time.perf_counter()
        back = rq.read_snapshots(snaps)
        t2 = time.perf_counter()
        report = rq.evaluate_invariants(back)
        rq.write_report(report, report_path)
        t3 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["figures", "--snapshots", snaps, "--out", figs])
        t4 = time.perf_counter()
        o.times = {"wall_s": [t4 - t0], "write_s": [t1 - t0], "read_s": [t2 - t1],
                   "verify_s": [t3 - t2], "figures_s": [t4 - t3]}
        o.windows = [("write", t0, t1), ("read", t1, t2), ("verify", t2, t3), ("figures", t3, t4)]
        n = len(self.series)
        o.snapshots = 2 * n   # read_snapshots here and inside `figures`
        o.snaps_written, o.bytes_written = n, _sizes(written)
        o.snaps_read, o.bytes_read = 2 * n, 2 * _sizes(written)
        if code != 0:
            o.failures.append(f"figures exited with {code}")
        o.failures += self.check(back, report_path, figs)
        o.notes += _known_failures(self.report)
        return o

    def check(self, back, report_path, figs):
        bad = []
        if len(back) != len(self.series):
            return [f"read back {len(back)} snapshots, wrote {len(self.series)}"]
        for mine, theirs in zip(self.series, back):
            if mine.tau_ensemble != theirs.tau_ensemble:
                bad.append(f"snapshot T {theirs.tau_ensemble!r} != {mine.tau_ensemble!r}")
                break
            mine_arrays = dict(_state_arrays(mine), Q=mine.quantum.Q)
            theirs_arrays = dict(_state_arrays(theirs), Q=theirs.quantum.Q)
            diff = [k for k in mine_arrays if not np.array_equal(mine_arrays[k], theirs_arrays[k])]
            if diff:
                bad.append(f"snapshot T={mine.tau_ensemble:g}: {diff} do not round-trip bitwise")
                break
        with open(report_path, "r", encoding="utf-8") as fh:
            rows = [line.rstrip("\n").split("\t") for line in fh][1:]
        if len(rows) != len(self.report.records):
            bad.append(f"report on disk has {len(rows)} records, in memory {len(self.report.records)}")
        for row, rec in zip(rows, self.report.records):
            want = [rec.name, rec.max_abs_violation, rec.T_at_max, rec.C_at_max, rec.tolerance,
                    "pass" if rec.passed else "FAIL"]
            got = [row[0]] + [float(v) for v in row[1:5]] + [row[5]]
            if got != want:
                bad.append(f"report record {rec.name}: disk {got} != memory {want}")
        n_rows = len(self.series) * self.n_points + 1
        for fname in ("fig_trajectories.tsv", "fig_simultaneity.tsv", "fig_gamma.tsv", "fig_q.tsv"):
            with open(os.path.join(figs, fname), "rb") as fh:
                lines = sum(1 for _ in fh)
            if lines != n_rows:
                bad.append(f"{fname} has {lines} lines, want {n_rows}")
        return bad


class Sweep:
    """compare-limits rows over c drawn log-uniformly from [3, 100] by the seed."""

    name = "sweep"
    setup_repeats = 7
    rows = 6
    c_range = (3.0, 100.0)
    horizon = 1.0
    cadence = 0.1
    pacers = {"row": (("dynamics", "rk4_step", 1), ("nonrel", "nonrel_rhs", 4))}

    def __init__(self, root, seed):
        text = _read(root, HEADLINE_CONFIG)
        base = rq.parse_config(text)
        rq.build_plan(base.grid, base.stencil_order)
        rng = random.Random(seed)
        lo, hi = (math.log(v) for v in self.c_range)
        self.cs = [math.exp(rng.uniform(lo, hi)) for _ in range(self.rows)]
        self.texts = [_with_values(text, {"c": c, "time.final": self.horizon}) for c in self.cs]
        self.n_steps = int(round(self.horizon / base.dt))
        self.n_points = base.grid.n_points
        self.first = None

    def run(self, scratch):
        o = Outcome(times={"wall_s": [], "rows_per_s": [], "step_us": [], "nonrel_step_us": []})
        results = []
        for c, text in zip(self.cs, self.texts):
            o.ops += 1
            t0 = time.perf_counter()
            try:
                cfg = rq.parse_config(text)
                ta = time.perf_counter()
                series = rq.integrate(cfg, cadence=self.cadence)
                tb = time.perf_counter()
                nonrel = rq.nonrel_integrate(cfg, cadence=self.cadence)
                tc = time.perf_counter()
            except rq.IntegrationError as exc:
                o.failures.append(f"row c={c:.6g}: IntegrationError: {exc}")
                continue
            q_ratio = max(float(np.max(np.abs(s.quantum.Q))) for s in series) / (cfg.mass * c * c)
            x_nonrel = {s.t: s.x for s in nonrel}
            max_dx = max(float(np.max(np.abs(s.state.x - x_nonrel[s.tau_ensemble])))
                         for s in series if s.tau_ensemble in x_nonrel)
            t_end = time.perf_counter()
            row_s = t_end - t0
            o.windows.append(("row", t0, t_end))
            o.times["wall_s"].append(row_s)
            o.times["rows_per_s"].append(1.0 / row_s)
            o.times["step_us"].append((tb - ta) / self.n_steps * 1e6)
            o.times["nonrel_step_us"].append((tc - tb) / self.n_steps * 1e6)
            results.append((c, q_ratio, max_dx))
            o.snapshots += len(series)
        o.failures += self.check(results)
        for c, q, dx in sorted(results):
            o.notes.append(f"row c={c:9.4f}  max|Q|/(m c^2)={q:.6e}  max|dx|={dx:.6e}")
        return o

    def check(self, results):
        bad = []
        by_c = sorted(results)
        for (c1, _, dx1), (c2, _, dx2) in zip(by_c, by_c[1:]):
            if not dx2 < dx1:
                bad.append(f"max|dx| does not fall with c: {dx1:.6e} at c={c1:.6g}, "
                           f"{dx2:.6e} at c={c2:.6g}")
        if self.first is None:
            self.first = results
        elif results != self.first:
            bad.append("sweep rows differ from the first repeat (non-deterministic)")
        return bad


WORKLOADS = {w.name: w for w in (Headline, FineIO, Sweep)}
