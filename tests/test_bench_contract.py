"""The names the benchmark in bench/ reaches into the package by.

The span tracer (bench/spans.py) looks every TARGETS entry up with getattr
on its relqtraj module, the workloads time their stages by pacer functions
named the same way, and the workloads and the reference recorder call the
top-level ``rq.<name>`` API.  A rename or deletion of any of them breaks
``bench/run.py --trace 1`` and ``bench/smoke.py``; these tests fail first.
A pacer is also a rate: wall_s charges each stage's loop at per_op pacer
calls per period (an RK step or a snapshot), so a change in how often the
package calls it would silently mis-charge the loop; the cadence test counts
the calls over a short run of each stage.  A snapshot stage whose series is
one set of arrays makes no per-snapshot loop: its pacer fires at most once,
and bench/run.py's loop_times then charges the whole stage at its fastest
occurrence, as it charges the rest of every stage.  The traced table is also a
per-layer account of the RK stage: each stage layer must fire once per stage
under its own name, so the layer test counts those calls too.  bench/ is only
read here.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import relqtraj as rq
from relqtraj.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"
CONFIGS = BENCH.parent / "configs"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _unresolved(pairs):
    return [f"{mod}.{name}" for mod, name in pairs
            if not callable(getattr(importlib.import_module(f"relqtraj.{mod}"), name, None))]


def test_span_targets_resolve():
    assert _unresolved(_load("spans").TARGETS) == []


def test_pacers_are_traced_and_resolve():
    targets = _load("spans").TARGETS
    pacers = [(mod, name) for wl in _load("workloads").WORKLOADS.values()
              for stage in wl.pacers.values() for mod, name, _per_op in stage]
    assert pacers
    assert [p for p in pacers if p not in targets] == []
    assert _unresolved(pacers) == []


def test_top_level_names_resolve():
    used = set()
    for path in BENCH.glob("*.py"):
        used |= set(re.findall(r"\brq\.(\w+)", path.read_text()))
    assert used
    assert sorted(n for n in used if not hasattr(rq, n)) == []


def _cut_config_text():
    """configs/gaussian_c3.txt cut to 30 steps; at cadence 0.01, 4 snapshots."""
    text = (CONFIGS / "gaussian_c3.txt").read_text()
    assert "time.final = 10" in text
    return text.replace("time.final = 10", "time.final = 0.03")


def test_pacers_fire_per_op_times_per_period(tmp_path):
    # each workload stage's package calls, as bench/workloads.py makes them,
    # on configs/gaussian_c3.txt cut to 30 steps and 4 snapshots
    text = _cut_config_text()
    cfg, cadence = rq.parse_config(text), 0.01
    series = rq.integrate(cfg, cadence=cadence)
    snaps = tmp_path / "snaps"
    rq.write_snapshots(series, str(snaps))
    n_steps, n_snaps = 30, len(series)
    assert n_snaps == 4

    def simulate():
        s = rq.integrate(cfg, cadence=cadence)
        rq.write_snapshots(s, str(tmp_path / "sim"), report=rq.evaluate_invariants(s),
                           cadence=cadence)

    def row():
        c = rq.parse_config(text)
        rq.integrate(c, cadence=cadence)
        rq.nonrel_integrate(c, cadence=cadence)

    per_snapshot = {"write", "read", "figures"}  # the stages that once looped per snapshot
    stages = {  # stage -> (periods, the stage's calls)
        "simulate": (n_steps, simulate),
        "row": (n_steps, row),
        "write": (n_snaps, lambda: rq.write_snapshots(series, str(tmp_path / "w"))),
        "read": (n_snaps, lambda: rq.read_snapshots(str(snaps))),
        "figures": (n_snaps, lambda: main(["figures", "--snapshots", str(snaps),
                                           "--out", str(tmp_path / "f")])),
    }
    tracer_type = _load("spans").Tracer
    counted = []
    for wl in _load("workloads").WORKLOADS.values():
        for stage, pacers in wl.pacers.items():
            for mod, name, per_op in pacers:
                periods, run = stages[stage]
                with tracer_type(targets=((mod, name),)) as tracer:
                    run()
                calls = len(tracer.arrays()[0])
                counted.append((wl.name, stage, f"{mod}.{name}", calls, per_op * periods))
    assert counted
    # a snapshot stage's pacer fires once per snapshot or, with no loop left, at most once
    assert [c for c in counted if c[3] != c[4] and not (c[1] in per_snapshot and c[3] <= 1)] == []


def test_each_stage_layer_is_traced_once_per_stage():
    # the traced table charges each layer of an RK stage to its own function;
    # a record-level wrapper that no stage calls would read 0 calls here
    spans = _load("spans")
    cfg = rq.parse_config(_cut_config_text())
    with spans.Tracer() as tracer:
        records = len(rq.integrate(cfg, cadence=0.01))
        rq.nonrel_integrate(cfg, cadence=0.01)
    calls = spans.summarize(tracer)["calls"]
    steps, rhs = 30, calls["dynamics.eom_rhs"]
    assert (calls["dynamics.rk4_step"], rhs, records) == (steps, 4 * steps, 4)
    per_stage = ("geometry.compute_geometry", "dynamics.compute_Q",
                 "dynamics.compute_force", "dynamics.tau_factor")
    assert {name: calls[name] for name in per_stage} == dict.fromkeys(per_stage, rhs + records)
    # (t_C, x_C) are one d_dC call on two rows, then three in log_form_Q and Q_C
    assert spans.calls_under(tracer, "stencils.d_dC", "dynamics.eom_rhs") == 5 * rhs
    assert calls["nonrel.nonrel_rhs"] == 4 * steps
    assert calls["nonrel.nonrel_Q"] == calls["nonrel.nonrel_rhs"]
