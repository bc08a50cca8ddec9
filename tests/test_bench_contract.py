"""The names the benchmark in bench/ reaches into the package by.

The span tracer (bench/spans.py) looks every TARGETS entry up with getattr
on its relqtraj module, the workloads time their stages by pacer functions
named the same way, and the workloads and the reference recorder call the
top-level ``rq.<name>`` API.  A rename or deletion of any of them breaks
``bench/run.py --trace 1`` and ``bench/smoke.py``; these tests fail first.
bench/ is only read here.
"""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import relqtraj as rq

BENCH = Path(__file__).resolve().parent.parent / "bench"


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
