"""Span tracer that times relqtraj's public functions from outside the package.

Each traced function is replaced, for the duration of a ``with Tracer(...)``
block, by a wrapper that records one span (name, start, end, parent).  A
function pulled into another module with ``from .x import y`` is looked up
there under its own name, so the wrapper is installed in every relqtraj module
that holds a reference to the original object.  A class is traced by wrapping
its ``__init__``, which covers construction and ``__post_init__`` validation.

Spans live in flat in-memory arrays and are analysed or written out only when
the traced region has ended.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, public name) pairs; the module is the layer the span is charged to.
TARGETS = (
    ("state", "EnsembleState"),
    ("stencils", "build_plan"),
    ("stencils", "d_dC"),
    ("stencils", "interpolate"),
    ("geometry", "compute_geometry"),
    ("geometry", "attach_g01"),
    ("qpotential", "log_form_Q"),
    ("dynamics", "compute_Q"),
    ("dynamics", "compute_force"),
    ("dynamics", "tau_factor"),
    ("dynamics", "eom_rhs"),
    ("dynamics", "rk4_step"),
    ("dynamics", "integrate"),
    ("nonrel", "nonrel_Q"),
    ("nonrel", "nonrel_rhs"),
    ("nonrel", "nonrel_integrate"),
    ("diagnostics", "evaluate_invariants"),
    ("diagnostics", "pde_residual"),
    ("diagnostics", "reference_zero_ratio"),
    ("diagnostics", "derived_fields"),
    ("snapshot_io", "parse_config"),
    ("snapshot_io", "write_snapshots"),
    ("snapshot_io", "read_snapshots"),
    ("snapshot_io", "write_report"),
    ("cli", "main"),
)
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn in TARGETS)
PACKAGE = "relqtraj"


class Tracer:
    """Context manager: installs the wrappers on entry, restores on exit.

    ``targets`` defaults to every function in TARGETS; span name ids index it.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._restore = []

    def _wrap(self, fn, name_id):
        name, parent, start, end, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def __enter__(self):
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name_id, (mod_name, attr) in enumerate(self.targets):
            home = sys.modules[f"{PACKAGE}.{mod_name}"]
            orig = getattr(home, attr)
            if isinstance(orig, type):
                init = orig.__dict__["__init__"]
                orig.__init__ = self._wrap(init, name_id)
                self._restore.append((orig, "__init__", init))
                continue
            wrapped = self._wrap(orig, name_id)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, orig))
        return self

    def __exit__(self, *exc):
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()
        return False

    def arrays(self):
        """Spans as numpy arrays: name id, parent index (-1 for a root), start, end (ns)."""
        return (np.frombuffer(self.name, dtype=np.int32).copy(),
                np.frombuffer(self.parent, dtype=np.int32).copy(),
                np.frombuffer(self.start, dtype=np.int64).copy(),
                np.frombuffer(self.end, dtype=np.int64).copy())

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, span_names=np.array(SPAN_NAMES), name=name, parent=parent,
                 start_ns=start, end_ns=end)


def summarize(tracer: Tracer):
    """Per-span-name calls and self time, plus the root-span total.

    Self time is a span's duration minus the durations of its direct children;
    children never overlap each other in a single-threaded program, so that is
    the time the children cover.
    """
    name, parent, start, end = tracer.arrays()
    k = len(SPAN_NAMES)
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_ns = dur - child
    calls = np.bincount(name, minlength=k)
    self_by_name = np.bincount(name, weights=self_ns, minlength=k)
    return {
        "calls": {n: int(calls[i]) for i, n in enumerate(SPAN_NAMES)},
        "self_us": {n: float(self_by_name[i]) / 1e3 for i, n in enumerate(SPAN_NAMES)},
        "root_us": float(dur[~has_parent].sum()) / 1e3,
    }


def calls_under(tracer: Tracer, child_name: str, ancestor_name: str) -> int:
    """Number of `child_name` spans that have an `ancestor_name` span above them."""
    name, parent, _, _ = tracer.arrays()
    if len(name) == 0:
        return 0
    anc_id = SPAN_NAMES.index(ancestor_name)
    inside = name == anc_id
    safe_parent = np.where(parent >= 0, parent, 0)
    # Parents are recorded before their children, so depth-many passes settle it.
    while True:
        nxt = inside | ((parent >= 0) & inside[safe_parent])
        if np.array_equal(nxt, inside):
            break
        inside = nxt
    return int(np.count_nonzero(inside & (name == SPAN_NAMES.index(child_name))))
