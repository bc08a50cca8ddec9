"""Mutation harness: every oracle keeps a mutation of the solver that it fails.

Each mutant is one exact text replacement in one source file, with the test
ids that must fail under it.  The tree (src, tests, configs, bench and the
files the tests read) is copied once to a temporary directory.  The named
tests are first run there unmutated, where every one must pass.  Then each
mutant is applied alone, only its tests run, and it is killed when every one
of them fails.  An old text that is not found exactly once in its file is an
error that stops the run, not a skip: a refactor that rewrites a mutated line
must point the mutant at the same mutation in the new code.

Run from anywhere (about a minute):

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named mutants

Exit status: 0 when every mutant is killed, 1 when one survives, 2 on an error.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "bench", "README.md", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str     # relative to the repository root
    old: str      # must occur exactly once in the file
    new: str
    tests: tuple  # pytest node ids that must all fail


_C_SQUARED = "tests/test_dynamics.py::test_the_trajectory_field_tends_to_the_nonrelativistic_" \
             "one_as_one_over_c_squared"
_SIGN = "_rows(self.grid.n_points, -self.c, -1.0)"
_STENCILS = "tests/test_stencils.py::TestBuildPlan::"
_NAN = "tests/test_cli.py::TestAnalyticVerify::test_verify_fails_a_nan_wherever_it_sits"
_LOST = "tests/test_golden.py::test_the_stored_columns_lose_nothing"
_SERIES = "tests/test_dynamics.py::test_record_series_holds_the_series_time_rules"
_NONREL_REFUSED = "tests/test_nonrel.py::TestNonRelIntegrate::" \
                  "test_a_nonrel_record_that_breaks_the_state_is_refused"

MUTANTS = (
    Mutant("log_form_Q quarter to half", "src/relqtraj/qpotential.py",
           "_QUARTER = scalar_array(0.25)", "_QUARTER = scalar_array(0.5)",
           ("tests/test_manufactured.py::test_short_time_error_falls_tenfold",
            "tests/test_manufactured.py::test_nonrel_short_time_error_falls_tenfold",
            "tests/test_dynamics.py::TestRk4Step::test_exponential_exact_rate")),
    Mutant("tau_factor exponent doubled", "src/relqtraj/dynamics.py",
           "return np.exp(Q / config.neg_mc_sq)", "return np.exp(Q / config.neg_mc_sq * 2.0)",
           ("tests/test_dynamics.py::test_the_time_field_tends_to_its_first_order_closed_form",
            _C_SQUARED,
            "tests/test_dynamics.py::TestTauFactor::test_exponential_contraction")),
    Mutant("force_sign f0 row flipped", "src/relqtraj/state.py",
           _SIGN, "_rows(self.grid.n_points, self.c, -1.0)", (_C_SQUARED,)),
    Mutant("force_sign f1 row flipped", "src/relqtraj/state.py",
           _SIGN, "_rows(self.grid.n_points, -self.c, 1.0)",
           (_C_SQUARED,
            "tests/test_dynamics.py::TestComputeForce::test_gaussian_initial_force_linear")),
    Mutant("force_sign negated", "src/relqtraj/state.py",
           _SIGN, "_rows(self.grid.n_points, self.c, 1.0)",
           ("tests/test_stability.py::test_uniform_weight_has_no_growing_mode[25]",
            "tests/test_stability.py::test_uniform_weight_has_no_growing_mode[49]")),
    Mutant("c^2 t_C^2 of gamma scaled by 1 + 1e-6", "src/relqtraj/geometry.py",
           "gamma = sq[X_ROW] - config.c_sq * sq[T_ROW]",
           "gamma = sq[X_ROW] - config.c_sq * sq[T_ROW] * (1 + 1e-6)",
           ("tests/test_dynamics.py::test_a_boosted_run_boosts_back_to_the_rest_run[0.3]",
            "tests/test_dynamics.py::test_a_boosted_run_boosts_back_to_the_rest_run[0.9]")),
    Mutant("non-relativistic force over x_C^2", "src/relqtraj/nonrel.py",
           "f_Q = -d_dC(Q, config.plan) / x_C", "f_Q = -d_dC(Q, config.plan) / (x_C * x_C)",
           ("tests/test_nonrel.py::test_the_gaussian_ensemble_energy_is_conserved",
            "tests/test_nonrel.py::test_the_quartic_ensemble_energy_converges_at_T_1")),
    Mutant("fornberg_weights dx * (w / c3)", "src/relqtraj/stencils.py",
           "w[0, ..., :i] = dx[..., i, None] * w[0, ..., :i] / c3",
           "w[0, ..., :i] = dx[..., i, None] * (w[0, ..., :i] / c3)",
           tuple(f"{_STENCILS}test_matrix_is_the_scalar_recursion_bitwise[{case}]"
                 for case in ("2-span5", "4-span0", "4-span3", "4-span4", "4-span5"))
           + tuple(f"{_STENCILS}test_every_stacked_window_is_its_own_call_bitwise[{deriv}]"
                   for deriv in range(3))),
    Mutant("_worst with nanargmax", "src/relqtraj/diagnostics.py",
           "np.argmax(block)", "np.nanargmax(block)",
           (f"{_NAN}[0.0]", f"{_NAN}[2.0]")),
    Mutant("read_snapshots takes Q from the u1 column", "src/relqtraj/snapshot_io.py",
           "Q=slices[:, 6])", "Q=slices[:, 5])",
           ("tests/test_io.py::TestSnapshotRoundTrip::test_bitwise_round_trip",
            "tests/test_golden.py::test_verify_report")
           + tuple(f"{_LOST}[{kind}]" for kind in ("simulate", "exponential", "inertial",
                                                    "hyperbolic-gamma-one", "hyperbolic-gamma-t"))),
    Mutant("pde_residual drops the outer / tau_T", "src/relqtraj/diagnostics.py",
           "tplan) / tau, tplan) / tau", "tplan) / tau, tplan)",
           ("tests/test_diagnostics.py::TestPdeResidual::test_baseline_meets_residual_tolerance",
            "tests/test_diagnostics.py::TestPdeResidual::"
            "test_forced_hyperbolic_series_falls_with_the_grid",
            "tests/test_golden.py::test_verify_report",
            "tests/test_golden.py::test_full_run_report")),
    Mutant("spacelike guard without its < INF half", "src/relqtraj/geometry.py",
           "(gamma > ZERO) & (gamma < INF)", "(gamma > ZERO)",
           ("tests/test_geometry.py::TestComputeGeometry::"
            "test_overflowing_slice_names_the_first_bad_node",)),
    Mutant("state guard without its u0 count", "src/relqtraj/state.py",
           "rows == 2 or not np.count_nonzero(y[U0_ROW] <= ZERO)", "True",
           ("tests/test_dynamics.py::test_stage_guard_names_the_broken_invariant[u0<=0-4rows]",
            "tests/test_dynamics.py::test_record_series_names_the_first_bad_state_of_a_stack"
            "[0-u0<=0]",
            "tests/test_cli.py::TestAnalyticVerify::"
            "test_verify_rejects_a_tampered_column[u0--1]")),
    Mutant("nonrel record without check_state", "src/relqtraj/nonrel.py",
           "        check_state(y, 2)\n", "",
           (f"{_NONREL_REFUSED}[0.02-0.01-kept0]", f"{_NONREL_REFUSED}[0.03-0.02-kept1]")),
    Mutant("state guard's shape rule takes any rank", "src/relqtraj/state.py",
           "y.ndim != 2 + stack or ", "",
           tuple(f"tests/test_dynamics.py::test_a_stack_of_valid_states_is_no_stage[{rhs}]"
                 for rhs in ("eom_rhs", "rk4_step", "nonrel_rhs"))),
    Mutant("d_dC lets numpy's shape error escape", "src/relqtraj/stencils.py",
           "except ValueError:", "except TypeError:",
           ("tests/test_stencils.py::TestDerivative::test_length_mismatch",
            "tests/test_stencils.py::TestDerivative::"
            "test_every_1d_input_is_the_matrix_product_bitwise[2-25]",
            "tests/test_stencils.py::TestStackedValues::test_last_axis_must_be_the_grid")),
    Mutant("figures writes the trajectories slice by slice", "src/relqtraj/cli.py",
           "C, T, t.T, x.T)", "C, T, t, x)",
           ("tests/test_golden.py::test_figures",
            "tests/test_cli.py::TestFigures::"
            "test_trajectories_are_the_simultaneity_cells_label_by_label")),
    Mutant("series rule without its order test", "src/relqtraj/dynamics.py",
           "    ok[1:] &= T[1:] > T[:-1]\n", "",
           (f"{_SERIES}[order]",)
           + tuple(f"tests/test_cli.py::test_snapshot_order_is_checked[{fault}]"
                   for fault in ("repeated-slice", "T-out-of-order", "descending-times",
                                 "unsorted-times"))),
    Mutant("series rule without its count test", "src/relqtraj/dynamics.py",
           "if T.shape != (states,):", "if False:",
           (f"{_SERIES}[2-times]", f"{_SERIES}[1-time]", f"{_SERIES}[2-times-timelike]")),
    Mutant("spacelike guard without its slice index", "src/relqtraj/geometry.py",
           '"slice is no longer spacelike", *map(int, k))', '"slice is no longer spacelike")',
           ("tests/test_cli.py::TestAnalyticVerify::test_verify_rejects_a_tampered_column[t-1]",
            "tests/test_cli.py::TestAnalyticVerify::"
            "test_analytic_names_the_time_of_a_timelike_slice")
           + tuple(f"tests/test_dynamics.py::test_record_series_names_the_first_bad_state_of_a_"
                   f"stack[{k}-{fault}]" for k in (0, 2) for fault in ("gamma<=0", "gamma-nan"))),
)


def stop(message: str):
    """End the run with exit status 2: the harness could not judge a mutant."""
    print(f"mutants: {message}", file=sys.stderr)
    sys.exit(2)


def failing(tree: Path, tests) -> set:
    """The ids among tests that fail or error in tree; an id pytest cannot
    find, or a run it cannot finish, stops the harness."""
    # no bytecode cache: a restored file of the mutant's size and second
    # would otherwise load the mutant's stale .pyc
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, capture_output=True, text=True,
                          check=False)
    if proc.returncode not in (0, 1):
        stop(f"pytest exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return {line.split()[1] for line in proc.stdout.splitlines()
            if line.startswith(("FAILED ", "ERROR "))}


def main(argv) -> int:
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        stop(f"no mutant named {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for part in COPIED:
            src = ROOT / part
            if src.is_dir():
                shutil.copytree(src, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, tree / part)
        for m in chosen:
            found = (tree / m.file).read_text(encoding="utf-8").count(m.old)
            if found != 1:
                stop(f"{m.name}: the old text occurs {found} times in {m.file}, "
                     f"not once: {m.old!r}")
        broken = failing(tree, sorted({t for m in chosen for t in m.tests}))
        if broken:
            stop("these tests fail before any mutation:\n  " + "\n  ".join(sorted(broken)))
        survivors = []
        for m in chosen:
            path = tree / m.file
            text = path.read_text(encoding="utf-8")
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                failed = failing(tree, m.tests)
            finally:
                path.write_text(text, encoding="utf-8")
            passed = [t for t in m.tests if t not in failed]
            print(f"{'SURVIVED' if passed else 'killed':8s}  {m.name}  "
                  f"({len(m.tests) - len(passed)} of {len(m.tests)} tests fail)", flush=True)
            for t in passed:
                print(f"          still passes: {t}")
            if passed:
                survivors.append(m.name)
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
