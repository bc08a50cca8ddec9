import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relqtraj as rq
from relqtraj import cli, state
from relqtraj.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GAUSS_CFG = """
c = 3
weight.kind = gaussian
weight.a = 0.5
grid.min = -5
grid.max = 5
grid.n = 25
time.final = 2
tol.invariant = 1e-3
"""

EXP_CFG = """
c = 2
weight.kind = exponential
weight.kappa = 0.25
grid.min = -2
grid.max = 2
grid.n = 25
time.final = 2
tol.invariant = 1e-6
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _exponential_output(out):
    """A small `analytic` output: 25 nodes, 4 slices."""
    assert main(["analytic", "--kind", "exponential", "--kappa", "0.5", "--c", "2",
                 "--grid-min", "-2", "--grid-max", "2", "--grid-n", "25",
                 "--times", "0,1,2,3", "--out", str(out)]) == 0
    return out


def _slice_rows(lines, T):
    """The indices in lines, snapshots.tsv read as lines, of the slice at T."""
    return [k for k, line in enumerate(lines) if k and float(line.split("\t")[0]) == T]


def _set_cell(out, T, node, column, value):
    """Put value in the cell of column at label index node of the slice at T
    in out/snapshots.tsv."""
    table = out / "snapshots.tsv"
    lines = table.read_text().splitlines()
    k = _slice_rows(lines, T)[node]
    row = lines[k].split("\t")
    row[lines[0].split("\t").index(column)] = value
    lines[k] = "\t".join(row)
    table.write_text("\n".join(lines) + "\n")


class TestSimulate:
    def test_run_and_outputs(self, tmp_path, capsys):
        cfg = _write(tmp_path, "g.cfg", GAUSS_CFG)
        out = tmp_path / "out"
        code = main(["simulate", "--config", cfg, "--out", str(out)])
        # snapshots exist regardless of whether every invariant met tolerance
        assert sorted(p.name for p in out.iterdir()) == ["manifest.txt", "report.tsv",
                                                          "snapshots.tsv"]
        assert rq.read_snapshots(str(out)).times.tolist() == [0.0, 1.0, 2.0]
        assert code in (0, 2)
        assert "simulate:" in capsys.readouterr().out

    def test_exponential_run_passes(self, tmp_path):
        cfg = _write(tmp_path, "e.cfg", EXP_CFG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0

    def test_bad_config_is_validation_error(self, tmp_path):
        cfg = _write(tmp_path, "bad.cfg", "c = 3\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("command", ["simulate", "compare-limits"])
    def test_a_weight_without_density_does_not_run(self, tmp_path, capsys, command):
        # weight.kind none parses, for the manifest of an analytic family, but
        # gives no quantum potential: neither solver runs it as if it were uniform
        cfg = _write(tmp_path, "n.cfg", GAUSS_CFG.replace("gaussian\nweight.a = 0.5", "none"))
        out = tmp_path / "o"
        tail = ["--out", str(out)] if command == "simulate" else ["--nonrel"]
        assert main([command, "--config", cfg, *tail]) == 1
        assert capsys.readouterr().err == ("error: weight.kind none has no density, so no "
                                           "quantum potential to run by\n")
        assert not out.exists()

    @pytest.mark.parametrize("final, cadence, message", [
        # each would once have run: recording every step, recording every
        # 0.002, and stopping at T = 0.01
        ("2", "-1", "cadence must be positive and finite, got -1"),
        ("2", "0.0015", "cadence = 0.0015 is not a whole multiple of dt = 0.001"),
        ("0.0105", "0.005", "t_final = 0.0105 is not a whole multiple of dt = 0.001"),
    ])
    def test_run_off_the_step_grid_is_validation_error(self, tmp_path, capsys, final,
                                                       cadence, message):
        cfg = _write(tmp_path, "g.cfg",
                     GAUSS_CFG.replace("time.final = 2", f"time.final = {final}"))
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--cadence", cadence]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_abort_keeps_the_partial_series(self, tmp_path, capsys):
        # tol.invariant = 1e-15 puts the abort guard (10 x tol) under the norm
        # drift of the first step: the run stops there and keeps T = 0
        text = (CONFIGS / "gaussian_c3.txt").read_text()
        assert "tol.invariant = 1e-3" in text
        cfg = _write(tmp_path, "abort.cfg",
                     text.replace("tol.invariant = 1e-3", "tol.invariant = 1e-15"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert re.fullmatch(r"runtime failure: run failed at T = 0: "
                            r"four-velocity norm drift \S+ exceeds \S+ x invariant_tol = "
                            r"\S+\n", captured.err)
        assert captured.out == f"simulate: aborted, 1 partial snapshots kept in {out}\n"
        assert sorted(p.name for p in out.iterdir()) == ["manifest.txt", "snapshots.tsv"]
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert [ln for ln in manifest if ln.startswith("invariant.")] == []
        assert main(["verify", "--snapshots", str(out)]) == 0

    # tol.invariant = 1e-15 aborts the first step (see above) and keeps T = 0
    @pytest.mark.parametrize("tol, final_T", [("1e-3", "2"), ("1e-15", "0")],
                             ids=["complete", "aborted"])
    def test_manifest_records_the_run_facts(self, tmp_path, tol, final_T):
        cfg = _write(tmp_path, "g.cfg", GAUSS_CFG.replace("tol.invariant = 1e-3",
                                                          f"tol.invariant = {tol}"))
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--cadence", "0.5"]) == 2
        # the manifest is the config file, then one "# run.<key> = <value>" note per fact
        text = (out / "manifest.txt").read_text()
        config = rq.config_to_text(rq.load_config(cfg))
        assert text.startswith(config)
        run = [ln.removeprefix("# ").split(" = ") for ln in text[len(config):].splitlines()]
        assert [key for key, _ in run] == ["run.code_version", "run.start_time", "run.end_time",
                                           "run.cadence", "run.n_steps", "run.stride",
                                           "run.final_T"]
        assert run[3:] == [["run.cadence", "0.5"], ["run.n_steps", "2000"],
                           ["run.stride", "500"], ["run.final_T", final_T]]
        assert rq.read_snapshots(str(out)).times[-1] == float(final_T)

    @pytest.mark.parametrize("name, cut, cadence, noted", [
        ("gaussian_c3.txt", ("time.final = 10", "time.final = 1"), "0.025", False),
        ("exponential.txt", None, "1", True),
    ])
    def test_verify_rewrites_the_report_simulate_wrote(self, tmp_path, capsys,
                                                       name, cut, cadence, noted):
        text = (CONFIGS / name).read_text()
        if cut:
            assert cut[0] in text
            text = text.replace(*cut)
        out = tmp_path / "out"
        code = main(["simulate", "--config", _write(tmp_path, name, text),
                     "--out", str(out), "--cadence", cadence])
        simulated = capsys.readouterr().out.splitlines()
        written = (out / "report.tsv").read_bytes()
        assert main(["verify", "--snapshots", str(out)]) == code
        verified = capsys.readouterr().out.splitlines()
        assert (out / "report.tsv").read_bytes() == written
        assert verified[0] == f"verify: report written to {out}/report.tsv"
        assert simulated[1:] == verified[1:]
        assert any(line.startswith("note: evolution-equation residuals skipped")
                   for line in verified) == noted
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert [ln for ln in manifest if ln.startswith("invariant.")] == []

    def test_unknown_key_is_validation_error(self, tmp_path):
        cfg = _write(tmp_path, "bad.cfg", GAUSS_CFG + "\nwhat = 1\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


class TestAnalyticVerify:
    def test_inertial_snapshot_verify_all_pass(self, tmp_path):
        out = tmp_path / "inertial"
        code = main([
            "analytic", "--kind", "inertial", "--beta0", "0.6", "--c", "2",
            "--grid-min", "-2", "--grid-max", "2", "--grid-n", "25",
            # 25 slices 0.05 apart: fine enough for the residual rows
            "--times", ",".join(f"{k / 20:g}" for k in range(25)),
            "--out", str(out),
        ])
        assert code == 0
        assert main(["verify", "--snapshots", str(out),
                     "--tol-invariant", "1e-8"]) == 0
        report = (out / "report.tsv").read_text().splitlines()
        rows = {ln.split("\t")[0]: ln.split("\t")[-1] for ln in report[1:]}
        assert rows["four_velocity_norm"] == "pass"
        assert rows["simultaneity_g01"] == "pass"
        assert rows["pde_residual_t"] == "pass"

    def test_verify_rejects_at_unreachable_tolerance(self, tmp_path):
        out = tmp_path / "inertial"
        main(["analytic", "--kind", "inertial", "--beta0", "0.6", "--c", "2",
              "--grid-min", "-2", "--grid-max", "2", "--grid-n", "25",
              "--times", "0,0.5,1.0", "--out", str(out)])
        assert main(["verify", "--snapshots", str(out),
                     "--tol-invariant", "1e-18"]) == 2

    def test_verify_notes_the_residual_rule(self, tmp_path, capsys):
        out = tmp_path / "inertial"
        main(["analytic", "--kind", "inertial", "--c", "2", "--grid-min", "-2",
              "--grid-max", "2", "--grid-n", "25", "--times", "0,0.5,1.0",
              "--out", str(out)])
        assert main(["verify", "--snapshots", str(out)]) == 0
        assert ("need at least 9 uniformly spaced snapshots no more than 0.05 apart"
                in capsys.readouterr().out)

    @pytest.mark.parametrize("cadence, noted", [("0.1", True), ("0.05", False)])
    def test_verify_notes_skipped_residuals_by_cadence(self, tmp_path, capsys, cadence, noted):
        # configs/gaussian_c3.txt to T = 1: 11 snapshots at cadence 0.1, enough
        # for the time stencils but too coarse; 21 at cadence 0.05
        text = (CONFIGS / "gaussian_c3.txt").read_text()
        assert "time.final = 10" in text
        cfg = _write(tmp_path, "g.cfg", text.replace("time.final = 10", "time.final = 1"))
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(out), "--cadence", cadence])
        capsys.readouterr()
        main(["verify", "--snapshots", str(out)])
        printed = capsys.readouterr().out
        assert ("note: evolution-equation residuals skipped" in printed) == noted
        assert ("pde_residual_x: " in printed) == (not noted)

    @pytest.mark.parametrize("kind, flags, message", [
        ("inertial", ["--kappa", "3", "--B", "7"], "--kappa does not apply to --kind inertial"),
        ("exponential", ["--beta0", "0.6"], "--beta0 does not apply to --kind exponential"),
        ("hyperbolic-gamma-t", ["--A", "0.5", "--B", "1"],
         "--B does not apply to --kind hyperbolic-gamma-t"),
    ])
    def test_analytic_refuses_a_parameter_of_another_kind(self, tmp_path, capsys, kind, flags,
                                                          message):
        out = tmp_path / "out"
        assert main(["analytic", "--kind", kind, *flags, "--c", "2", "--grid-min", "-2",
                     "--grid-max", "2", "--grid-n", "25", "--times", "0.5,1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("kind, flags, recorded", [
        ("inertial", [], ["# run.kind = inertial", "# run.beta0 = 0"]),  # the default
        ("hyperbolic-gamma-t", ["--A", "0.5"], ["# run.kind = hyperbolic-gamma-t",
                                                "# run.A = 0.5"]),
    ])
    def test_analytic_records_its_kind_and_parameter(self, tmp_path, kind, flags, recorded):
        out = tmp_path / "out"
        assert main(["analytic", "--kind", kind, *flags, "--c", "2", "--grid-min", "-1",
                     "--grid-max", "1", "--grid-n", "25", "--times", "0.5,1",
                     "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert [ln for ln in manifest
                if ln.startswith(("# run.kind", "# run.beta0", "# run.A"))] == recorded
        assert rq.read_snapshots(str(out)).times.tolist() == [0.5, 1.0]  # run lines are not read

    def test_analytic_reports_a_non_finite_Q_as_a_runtime_failure(self, tmp_path, capsys):
        # c = 1e-158 leaves the slice metric (c A T)^2 subnormal, and log_form_Q
        # refuses the non-finite potential it gives
        out = tmp_path / "out"
        assert main(["analytic", "--kind", "hyperbolic-gamma-t", "--A", "0.5", "--c", "1e-158",
                     "--grid-min", "-1", "--grid-max", "1", "--grid-n", "25", "--times", "1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "runtime failure: non-finite quantum potential"]
        assert not out.exists()

    def test_exponential_analytic_round_trip(self, tmp_path):
        out = tmp_path / "exp"
        assert main(["analytic", "--kind", "exponential", "--kappa", "0.3",
                     "--c", "1", "--grid-min", "-2", "--grid-max", "2",
                     "--grid-n", "25", "--times", "0,1,2", "--out", str(out)]) == 0
        txt = (out / "snapshots.tsv").read_text().splitlines()
        cols = txt[0].split("\t")
        rows = [txt[k].split("\t") for k in _slice_rows(txt, 2.0)]
        x = [float(r[cols.index("x")]) for r in rows]
        C = [float(r[cols.index("C")]) for r in rows]
        assert x == C  # trajectories at rest

    def test_hyperbolic_kinds(self, tmp_path):
        out = tmp_path / "h1"
        assert main(["analytic", "--kind", "hyperbolic-gamma-one", "--B", "1",
                     "--c", "1", "--grid-min", "0.5", "--grid-max", "2.5",
                     "--grid-n", "25", "--times", "0,0.4,0.8", "--out", str(out)]) == 0
        out2 = tmp_path / "h2"
        assert main(["analytic", "--kind", "hyperbolic-gamma-t", "--A", "0.5",
                     "--c", "2", "--grid-min", "-1", "--grid-max", "1",
                     "--grid-n", "25", "--times", "0.5,1.0", "--out", str(out2)]) == 0
        # degenerate T = 0 slice is refused
        assert main(["analytic", "--kind", "hyperbolic-gamma-t", "--A", "0.5",
                     "--c", "2", "--grid-min", "-1", "--grid-max", "1",
                     "--grid-n", "25", "--times", "0,1", "--out", str(out2)]) == 1

    @pytest.mark.parametrize("kind, args", [
        # Q = -m c^2 ln(B C) is undefined at C = 0; the T = 0 slice is degenerate
        ("hyperbolic-gamma-one", ["--grid-min", "0", "--grid-max", "2", "--times", "0,1"]),
        ("hyperbolic-gamma-t", ["--grid-min", "-1", "--grid-max", "1", "--times", "0,1"]),
    ])
    def test_analytic_refuses_a_family_outside_its_domain(self, tmp_path, kind, args):
        out = tmp_path / "out"
        assert main(["analytic", "--kind", kind, "--grid-n", "25", *args,
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_analytic_names_the_time_of_a_timelike_slice(self, tmp_path, capsys):
        # gamma = cosh^2 - sinh^2 of c B T is 1, but at T = 20 (cosh ~ 2.4e8)
        # the two squares cancel to 0 in floating point: the refusal names
        # that --times entry, not only its node
        out = tmp_path / "out"
        assert main(["analytic", "--kind", "hyperbolic-gamma-one", "--B", "1", "--c", "1",
                     "--grid-min", "0.5", "--grid-max", "1.5", "--grid-n", "21",
                     "--times", "0.5,20", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: --times entry T = 20: non-positive spatial metric gamma = 0 at node 0: "
            "slice is no longer spacelike"]
        assert not out.exists()

    # the last case's m c underflows to 0 and leaves hbar kappa / m c no value
    @pytest.mark.parametrize("kappa, mass, c", [("40", "1", "1"), ("1e200", "1", "1"),
                                                ("0.5", "1e-200", "1e-200")],
                             ids=["40", "1e200", "m-c-underflow"])
    def test_analytic_refuses_an_overflowing_exponential_rate(self, tmp_path, capsys, kappa,
                                                              mass, c):
        out = tmp_path / "out"
        assert main(["analytic", "--kind", "exponential", "--kappa", kappa, "--mass", mass,
                     "--c", c, "--grid-min", "-2", "--grid-max", "2", "--grid-n", "25",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: kappa = ") and "overflows" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind, flags", [
        # the config squares c before the closed-form Q = -m c^2 ln(B C) does
        ("hyperbolic-gamma-one", ["--grid-min", "0.5", "--grid-max", "2.5"]),
        ("hyperbolic-gamma-t", ["--A", "2", "--grid-min", "-1", "--grid-max", "1"]),
    ])
    def test_analytic_refuses_a_c_that_squares_past_a_float(self, tmp_path, capsys, kind,
                                                            flags):
        out = tmp_path / "out"
        assert main(["analytic", "--kind", kind, *flags, "--c", "1e200", "--grid-n", "25",
                     "--times", "0.5,1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: c = 1e+200 or hbar = 1 squares past a float"]
        assert not out.exists()

    def test_analytic_at_a_vanishing_m_c_squared_warns_nothing(self, tmp_path, capsys):
        # c = 1e-200 makes m c^2 = 0: tau_T = exp(Q / -0.0) is not finite, and
        # analytic refuses the record as integrate does, without a numpy warning
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analytic", "--kind", "inertial", "--c", "1e-200", "--grid-min", "-2",
                         "--grid-max", "2", "--grid-n", "25", "--times", "0,1",
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "runtime failure: non-finite tau_T\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("constant", ["--mass", "--c"])
    @pytest.mark.parametrize("kind, lo, hi", [
        ("inertial", "-2", "2"), ("exponential", "-2", "2"),
        ("hyperbolic-gamma-one", "0.5", "2.5"), ("hyperbolic-gamma-t", "-1", "1"),
    ])
    def test_analytic_refuses_a_zero_constant_for_every_kind(self, tmp_path, capsys,
                                                             kind, lo, hi, constant):
        out = tmp_path / "out"
        assert main(["analytic", "--kind", kind, constant, "0", "--grid-min", lo,
                     "--grid-max", hi, "--grid-n", "25", "--times", "0.5,1",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {constant[2:]} must be positive and finite, got 0.0"]
        assert not out.exists()

    def test_verify_rejects_a_table_of_only_its_header(self, tmp_path, capsys):
        out = tmp_path / "inertial"
        assert main(["analytic", "--kind", "inertial", "--c", "2", "--grid-min", "-2",
                     "--grid-max", "2", "--grid-n", "25", "--times", "0,0.5",
                     "--out", str(out)]) == 0
        table = out / "snapshots.tsv"
        table.write_text(table.read_text().splitlines()[0] + "\n")
        assert main(["verify", "--snapshots", str(out)]) == 1
        assert "snapshots.tsv: no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("column, value, message", [
        ("C", "999", "snapshots.tsv: column C is not"),
        ("T", "7", "snapshots.tsv: column T is not constant in slice 1 (data rows 26 to 50)"),
        # t = T + 0.5 at node 4 of x = C, t = T: the one-sided row of node 0
        # reads c t_C = 2 (-1/4) 6 (0.5) = -1.5, so the stored slice is timelike
        ("t", "1", "snapshots.tsv: slice 1 (data rows 26 to 50): non-positive spatial "
                   "metric gamma = -1.25 at node 0: slice is no longer spacelike"),
        # each state rule, tested once over the stack, still names its slice
        ("u0", "-1", "snapshots.tsv: slice 1 (data rows 26 to 50): u0 must be positive"),
        ("u1", "nan", "snapshots.tsv: slice 1 (data rows 26 to 50): non-finite values in "
                      "field u1"),
    ], ids=["C-999", "T-7", "t-1", "u0--1", "u1-nan"])
    def test_verify_rejects_a_tampered_column(self, tmp_path, capsys, column, value, message):
        out = tmp_path / "inertial"
        assert main(["analytic", "--kind", "inertial", "--c", "2", "--grid-min", "-2",
                     "--grid-max", "2", "--grid-n", "25", "--times", "0,0.5,1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        _set_cell(out, 0.5, 4, column, value)
        assert main(["verify", "--snapshots", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and message in line

    def test_verify_checks_every_slice_state_before_any_gamma(self, tmp_path, capsys):
        # the slice at T = 0.5 is timelike (as in t-1 above) and the one at
        # T = 1 loses its ordering: the state rules of every slice run first
        out = tmp_path / "inertial"
        assert main(["analytic", "--kind", "inertial", "--c", "2", "--grid-min", "-2",
                     "--grid-max", "2", "--grid-n", "25", "--times", "0,0.5,1",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        _set_cell(out, 0.5, 4, "t", "1")
        _set_cell(out, 1.0, 4, "x", "999")
        assert main(["verify", "--snapshots", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {out}/snapshots.tsv: slice 2 (data rows 51 to 75): trajectory ordering "
            "lost between nodes 4 and 5 (x = 999, -1.16667): ensemble degeneration"]

    @pytest.mark.parametrize("T", [0.0, 2.0])
    def test_verify_fails_a_nan_wherever_it_sits(self, tmp_path, T):
        out = _exponential_output(tmp_path / "exp")
        _set_cell(out, T, 4, "Q", "nan")
        assert main(["verify", "--snapshots", str(out)]) == 2
        report = (out / "report.tsv").read_text().splitlines()
        rows = {ln.split("\t")[0]: ln.split("\t") for ln in report[1:]}
        for name in ("force_orthogonality", "simultaneity_g01"):
            assert rows[name][1] == "nan"
            assert float(rows[name][2]) == T
            assert rows[name][-1] == "FAIL"

    # the slice at T = 1 is data rows 26 to 50
    @pytest.mark.parametrize("rows, message", [
        ("one", "snapshots.tsv: data row 28 holds 6 values, not 7"),  # the third of it
        ("slice", "snapshots.tsv: data row 26 holds 6 values, not 7"),
        ("every", "snapshots.tsv: rows hold 6 values, not 7"),
    ], ids=["one", "slice", "every"])
    def test_verify_names_a_table_with_short_rows(self, tmp_path, capsys, rows, message):
        cfg = _write(tmp_path, "g.cfg", GAUSS_CFG.replace("time.final = 2", "time.final = 1"))
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        table = out / "snapshots.tsv"
        lines = table.read_text().splitlines()
        short = {"one": _slice_rows(lines, 1.0)[2:3], "slice": _slice_rows(lines, 1.0),
                 "every": range(1, len(lines))}[rows]
        for k in short:
            lines[k] = lines[k].rsplit("\t", 1)[0]
        table.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--snapshots", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and line.endswith(message)

    # 1_0 is a number to Python's float() but not to np.loadtxt, the table's reader
    @pytest.mark.parametrize("cell, column", [("0.5.1", "Q"), ("1_0", "x")])
    def test_verify_names_a_cell_that_is_not_a_number(self, tmp_path, capsys, cell, column):
        out = _exponential_output(tmp_path / "exp")
        capsys.readouterr()
        _set_cell(out, 1.0, 4, column, cell)  # data row 30
        assert main(["verify", "--snapshots", str(out)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and line.endswith(
            f"snapshots.tsv: data row 30 holds '{cell}' in column {column}, not a number")

    # np.loadtxt skips an empty line and counts no data row for it, but reads a
    # line of only whitespace as a row of one value; the line goes before data
    # row 30, which the empty case then cuts short
    @pytest.mark.parametrize("line, message", [
        ("", "snapshots.tsv: data row 30 holds 6 values, not 7"),
        (" ", "snapshots.tsv: data row 30 holds 1 values, not 7"),
    ], ids=["empty", "whitespace"])
    def test_verify_counts_data_rows_as_loadtxt_does(self, tmp_path, capsys, line, message):
        out = _exponential_output(tmp_path / "exp")
        capsys.readouterr()
        table = out / "snapshots.tsv"
        lines = table.read_text().splitlines()
        assert _slice_rows(lines, 1.0)[4] == 30
        if not line:
            lines[30] = lines[30].rsplit("\t", 1)[0]
        table.write_text("\n".join(lines[:30] + [line] + lines[30:]) + "\n")
        assert main(["verify", "--snapshots", str(out)]) == 1
        [err] = capsys.readouterr().err.splitlines()
        assert err.startswith("error: ") and err.endswith(message)

    def test_verify_missing_directory(self, tmp_path):
        assert main(["verify", "--snapshots", str(tmp_path / "none")]) == 1

    # the edit of the manifest's lines -> the number of the line it refuses (from
    # 1) and the message; the manifest is 13 config lines and 5 "# run." notes
    @pytest.mark.parametrize("edit, lineno, message", [
        (lambda ls: ls + ["c = 3"], 19, "duplicate key 'c'"),
        (lambda ls: [ln.replace("grid.n = 25", "grid.n\t25") for ln in ls], 8,
         "expected 'key = value', got 'grid.n\\t25'"),  # a line of the old manifest.tsv
        (lambda ls: [ln.replace("grid.n = 25", "grid.n = 25.5") for ln in ls], 8,
         "bad value for 'grid.n': '25.5'"),
    ], ids=["duplicate", "tsv-line", "bad-value"])
    def test_verify_names_the_manifest_and_its_line(self, tmp_path, capsys, edit, lineno,
                                                    message):
        out = _exponential_output(tmp_path / "exp")
        capsys.readouterr()
        manifest = out / "manifest.txt"
        lines = manifest.read_text().splitlines()
        assert len(lines) == 18 and lines[7] == "grid.n = 25"
        manifest.write_text("\n".join(edit(lines)) + "\n")
        assert main(["verify", "--snapshots", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {manifest}: line {lineno}: {message}\n"


    def test_verify_and_figures_warn_nothing_for_an_inf_cell(self, tmp_path):
        out = _exponential_output(tmp_path / "exp")
        _set_cell(out, 1.0, 4, "Q", "inf")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--snapshots", str(out)]) == 2
            assert main(["figures", "--snapshots", str(out), "--out", str(tmp_path / "f")]) == 0
        report = (out / "report.tsv").read_text().splitlines()
        rows = {ln.split("\t")[0]: ln.split("\t") for ln in report[1:]}
        assert rows["force_orthogonality"][1] == "nan"
        assert rows["force_orthogonality"][-1] == "FAIL"

    def test_times_that_share_10_significant_digits_round_trip(self, tmp_path, capsys):
        # a series is one table, so no file name rounds T
        out = tmp_path / "out"
        assert main(["analytic", "--kind", "inertial", "--grid-min", "-2", "--grid-max", "2",
                     "--grid-n", "17", "--times", "1,1.0000000001", "--out", str(out)]) == 0
        assert rq.read_snapshots(str(out)).times.tolist() == [1.0, 1.0000000001]
        assert main(["verify", "--snapshots", str(out)]) == 0

    @pytest.mark.parametrize("value", ["-1", "0", "nan"])
    @pytest.mark.parametrize("flag", ["--tol-invariant", "--tol-residual"])
    def test_verify_refuses_a_tolerance_the_config_would_refuse(self, tmp_path, capsys,
                                                                 flag, value):
        # checked before the series is read: one error line, no report
        out = tmp_path / "inertial"
        assert main(["analytic", "--kind", "inertial", "--beta0", "0.6", "--c", "2",
                     "--grid-min", "-2", "--grid-max", "2", "--grid-n", "25",
                     "--times", "0,0.5,1.0", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", "--snapshots", str(out), flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be positive and finite, got {float(value)}\n"
        assert not (out / "report.tsv").exists()

    @pytest.mark.parametrize("times, bad", [("-1,-0.5", "-1"), ("0,1,-2", "-2"),
                                            ("0,nan", "nan"), ("0,1e400", "1e400"),
                                            ("0, x", "x")])
    def test_analytic_refuses_a_times_entry_that_is_no_time(self, tmp_path, capsys,
                                                            times, bad):
        # before the initial slice, not finite, or not a number: named as typed
        out = tmp_path / "out"
        assert main(["analytic", "--kind", "inertial", "--c", "2", "--grid-min", "-2",
                     "--grid-max", "2", "--grid-n", "25", f"--times={times}",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            f"error: --times entry {bad} is not a finite nonnegative time\n"
        assert not out.exists()

    def test_analytic_records_its_last_time_as_the_horizon(self, tmp_path):
        # a series of the initial slice alone ends at T = 0, not at an invented T = 1
        out = tmp_path / "out"
        assert main(["analytic", "--kind", "inertial", "--c", "2", "--grid-min", "-2",
                     "--grid-max", "2", "--grid-n", "25", "--times", "0",
                     "--out", str(out)]) == 0
        assert "time.final = 0" in (out / "manifest.txt").read_text().splitlines()


def _T_cells(lines, cell):
    """lines with the T cell of each replaced by cell."""
    return [cell + line[line.index("\t"):] for line in lines]


# fault -> (analytic --times, edit of the snapshots.tsv lines, the command run
# on the edited output, the error it must print); with no edit, analytic itself
# refuses.  Line 0 is the header, and the slice at T = k is lines 1 + 25 k to 25 + 25 k.
SNAPSHOT_ORDER_FAULTS = {
    # the slice at T = 1 repeated after the last
    "repeated-slice": ("0,1,2,3", lambda ls: ls + ls[26:51], "verify",
                       "snapshots.tsv: slice 4 (data rows 101 to 125): snapshot times must "
                       "strictly increase: T = 3 is followed by T = 1"),
    # the slices at T = 1 and T = 3 swapped
    "T-out-of-order": ("0,1,2,3", lambda ls: ls[:26] + ls[76:] + ls[51:76] + ls[26:51], "verify",
                       "snapshots.tsv: slice 2 (data rows 51 to 75): snapshot times must "
                       "strictly increase: T = 3 is followed by T = 2"),
    # every T of the slice at T = 2 is NaN: constant, but not a time
    "nan-T": ("0,1,2,3", lambda ls: ls[:51] + _T_cells(ls[51:76], "nan") + ls[76:], "verify",
              "snapshots.tsv: slice 2 (data rows 51 to 75): snapshot times must be finite: "
              "T = nan"),
    # the last slice at T = inf, which is after T = 2
    "inf-T": ("0,1,2,3", lambda ls: ls[:76] + _T_cells(ls[76:], "inf"), "verify",
              "snapshots.tsv: slice 3 (data rows 76 to 100): snapshot times must be finite: "
              "T = inf"),
    # figures wrote header-only files from a series with no snapshot
    "no-snapshot": ("0,1,2,3", lambda ls: ls[:1], "figures", "snapshots.tsv: no data rows"),
    # a descending series was written, and verify rejected it as a bad grid
    "descending-times": ("3,2,1,0", None, None, "T = 3 is followed by T = 2"),
    # an unsorted series was written, its trajectories running backwards in T
    "unsorted-times": ("0.2,0,0.1", None, None, "T = 0.20000000000000001 is followed by T = 0"),
}


@pytest.mark.parametrize("fault", SNAPSHOT_ORDER_FAULTS)
def test_snapshot_order_is_checked(tmp_path, capsys, fault):
    times, edit, command, message = SNAPSHOT_ORDER_FAULTS[fault]
    out = tmp_path / "exp"
    code = main(["analytic", "--kind", "exponential", "--kappa", "0.5", "--c", "2",
                 "--grid-min", "-2", "--grid-max", "2", "--grid-n", "25",
                 "--times", times, "--out", str(out)])
    if edit is None:
        assert not out.exists()  # refused before anything is written
    else:
        assert code == 0
        table = out / "snapshots.tsv"
        table.write_text("".join(edit(table.read_text().splitlines(keepends=True))))
        code = main([command, "--snapshots", str(out)]
                    + (["--out", str(tmp_path / "figs")] if command == "figures" else []))
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda ls: [ls[0].replace("u1", "v")] + ls[1:],
     "snapshots.tsv: header row is not T C t x u0 u1 Q"),
    (lambda ls: ls[:30] + ls[31:],
     "snapshots.tsv: 99 data rows are not a whole number of 25-row slices"),
], ids=["header", "dropped-row"])
def test_verify_rejects_a_table_that_is_not_a_series(tmp_path, capsys, edit, message):
    out = _exponential_output(tmp_path / "exp")
    capsys.readouterr()
    table = out / "snapshots.tsv"
    table.write_text("".join(edit(table.read_text().splitlines(keepends=True))))
    assert main(["verify", "--snapshots", str(out)]) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and line.endswith(message)


def test_verify_refuses_a_directory_of_the_old_manifest(tmp_path, capsys):
    # manifest.tsv, the config as TSV "config.<key>" rows, has no reader
    out = _exponential_output(tmp_path / "exp")
    capsys.readouterr()
    manifest = out / "manifest.txt"
    config = [ln.split(" = ") for ln in manifest.read_text().splitlines() if ln[0] != "#"]
    (out / "manifest.tsv").write_text("".join(f"config.{key}\t{val}\n" for key, val in config))
    manifest.unlink()
    assert main(["verify", "--snapshots", str(out)]) == 1
    assert capsys.readouterr().err == f"error: no manifest.txt in {out}\n"


def test_verify_refuses_a_directory_without_the_table(tmp_path, capsys):
    # a directory of one table per slice, the layout before snapshots.tsv, is not read
    out = _exponential_output(tmp_path / "exp")
    capsys.readouterr()
    table = out / "snapshots.tsv"
    lines = table.read_text().splitlines(keepends=True)
    (out / "snap_T0.tsv").write_text("".join(lines[:26]))
    table.unlink()
    assert main(["verify", "--snapshots", str(out)]) == 1
    assert capsys.readouterr().err == f"error: no snapshots.tsv in {out}\n"


@pytest.mark.parametrize("command, c", [("simulate", "1e-150"), ("compare-limits", "1e-150"),
                                        ("simulate", "1e-200"), ("compare-limits", "1e-200")],
                         ids=["simulate", "compare-limits", "simulate-1e-200",
                              "compare-limits-1e-200"])
def test_a_non_finite_first_record_is_one_runtime_failure(tmp_path, capsys, command, c):
    # c = 1e-150 overflows tau_T = exp(-Q / m c^2) on the initial slice, and
    # c = 1e-200 leaves m c^2 = 0 to divide it: the run stops at its first
    # record, without a numpy warning, and keeps nothing
    text = (CONFIGS / "gaussian_c3.txt").read_text()
    assert "\nc = 3\n" in text and "time.final = 10" in text
    cfg = _write(tmp_path, "tiny_c.cfg", text.replace("\nc = 3\n", f"\nc = {c}\n")
                 .replace("time.final = 10", "time.final = 0.01"))
    out = tmp_path / "out"
    flags = {"simulate": ["--out", str(out)], "compare-limits": ["--nonrel"]}[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.err == "runtime failure: run failed at T = 0: non-finite tau_T\n"
    assert captured.out == ""
    assert not out.exists()


def test_a_timelike_slice_in_a_run_is_a_runtime_failure(tmp_path, capsys, monkeypatch):
    # the rest slice with t = 0.2 at its last node, where t_C = 1 and gamma =
    # 1 - 9 t_C^2 = -8: the run fails at its first record and keeps nothing
    def timelike_run(cfg, cadence):
        y = rq.rest_initial_state(cfg).copy()
        y[0, 24] = 0.2
        return rq.integrate(cfg, y, cadence)

    monkeypatch.setattr(cli, "integrate", timelike_run)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(CONFIGS / "gaussian_c3.txt"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "runtime failure: run failed at T = 0: non-positive spatial metric gamma = -8 "
        "at node 24: slice is no longer spacelike"]
    assert not out.exists()


@pytest.mark.parametrize("error, line", [
    # what numpy raises for a grid.n = 1000000 config's derivative matrix
    (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) "
                 "and data type float64"),
     "runtime failure: Unable to allocate 7.28 TiB for an array with shape (1000000, 1000000) "
     "and data type float64"),
    (MemoryError(), "runtime failure: MemoryError"),
], ids=["numpy", "bare"])
def test_running_out_of_memory_is_a_runtime_failure(tmp_path, capsys, monkeypatch, error, line):
    # build_plan is patched to fail as it would, so the test allocates nothing
    def no_memory(grid, order):
        raise error

    monkeypatch.setattr(state, "build_plan", no_memory)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(CONFIGS / "gaussian_c3.txt"),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists()


# runs no float can count, no weight can differentiate, or whose constants or
# grid span no float holds: each was a traceback (OverflowError in step_counts
# or a squared c or hbar), a runtime failure at T = 0 or an error naming x.
# A rule of the config itself names the config file, {config}; a run plan's
# step count, which also depends on --cadence, does not
UNRUNNABLE = {
    "dt-simulate": ("gaussian_c3.txt", "time.dt = 1e-3", "time.dt = 1e-320", ["simulate"],
                    "t_final / dt = 10 / 9.99989e-321 is not finite"),
    "dt-compare-limits": ("gaussian_c3.txt", "time.dt = 1e-3", "time.dt = 1e-320",
                          ["compare-limits", "--nonrel"],
                          "t_final / dt = 10 / 9.99989e-321 is not finite"),
    "cadence": ("gaussian_c3.txt", "", "", ["simulate", "--cadence", "1e306"],
                "cadence / dt = 1e+306 / 0.001 is not finite"),
    "weight-a": ("gaussian_c3.txt", "weight.a = 0.5", "weight.a = 1e308", ["simulate"],
                 "{config}: gaussian weight has a non-finite d ln f / dC coefficient"),
    "weight-kappa": ("exponential.txt", "weight.kappa = 0.25", "weight.kappa = 1e308",
                     ["simulate"],
                     "{config}: exponential weight has a non-finite d ln f / dC coefficient"),
    "c-simulate": ("gaussian_c3.txt", "\nc = 3\n", "\nc = 1e200\n", ["simulate"],
                   "{config}: c = 1e+200 or hbar = 1 squares past a float"),
    "c-compare-limits": ("gaussian_c3.txt", "\nc = 3\n", "\nc = 1e200\n",
                         ["compare-limits", "--nonrel"],
                         "{config}: c = 1e+200 or hbar = 1 squares past a float"),
    "hbar": ("gaussian_c3.txt", "hbar = 1\n", "hbar = 1e200\n", ["simulate"],
             "{config}: c = 3 or hbar = 1e+200 squares past a float"),
    "grid": ("gaussian_c3.txt", "grid.min = -5\ngrid.max = 5\n",
             "grid.min = -1e308\ngrid.max = 1e308\n", ["simulate"],
             "{config}: grid span 1e+308 - -1e+308 is not finite"),
}


@pytest.mark.parametrize("case", UNRUNNABLE)
def test_an_unrunnable_config_is_one_validation_error(tmp_path, capsys, case):
    name, old, new, command, message = UNRUNNABLE[case]
    text = (CONFIGS / name).read_text()
    assert old in text
    cfg = _write(tmp_path, "unrunnable.cfg", text.replace(old, new))
    out = tmp_path / "out"
    flags = ["--out", str(out)] if command[0] == "simulate" else []
    assert main([command[0], "--config", cfg, *command[1:], *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message.format(config=cfg)}"]
    assert captured.out == ""
    assert not out.exists()


class TestCompareLimits:
    def test_nonrel_comparison_runs(self, tmp_path, capsys):
        cfg = _write(tmp_path, "c100.cfg", """
c = 100
weight.kind = gaussian
weight.a = 0.5
grid.min = -2.5
grid.max = 2.5
grid.n = 25
time.final = 2
tol.invariant = 1e-6
""")
        assert main(["compare-limits", "--config", cfg, "--nonrel"]) == 0
        out = capsys.readouterr().out
        assert "max |x difference|" in out

    def test_second_config_against_itself(self, tmp_path, capsys):
        cfg = _write(tmp_path, "g.cfg", GAUSS_CFG.replace("time.final = 2", "time.final = 0.1"))
        assert main(["compare-limits", "--config", cfg, "--config2", cfg,
                     "--cadence", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "compare-limits vs second config: 3 of 3 slices compared" in out
        assert "max |x difference|      = 0.000000e+00" in out

    def test_runs_sharing_only_the_initial_slice_are_refused(self, tmp_path, capsys):
        # T = 0.035 is 35 steps of 1e-3 but 0.034999999999999996 after 50 of 7e-4
        text = (CONFIGS / "gaussian_c3.txt").read_text()
        cfg = _write(tmp_path, "a.cfg", text.replace("time.final = 10", "time.final = 0.1"))
        cfg2 = _write(tmp_path, "b.cfg", text.replace("time.final = 10", "time.final = 0.105")
                      .replace("time.dt = 1e-3", "time.dt = 7e-4"))
        assert main(["compare-limits", "--config", cfg, "--config2", cfg2,
                     "--cadence", "0.035"]) == 1
        captured = capsys.readouterr()
        assert "share no snapshot time after T = 0" in captured.err
        assert "max |x difference|" not in captured.out

    @pytest.fixture
    def no_run(self, monkeypatch):
        """Fail any solve: compare-limits must refuse its arguments first."""
        def fail(*args, **kwargs):
            raise AssertionError("integrated before refusing the arguments")

        for name in ("integrate", "nonrel_integrate"):
            monkeypatch.setattr(cli, name, fail)

    def test_needs_a_comparison_target(self, tmp_path, capsys, no_run):
        cfg = _write(tmp_path, "g.cfg", GAUSS_CFG)
        assert main(["compare-limits", "--config", cfg]) == 1
        assert "one of the arguments --config2 --nonrel is required" in capsys.readouterr().err

    def test_takes_only_one_comparison_target(self, tmp_path, capsys, no_run):
        cfg = _write(tmp_path, "g.cfg", GAUSS_CFG)
        assert main(["compare-limits", "--config", cfg, "--nonrel", "--config2", cfg]) == 1
        assert "not allowed with argument" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new", [("grid.n = 25", "grid.n = 21"),
                                          ("grid.min = -5", "grid.min = -4")],
                             ids=["grid-n", "grid-min"])
    def test_refuses_two_label_grids(self, tmp_path, capsys, no_run, old, new):
        # x is compared label by label, so the two runs must share their labels
        cfg = _write(tmp_path, "a.cfg", GAUSS_CFG)
        cfg2 = _write(tmp_path, "b.cfg", GAUSS_CFG.replace(old, new))
        assert main(["compare-limits", "--config", cfg, "--config2", cfg2]) == 1
        captured = capsys.readouterr()
        assert "the two configs label different grids" in captured.err
        assert "max |x difference|" not in captured.out

    @pytest.mark.parametrize("old, new, message", [
        ("weight.kind = gaussian\nweight.a = 0.5", "weight.kind = none",
         "weight.kind none has no density, so no quantum potential to run by"),
        ("time.final = 10", "time.final = 10.0005",
         "t_final = 10.0005 is not a whole multiple of dt = 0.001"),
    ], ids=["no-density", "off-the-step-grid"])
    def test_refuses_a_second_run_plan_before_either_run(self, tmp_path, capsys, no_run,
                                                         old, new, message):
        text = (CONFIGS / "gaussian_c3.txt").read_text()
        assert old in text
        cfg2 = _write(tmp_path, "b.cfg", text.replace(old, new))
        assert main(["compare-limits", "--config", str(CONFIGS / "gaussian_c3.txt"),
                     "--config2", cfg2]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("first", [True, False], ids=["config", "config2"])
    def test_a_bad_config_names_its_file_and_line(self, tmp_path, capsys, no_run, first):
        good = str(CONFIGS / "gaussian_c3.txt")
        text = Path(good).read_text()
        assert text.splitlines()[9] == "c = 3"
        bad = _write(tmp_path, "bad.txt", text.replace("\nc = 3\n", "\nc = three\n"))
        config, config2 = (bad, good) if first else (good, bad)
        assert main(["compare-limits", "--config", config, "--config2", config2]) == 1
        assert capsys.readouterr().err == f"error: {bad}: line 10: bad value for 'c': 'three'\n"


class TestUsage:
    @pytest.mark.parametrize("argv", [[], ["simulate"], ["analytic", "--kind", "nope"],
                                      ["verify", "--snapshots"]],
                             ids=["no-command", "no-flags", "bad-choice", "no-value"])
    def test_usage_error_is_validation_error(self, capsys, argv):
        assert main(argv) == 1
        assert "usage: relqtraj" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["simulate", "--help"]])
    def test_help_and_version_succeed(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out


class TestFigures:
    def test_figure_files(self, tmp_path):
        cfg = _write(tmp_path, "g.cfg", GAUSS_CFG)
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(out)])
        figs = tmp_path / "figs"
        assert main(["figures", "--snapshots", str(out), "--out", str(figs)]) == 0
        for name in ("fig_trajectories.tsv", "fig_simultaneity.tsv",
                     "fig_gamma.tsv", "fig_q.tsv"):
            assert (figs / name).exists()
        # the quantum-potential family crosses zero near +-sqrt(2) at every T
        rows = (figs / "fig_q.tsv").read_text().splitlines()[1:]
        data = {}
        for r in rows:
            T, C, Q = (float(v) for v in r.split("\t"))
            data.setdefault(T, []).append((C, Q))
        for T, pts in data.items():
            pts.sort()
            C = np.array([p[0] for p in pts])
            Q = np.array([p[1] for p in pts])
            sign_changes = C[:-1][np.sign(Q[:-1]) != np.sign(Q[1:])]
            assert any(1.0 < abs(cc) < 1.9 for cc in sign_changes)

    def test_trajectories_are_the_simultaneity_cells_label_by_label(self, tmp_path):
        # 3 slices of 25 labels, so a transpose that mixes up K and N shows;
        # the two files are compared to each other, so no BLAS kernel matters
        out, figs = tmp_path / "inertial", tmp_path / "figs"
        assert main(["analytic", "--kind", "inertial", "--beta0", "0.6", "--c", "2",
                     "--grid-min", "-2", "--grid-max", "2", "--grid-n", "25",
                     "--times", "0,0.5,1", "--out", str(out)]) == 0
        assert main(["figures", "--snapshots", str(out), "--out", str(figs)]) == 0
        traj = (figs / "fig_trajectories.tsv").read_text().splitlines()
        simul = (figs / "fig_simultaneity.tsv").read_text().splitlines()
        assert traj[0].split("\t") == ["C", "T", "t", "x"]
        assert simul[0].split("\t") == ["T", "C", "t", "x"]
        K, N = 3, 25
        assert len(simul) == len(traj) == 1 + K * N
        assert [r.split("\t")[0] for r in simul[1::N]] == ["0", "0.5", "1"]
        swapped = ["\t".join((T, C, t, x)) for C, T, t, x in (r.split("\t") for r in traj[1:])]
        assert swapped == [simul[1 + k * N + j] for j in range(N) for k in range(K)]


CORRUPTIONS = ("drop line", "drop cell", "truncate", "text", "nan", "inf", "-inf",
               "rename header")


@pytest.fixture(scope="module")
def pristine_output(tmp_path_factory):
    """The files of a small `analytic` output that verifies cleanly, by name."""
    out = _exponential_output(tmp_path_factory.mktemp("pristine") / "exp")
    files = {p.name: p.read_text() for p in out.iterdir()}
    assert main(["verify", "--snapshots", str(out)]) == 0
    return files


@st.composite
def corrupted(draw, files):
    """files with one manifest line, table row or cell dropped, truncated,
    replaced by text (never a number) or nan/inf, or one header renamed."""
    name = draw(st.sampled_from(sorted(files)))
    kind = draw(st.sampled_from(CORRUPTIONS))
    lines = files[name].splitlines()
    # a table's cells are split at tabs and its header is its first row; a
    # manifest line's cells are its key and value, and its header is its key
    sep = " = " if name == "manifest.txt" else "\t"
    header = kind == "rename header"
    k = 0 if header and name != "manifest.txt" else draw(st.integers(0, len(lines) - 1))
    cells = lines[k].split(sep)
    j = 0 if header and name == "manifest.txt" else draw(st.integers(0, len(cells) - 1))
    if kind == "drop line":
        del lines[k]
    else:
        if kind == "drop cell":
            del cells[j]
        elif kind == "truncate":
            cells[j] = cells[j][:draw(st.integers(0, max(len(cells[j]) - 1, 0)))]
        elif kind == "text":
            cells[j] = draw(st.text("abcdefxyz_.-", max_size=6))
        elif kind == "rename header":
            cells[j] += "x"
        else:
            cells[j] = kind
        lines[k] = sep.join(cells)
    return {**files, name: "\n".join(lines) + "\n"}


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_verify_survives_a_corrupted_output(pristine_output, data):
    files = data.draw(corrupted(pristine_output))
    with tempfile.TemporaryDirectory() as d:
        for name, text in files.items():
            Path(d, name).write_text(text)
        assert main(["verify", "--snapshots", d]) in (0, 1, 2)


_MAGNITUDE = st.floats(-300, 300).map(lambda e: 10.0 ** e)  # log-uniform in [1e-300, 1e300]


@st.composite
def extreme_command(draw, out):
    """A parseable simulate (one step) or analytic (two times) argument list
    with c, mass, hbar, the weight parameter and the grid bounds drawn from
    _MAGNITUDE, the grid's lower bound of either sign."""
    c, mass, hbar, param, lo, width = (draw(_MAGNITUDE) for _ in range(6))
    lo *= draw(st.sampled_from([-1.0, 1.0]))
    if draw(st.booleans()):
        kind, key = draw(st.sampled_from([("gaussian", "a"), ("exponential", "kappa")]))
        cfg = "\n".join([f"c = {c!r}", f"mass = {mass!r}", f"hbar = {hbar!r}",
                         f"weight.kind = {kind}", f"weight.{key} = {param!r}",
                         f"grid.min = {lo!r}", f"grid.max = {lo + width!r}", "grid.n = 9",
                         "time.final = 1e-3", "time.dt = 1e-3"])
        return ["simulate", "--config", _write(out, "extreme.cfg", cfg), "--cadence", "1e-3"]
    kind, flag = draw(st.sampled_from([(kind, flag) for kind, (flag, _, _) in cli._KINDS.items()]))
    param = draw(st.floats(-0.99, 0.99)) if kind == "inertial" else param
    return ["analytic", "--kind", kind, f"--{flag}", repr(param), "--mass", repr(mass),
            "--hbar", repr(hbar), "--c", repr(c), "--grid-min", repr(lo),
            "--grid-max", repr(lo + width), "--grid-n", "9", "--times", "0.5,1"]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_no_extreme_input_ends_in_a_traceback_or_a_warning(data):
    # an escaping exception fails the test, and so, by filterwarnings = error,
    # does any numpy warning
    with tempfile.TemporaryDirectory() as d:
        argv = data.draw(extreme_command(Path(d)))
        assert main([*argv, "--out", str(Path(d, "out"))]) in (0, 1, 2)
