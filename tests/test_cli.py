import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relqtraj as rq
from relqtraj import cli
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


class TestSimulate:
    def test_run_and_outputs(self, tmp_path, capsys):
        cfg = _write(tmp_path, "g.cfg", GAUSS_CFG)
        out = tmp_path / "out"
        code = main(["simulate", "--config", cfg, "--out", str(out)])
        # snapshots exist regardless of whether every invariant met tolerance
        snaps = sorted(out.glob("snap_*.tsv"))
        assert len(snaps) == 3  # T = 0, 1, 2
        assert (out / "manifest.tsv").exists()
        assert code in (0, 2)
        assert "simulate:" in capsys.readouterr().out

    def test_exponential_run_passes(self, tmp_path):
        cfg = _write(tmp_path, "e.cfg", EXP_CFG)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0

    def test_bad_config_is_validation_error(self, tmp_path):
        cfg = _write(tmp_path, "bad.cfg", "c = 3\n")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

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
        assert re.fullmatch(r"runtime failure: four-velocity norm drift \S+ exceeds .* "
                            r"after step to T = 0\.001\n", captured.err)
        assert captured.out == f"simulate: aborted, 1 partial snapshots kept in {out}\n"
        assert sorted(p.name for p in out.iterdir()) == ["manifest.tsv", "snap_T0.tsv"]
        manifest = (out / "manifest.tsv").read_text().splitlines()
        assert [ln for ln in manifest if ln.startswith("invariant.")] == []
        assert main(["verify", "--snapshots", str(out)]) == 0

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
        ("inertial", [], ["run.kind\tinertial", "run.beta0\t0"]),  # the default
        ("hyperbolic-gamma-t", ["--A", "0.5"], ["run.kind\thyperbolic-gamma-t", "run.A\t0.5"]),
    ])
    def test_analytic_records_its_kind_and_parameter(self, tmp_path, kind, flags, recorded):
        out = tmp_path / "out"
        assert main(["analytic", "--kind", kind, *flags, "--c", "2", "--grid-min", "-1",
                     "--grid-max", "1", "--grid-n", "25", "--times", "0.5,1",
                     "--out", str(out)]) == 0
        manifest = (out / "manifest.tsv").read_text().splitlines()
        assert [ln for ln in manifest if ln.startswith(("run.kind", "run.beta0", "run.A"))] \
            == recorded
        assert rq.read_snapshots(str(out)).times == [0.5, 1.0]  # run lines are not read

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
        txt = sorted(out.glob("snap_*.tsv"))[-1].read_text().splitlines()
        cols = txt[0].split("\t")
        x = [float(r.split("\t")[cols.index("x")]) for r in txt[1:]]
        C = [float(r.split("\t")[cols.index("C")]) for r in txt[1:]]
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

    @pytest.mark.parametrize("kappa", ["40", "1e200"])
    def test_analytic_refuses_an_overflowing_exponential_rate(self, tmp_path, capsys, kappa):
        out = tmp_path / "out"
        assert main(["analytic", "--kind", "exponential", "--kappa", kappa, "--c", "1",
                     "--grid-min", "-2", "--grid-max", "2", "--grid-n", "25",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: kappa = ") and "overflows" in err
        assert "Traceback" not in err
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
        table = out / "snap_T0.5.tsv"
        table.write_text(table.read_text().splitlines()[0] + "\n")
        assert main(["verify", "--snapshots", str(out)]) == 1
        assert "snap_T0.5.tsv: no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("column, value", [("C", "999"), ("T", "7")])
    def test_verify_rejects_a_tampered_column(self, tmp_path, capsys, column, value):
        out = tmp_path / "inertial"
        assert main(["analytic", "--kind", "inertial", "--c", "2", "--grid-min", "-2",
                     "--grid-max", "2", "--grid-n", "25", "--times", "0,0.5,1",
                     "--out", str(out)]) == 0
        table = out / "snap_T0.5.tsv"
        lines = table.read_text().splitlines()
        k = lines[0].split("\t").index(column)
        row = lines[5].split("\t")
        row[k] = value
        lines[5] = "\t".join(row)
        table.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--snapshots", str(out)]) == 1
        assert f"snap_T0.5.tsv: column {column} is not" in capsys.readouterr().err

    @pytest.mark.parametrize("table", ["snap_T0.tsv", "snap_T2.tsv"])
    def test_verify_fails_a_nan_wherever_it_sits(self, tmp_path, table):
        out = _exponential_output(tmp_path / "exp")
        path = out / table
        lines = path.read_text().splitlines()
        row = lines[5].split("\t")
        row[lines[0].split("\t").index("Q")] = "nan"
        lines[5] = "\t".join(row)
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--snapshots", str(out)]) == 2
        report = (out / "report.tsv").read_text().splitlines()
        rows = {ln.split("\t")[0]: ln.split("\t") for ln in report[1:]}
        T = float(table[len("snap_T"):-len(".tsv")])
        for name in ("force_orthogonality", "simultaneity_g01"):
            assert rows[name][1] == "nan"
            assert float(rows[name][2]) == T
            assert rows[name][-1] == "FAIL"

    @pytest.mark.parametrize("rows", ["one", "every"])
    def test_verify_names_a_table_with_short_rows(self, tmp_path, capsys, rows):
        cfg = _write(tmp_path, "g.cfg", GAUSS_CFG.replace("time.final = 2", "time.final = 1"))
        out = tmp_path / "out"
        main(["simulate", "--config", cfg, "--out", str(out)])
        table = out / "snap_T1.tsv"
        lines = table.read_text().splitlines()
        for k in ([3] if rows == "one" else range(1, len(lines))):
            lines[k] = lines[k].rsplit("\t", 1)[0]
        table.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--snapshots", str(out)]) == 1
        assert "snap_T1.tsv" in capsys.readouterr().err

    def test_verify_missing_directory(self, tmp_path):
        assert main(["verify", "--snapshots", str(tmp_path / "none")]) == 1

    @pytest.mark.parametrize("key, bad", [
        ("snapshot.1\t", "snapshot.1\tsnap_T1.tsv"),
        ("config.grid.n\t", "config.grid.n"),
        ("snapshot.1\t", "snapshot.one\tsnap_T1.tsv\t1"),
        # a snapshot name must be a plain file name inside the directory
        *(("snapshot.1\t", f"snapshot.1\t{name}\t1")
          for name in ("", ".", "..", "../snap_T1.tsv", "sub/snap_T1.tsv")),
    ], ids=["snapshot-without-T", "config-without-value", "snapshot-index-not-int",
            "name-empty", "name-dot", "name-dotdot", "name-in-parent", "name-in-subdir"])
    def test_verify_names_a_malformed_manifest_line(self, tmp_path, capsys, key, bad):
        out = _exponential_output(tmp_path / "exp")
        manifest = out / "manifest.tsv"
        lines = manifest.read_text().splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith(key))
        lines[k] = bad
        manifest.write_text("\n".join(lines) + "\n")
        assert main(["verify", "--snapshots", str(out)]) == 1
        assert f"manifest.tsv: line {k + 1}: malformed" in capsys.readouterr().err


    def test_verify_and_figures_warn_nothing_for_an_inf_cell(self, tmp_path):
        out = _exponential_output(tmp_path / "exp")
        path = out / "snap_T1.tsv"
        lines = path.read_text().splitlines()
        row = lines[5].split("\t")
        row[lines[0].split("\t").index("Q")] = "inf"
        lines[5] = "\t".join(row)
        path.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--snapshots", str(out)]) == 2
            assert main(["figures", "--snapshots", str(out), "--out", str(tmp_path / "f")]) == 0
        report = (out / "report.tsv").read_text().splitlines()
        rows = {ln.split("\t")[0]: ln.split("\t") for ln in report[1:]}
        assert rows["force_orthogonality"][1] == "nan"
        assert rows["force_orthogonality"][-1] == "FAIL"

    def test_analytic_refuses_times_that_share_a_file_name(self, tmp_path, capsys):
        # file names keep 10 significant digits of T
        out = tmp_path / "out"
        assert main(["analytic", "--kind", "inertial", "--beta0", "0.6", "--c", "2",
                     "--grid-min", "-2", "--grid-max", "2", "--grid-n", "25",
                     "--times", "0,1.00000000001,1.00000000002", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "T = 1.00000000001" in err and "T = 1.00000000002" in err
        assert "snap_T1.tsv" in err
        assert not out.exists() or not any(out.iterdir())

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
                                            ("0,nan", "nan")])
    def test_analytic_refuses_a_time_before_the_initial_slice(self, tmp_path, capsys,
                                                              times, bad):
        out = tmp_path / "out"
        assert main(["analytic", "--kind", "inertial", "--c", "2", "--grid-min", "-2",
                     "--grid-max", "2", "--grid-n", "25", f"--times={times}",
                     "--out", str(out)]) == 1
        assert f"--times entry {bad} " in capsys.readouterr().err
        assert not out.exists()

    def test_analytic_records_its_last_time_as_the_horizon(self, tmp_path):
        # a series of the initial slice alone ends at T = 0, not at an invented T = 1
        out = tmp_path / "out"
        assert main(["analytic", "--kind", "inertial", "--c", "2", "--grid-min", "-2",
                     "--grid-max", "2", "--grid-n", "25", "--times", "0",
                     "--out", str(out)]) == 0
        assert "config.time.final\t0" in (out / "manifest.tsv").read_text().splitlines()


# fault -> (analytic --times, manifest edit, the command run on the edited
# output, the error it must print); with no edit, analytic itself refuses
SNAPSHOT_ORDER_FAULTS = {
    # a repeated index read one table twice, and the residual rows dropped out
    "repeated-index": ("0,1,2,3",
                       lambda ls: ls + [ln for ln in ls if ln.startswith("snapshot.1\t")],
                       "verify", "manifest.tsv: snapshot index 1 is listed twice"),
    "T-out-of-index-order": ("0,1,2,3", lambda ls: [ln.replace("snapshot.1\t", "snapshot.9\t")
                                                    for ln in ls],
                             "verify", "manifest.tsv: snapshot.9 has T = 1, not after "
                                       "snapshot.3's T = 3"),
    # figures wrote header-only files from a manifest with no snapshot
    "no-snapshot": ("0,1,2,3", lambda ls: [ln for ln in ls if not ln.startswith("snapshot.")],
                    "figures", "manifest.tsv: lists no snapshot"),
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
        manifest = out / "manifest.tsv"
        manifest.write_text("".join(edit(manifest.read_text().splitlines(keepends=True))))
        code = main([command, "--snapshots", str(out)]
                    + (["--out", str(tmp_path / "figs")] if command == "figures" else []))
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "compare-limits"])
def test_a_non_finite_first_record_is_one_runtime_failure(tmp_path, capsys, command):
    # c = 1e-150 overflows tau_T = exp(-Q / m c^2) on the initial slice: the
    # run stops at its first record, without a numpy warning, and keeps nothing
    text = (CONFIGS / "gaussian_c3.txt").read_text()
    assert "\nc = 3\n" in text and "time.final = 10" in text
    cfg = _write(tmp_path, "tiny_c.cfg", text.replace("\nc = 3\n", "\nc = 1e-150\n")
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
    # a table's header is its first row, a manifest line's is its key
    header = kind == "rename header"
    k = 0 if header and name != "manifest.tsv" else draw(st.integers(0, len(lines) - 1))
    cells = lines[k].split("\t")
    j = 0 if header and name == "manifest.tsv" else draw(st.integers(0, len(cells) - 1))
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
        lines[k] = "\t".join(cells)
    return {**files, name: "\n".join(lines) + "\n"}


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_verify_survives_a_corrupted_output(pristine_output, data):
    files = data.draw(corrupted(pristine_output))
    with tempfile.TemporaryDirectory() as d:
        for name, text in files.items():
            Path(d, name).write_text(text)
        assert main(["verify", "--snapshots", d]) in (0, 1, 2)
