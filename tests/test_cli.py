import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_needs_a_comparison_target(self, tmp_path):
        cfg = _write(tmp_path, "g.cfg", GAUSS_CFG)
        assert main(["compare-limits", "--config", cfg]) == 1


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
