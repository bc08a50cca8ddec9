import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relqtraj as rq
from relqtraj.snapshot_io import ConfigError, SNAPSHOT_COLUMNS, format_cells, write_table

from conftest import baseline_config

BASELINE_TEXT = """
# wavepacket benchmark
mass = 1
hbar = 1
c = 3
weight.kind = gaussian
weight.a = 0.5
grid.min = -5
grid.max = 5
grid.n = 25
time.final = 10
tol.invariant = 1e-3
"""


class TestParseConfig:
    def test_baseline_accepted(self):
        cfg = rq.parse_config(BASELINE_TEXT)
        assert cfg.c == 3.0
        assert cfg.weight.kind == "gaussian"
        assert cfg.weight.params == (0.5,)
        assert cfg.grid.n_points == 25
        assert (cfg.grid.c_min, cfg.grid.c_max) == (-5.0, 5.0)
        assert cfg.t_final == 10.0
        # documented defaults fill the rest
        assert cfg.dt == 1e-3
        assert cfg.stencil_order == 4
        assert cfg.residual_tol == 1e-5
        assert cfg.invariant_tol == 1e-3

    def test_empty_requires_weight_kind(self):
        with pytest.raises(ConfigError, match="weight.kind"):
            rq.parse_config("")

    def test_small_grid_rejected(self):
        text = BASELINE_TEXT.replace("grid.n = 25", "grid.n = 4")
        with pytest.raises(ConfigError, match="9"):
            rq.parse_config(text)

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2.*frobnicate"):
            rq.parse_config("c = 1\nfrobnicate = 7\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            rq.parse_config(BASELINE_TEXT + "\nc = 4\n")

    @pytest.mark.parametrize("key, old, new", [
        ("grid.n", "grid.n = 25", "grid.n = 17.9"),
        ("grid.n", "grid.n = 25", "grid.n = inf"),
        ("stencil.order", "tol.invariant", "stencil.order = 4.5\ntol.invariant"),
    ])
    def test_non_integral_integer_key_rejected(self, key, old, new):
        # int(float("17.9")) would silently run a 17-node grid
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            rq.parse_config(BASELINE_TEXT.replace(old, new))

    def test_integral_float_integer_key_accepted(self):
        cfg = rq.parse_config(BASELINE_TEXT.replace("grid.n = 25", "grid.n = 25.0"))
        assert cfg.grid.n_points == 25

    def test_bad_value_names_key_and_line(self):
        text = BASELINE_TEXT.replace("c = 3", "c = fast")
        with pytest.raises(ConfigError, match="c"):
            rq.parse_config(text)

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="line 1"):
            rq.parse_config("c 3")

    def test_gaussian_needs_width(self):
        text = BASELINE_TEXT.replace("weight.a = 0.5\n", "")
        with pytest.raises(ConfigError, match="weight.a"):
            rq.parse_config(text)

    def test_stray_weight_parameter_rejected(self):
        with pytest.raises(ConfigError, match="weight.kappa"):
            rq.parse_config(BASELINE_TEXT + "\nweight.kappa = 1\n")

    def test_uniform_and_exponential_kinds(self):
        base = "c = 1\ngrid.min = 0\ngrid.max = 1\ngrid.n = 11\ntime.final = 1\n"
        cfg = rq.parse_config(base + "weight.kind = uniform\n")
        assert cfg.weight.kind == "uniform"
        cfg = rq.parse_config(base + "weight.kind = exponential\nweight.kappa = 0.3\n")
        assert cfg.weight.params == (0.3,)

    def test_shipped_config_echo_is_pinned(self):
        # the manifest echo of configs/gaussian_c3.txt, byte for byte
        path = Path(__file__).resolve().parents[1] / "configs" / "gaussian_c3.txt"
        assert rq.config_to_text(rq.parse_config(path.read_text())) == (
            "mass = 1\nhbar = 1\nc = 3\nweight.kind = gaussian\nweight.a = 0.5\n"
            "grid.min = -5\ngrid.max = 5\ngrid.n = 25\ntime.final = 10\n"
            "time.dt = 0.001\nstencil.order = 4\ntol.residual = 1.0000000000000001e-05\n"
            "tol.invariant = 0.001\n")

    def test_defaults_are_the_simconfig_defaults(self):
        text = "c = 3\nweight.kind = uniform\ngrid.min = -1\ngrid.max = 1\ngrid.n = 11\ntime.final = 1\n"
        cfg = rq.SimConfig(c=3.0, weight=rq.uniform_weight(), grid=rq.make_grid(-1, 1, 11),
                           t_final=1.0)
        assert rq.config_to_text(rq.parse_config(text)) == rq.config_to_text(cfg)

    def test_round_trip_through_text(self):
        cfg = rq.parse_config(BASELINE_TEXT)
        again = rq.parse_config(rq.config_to_text(cfg))
        assert again.c == cfg.c
        assert again.dt == cfg.dt
        assert again.grid.n_points == cfg.grid.n_points
        assert again.weight.kind == cfg.weight.kind
        assert again.invariant_tol == cfg.invariant_tol


def _positive(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def configs(draw):
    """Valid SimConfigs: every weight kind, any grid, t_final a multiple of dt."""
    weight = draw(st.one_of(
        st.builds(rq.gaussian_weight, _positive(1e-3, 10.0)),
        st.builds(rq.exponential_weight, st.floats(-5.0, 5.0)),
        st.just(rq.uniform_weight()),
    ))
    c_min = draw(st.floats(-50.0, 50.0))
    dt = draw(_positive(1e-5, 0.1))
    return rq.SimConfig(
        mass=draw(_positive(1e-3, 1e3)), hbar=draw(_positive(1e-3, 1e3)),
        c=draw(_positive(1e-3, 1e3)), weight=weight,
        grid=rq.make_grid(c_min, c_min + draw(_positive(0.1, 100.0)),
                          draw(st.integers(9, 201))),
        t_final=draw(st.integers(0, 10_000)) * dt, dt=dt,
        stencil_order=draw(st.sampled_from([2, 4])),
        residual_tol=draw(_positive(1e-15, 1.0)), invariant_tol=draw(_positive(1e-15, 1.0)),
    )


def _config_bits(cfg):
    """Every field of a SimConfig, floats as their exact float64 bytes."""
    g = cfg.grid
    floats = (cfg.mass, cfg.hbar, cfg.c, *cfg.weight.params, g.c_min, g.c_max,
              cfg.t_final, cfg.dt, cfg.residual_tol, cfg.invariant_tol)
    return (cfg.weight.kind, len(cfg.weight.params), g.n_points, cfg.stencil_order,
            np.array(floats).tobytes(), g.nodes.tobytes())


@settings(max_examples=60, deadline=None, database=None)
@given(configs())
def test_config_text_round_trip(cfg):
    text = rq.config_to_text(cfg)
    again = rq.parse_config(text)
    assert _config_bits(again) == _config_bits(cfg)
    assert rq.config_to_text(again) == text


# the edges of float64: non-finite values, signed zeros, the smallest
# subnormal and normal magnitudes and the largest finite one
EDGE_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308)


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(st.floats() | st.sampled_from(EDGE_FLOATS), max_size=30))
def test_format_cells_is_the_17_digit_cell_and_round_trips(values):
    cells = format_cells(values)
    assert cells == [format(v, ".17g") for v in values]
    # any shape is read flat
    assert format_cells(np.reshape(values, (1, -1, 1))) == cells
    back = [float(cell) for cell in cells]
    for v, b in zip(values, back):
        if math.isnan(v):
            assert math.isnan(b)
        else:  # bitwise, so the sign of a zero counts
            assert np.float64(b).view(np.uint64) == np.float64(v).view(np.uint64)


@pytest.fixture(scope="module")
def short_series():
    return rq.integrate(baseline_config(t_final=2.0), cadence=0.5)


class TestSnapshotRoundTrip:
    def test_bitwise_round_trip(self, short_series, tmp_path):
        out = tmp_path / "snaps"
        paths = rq.write_snapshots(short_series, str(out), code_version="x")
        assert any(p.endswith("manifest.tsv") for p in paths)
        back = rq.read_snapshots(str(out))
        assert len(back) == len(short_series)
        for a, b in zip(short_series, back):
            assert a.tau_ensemble == b.tau_ensemble
            assert np.array_equal(a.state.t, b.state.t)
            assert np.array_equal(a.state.x, b.state.x)
            assert np.array_equal(a.state.u0, b.state.u0)
            assert np.array_equal(a.state.u1, b.state.u1)
            assert np.array_equal(a.quantum.Q, b.quantum.Q)

    def test_gaps_in_the_snapshot_indices_are_legal(self, short_series, tmp_path):
        out = tmp_path / "snaps"
        rq.write_snapshots(short_series, str(out))
        manifest = out / "manifest.tsv"
        text = manifest.read_text()
        for k in range(1, len(short_series)):  # index k becomes 10 k
            text = text.replace(f"snapshot.{k}\t", f"snapshot.{10 * k}\t")
        manifest.write_text(text)
        assert rq.read_snapshots(str(out)).times == short_series.times

    def test_manifest_reconstructs_config(self, short_series, tmp_path):
        out = tmp_path / "snaps"
        rq.write_snapshots(short_series, str(out))
        back = rq.read_snapshots(str(out))
        cfg = back.config
        assert cfg.c == short_series.config.c
        assert cfg.invariant_tol == short_series.config.invariant_tol
        assert cfg.grid.n_points == short_series.config.grid.n_points

    def test_rerun_from_manifest_is_bitwise(self, short_series, tmp_path):
        out1 = tmp_path / "a"
        rq.write_snapshots(short_series, str(out1))
        cfg = rq.read_snapshots(str(out1)).config
        series2 = rq.integrate(cfg, cadence=0.5)
        out2 = tmp_path / "b"
        rq.write_snapshots(series2, str(out2))
        for p1 in sorted(out1.glob("snap_*.tsv")):
            p2 = out2 / p1.name
            assert p2.read_bytes() == p1.read_bytes()

    def test_header_and_precision(self, short_series, tmp_path):
        out = tmp_path / "snaps"
        rq.write_snapshots(short_series, str(out))
        first = (out / "snap_T0.tsv").read_text().splitlines()
        assert first[0].split("\t") == list(SNAPSHOT_COLUMNS)
        # 17 significant digits round-trip doubles exactly
        val = first[1].split("\t")[3]
        assert float(val) == short_series.snapshots[0].state.x[0]

    def test_header_must_be_the_snapshot_columns(self, short_series, tmp_path):
        # the reader takes the columns by position, so it checks their names
        out = tmp_path / "snaps"
        rq.write_snapshots(short_series, str(out))
        table = out / "snap_T1.tsv"
        table.write_text(table.read_text().replace("rho_star", "rho", 1))
        with pytest.raises(ValueError, match="snap_T1.tsv: header row is not"):
            rq.read_snapshots(str(out))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            rq.read_snapshots(str(tmp_path / "nope"))


class TestReport:
    def test_report_rows(self, tmp_path):
        series = rq.integrate(baseline_config(t_final=1.0), cadence=1.0)
        rep = rq.evaluate_invariants(series)
        out = tmp_path / "report.tsv"
        rq.write_report(rep, str(out))
        lines = out.read_text().splitlines()
        assert lines[0].split("\t") == [
            "name", "max_violation", "T_at_max", "C_at_max", "tolerance", "pass"]
        names = [ln.split("\t")[0] for ln in lines[1:]]
        assert "four_velocity_norm" in names
        assert "simultaneity_g01" in names


@pytest.mark.parametrize("call, error, message", [
    # a weight kind the weight table does not hold, named with its line
    (lambda tmp: rq.parse_config(BASELINE_TEXT.replace("= gaussian", "= cauchy")),
     ConfigError, "line 6: unknown weight.kind 'cauchy'"),
    # every output file goes through write_table, and so does its error
    (lambda tmp: write_table(str(tmp / "missing" / "t.tsv"), [("a", "b")]),
     OSError, "cannot write table .*t.tsv"),
])
def test_refusals_name_their_cause(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)
