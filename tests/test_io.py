import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relqtraj as rq
from relqtraj.cli import main
from relqtraj.snapshot_io import (ConfigError, SNAPSHOT_COLUMNS, format_cells, write_series,
                                  write_table)

from conftest import baseline_config, select

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

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

    def test_the_no_density_weight_round_trips(self):
        # analytic --kind hyperbolic-gamma-one has no closed-form density; the
        # manifest says so as weight.kind = none, and the config reads back equal
        cfg = rq.SimConfig(c=1.0, weight=rq.hyperbolic_gamma_one_ensemble(1.0, 1.0).weight,
                           grid=rq.make_grid(0.5, 2.5, 25), t_final=1.0)
        text = rq.config_to_text(cfg)
        assert "\nweight.kind = none\ngrid.min = 0.5\n" in text
        again = rq.parse_config(text)
        assert again == cfg and hash(again) == hash(cfg)
        assert np.isnan(np.exp(again.weight.log_f(again.grid.nodes))).all()  # f is NaN
        with pytest.raises(ConfigError, match="'weight.a' does not apply to weight.kind 'none'"):
            rq.parse_config(text + "weight.a = 1\n")

    def test_shipped_config_echo_is_pinned(self):
        # the manifest echo of configs/gaussian_c3.txt, byte for byte
        path = CONFIGS / "gaussian_c3.txt"
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
        assert again == cfg

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.txt")), ids=lambda p: p.name)
    def test_shipped_configs_are_values(self, path):
        # two parses of one text, or of a config's echo, are the same value
        cfg = rq.parse_config(path.read_text())
        for again in (rq.parse_config(path.read_text()), rq.parse_config(rq.config_to_text(cfg))):
            assert again == cfg and hash(again) == hash(cfg)


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
    assert again == cfg and hash(again) == hash(cfg)
    assert _config_bits(again) == _config_bits(cfg)  # it also tells signed zeros apart
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
    # write_series formats the outer and field cells by its row template, the
    # same cells: here the values are both, one row each under one inner 0
    with tempfile.TemporaryDirectory() as tmp:
        fname = Path(tmp) / "t.tsv"
        write_series(str(fname), ("k", "j", "v"), values, [0.0], np.reshape(values, (-1, 1)))
        rows = [row.split("\t") for row in fname.read_text().splitlines()]
    assert rows == [["k", "j", "v"], *([cell, "0", cell] for cell in cells)]
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
        assert any(p.endswith("manifest.txt") for p in paths)
        back = rq.read_snapshots(str(out))
        assert len(back) == len(short_series)
        for a, b in zip(short_series, back):
            assert a.tau_ensemble == b.tau_ensemble
            assert np.array_equal(a.state.t, b.state.t)
            assert np.array_equal(a.state.x, b.state.x)
            assert np.array_equal(a.state.u0, b.state.u0)
            assert np.array_equal(a.state.u1, b.state.u1)
            assert np.array_equal(a.quantum.Q, b.quantum.Q)

    def test_manifest_reconstructs_config(self, short_series, tmp_path):
        out = tmp_path / "snaps"
        rq.write_snapshots(short_series, str(out))
        back = rq.read_snapshots(str(out))
        cfg = back.config
        assert cfg.c == short_series.config.c
        assert cfg.invariant_tol == short_series.config.invariant_tol
        assert cfg.grid.n_points == short_series.config.grid.n_points

    def test_rerun_from_manifest_is_bitwise(self, short_series, tmp_path):
        # the manifest is a config file: simulate --config <out>/manifest.txt
        # writes the same table byte for byte (exit 2: criterion 2 fails at c = 3)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        rq.write_snapshots(short_series, str(out1))
        assert main(["simulate", "--config", str(out1 / "manifest.txt"), "--out", str(out2),
                     "--cadence", "0.5"]) == 2
        assert (out2 / "snapshots.tsv").read_bytes() == (out1 / "snapshots.tsv").read_bytes()
        # the rerun's manifest is the same config, then its run notes
        assert (out2 / "manifest.txt").read_text().startswith((out1 / "manifest.txt").read_text())

    def test_header_and_precision(self, short_series, tmp_path):
        out = tmp_path / "snaps"
        rq.write_snapshots(short_series, str(out))
        first = (out / "snapshots.tsv").read_text().splitlines()
        assert first[0].split("\t") == list(SNAPSHOT_COLUMNS)
        # N rows per snapshot under one header, the slices in T order
        n = short_series.config.grid.n_points
        assert len(first) == 1 + n * len(short_series)
        assert [float(row.split("\t")[0]) for row in first[1::n]] == short_series.times.tolist()
        # 17 significant digits round-trip doubles exactly
        val = first[1].split("\t")[3]
        assert float(val) == short_series.snapshots[0].state.x[0]

    def test_header_must_be_the_snapshot_columns(self, short_series, tmp_path):
        # the reader takes the columns by position, so it checks their names
        out = tmp_path / "snaps"
        rq.write_snapshots(short_series, str(out))
        table = out / "snapshots.tsv"
        table.write_text(table.read_text().replace("u1", "v", 1))
        with pytest.raises(ValueError, match="snapshots.tsv: header row is not"):
            rq.read_snapshots(str(out))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            rq.read_snapshots(str(tmp_path / "nope"))

    def test_an_empty_series_is_refused_before_anything_is_written(self, short_series,
                                                                   tmp_path):
        # it once wrote a directory of only manifest.tsv, which the reader refused
        out = tmp_path / "snaps"
        empty = select(short_series, slice(0))
        with pytest.raises(ValueError, match="needs at least one snapshot"):
            rq.write_snapshots(empty, str(out))
        assert not out.exists()


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
    (lambda tmp: write_table(str(tmp / "missing" / "t.tsv"), ["a\tb\n"]),
     OSError, "cannot write table .*t.tsv"),
])
def test_refusals_name_their_cause(tmp_path, call, error, message):
    with pytest.raises(error, match=message):
        call(tmp_path)


@pytest.mark.parametrize("text, message", [
    (b"c = 3\nc = 4\n", "line 2: duplicate key 'c'"),
    (b"c = 3\xff\n", "'utf-8' codec can't decode byte 0xff in position 5"),
], ids=["duplicate", "not-utf-8"])
def test_a_config_file_error_names_the_file(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_bytes(text)
    with pytest.raises(ConfigError) as info:
        rq.load_config(str(path))
    assert str(info.value).startswith(f"{path}: {message}")
