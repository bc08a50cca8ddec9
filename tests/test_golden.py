"""Golden-output regression: SHA-256 of every written table, bitwise.

The simulate hashes were recorded before the RK stages moved onto the
array-level slice-field core; the analytic and figures hashes before the
snapshot fields, the RK4 combine and the TSV writer were shared between the
solver, the reader and the CLI; the non-relativistic hashes before that
solver moved onto the shared fixed-step driver.  The two report pins were
re-recorded once when the evolution-equation residuals moved onto each
record's tau_T and force: pde_residual_x went from 8.880075645922858e-07 to
8.880075643702412e-07 (2.5e-10 relative, the same T and C), every other
record kept its bits.  The in-memory field pin was re-recorded, before that
change, over the 10 fields a record keeps once t_C, x_C and Q_C left it.
REPORT was re-recorded once more when interpolate took its weights from
fornberg_weights: reference_trajectory_zeros went from
0.0026396598250093589 to 0.0026396598250093555 (1.3e-15 relative, the same
T and C), every other record kept its bits.
Any change to those paths that moves a single bit of output fails here.
manifest.tsv is left out because it carries the code version and timestamps.
"""

import hashlib
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

import relqtraj as rq
from relqtraj.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# configs/gaussian_c3.txt at cadence 1: the 11 integer-T slices.
GAUSSIAN_C3 = {
    "snap_T0.tsv":
        "df879079b67c4f5a7fa7544200dd7cfd6bcf5d1762b76e1996514d0c7f2f1110",
    "snap_T1.tsv":
        "ff8107d6c9addce3e5b143165d5fbd27a2947e84d867ff6e5e8b06078d64e88f",
    "snap_T2.tsv":
        "3a340bb30afd454cc080e56295aeeda84bbfb7bd9027e8ed57a4b8f5b6109fea",
    "snap_T3.tsv":
        "c175f6ae1b78e29abf4e576404fe16969e6978529d6417da5bb0327e32ade3d2",
    "snap_T4.tsv":
        "9f30aa17e761b3c53804ec3210fa3096225a4d8349971d2d635b81b73f10a997",
    "snap_T5.tsv":
        "b6f41a7cb7f7ff9dbdb35b6ecb48db04147d4e23120bfe6b3955a2a86e5533df",
    "snap_T6.tsv":
        "cb3a303e8a2a607d2713030cc3ed118208de5913b65b9ed67586be8ab8eb4fa2",
    "snap_T7.tsv":
        "d522870e45da936cce269c16fb983013493052b8efe1f29953822de464d02829",
    "snap_T8.tsv":
        "3e85b72e36e64483b1b68d20b3f6e5adc9ca5efc72dce5cff18347936e8521c3",
    "snap_T9.tsv":
        "43db9aae3b5a90debc063f68cce660cd5b0a2e6bfbbd64680e59b0940d26e420",
    "snap_T10.tsv":
        "917208e8184e69a9a946ca2abcfefb8e0e950328ea91746232d0bf413068a287",
}

# configs/exponential.txt at cadence 1.
EXPONENTIAL = {
    "snap_T0.tsv":
        "6a7f17f186a2668425f0bd5cb9d4c03db52665eabfe3c0ea60d89a114e80b0a5",
    "snap_T1.tsv":
        "89b53b3eb91f3d721b4a66bf2665d2dd0ca6306301cfaf178a21e75c5df08ed2",
    "snap_T2.tsv":
        "c012818f52f7aaeea2d5ca5542376f7ae6054f480246552bb1db01ea644d7473",
}


# nonrel_integrate of each shipped config at cadence 1: SHA-256 over (t, x, v)
# of every record, in order, as float64 bytes.
NONREL = {
    "exponential.txt":
        "6e244bdbcfc3e7cb873f0967dfca2f291cb1799686c03d38108cf5a280d42e89",
    "gaussian_c100.txt":
        "9acb21134756c2eefe9ea02a00e2cde4d845edc7cdc0ab0a25c074daeceb67ac",
    "gaussian_c3.txt":
        "89726d743761b327c2de2d3680ad9805dadf5eac7e0272c676fd51b31a2b3ed5",
    "uniform_rest.txt":
        "db677a23cdcfa254b6b5aba608e727ff48f03d1f5c5f1be974eb1d60a1371650",
}


# `relqtraj analytic --grid-n 25` with these arguments, one run per --kind.
ANALYTIC_ARGS = {
    "inertial": ["--beta0", "0.6", "--c", "2", "--grid-min", "-2", "--grid-max", "2",
                 "--times", "0,0.5,1"],
    "exponential": ["--kappa", "0.3", "--c", "1", "--grid-min", "-2", "--grid-max", "2",
                    "--times", "0,1,2"],
    "hyperbolic-gamma-one": ["--B", "1", "--c", "1", "--grid-min", "0.5",
                             "--grid-max", "2.5", "--times", "0,0.4,0.8"],
    "hyperbolic-gamma-t": ["--A", "0.5", "--c", "2", "--grid-min", "-1", "--grid-max", "1",
                           "--times", "0.5,1"],
}
ANALYTIC = {
    "inertial": {
        "snap_T0.5.tsv":
            "8a42e8019f8bbe3dc75d1ce390d881e433511e90be3d867c72978ea16709f27c",
        "snap_T0.tsv":
            "91fa951f414de1912bf5a694a1b243080036b71ea719417740b042fd15fb7b4d",
        "snap_T1.tsv":
            "16deb6cd8a1eb6e1ffa42b59d8136834c6940ec1a4841571696d30136fdfd99f",
    },
    "exponential": {
        "snap_T0.tsv":
            "6d0fbdac261f6b29ca81276a2722bebaa6786c70c3d288a0702b6003636ab094",
        "snap_T1.tsv":
            "6cc092b3b9f8437f5a65bfb14a8d56274be99610bb80494466080a74c23e8ab2",
        "snap_T2.tsv":
            "7a8108ceabde47a571e1aea5073887fe99c62591864fc242e5fcabffcabbd4b0",
    },
    "hyperbolic-gamma-one": {
        "snap_T0.4.tsv":
            "029798b849083a2f05de3247c31d95bf154d6e244a4247ae62cb4c3c9604537b",
        "snap_T0.8.tsv":
            "52a9c4d1890859f0ab7909167c95b25cc70304d298d6c6538dcf5c3279deb94b",
        "snap_T0.tsv":
            "b635d34283558912dea63ff55792754bc1bb45dc82581b8cdcd888cdc2a71eb9",
    },
    "hyperbolic-gamma-t": {
        "snap_T0.5.tsv":
            "8ec37aa6feda8b6a22d002c826391cc0dbe30f72a0f2a172ecf94a0623b06fca",
        "snap_T1.tsv":
            "c56e949040b38b63c468a90b3971455edf7620a565c15a1f6088ceb18cd7c659",
    },
}

# configs/gaussian_c3.txt to T = 1 at cadence 0.025 (41 slices): the
# report.tsv that `verify` writes and the four `figures` files.
REPORT = "1c557c04e362f15410673588e79c05600048ed11253cf61fd93c650eac466ebe"
FIGURES = {
    "fig_gamma.tsv":
        "1e34001fd87191d694e0f8dc954a76471690a8ef5bce3caee8e84b2ef9c0d72f",
    "fig_q.tsv":
        "456fe2d6379bcfccfcf708522056f029b638c8aba532d6c2c8bc1171f13c7ed1",
    "fig_simultaneity.tsv":
        "f0d31a2d3036ea7f845109fc5f4a7f7b757373ea47c5c2bc605fca29a52f306b",
    "fig_trajectories.tsv":
        "490b9db1cb5f33f17a9c82592ab7b8fc415daf16a438c187c5034464fbaf12c2",
}


# evaluate_invariants over the baseline fixture (configs/gaussian_c3.txt to
# T = 10 at cadence 0.025, 401 slices): all seven rows of its report.tsv.  The
# worst force-orthogonality (T = 8.825) and reference-zero (T = 6.575) points
# lie past T = 1, so only this pin covers where the whole-run maximum is found.
FULL_REPORT = "6988e6d46835a235cc697939cdbc04cd214f97bddeb4c9da8b2068ab68f4a16f"

# configs/gaussian_c3.txt cut to T = 0.05 at cadence 0.01 (6 records): SHA-256
# over the 10 per-node fields of every record, in order, as float64 bytes.  No
# file holds g01 or the force, so this is their only pin; the series read back
# from its files must give the same value.
IN_MEMORY_FIELDS = ("state.t", "state.x", "state.u0", "state.u1",
                    "geometry.gamma", "geometry.g01_residual",
                    "quantum.Q", "quantum.f0", "quantum.f1", "quantum.tau_T")
IN_MEMORY = "59d81de1050b6b98b9b4e9c36899829ce913cef3a9e0642783b8d77204faddb7"


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _snapshot_hashes(series, out):
    rq.write_snapshots(series, str(out))
    return _table_hashes(out, "snap_T*.tsv")


def _table_hashes(out, pattern):
    return {p.name: _sha(p) for p in sorted(out.glob(pattern))}


def test_gaussian_c3_integer_slices(baseline_run, baseline_integer_snapshots, tmp_path):
    # The baseline fixture is configs/gaussian_c3.txt; recording it at a finer
    # cadence does not change the state at integer T.
    cfg = rq.parse_config((CONFIGS / "gaussian_c3.txt").read_text())
    assert rq.config_to_text(cfg) == rq.config_to_text(baseline_run[0].config)
    series = rq.SnapshotSeries(config=cfg, snapshots=baseline_integer_snapshots)
    assert _snapshot_hashes(series, tmp_path) == GAUSSIAN_C3


def test_exponential(tmp_path):
    cfg = rq.parse_config((CONFIGS / "exponential.txt").read_text())
    series = rq.integrate(cfg, cadence=1.0)
    assert _snapshot_hashes(series, tmp_path) == EXPONENTIAL


def _nonrel_hash(records):
    h = hashlib.sha256()
    for s in records:
        h.update(np.float64(s.t).tobytes())
        h.update(s.x.tobytes())
        h.update(s.v.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(NONREL))
def test_nonrel(name, c100_pair):
    cfg = rq.parse_config((CONFIGS / name).read_text())
    if name == "gaussian_c100.txt":
        # the c100_pair fixture already ran this config at cadence 1
        assert rq.config_to_text(cfg) == rq.config_to_text(c100_pair[0])
        records = c100_pair[2]
    else:
        records = rq.nonrel_integrate(cfg, cadence=1.0)
    assert _nonrel_hash(records) == NONREL[name]


def test_nonrel_failure_keeps_partial_records():
    # at 61 labels and dt = 1e-2, x stops being monotone in C in the sixth unit of t
    text = (CONFIGS / "gaussian_c3.txt").read_text()
    cfg = rq.parse_config(text.replace("grid.n = 25", "grid.n = 61")
                          .replace("time.dt = 1e-3", "time.dt = 1e-2"))
    with pytest.raises(rq.IntegrationError, match=r"T = 5\.54\b") as exc_info:
        rq.nonrel_integrate(cfg, cadence=1.0)
    assert [s.t for s in exc_info.value.series] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


@pytest.mark.parametrize("kind", sorted(ANALYTIC_ARGS))
def test_analytic(kind, tmp_path):
    out = tmp_path / kind
    assert main(["analytic", "--kind", kind, "--grid-n", "25", "--out", str(out)]
                + ANALYTIC_ARGS[kind]) == 0
    assert _table_hashes(out, "snap_T*.tsv") == ANALYTIC[kind]


@pytest.fixture(scope="module")
def short_c3_snapshots(tmp_path_factory):
    """configs/gaussian_c3.txt to T = 1, simulated at cadence 0.025."""
    tmp = tmp_path_factory.mktemp("short_c3")
    text = (CONFIGS / "gaussian_c3.txt").read_text()
    cfg = tmp / "g.cfg"
    cfg.write_text(text.replace("time.final = 10", "time.final = 1"))
    snaps = tmp / "snaps"
    # exit 2: the c = 3 run fails the reference-zero record by design
    assert main(["simulate", "--config", str(cfg), "--out", str(snaps),
                 "--cadence", "0.025"]) == 2
    return snaps


def test_verify_report(short_c3_snapshots, tmp_path):
    report = tmp_path / "report.tsv"
    assert main(["verify", "--snapshots", str(short_c3_snapshots),
                 "--report", str(report)]) == 2
    assert _sha(report) == REPORT


def test_figures(short_c3_snapshots, tmp_path):
    assert main(["figures", "--snapshots", str(short_c3_snapshots),
                 "--out", str(tmp_path)]) == 0
    assert _table_hashes(tmp_path, "fig_*.tsv") == FIGURES


def test_full_run_report(baseline_series, tmp_path):
    report = tmp_path / "report.tsv"
    rq.write_report(rq.evaluate_invariants(baseline_series), str(report))
    assert _sha(report) == FULL_REPORT


def _fields_hash(series):
    h = hashlib.sha256()
    for s in series:
        for get in map(attrgetter, IN_MEMORY_FIELDS):
            h.update(np.asarray(get(s), dtype=np.float64).tobytes())
    return h.hexdigest()


def test_in_memory_fields(tmp_path):
    text = (CONFIGS / "gaussian_c3.txt").read_text()
    cfg = rq.parse_config(text.replace("time.final = 10", "time.final = 0.05"))
    series = rq.integrate(cfg, cadence=0.01)
    assert len(series) == 6
    rq.write_snapshots(series, str(tmp_path))
    assert [_fields_hash(series), _fields_hash(rq.read_snapshots(str(tmp_path)))] == [IN_MEMORY] * 2
