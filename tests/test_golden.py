"""Golden-snapshot regression: SHA-256 of every snapshot table, bitwise.

The hashes were recorded before the RK stages moved onto the array-level
slice-field core; any change to the stage path, the snapshot fields or the
TSV writer that moves a single bit of output fails here.  manifest.tsv is
left out because it carries the code version and timestamps.
"""

import hashlib
from pathlib import Path

import relqtraj as rq

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


def _snapshot_hashes(series, out):
    rq.write_snapshots(series, str(out))
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("snap_T*.tsv"))}


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
