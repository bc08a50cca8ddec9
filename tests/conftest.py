from dataclasses import fields

import numpy as np
import pytest

import relqtraj as rq

# The 25-point wavepacket runs drift with the grid-scale instability of the
# nested label stencils, not at a truncation level (~1e-4 relative norm error
# by T=10 at c=3, worst at the edge labels, unchanged when dt is halved), so
# production configs for this resolution carry a matching invariant
# tolerance; 1e-8 would trip the 10x abort guard almost immediately.
BASELINE_INVARIANT_TOL = 1e-3


def baseline_config(c=3.0, lo=-5.0, hi=5.0, n=25, t_final=10.0, dt=1e-3,
                    invariant_tol=BASELINE_INVARIANT_TOL):
    return rq.SimConfig(
        mass=1.0,
        hbar=1.0,
        c=c,
        weight=rq.gaussian_weight(0.5),
        grid=rq.make_grid(lo, hi, n),
        t_final=t_final,
        dt=dt,
        invariant_tol=invariant_tol,
    )


@pytest.fixture(scope="session")
def baseline_run():
    """Gaussian wavepacket, a=1/2, c=3, 25 nodes, T in [0,10], fine cadence;
    returns (series, wall_seconds)."""
    import time

    t0 = time.perf_counter()
    series = rq.integrate(baseline_config(), cadence=0.025)
    return series, time.perf_counter() - t0


@pytest.fixture(scope="session")
def baseline_series(baseline_run):
    return baseline_run[0]


def select(series, rows):
    """The series of the slices rows (an index array, a mask or a slice) of
    series: every array of it indexed along its first axis."""
    return rq.SnapshotSeries(series.config,
                             *(getattr(series, f.name)[rows] for f in fields(series)[1:]))


@pytest.fixture(scope="session")
def baseline_integer_snapshots(baseline_series):
    """The series of the eleven integer-T slices of the baseline run."""
    times = baseline_series.times
    out = select(baseline_series, np.abs(times - np.round(times)) < 1e-9)
    assert len(out) == 11
    return out


def weak_coupling_config(c):
    """The baseline wavepacket on the trimmed labels [-2.5, 2.5] of
    configs/gaussian_c100.txt, at light speed c."""
    return baseline_config(c=c, lo=-2.5, hi=2.5, invariant_tol=1e-6)


@pytest.fixture(scope="session")
def c100_pair():
    """Weak-coupling run (c=100) and the non-relativistic reference on the
    same grid and weight."""
    cfg = weak_coupling_config(100.0)
    rel = rq.integrate(cfg, cadence=1.0)
    nonrel = rq.nonrel_integrate(cfg, cadence=1.0)
    return cfg, rel, nonrel


@pytest.fixture(scope="session")
def c30_series():
    """The c100_pair configuration at c=30, recorded at integer T."""
    return rq.integrate(weak_coupling_config(30.0), cadence=1.0)
