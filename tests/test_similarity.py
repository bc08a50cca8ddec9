"""Similarity maps: three exact symmetries of both solvers.

The trajectories depend on hbar / m, c and the lengths only through
dimensionless groups, and a scale by 2 is exact in binary floating point.  So
each map below gives a run bitwise equal to the base run (the gaussian_c3
geometry, N = 25, T <= 1, cadence 0.25) up to the powers of 2 it predicts:

- (m, hbar) -> (2m, 2hbar): y is unchanged in both solvers, and the
  relativistic Q doubles.
- Lengths and times x2 (grid +-10, weight a / 4, dt, t_final and cadence x2)
  with hbar x2: t and x double, u, Q and g01 are unchanged.  The
  non-relativistic solver takes lengths x2 and times x4 at fixed hbar and m:
  x doubles and v halves.
- c x2 and hbar x2, times / 2: x is unchanged, t halves, u doubles and Q
  grows 4x.

The dimensionless records (four_velocity_norm, force_orthogonality,
subluminality, reference_trajectory_zeros) are bitwise equal under all three
maps; simultaneity_g01 carries the units of c and doubles under the c map.
A physical constant misplaced in Q, the force or a record breaks a map.
"""

from dataclasses import replace

import numpy as np
import pytest

import relqtraj as rq

from conftest import baseline_config

CADENCE = 0.25
DIMENSIONLESS = ("four_velocity_norm", "force_orthogonality", "subluminality",
                 "reference_trajectory_zeros")


def _scaled(cfg, length=1.0, time=1.0, **constants):
    """cfg with the labels scaled by length (grid and Gaussian weight) and
    dt and t_final by time, and the given constants replaced."""
    g = cfg.grid
    (a,) = cfg.weight.params
    return replace(cfg, grid=rq.make_grid(g.c_min * length, g.c_max * length, g.n_points),
                   weight=rq.gaussian_weight(a / (length * length)), dt=cfg.dt * time,
                   t_final=cfg.t_final * time, **constants)


BASE = baseline_config(t_final=1.0)

# name: (config, time scale, scales of the rows t, x, u0, u1, of Q and of g01)
REL_MAPS = {
    "mass_hbar": (_scaled(BASE, mass=2.0, hbar=2.0), 1.0, (1.0, 1.0, 1.0, 1.0), 2.0, 1.0),
    "length": (_scaled(BASE, 2.0, 2.0, hbar=2.0), 2.0, (2.0, 2.0, 1.0, 1.0), 1.0, 1.0),
    "c": (_scaled(BASE, 1.0, 0.5, c=6.0, hbar=2.0), 0.5, (0.5, 1.0, 2.0, 2.0), 4.0, 2.0),
}

# name: (config, time scale, scales of the rows x, v)
NONREL_MAPS = {
    "mass_hbar": (_scaled(BASE, mass=2.0, hbar=2.0), 1.0, (1.0, 1.0)),
    "length": (_scaled(BASE, 2.0, 4.0), 4.0, (2.0, 0.5)),
}


def _rows(y, scales):
    """y (K, rows, N) with row i scaled by scales[i], exactly (powers of 2)."""
    return y * np.array(scales)[:, None]


def _nonrel(cfg):
    """(times (K,), y (K, 2, N)) of a non-relativistic run."""
    records = rq.nonrel_integrate(cfg, cadence=CADENCE * cfg.t_final / BASE.t_final)
    return np.array([r.t for r in records]), np.array([(r.x, r.v) for r in records])


@pytest.fixture(scope="module")
def base():
    series = rq.integrate(BASE, cadence=CADENCE)
    assert len(series) == 5
    return series, rq.evaluate_invariants(series)


@pytest.mark.parametrize("name", REL_MAPS)
def test_a_relativistic_map_scales_the_run_bitwise(base, name):
    series, report = base
    cfg, time, rows, q, g01 = REL_MAPS[name]
    mapped = rq.integrate(cfg, cadence=CADENCE * time)
    assert mapped.times.tobytes() == (series.times * time).tobytes()
    assert mapped.y.tobytes() == _rows(series.y, rows).tobytes()
    assert mapped.Q.tobytes() == (series.Q * q).tobytes()
    assert mapped.g01.tobytes() == (series.g01 * g01).tobytes()
    records = rq.evaluate_invariants(mapped)
    assert [r.name for r in records.records] == [r.name for r in report.records]
    for key in DIMENSIONLESS:
        assert records[key].max_abs_violation == report[key].max_abs_violation, key
    assert records["simultaneity_g01"].max_abs_violation == \
        report["simultaneity_g01"].max_abs_violation * g01


@pytest.fixture(scope="module")
def nonrel_base():
    times, y = _nonrel(BASE)
    assert len(times) == 5
    return times, y


@pytest.mark.parametrize("name", NONREL_MAPS)
def test_a_nonrelativistic_map_scales_the_run_bitwise(nonrel_base, name):
    times, y = nonrel_base
    cfg, time, rows = NONREL_MAPS[name]
    mapped_times, mapped = _nonrel(cfg)
    assert mapped_times.tobytes() == (times * time).tobytes()
    assert mapped.tobytes() == _rows(y, rows).tobytes()
