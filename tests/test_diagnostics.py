from dataclasses import replace

import numpy as np
import pytest

import relqtraj as rq
from relqtraj.analytic import (
    exponential_ensemble,
    hyperbolic_gamma_one_ensemble,
    inertial_ensemble,
)
from relqtraj.diagnostics import reference_zero_ratio

from conftest import baseline_config, select


def analytic_series(ens, cfg, times):
    """Assemble a SnapshotSeries by sampling a closed form at each time and
    running the standard field pipeline once over the stack."""
    y = np.array([ens.evaluate(T, cfg.grid.nodes) for T in times])
    return rq.record_series(cfg, np.asarray(times, dtype=float), y)


def _inertial_series(n_slices):
    cfg = rq.SimConfig(mass=1, hbar=1, c=2, weight=rq.uniform_weight(),
                       grid=rq.make_grid(-2, 2, 25), t_final=1.2, dt=1e-3)
    return analytic_series(inertial_ensemble(0.6, 2.0), cfg, np.linspace(0, 1.2, n_slices))


@pytest.fixture
def inertial_series():
    return _inertial_series(13)


@pytest.fixture
def fine_inertial_series():
    """Cadence 0.05: fine enough for evaluate_invariants to add the residual rows."""
    return _inertial_series(25)


@pytest.fixture
def exponential_series():
    cfg = rq.SimConfig(mass=1, hbar=1, c=2, weight=rq.exponential_weight(0.3),
                       grid=rq.make_grid(-2, 2, 25), t_final=1.2, dt=1e-3)
    return analytic_series(
        exponential_ensemble(0.3, 1.0, 1.0, 2.0), cfg, np.linspace(0, 1.2, 13)
    )


class TestDerivedFields:
    def test_rest_state(self):
        cfg = baseline_config()
        rest = rq.record_series(cfg, np.zeros(1), rq.rest_initial_state(cfg)[None])
        (beta,), (rho_star,) = rq.derived_fields(rest)
        np.testing.assert_array_equal(beta, np.zeros(25))
        # unit metric: invariant density reduces to the weight itself
        f = np.exp(cfg.weight.log_f(cfg.grid.nodes))
        np.testing.assert_allclose(rho_star, f, rtol=1e-12)
        assert np.all(rho_star > 0)

    def test_edge_speeds_grow_relativistic(self, baseline_series):
        beta = rq.derived_fields(baseline_series)[0][-1]
        assert beta.max() > 0.5
        assert np.all(beta < 1.0)


class TestPdeResidual:
    def test_inertial_series_machine_level(self, inertial_series):
        res_t, res_x, sn, nd = rq.pde_residual(inertial_series)
        assert np.max(np.abs(res_t[sn, nd])) <= 1e-12
        assert np.max(np.abs(res_x[sn, nd])) <= 1e-12

    def test_exponential_series_constant_fields(self, exponential_series):
        res_t, res_x, sn, nd = rq.pde_residual(exponential_series)
        assert np.max(np.abs(res_t[sn, nd])) <= 1e-10
        assert np.max(np.abs(res_x[sn, nd])) <= 1e-10

    def test_forced_hyperbolic_series_falls_with_the_grid(self):
        # hyperbolic-gamma-one at B = c = 1 on C in [0.5, 1.5]: tau_T = B C
        # varies along the slice and the force is non-zero (max |f| 2.16), so
        # a wrong tau_T shows; the x residual is the force's spatial error,
        # 6.6e-6 at N = 41 and 4.9e-7 at N = 81 (0.86 without the outer / tau_T)
        ens = hyperbolic_gamma_one_ensemble(1.0, 1.0)
        times = np.linspace(0.0, 0.4, 21)
        worst = {}
        for n in (41, 81):
            cfg = rq.SimConfig(c=1.0, weight=ens.weight, grid=rq.make_grid(0.5, 1.5, n),
                               t_final=0.4)
            Q = np.tile(ens.Q(cfg.grid.nodes, cfg.mass), (len(times), 1))
            y = np.array([ens.evaluate(T, cfg.grid.nodes) for T in times])
            _, res_x, sn, nd = rq.pde_residual(rq.record_series(cfg, times, y, Q))
            worst[n] = np.max(np.abs(res_x[sn, nd]))
        assert worst[41] < 1e-5
        assert worst[41] >= 8 * worst[81]

    def test_needs_enough_snapshots(self, inertial_series):
        short = select(inertial_series, slice(5))
        with pytest.raises(ValueError, match="9"):
            rq.pde_residual(short)

    def test_needs_uniform_cadence(self, inertial_series):
        ragged = select(inertial_series, np.r_[0:6, 7:len(inertial_series)])
        with pytest.raises(ValueError, match="cadence"):
            rq.pde_residual(ragged)

    def test_baseline_meets_residual_tolerance(self, baseline_series):
        res_t, res_x, sn, nd = rq.pde_residual(baseline_series)
        assert np.max(np.abs(res_t[sn, nd])) <= 1e-5
        assert np.max(np.abs(res_x[sn, nd])) <= 1e-5


def inertial_limit_metric(series):
    """max |Q| / (m c^2) over the series: dimensionless distance from
    quantum inertial motion."""
    cfg = series.config
    worst = float(np.max(np.abs(series.Q)))
    return worst / (cfg.mass * cfg.c ** 2)


class TestInertialLimitMetric:
    def test_uniform_weight_zero(self, inertial_series):
        # uniform weight leaves only the rounding floor of the Q pipeline
        assert inertial_limit_metric(inertial_series) <= 1e-12

    def test_weak_coupling_run(self, c100_pair):
        cfg, rel, _ = c100_pair
        # max |Q| over the run is the initial edge value (1/2)(a^2 C^2 - a)
        edge_Q = 0.5 * (0.25 * 2.5 ** 2 - 0.5)
        metric = inertial_limit_metric(rel)
        assert metric == pytest.approx(edge_Q / 1e4, rel=1e-2)
        assert metric < 1e-4

    def test_strongly_relativistic_run(self, baseline_series):
        # initial edge |Q| = 2.875 against m c^2 = 9
        metric = inertial_limit_metric(baseline_series)
        assert metric == pytest.approx(2.875 / 9.0, rel=1e-2)


class TestInvariantReport:
    def test_all_pass_on_inertial_series(self, fine_inertial_series):
        rep = rq.evaluate_invariants(fine_inertial_series, invariant_tol=1e-8)
        assert rep.all_pass
        names = [r.name for r in rep.records]
        for required in ("four_velocity_norm", "force_orthogonality",
                         "simultaneity_g01", "subluminality",
                         "pde_residual_t", "pde_residual_x"):
            assert required in names

    def test_gaussian_report_includes_reference_zeros(self, baseline_series):
        rep = rq.evaluate_invariants(baseline_series)
        rec = rep["reference_trajectory_zeros"]
        assert rec.tolerance == 1e-3

    def test_residual_admitted_only_at_fine_cadence(self):
        # a correct c = 3 run to T = 1: at cadence 0.1 nested central time
        # differences measure their own error (pde_residual_x ~1.3e-4 against
        # the 1e-5 tolerance), at 0.05 the solver's (~8e-6)
        fine = rq.integrate(baseline_config(t_final=1.0), cadence=0.05)
        coarse = select(fine, slice(None, None, 2))
        assert coarse.times[1] == pytest.approx(0.1)
        names = [r.name for r in rq.evaluate_invariants(coarse).records]
        assert not any(n.startswith("pde_residual") for n in names)
        rep = rq.evaluate_invariants(fine)
        assert rep["pde_residual_t"].passed
        assert rep["pde_residual_x"].passed

    def test_reference_zeros_left_out_when_no_label_is_on_the_grid(self):
        # a = 0.01 puts the reference labels at +-10, off the grid [-5, 5]:
        # there is nothing to check, so there is no record (not a pass)
        cfg = replace(baseline_config(t_final=0.1), weight=rq.gaussian_weight(0.01))
        series = rq.integrate(cfg, cadence=0.05)
        assert reference_zero_ratio(series) is None
        rep = rq.evaluate_invariants(series)
        assert [r.name for r in rep.records] == ["four_velocity_norm", "force_orthogonality",
                                                 "simultaneity_g01", "subluminality"]
        with pytest.raises(KeyError, match="reference_trajectory_zeros"):
            rep["reference_trajectory_zeros"]
        # the same run at a = 0.5 (labels +-sqrt(2)) keeps it
        series = rq.integrate(baseline_config(t_final=0.1), cadence=0.05)
        assert "reference_trajectory_zeros" in [
            r.name for r in rq.evaluate_invariants(series).records]

    def test_reference_zero_ratio_initially_exact(self):
        cfg = baseline_config(t_final=0.0)
        series = rq.integrate(cfg)
        ratio, _, _ = reference_zero_ratio(series)
        assert ratio <= 1e-12


@pytest.mark.parametrize("check, message", [
    (rq.evaluate_invariants, "empty snapshot series"),
    (rq.pde_residual, "need at least 9 uniformly spaced snapshots, got 0"),
])
def test_an_empty_series_is_refused(check, message):
    with pytest.raises(ValueError, match=message):
        check(select(rq.integrate(baseline_config(t_final=0.0)), slice(0)))
