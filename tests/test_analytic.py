import numpy as np
import pytest

import relqtraj as rq
from relqtraj.analytic import (
    hyperbolic_gamma_one_Q,
    hyperbolic_gamma_one_ensemble,
    hyperbolic_gamma_T_ensemble,
    inertial_ensemble,
    exponential_ensemble,
)
from relqtraj.geometry import attach_g01, compute_geometry
from relqtraj.state import check_state


class TestInertial:
    def test_rest_frame_identity(self):
        t, x, u0, u1 = inertial_ensemble(0.0, 1.0).evaluate(1.5, np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(t, [1.5, 1.5, 1.5])
        np.testing.assert_array_equal(x, [-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(u0, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(u1, [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("beta0", [-0.9, -0.3, 0.0, 0.5, 0.99])
    def test_norm_preserved_for_any_boost(self, beta0):
        c = 2.0
        _, _, u0, u1 = inertial_ensemble(beta0, c).evaluate(0.7, np.linspace(-1, 1, 5))
        np.testing.assert_allclose(-u0 ** 2 + u1 ** 2, -c ** 2, rtol=1e-12)

    def test_frozen_boost_values(self):
        # Gamma = 1.25 at beta0 = 0.6: t = 1.25*(0 + 0.6*1) and x = 1.25*1
        t, x, _, _ = inertial_ensemble(0.6, 1.0).evaluate(0.0, np.array([1.0]))
        assert t[0] == pytest.approx(0.75, rel=1e-15)
        assert x[0] == pytest.approx(1.25, rel=1e-15)

    def test_luminal_boost_rejected(self):
        with pytest.raises(ValueError):
            inertial_ensemble(1.0, 1.0)


class TestExponential:
    def test_zero_decay_is_rest_inertial(self):
        t, x, u0, u1 = exponential_ensemble(0.0, 1.0, 1.0, 1.0).evaluate(2.0, np.array([0.5]))
        assert t[0] == pytest.approx(2.0)
        assert x[0] == pytest.approx(0.5)

    def test_unit_parameters_rate(self):
        t, _, _, _ = exponential_ensemble(1.0, 1.0, 1.0, 1.0).evaluate(3.0, np.array([0.0]))
        assert t[0] == pytest.approx(np.exp(0.5) * 3.0, rel=1e-15)

    @pytest.mark.parametrize("kappa", [40.0, 1e200])  # exp, then the square, overflows
    def test_overflowing_rate_rejected(self, kappa):
        with pytest.raises(ValueError, match="kappa .* overflows"):
            exponential_ensemble(kappa, 1.0, 1.0, 1.0)

    def test_trajectories_at_rest(self):
        C = np.linspace(-3, 3, 7)
        for T in (0.0, 1.0, 5.0):
            _, x, u0, u1 = exponential_ensemble(0.4, 1.0, 1.0, 2.0).evaluate(T, C)
            np.testing.assert_array_equal(x, C)
            np.testing.assert_array_equal(u1, np.zeros(7))


class TestHyperbolicGammaOne:
    def test_initial_slice(self):
        C = np.linspace(0.5, 2.5, 9)
        t, x, _, _ = hyperbolic_gamma_one_ensemble(1.0, 3.0).evaluate(0.0, C)
        np.testing.assert_allclose(t, 0.0, atol=1e-15)
        np.testing.assert_array_equal(x, C)

    def test_singular_origin_rejected(self):
        with pytest.raises(ValueError):
            hyperbolic_gamma_one_ensemble(1.0, 1.0).evaluate(0.5, np.array([0.0, 1.0]))

    def test_tau_matches_slice_velocity(self):
        # dtau/dT obtained from the T-derivatives equals B C
        B, c = 0.8, 2.0
        C = np.linspace(0.5, 2.5, 9)
        d = 1e-6
        ens = hyperbolic_gamma_one_ensemble(B, c)
        tp = ens.evaluate(0.7 + d, C)
        tm = ens.evaluate(0.7 - d, C)
        t_T = (tp[0] - tm[0]) / (2 * d)
        x_T = (tp[1] - tm[1]) / (2 * d)
        tau = np.sqrt(t_T ** 2 - x_T ** 2 / c ** 2)
        np.testing.assert_allclose(tau, B * C, rtol=1e-9)

    def test_closed_form_potential_consistent_with_tau(self):
        # exp(-Q / m c^2) must equal dtau/dT = B C
        B, m, c = 1.3, 1.0, 2.0
        C = np.linspace(0.5, 2.5, 9)
        Q = hyperbolic_gamma_one_Q(B, C, m, c)
        np.testing.assert_allclose(np.exp(-Q / (m * c ** 2)), B * C, rtol=1e-12)

    def test_potential_needs_positive_branch(self):
        with pytest.raises(ValueError):
            hyperbolic_gamma_one_Q(1.0, np.array([-1.0]), 1.0, 1.0)


class TestHyperbolicGammaT:
    def test_central_rest_trajectory(self):
        t, x, _, _ = hyperbolic_gamma_T_ensemble(1.0, 1.0).evaluate(2.5, np.array([0.0]))
        assert t[0] == pytest.approx(2.5)
        assert x[0] == pytest.approx(0.0)

    def test_speed_below_light(self):
        A, c = 1.0, 2.0
        C = np.linspace(-2, 2, 9)
        ens = hyperbolic_gamma_T_ensemble(A, c)
        tp = ens.evaluate(1.0 + 1e-6, C)
        tm = ens.evaluate(1.0 - 1e-6, C)
        speed = np.abs((tp[1] - tm[1]) / (tp[0] - tm[0]))
        np.testing.assert_allclose(speed, c * np.tanh(A * np.abs(C)), rtol=1e-6)
        assert np.all(speed < c)

    def test_degenerate_slice_rejected(self):
        with pytest.raises(ValueError):
            hyperbolic_gamma_T_ensemble(1.0, 1.0).evaluate(0.0, np.array([1.0]))


class TestEvolutionConsistency:
    """Sampled closed forms must satisfy dx^a/dT = tau u^a and
    dU^a/dT = tau f^a / m node by node."""

    def _T_derivatives(self, ens, C, T, d=1e-6):
        p = ens.evaluate(T + d, C)
        m = ens.evaluate(T - d, C)
        return [(a - b) / (2 * d) for a, b in zip(p, m)]

    def test_inertial(self):
        c = 2.0
        ens = inertial_ensemble(0.6, c)
        C = np.linspace(-2, 2, 9)
        t, x, u0, u1 = ens.evaluate(0.9, C)
        dt, dx, du0, du1 = self._T_derivatives(ens, C, 0.9)
        np.testing.assert_allclose(dt, u0 / c, rtol=1e-9)       # tau = 1
        np.testing.assert_allclose(dx, u1, rtol=1e-9)
        np.testing.assert_allclose(du0, 0.0, atol=1e-7)
        np.testing.assert_allclose(du1, 0.0, atol=1e-7)

    def test_exponential(self):
        m_, hb, c, kap = 1.0, 1.0, 1.0, 0.4
        ens = exponential_ensemble(kap, m_, hb, c)
        C = np.linspace(-2, 2, 9)
        t, x, u0, u1 = ens.evaluate(1.3, C)
        dt, dx, du0, du1 = self._T_derivatives(ens, C, 1.3)
        rate = ens.evaluate(1.0, 0.0)[0]  # t = rate * T at rest
        np.testing.assert_allclose(dt, rate * u0 / c, rtol=1e-9)
        np.testing.assert_allclose(dx, 0.0, atol=1e-9)
        np.testing.assert_allclose(du0, 0.0, atol=1e-7)

    def test_hyperbolic_gamma_one(self):
        # force has inertial components m c^2 (sinh, cosh) / C; the rate is B C
        B, m_, c = 1.0, 1.0, 2.0
        ens = hyperbolic_gamma_one_ensemble(B, c)
        C = np.linspace(0.5, 2.5, 9)
        T = 0.6
        t, x, u0, u1 = ens.evaluate(T, C)
        dt, dx, du0, du1 = self._T_derivatives(ens, C, T)
        tau = B * C  # dtau/dT of this family
        np.testing.assert_allclose(dt, tau * u0 / c, rtol=1e-8)
        np.testing.assert_allclose(dx, tau * u1, rtol=1e-8, atol=1e-9)
        f0 = m_ * c ** 2 * np.sinh(c * B * T) / C
        f1 = m_ * c ** 2 * np.cosh(c * B * T) / C
        np.testing.assert_allclose(du0, tau * f0 / m_, rtol=1e-6)
        np.testing.assert_allclose(du1, tau * f1 / m_, rtol=1e-6)
        np.testing.assert_allclose(-u0 * f0 + u1 * f1, 0.0, atol=1e-9)

    def test_hyperbolic_gamma_T(self):
        # straight lines: tau = 1, no force
        A, c = 0.7, 2.0
        ens = hyperbolic_gamma_T_ensemble(A, c)
        C = np.linspace(-2, 2, 9)
        t, x, u0, u1 = ens.evaluate(1.1, C)
        dt, dx, du0, du1 = self._T_derivatives(ens, C, 1.1)
        np.testing.assert_allclose(dt, u0 / c, rtol=1e-9)
        np.testing.assert_allclose(dx, u1, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(du0, 0.0, atol=1e-7)
        np.testing.assert_allclose(du1, 0.0, atol=1e-7)


class TestSampledInvariants:
    @pytest.mark.parametrize("make,T", [
        (lambda c: inertial_ensemble(0.6, c), 1.0),
        (lambda c: exponential_ensemble(0.3, 1.0, 1.0, c), 1.0),
    ], ids=["inertial", "exponential"])
    def test_machine_level_kinematics(self, make, T):
        c = 2.0
        ens = make(c)
        g = rq.make_grid(-2, 2, 25)
        cfg = rq.SimConfig(c=c, weight=rq.uniform_weight(), grid=g, t_final=1)
        _, _, u0, u1 = y = ens.evaluate(T, g.nodes)
        check_state(y, 4)
        np.testing.assert_allclose(-u0 ** 2 + u1 ** 2, -c ** 2, rtol=1e-13)
        tx_C, gamma = compute_geometry(y, cfg)
        g01 = attach_g01(tx_C, np.array((u0 / c, u1)), cfg)  # tau_T = 1
        np.testing.assert_allclose(gamma, 1.0, atol=1e-12)
        # g01 = tau_T (u1 x_C - c u0 t_C) vanishes on both families, whatever tau_T
        np.testing.assert_allclose(g01, 0.0, atol=1e-12)

    def test_norm_on_hyperbolic_families(self):
        g = rq.make_grid(0.5, 2.5, 25)
        _, _, u0, u1 = hyperbolic_gamma_one_ensemble(1.0, 3.0).evaluate(0.4, g.nodes)
        np.testing.assert_allclose(-u0 ** 2 + u1 ** 2, -9.0, rtol=1e-12)
        g2 = rq.make_grid(-1, 1, 25)
        _, _, u0, u1 = hyperbolic_gamma_T_ensemble(1.0, 3.0).evaluate(1.0, g2.nodes)
        np.testing.assert_allclose(-u0 ** 2 + u1 ** 2, -9.0, rtol=1e-12)


class TestFamilyData:
    """Each family carries the weight of its labels and, where its density
    has no closed form, its closed-form Q."""

    @pytest.mark.parametrize("ens", [
        inertial_ensemble(0.6, 2.0), hyperbolic_gamma_T_ensemble(1.0, 2.0),
    ], ids=["inertial", "hyperbolic_gamma_T"])
    def test_uniform_weight_and_no_closed_form_Q(self, ens):
        assert ens.weight.kind == "uniform" and ens.Q is None

    def test_exponential_weight(self):
        ens = exponential_ensemble(0.3, 1.0, 1.0, 2.0)
        assert (ens.weight.kind, ens.weight.params, ens.Q) == ("exponential", (0.3,), None)

    def test_hyperbolic_gamma_one_carries_Q_and_no_density(self):
        B, m, c = 1.3, 2.0, 3.0
        ens = hyperbolic_gamma_one_ensemble(B, c)
        C = np.linspace(0.5, 2.5, 9)
        np.testing.assert_array_equal(ens.Q(C, m), hyperbolic_gamma_one_Q(B, C, m, c))
        assert np.isnan(ens.weight.log_f(C)).all()
        np.testing.assert_array_equal(ens.weight.dlog_f(C), np.zeros(9))
        with pytest.raises(ValueError, match="B\\*C > 0"):
            ens.Q(np.array([0.0, 1.0]), m)


@pytest.mark.parametrize("family, name", [
    (hyperbolic_gamma_one_ensemble, "B"), (hyperbolic_gamma_T_ensemble, "A")])
def test_hyperbolic_family_refuses_a_zero_parameter(family, name):
    with pytest.raises(ValueError, match=f"{name} must be nonzero"):
        family(0.0, 1.0)
