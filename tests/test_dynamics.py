import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import relqtraj as rq
from relqtraj.analytic import (
    exponential_ensemble,
    inertial_ensemble,
    hyperbolic_gamma_one_ensemble,
    hyperbolic_gamma_one_Q,
)
from relqtraj import dynamics
from relqtraj.dynamics import (IntegrationError, Record, _slice, compute_force, compute_Q,
                               eom_rhs, rk4_step, step_counts, tau_factor)
from relqtraj.geometry import compute_geometry
from relqtraj.nonrel import nonrel_rhs
from relqtraj.state import EnsembleState, StateValidationError, WeightFunction, check_state
from relqtraj.stencils import d_dC, interior as interior_nodes, interpolate

from conftest import baseline_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _initial_geometry(cfg):
    # ((t_C, x_C), gamma) of the rest slice
    return compute_geometry(rq.rest_initial_state(cfg), cfg)


class TestComputeQ:
    def test_gaussian_initial_quadratic(self):
        # with gamma = 1 the potential is -(hbar^2/2m)(a^2 C^2 - a), exact
        # at every node because the log-derivative pipeline only touches
        # polynomials the stencils reproduce
        cfg = baseline_config()
        _, gamma = _initial_geometry(cfg)
        Q, Q_C = compute_Q(gamma, cfg)
        C = cfg.grid.nodes
        np.testing.assert_allclose(Q, -0.5 * (0.25 * C ** 2 - 0.5), atol=1e-12)
        assert interpolate(Q, cfg.grid, 0.0) == pytest.approx(0.25, abs=1e-12)
        assert interpolate(Q, cfg.grid, np.sqrt(2)) == pytest.approx(0.0, abs=1e-12)
        assert interpolate(Q, cfg.grid, -np.sqrt(2)) == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(Q_C, -0.25 * C, atol=1e-12)

    def test_uniform_weight_zero(self):
        cfg = baseline_config()
        cfg = rq.SimConfig(mass=1, hbar=1, c=3, weight=rq.uniform_weight(),
                           grid=cfg.grid, t_final=1, dt=1e-3)
        _, gamma = _initial_geometry(cfg)
        Q, _ = compute_Q(gamma, cfg)
        np.testing.assert_allclose(Q, 0.0, atol=1e-13)

    def test_exponential_weight_constant(self):
        # Q = -(hbar^2/2m) kappa^2 at every node, edges included
        kappa = 0.3
        cfg = rq.SimConfig(mass=1, hbar=1, c=1, weight=rq.exponential_weight(kappa),
                           grid=rq.make_grid(-2, 2, 25), t_final=1, dt=1e-3)
        _, gamma = _initial_geometry(cfg)
        Q, Q_C = compute_Q(gamma, cfg)
        np.testing.assert_allclose(Q, -0.5 * kappa ** 2, atol=1e-14)
        # one stencil pass amplifies the ~1e-16 nodal rounding of Q by sum|w|
        np.testing.assert_allclose(Q_C, 0.0, atol=5e-12)

    def test_normalization_bitwise_invariance(self):
        # multiplying f by a constant shifts ln f by a constant term but not
        # d ln f / dC, which is derived from the terms: so Q, forces and tau
        # are bitwise unchanged
        cfg = baseline_config()
        geom = _initial_geometry(cfg)
        a = 0.5
        scaled = WeightFunction("gaussian", ((2, -a), (0, math.log(37.0))), (a,))
        C = cfg.grid.nodes
        assert scaled.log_f(C).tobytes() == (-a * C ** 2 + np.log(37.0)).tobytes()
        Q1, QC1 = compute_Q(geom[1], cfg)
        Q2, QC2 = compute_Q(geom[1], replace(cfg, weight=scaled))
        assert np.array_equal(Q1, Q2)
        assert np.array_equal(QC1, QC2)
        f1a, f1b = compute_force(*geom, QC1, cfg)
        f2a, f2b = compute_force(*geom, QC2, cfg)
        assert np.array_equal(f1a, f2a) and np.array_equal(f1b, f2b)
        assert np.array_equal(tau_factor(Q1, cfg), tau_factor(Q2, cfg))  # m = 1, c = 3

    def test_stretch_scaling(self):
        # x = 2C halves the density scale twice over: Q picks up a factor 1/4
        g = rq.make_grid(-2, 2, 25)
        cfg = rq.SimConfig(c=1, weight=rq.gaussian_weight(0.5), grid=g, t_final=1)
        _, gamma = compute_geometry(np.array((np.zeros(25), 2.0 * g.nodes)), cfg)
        Q, _ = compute_Q(gamma, cfg)
        C = g.nodes
        np.testing.assert_allclose(Q, -0.5 * (0.25 * C ** 2 - 0.5) / 4.0, atol=1e-12)


class TestComputeForce:
    def test_constant_Q_no_force(self):
        cfg = rq.SimConfig(mass=1, hbar=1, c=1, weight=rq.exponential_weight(0.3),
                           grid=rq.make_grid(-2, 2, 25), t_final=1, dt=1e-3)
        geom = _initial_geometry(cfg)
        _, Q_C = compute_Q(geom[1], cfg)
        f0, f1 = compute_force(*geom, Q_C, cfg)
        np.testing.assert_allclose(f0, 0.0, atol=5e-12)
        np.testing.assert_allclose(f1, 0.0, atol=5e-12)

    def test_gaussian_initial_force_linear(self):
        # t_C = 0, x_C = 1, gamma = 1: f0 = 0 and f1 = -Q_C = (hbar^2 a^2/m) C
        cfg = baseline_config()
        geom = _initial_geometry(cfg)
        _, Q_C = compute_Q(geom[1], cfg)
        f0, f1 = compute_force(*geom, Q_C, cfg)
        np.testing.assert_allclose(f0, 0.0, atol=1e-13)
        np.testing.assert_allclose(f1, 0.25 * cfg.grid.nodes, atol=1e-12)

    def test_hyperbolic_inverse_label_force(self):
        # unit-metric hyperbolic family: on the initial slice f1 = m c^2 / C
        m, c, B = 1.0, 1.0, 1.0
        g = rq.make_grid(0.5, 2.5, 25)
        cfg = rq.SimConfig(mass=m, c=c, weight=rq.uniform_weight(), grid=g, t_final=1)
        plan = cfg.plan
        ens = hyperbolic_gamma_one_ensemble(B, c)
        geom = compute_geometry(ens.evaluate(0.0, g.nodes), cfg)
        Q = hyperbolic_gamma_one_Q(B, g.nodes, m, c)
        Q_C_exact = -m * c ** 2 / g.nodes
        f0, f1 = compute_force(*geom, Q_C_exact, cfg)
        np.testing.assert_allclose(f1, m * c ** 2 / g.nodes, rtol=1e-12)
        np.testing.assert_allclose(f0, 0.0, atol=1e-13)
        # at later slices the inertial components rotate but stay orthogonal
        # to the four-velocity; the label-derivative comes from the stencils
        _, _, u0, u1 = y = ens.evaluate(0.8, g.nodes)
        geom = compute_geometry(y, cfg)
        Q_C = d_dC(Q, plan)
        f0, f1 = compute_force(*geom, Q_C, cfg)
        interior = interior_nodes(cfg.stencil_order, g.n_points)
        # d_dC of ln(C) at 25 nodes carries ~2e-4 relative truncation at
        # the small-C end (|Q^(5)| = 24/C^5)
        np.testing.assert_allclose(
            f1[interior],
            (m * c ** 2 / g.nodes * np.cosh(c * B * 0.8))[interior],
            rtol=1e-3,
        )
        np.testing.assert_allclose(
            (-u0 * f0 + u1 * f1)[interior], 0.0, atol=1e-9
        )


class TestTauFactor:
    def test_zero_potential(self):
        cfg = baseline_config()  # m = 1, c = 3
        np.testing.assert_array_equal(tau_factor(np.zeros(5), cfg), np.ones(5))

    def test_exponential_contraction(self):
        # Q = -(hbar^2/2m) kappa^2 < 0 contracts: dtau/dT > 1
        kappa, m, hbar, c = 0.3, 1.0, 1.0, 1.0
        cfg = rq.SimConfig(mass=m, hbar=hbar, c=c, weight=rq.exponential_weight(kappa),
                           grid=rq.make_grid(-2, 2, 25), t_final=1)
        Q = np.full(9, -(hbar ** 2 / (2 * m)) * kappa ** 2)
        tau = tau_factor(Q, cfg)
        np.testing.assert_allclose(
            tau, exponential_ensemble(kappa, m, hbar, c).evaluate(1.0, 0.0)[0], rtol=1e-15
        )
        assert np.all(tau > 1.0)

    def test_gaussian_center_dilation(self):
        assert tau_factor(np.array([0.25]), baseline_config())[0] == pytest.approx(
            np.exp(-1.0 / 36.0), rel=1e-12
        )


class TestEomRhs:
    def test_inertial_straight_lines(self):
        cfg = rq.SimConfig(mass=1, hbar=1, c=2, weight=rq.uniform_weight(),
                           grid=rq.make_grid(-8, 8, 17), t_final=1, dt=1e-3)
        d = eom_rhs(inertial_ensemble(0.6, cfg.c).evaluate(0.7, cfg.grid.nodes), cfg)
        np.testing.assert_allclose(d[2], 0.0, atol=1e-12)
        np.testing.assert_allclose(d[3], 0.0, atol=1e-12)
        G = 1.0 / np.sqrt(1 - 0.36)
        np.testing.assert_allclose(d[1], G * 0.6 * cfg.c, rtol=1e-12)
        np.testing.assert_allclose(d[0], G, rtol=1e-12)

    def test_exponential_rest_rates(self):
        kappa = 0.3
        cfg = rq.SimConfig(mass=1, hbar=1, c=1, weight=rq.exponential_weight(kappa),
                           grid=rq.make_grid(-2, 2, 25), t_final=1, dt=1e-3)
        d = eom_rhs(rq.rest_initial_state(cfg), cfg)
        rate = exponential_ensemble(kappa, 1.0, 1.0, 1.0).evaluate(1.0, 0.0)[0]  # t/T
        np.testing.assert_allclose(d[0], rate, rtol=1e-12)
        np.testing.assert_allclose(d[1], 0.0, atol=1e-13)
        np.testing.assert_allclose(d[2], 0.0, atol=5e-12)
        np.testing.assert_allclose(d[3], 0.0, atol=5e-12)

    def test_gaussian_center_symmetry(self):
        # Q is even at T = 0, so the central node feels no force
        cfg = baseline_config()
        d = eom_rhs(rq.rest_initial_state(cfg), cfg)
        assert d[3, 12] == pytest.approx(0.0, abs=1e-13)


class TestRk4Step:
    def test_inertial_exact_translation(self):
        cfg = rq.SimConfig(mass=1, hbar=1, c=2, weight=rq.uniform_weight(),
                           grid=rq.make_grid(-8, 8, 17), t_final=1, dt=0.1)
        ens = inertial_ensemble(0.6, cfg.c)
        new = rk4_step(ens.evaluate(0.0, cfg.grid.nodes), cfg)
        te, xe, _, _ = ens.evaluate(0.1, cfg.grid.nodes)
        np.testing.assert_allclose(new[1], xe, atol=1e-13)
        np.testing.assert_allclose(new[0], te, atol=1e-13)

    def test_exponential_exact_rate(self):
        kappa = 0.25
        cfg = rq.SimConfig(mass=1, hbar=1, c=2, weight=rq.exponential_weight(kappa),
                           grid=rq.make_grid(-2, 2, 25), t_final=1, dt=0.1)
        new = rk4_step(rq.rest_initial_state(cfg), cfg)
        rate = exponential_ensemble(kappa, 1.0, 1.0, 2.0).evaluate(1.0, 0.0)[0]  # t/T
        np.testing.assert_allclose(new[0], rate * 0.1, rtol=1e-13)
        np.testing.assert_allclose(new[1], cfg.grid.nodes, atol=1e-13)

    def test_step_halving_fourth_order(self):
        # wavepacket run to T = 0.5 with dt, dt/2, dt/4: successive
        # differences shrink by about 2^4
        finals = []
        for dt in (0.025, 0.0125, 0.00625):
            cfg = baseline_config(t_final=0.5, dt=dt)
            finals.append(rq.integrate(cfg, cadence=10.0).y[-1, 1])
        e1 = np.max(np.abs(finals[0] - finals[1]))
        e2 = np.max(np.abs(finals[1] - finals[2]))
        assert np.log2(e1 / e2) == pytest.approx(4.0, abs=0.5)

    def test_steps_are_textbook_rk4_bitwise(self):
        # 50 steps of the headline config against the classical RK4 formula
        # over eom_rhs, written with Python-float weights
        cfg = rq.parse_config((CONFIGS / "gaussian_c3.txt").read_text())
        dt = cfg.dt
        y = ref = rq.rest_initial_state(cfg)
        for _ in range(50):
            y = rk4_step(y, cfg)
            k1 = eom_rhs(ref, cfg)
            k2 = eom_rhs(ref + 0.5 * dt * k1, cfg)
            k3 = eom_rhs(ref + 0.5 * dt * k2, cfg)
            k4 = eom_rhs(ref + dt * k3, cfg)
            ref = ref + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert np.count_nonzero(ref[3]) and np.array_equal(y, ref)


class TestStageGuard:
    """Intermediate RK stages are held to the state invariants (check_state)."""

    @staticmethod
    def _streaming(u1, dt):
        # uniform weight and an undistorted slice: Q = 0, so k1 is free streaming
        cfg = rq.SimConfig(mass=1, hbar=1, c=1, weight=rq.uniform_weight(),
                           grid=rq.make_grid(-5, 5, 25), t_final=1, dt=dt)
        u1 = np.asarray(u1, dtype=float)
        y = np.array([np.zeros(25), cfg.grid.nodes, np.hypot(1.0, u1), u1])
        return y, cfg

    def test_stage_losing_order_aborts_step(self):
        # nodes 12 and 13 close in at 2 * 5 per unit T; half a step of 0.1
        # moves them 0.5 > h = 10/24 towards each other, so stage 2 crosses
        u1 = np.zeros(25)
        u1[12], u1[13] = 5.0, -5.0
        y, cfg = self._streaming(u1, dt=0.1)
        with pytest.raises(StateValidationError, match="nodes 12 and 13"):
            rk4_step(y, cfg)
        # a run names the T the failed step started from and keeps the records before it
        with pytest.raises(IntegrationError,
                           match=r"^run failed at T = 0: .*nodes 12 and 13") as exc_info:
            rq.integrate(cfg, y, cadence=0.1)
        assert isinstance(exc_info.value.__cause__, StateValidationError)
        assert exc_info.value.series.times.tolist() == [0.0]

    def test_non_finite_stage_aborts_step(self):
        # k1 is finite (u0 = u1 = 1e300), but half a step of 1e9 overflows t and x
        y, cfg = self._streaming(np.full(25, 1e300), dt=1e9)
        with np.errstate(over="ignore"), \
                pytest.raises(StateValidationError, match="non-finite values in field t"):
            rk4_step(y, cfg)

    def test_eom_rhs_matches_the_per_layer_functions(self):
        # the stage core against compute_geometry, compute_Q, tau_factor and
        # compute_force chained field by field, bitwise
        cfg = baseline_config()
        t, x, u0, u1 = y = rq.rest_initial_state(cfg)
        tx_C, gamma = compute_geometry(y, cfg)
        Q, Q_C = compute_Q(gamma, cfg)
        tau = tau_factor(Q, cfg)
        f0, f1 = compute_force(tx_C, gamma, Q_C, cfg)
        want = np.array([tau * u0 / cfg.c, tau * u1,
                         tau * f0 / cfg.mass, tau * f1 / cfg.mass])
        assert eom_rhs(y, cfg).tobytes() == want.tobytes()

    def test_eom_rhs_is_the_1d_row_expressions_bitwise(self):
        # reference: every layer as plain 1-D expressions and one matmul per
        # derivative, on an evolved slice where t_C, f0 and Q_C are all nonzero
        cfg = baseline_config()
        y = rq.rest_initial_state(cfg)
        for k in range(50):
            y = rk4_step(y, cfg)
        t, x, u0, u1 = y
        c, m, hbar = cfg.c, cfg.mass, cfg.hbar

        def D(v):
            return cfg.plan @ v

        t_C, x_C = D(t), D(x)
        gamma = x_C ** 2 - c ** 2 * t_C ** 2
        Lp = 0.5 * cfg.weight.dlog_f(cfg.grid.nodes) - 0.25 * D(np.log(gamma))
        g = gamma ** -0.5
        Q = -(hbar ** 2 / (2.0 * m)) * (g * D(g) * Lp + (Lp ** 2 + D(Lp)) / gamma)
        tau = np.exp(-Q / (m * c ** 2))
        f0, f1 = -c * t_C / gamma * D(Q), -x_C / gamma * D(Q)
        assert np.count_nonzero(t_C) and np.count_nonzero(f0)
        want = np.array([tau * u0 / c, tau * u1, tau * f0 / m, tau * f1 / m])
        assert eom_rhs(y, cfg).tobytes() == want.tobytes()



def _set(*cells):
    """A stage mutation setting y[row, node] = value for each (row, node, value)."""
    def mutate(y):
        for row, node, value in cells:
            y[row, node] = value
    return mutate


def _scale_x(factor):
    def mutate(y):
        y[1 if len(y) == 4 else 0] *= factor  # the x row
    return mutate


def _swap_past(y):
    x = y[1] if len(y) == 4 else y[0]
    x[4] = x[5] + 0.1


_ORDER_LOST = (r"^trajectory ordering lost between nodes 4 and 5 "
               r"\(x = -2\.81667, -2\.91667\): ensemble degeneration$")
_SPACELIKE = r": slice is no longer spacelike$"

# every stage-guard failure on the baseline rest slice: rows 4 run
# eom_rhs on (t, x, u0, u1), rows 2 nonrel_rhs on (x, v)
_GUARD_FAULTS = [
    ("t", 4, _set((0, 7, np.nan)), StateValidationError, r"^non-finite values in field t$"),
    ("x", 4, _set((1, 7, np.inf)), StateValidationError, r"^non-finite values in field x$"),
    ("u0", 4, _set((2, 7, np.nan)), StateValidationError, r"^non-finite values in field u0$"),
    ("u1", 4, _set((3, 7, -np.inf)), StateValidationError, r"^non-finite values in field u1$"),
    ("u0<=0", 4, _set((2, 7, 0.0)), StateValidationError,
     r"^u0 must be positive \(forward-in-time propagation\)$"),
    ("order", 4, _swap_past, StateValidationError, _ORDER_LOST),
    # t_C at the last node only: gamma = 1 - 9 (25 * 0.2 / 5)^2
    ("gamma<=0", 4, _set((0, 24, 0.2)), StateValidationError,
     r"^non-positive spatial metric gamma = -8 at node 24" + _SPACELIKE),
    # t_C and x_C overflow together on the last three nodes: inf - inf
    ("gamma-nan", 4, _set((0, 24, 1e308), (1, 24, 1.5e308)), StateValidationError,
     r"spatial metric gamma = nan at node 22" + _SPACELIKE),
    # gamma ~ 1e-320 is positive and finite, but Q ~ 1/gamma overflows
    ("Q", 4, _scale_x(1e-160), FloatingPointError, r"^non-finite quantum potential$"),
    ("x", 2, _set((0, 7, np.nan)), StateValidationError, r"^non-finite values in field x$"),
    ("v", 2, _set((1, 7, np.inf)), StateValidationError, r"^non-finite values in field v$"),
    ("order", 2, _swap_past, StateValidationError, _ORDER_LOST),
    # x increasing, but the one-sided stencil at the last node reads x_C < 0
    ("gamma<=0", 2, _set((0, 23, 5.0 - 1e-3)), StateValidationError,
     r"^x must be monotone in C$"),
    # the edge-row products overflow to inf - inf: x_C and gamma = x_C^2 are nan
    ("gamma-nan", 2, _scale_x(1e307), FloatingPointError, r"^non-finite quantum potential$"),
    ("Q", 2, _scale_x(1e-160), FloatingPointError, r"^non-finite quantum potential$"),
]


@pytest.mark.parametrize("rows, mutate, error, message",
                         [case[1:] for case in _GUARD_FAULTS],
                         ids=[f"{case[0]}-{case[1]}rows" for case in _GUARD_FAULTS])
def test_stage_guard_names_the_broken_invariant(rows, mutate, error, message):
    cfg = baseline_config()
    y = rq.rest_initial_state(cfg).copy()
    y = y if rows == 4 else np.array([y[1], y[3]])
    mutate(y)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error, match=message):
        eom_rhs(y, cfg) if rows == 4 else nonrel_rhs(y, cfg)


@pytest.mark.parametrize("rhs, rows", [(eom_rhs, 4),
                                       (nonrel_rhs, 2)], ids=["eom_rhs", "nonrel_rhs"])
def test_stage_of_the_wrong_row_count_is_rejected(rhs, rows):
    # the shape is checked before the non-finite third row is looked up
    y = np.ones((3, 25))
    y[2, 3] = np.nan
    with pytest.raises(StateValidationError,
                       match=rf"^state array has shape \(3, 25\), want \({rows}, N\)$"):
        rhs(y, baseline_config())


@pytest.mark.parametrize("rhs, rows", [(eom_rhs, 4),
                                       (rk4_step, 4),
                                       (nonrel_rhs, 2)],
                         ids=["eom_rhs", "rk4_step", "nonrel_rhs"])
def test_a_stack_of_valid_states_is_no_stage(rhs, rows):
    # the stage guard takes one (rows, N) state: the caller, not y.ndim, says
    # whether a stack is allowed
    cfg = baseline_config()
    y = rq.rest_initial_state(cfg)
    y = y if rows == 4 else np.array([y[1], y[3]])
    with pytest.raises(StateValidationError,
                       match=rf"^state array has shape \(2, {rows}, 25\), want \({rows}, N\)$"):
        rhs(np.stack([y, y]), cfg)


@pytest.mark.parametrize("call, error, message", [
    (lambda cfg, y: eom_rhs(y.tolist(), cfg), StateValidationError,
     r"state is a list, not an array, want \(4, N\)"),
    (lambda cfg, y: nonrel_rhs(tuple(y[1::2]), cfg), StateValidationError,
     r"state is a tuple, not an array, want \(2, N\)"),
    (lambda cfg, y: rq.record_series(cfg, np.zeros(1), [y]), StateValidationError,
     r"state is a list, not an array, want \(K, 4, N\)"),
    (lambda cfg, y: rq.integrate(cfg, y0=y.tolist()), IntegrationError,
     r"run failed at T = 0: state is a list, not an array, want \(4, N\)"),
], ids=["eom_rhs", "nonrel_rhs", "record_series", "integrate"])
def test_the_state_guard_refuses_a_value_that_is_not_an_array(call, error, message):
    # check_state names the type of a value that has no shape to name
    cfg = baseline_config(t_final=0.01)
    with pytest.raises(error, match=f"^{message}$"):
        call(cfg, rq.rest_initial_state(cfg))


@pytest.mark.parametrize("times", [[0.0], (0.0,), 0.0], ids=["list", "tuple", "float"])
@pytest.mark.parametrize("build", ["record_series", "SnapshotSeries"])
def test_the_series_time_guard_refuses_times_that_are_not_an_array(build, times):
    # check_times names the type, for either way of building a series
    cfg = baseline_config()
    y = rq.rest_initial_state(cfg)[None]
    with pytest.raises(StateValidationError,
                       match=rf"^snapshot times must be an array, not a {type(times).__name__}$"):
        if build == "record_series":
            rq.record_series(cfg, times, y)
        else:
            replace(rq.record_series(cfg, np.zeros(1), y), times=times)


# each rule of check_state that a state of the stack can break, and the two
# spacelike faults of its slice pass, from _GUARD_FAULTS
_STACK_FAULTS = [case for case in _GUARD_FAULTS
                 if case[1] == 4 and case[3] is StateValidationError]


@pytest.mark.parametrize("name, mutate, message", [case[0:5:2] for case in _STACK_FAULTS],
                         ids=[case[0] for case in _STACK_FAULTS])
@pytest.mark.parametrize("k", [0, 2])
def test_record_series_names_the_first_bad_state_of_a_stack(k, name, mutate, message):
    # slice k of four breaks the rule, and slice 3 breaks the ordering, a state
    # rule checked before any gamma, or for a spacelike fault the same rule:
    # the error is the one of slice k alone, its index k
    cfg = baseline_config()
    y = np.stack([rq.rest_initial_state(cfg)] * 4)
    spacelike = name.startswith("gamma")
    mutate(y[k])
    (mutate if spacelike else _swap_past)(y[3])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(StateValidationError, match=message) as exc_info:
            rq.record_series(cfg, np.arange(4.0), y)
        assert exc_info.value.index == k
        with pytest.raises(StateValidationError, match=message) as exc_info:
            compute_geometry(y[k], cfg) if spacelike else check_state(y[k], 4)
        assert exc_info.value.index is None


@pytest.mark.parametrize("times, message, index, timelike", [
    # a count that is not one time per state; a (1,) times does not broadcast
    ([0.0, 1.0], r"be one per state: shape \(2,\) for 3 states", None, False),
    ([0.0], r"be one per state: shape \(1,\) for 3 states", None, False),
    # the time rules come first: slice 2, past the times, is also timelike
    ([0.0, 1.0], r"be one per state: shape \(2,\) for 3 states", None, True),
    ([0.0, math.nan, 2.0], "be finite: T = nan", 1, False),
    ([0.0, 2.0, math.inf], "be finite: T = inf", 2, False),
    ([0.0, 2.0, 1.0], "strictly increase: T = 2 is followed by T = 1", 2, False),
], ids=["2-times", "1-time", "2-times-timelike", "nan", "inf", "order"])
def test_record_series_holds_the_series_time_rules(tmp_path, times, message, index, timelike):
    # the rules of SnapshotSeries, raised before anything is written
    cfg = baseline_config()
    y = np.stack([rq.rest_initial_state(cfg)] * 3)
    if timelike:
        y[2, 0, 24] = 0.2  # gamma = -8 at node 24, as in _GUARD_FAULTS
    with pytest.raises(StateValidationError, match=f"^snapshot times must {message}$") as exc:
        rq.write_snapshots(rq.record_series(cfg, np.array(times), y), str(tmp_path / "out"))
    assert exc.value.index == index
    assert not (tmp_path / "out").exists()


class TestInitialStates:
    def test_gaussian_initial_state(self):
        cfg = baseline_config()
        t, x, u0, u1 = y = rq.rest_initial_state(cfg)
        assert y.shape == (4, 25) and not y.flags.writeable
        np.testing.assert_array_equal(x, cfg.grid.nodes)
        np.testing.assert_array_equal(t, np.zeros(25))
        np.testing.assert_array_equal(u0, np.full(25, 3.0))
        np.testing.assert_allclose(-u0 ** 2 + u1 ** 2, -9.0, rtol=1e-15)

    def test_initial_time_rate_is_dilation_factor(self):
        cfg = baseline_config()
        d = eom_rhs(rq.rest_initial_state(cfg), cfg)
        assert d[0, 12] == pytest.approx(np.exp(-1.0 / 36.0), rel=1e-12)


class TestIntegrate:
    def test_default_cadence_snapshot_times(self):
        cfg = baseline_config(t_final=3.0)
        s = rq.integrate(cfg)
        assert s.times == pytest.approx([0.0, 1.0, 2.0, 3.0])

    def test_eleven_snapshots_on_full_run(self, baseline_integer_snapshots):
        assert baseline_integer_snapshots.times == pytest.approx(list(range(11)))

    @pytest.mark.parametrize("cadence", [0.0, float("nan"), float("inf")])
    def test_cadence_must_be_positive_and_finite(self, cadence):
        with pytest.raises(ValueError, match="cadence must be positive"):
            rq.integrate(baseline_config(t_final=0.01), cadence=cadence)

    def test_nonrel_shares_the_step_counts(self):
        with pytest.raises(ValueError, match="cadence"):
            rq.nonrel_integrate(baseline_config(t_final=0.01), cadence=0.0015)
        with pytest.raises(ValueError, match="t_final"):
            rq.nonrel_integrate(baseline_config(t_final=0.0105), cadence=0.005)

    def test_whole_multiples_of_dt_accepted(self):
        cfg = baseline_config()
        assert [step_counts(cfg, c) for c in (1.0, 0.1, 0.01, 0.025)] == [
            (10000, 1000), (10000, 100), (10000, 10), (10000, 25)]

    def test_zero_duration(self):
        cfg = baseline_config(t_final=0.0)
        s = rq.integrate(cfg)
        assert len(s) == 1
        np.testing.assert_array_equal(s.y[0, 1], cfg.grid.nodes)

    def test_abort_on_tiny_invariant_tolerance(self):
        cfg = baseline_config(t_final=5.0, invariant_tol=1e-13)
        # the mass shell is a state rule: the step breaks it, the run names T
        with pytest.raises(StateValidationError, match="^four-velocity norm drift"):
            rk4_step(rq.rest_initial_state(cfg), cfg)
        with pytest.raises(IntegrationError, match="^run failed at T = 0: four-velocity") \
                as exc_info:
            rq.integrate(cfg)
        assert isinstance(exc_info.value.__cause__, StateValidationError)
        assert len(exc_info.value.series) >= 1

    def test_one_state_per_record(self, monkeypatch):
        # the rest state, the RK steps and the 4 records are the raw (4, N)
        # array: no EnsembleState is built, yet check_state still sees each
        # of the 4 x 30 stages and each of the 4 records
        text = (CONFIGS / "gaussian_c3.txt").read_text()
        cfg = rq.parse_config(text.replace("time.final = 10", "time.final = 0.03"))
        builds, checks = [], []
        init, check = EnsembleState.__init__, dynamics.check_state

        def counting(self, *args, **kwargs):
            builds.append(None)
            init(self, *args, **kwargs)

        def counting_check(y, rows):
            checks.append(None)
            check(y, rows)

        monkeypatch.setattr(EnsembleState, "__init__", counting)
        monkeypatch.setattr(dynamics, "check_state", counting_check)
        series = rq.integrate(cfg, cadence=0.01)
        assert series.times == pytest.approx([0.0, 0.01, 0.02, 0.03])
        assert len(builds) == 0
        assert len(checks) == 4 * 30 + 4

    @pytest.mark.parametrize("broken, cadence, kept", [(0.02, 0.01, [0.0, 0.01]),
                                                        (0.03, 0.02, [0.0, 0.02])])
    def test_a_record_that_breaks_the_state_is_refused(self, monkeypatch, broken, cadence, kept):
        # the step to a record time, or the last step, swaps two trajectories:
        # the run fails at that T and keeps only the records before it
        cfg = baseline_config(t_final=0.03)
        step, steps = dynamics.rk4_step, []

        def crossing(y, config):  # the k-th step ends at T = k * dt
            y = step(y, config)
            steps.append(None)
            if math.isclose(len(steps) * config.dt, broken):
                y = y.copy()
                y[1, [3, 4]] = y[1, [4, 3]]
            return y

        monkeypatch.setattr(dynamics, "rk4_step", crossing)
        with pytest.raises(IntegrationError, match=rf"^run failed at T = {broken:g}: "
                           "trajectory ordering lost between nodes 3 and 4") as exc_info:
            rq.integrate(cfg, cadence=cadence)
        assert isinstance(exc_info.value.__cause__, StateValidationError)
        assert exc_info.value.series.times.tolist() == kept

    def test_truncation_envelope_of_coarse_run(self, baseline_series):
        # the kinematic invariants of the 25-node c=3 run drift with the
        # grid-scale instability, far above machine precision but bounded;
        # these ceilings pin the measured envelope
        rep = rq.evaluate_invariants(baseline_series)
        assert rep["four_velocity_norm"].max_abs_violation < 5e-4
        assert rep["force_orthogonality"].max_abs_violation < 5e-3
        assert rep["simultaneity_g01"].max_abs_violation < 0.2
        assert rep["subluminality"].passed

    def test_subluminal_throughout(self, baseline_series):
        assert np.all(np.abs(baseline_series.y[:, 3]) < baseline_series.y[:, 2])

    def test_gamma_stays_positive(self, baseline_series):
        assert np.all(baseline_series.gamma > 0)


def test_the_stacked_slice_is_its_per_slice_calls_bitwise(baseline_series):
    # one _slice pass over the (K, 4, N) stack of the baseline run's 401
    # records against K calls on its (4, N) slices, every field bitwise, with
    # Q computed and with Q given; record_series's one pass gives the fields
    # (gamma, Q, tau_T, f, g01) that integrate kept record by record
    cfg, times, y = baseline_series.config, baseline_series.times, baseline_series.y
    for Q in (None, baseline_series.Q):
        stacked = _slice(y, cfg, Q)
        for k in range(len(times)):
            one = _slice(y[k], cfg, None if Q is None else Q[k])
            assert [a[k].tobytes() for a in stacked] == [a.tobytes() for a in one]
    fields, again = ("gamma", "Q", "tau_T", "f", "g01"), rq.record_series(cfg, times, y)
    assert [getattr(again, k).tobytes() for k in fields] == \
        [getattr(baseline_series, k).tobytes() for k in fields]


def test_the_per_slice_view_the_benchmark_reads(baseline_integer_snapshots):
    # bench/workloads.py and bench/make_reference.py read a series slice by
    # slice; no program path does.  Each Record is a read-only view of times,
    # y and Q, and .snapshots is the list that iterating gives.
    series = baseline_integer_snapshots
    records = series.snapshots
    assert [type(s) for s in records] == [Record] * len(series)
    assert [s.tau_ensemble for s in series] == series.times.tolist()
    for k, s in enumerate(records):
        assert type(s.tau_ensemble) is float and s.tau_ensemble == series.times[k]
        rows = [s.state.t, s.state.x, s.state.u0, s.state.u1, s.quantum.Q]
        for view, row in zip(rows, [*series.y[k], series.Q[k]]):
            assert np.shares_memory(view, row) and np.array_equal(view, row)
            assert not view.flags.writeable


def _boost(y, beta, c):
    """(t, x, u0, u1) rows seen from a frame moving at beta c along x:
    (ct, x) -> g (ct - beta x, x - beta ct), and the same for (u0, u1)."""
    g = 1.0 / math.sqrt(1.0 - beta * beta)
    ct, x, u0, u1 = c * y[0], y[1], y[2], y[3]
    return np.array([g * (ct - beta * x) / c, g * (x - beta * ct),
                     g * (u0 - beta * u1), g * (u1 - beta * u0)])


@pytest.mark.parametrize("beta", [0.3, 0.9])
def test_a_boosted_run_boosts_back_to_the_rest_run(beta, baseline_series):
    # T and the labels do not depend on the frame, so the run from the boosted
    # rest slice is the rest run seen by a moving observer.  The gap to T = 1
    # is roundoff, 2.0e-12 (beta = 0.3) and 5.9e-12 (beta = 0.9); scaling the
    # c^2 t_C^2 of gamma in compute_geometry by 1 + 1e-6 opens it to 5.6e-7
    # and 1.4e-5.  The rest run is the baseline fixture's first unit of T.
    cfg = replace(rq.parse_config((CONFIGS / "gaussian_c3.txt").read_text()), t_final=1.0)
    assert replace(cfg, t_final=10.0) == baseline_series.config
    rest = dict(zip(baseline_series.times.tolist(), baseline_series.y))
    boosted = rq.integrate(cfg, _boost(rq.rest_initial_state(cfg), beta, cfg.c), cadence=0.1)
    assert len(boosted) == 11
    gap = max(np.abs(_boost(y, -beta, cfg.c) - rest[T]).max()
              for T, y in zip(boosted.times.tolist(), boosted.y))
    assert gap <= 1e-10



def test_the_time_field_tends_to_its_first_order_closed_form():
    # As c -> oo on the free gaussian, c^2 (t - T) -> dt(T, C) =
    # (C^2 k / 2)(k T - atan k T) - (hbar / 2m)(1 - a C^2) atan k T, k = a hbar / m
    # (t_T = 1 + (v^2 / 2 - Q / m) / c^2 at first order).  The gap at T = 1 is
    # the next term: 2.133e-3 / 5.333e-4 / 1.333e-4 at c = 40 / 80 / 160,
    # against max |dt| = 2.893.  Doubling the exponent of tau_factor stops the
    # fall (ratios 1.003 and 1.001).
    cfg = baseline_config(t_final=1.0)
    (a,) = cfg.weight.params
    k = a * cfg.hbar / cfg.mass
    C = cfg.grid.nodes
    dt = (C ** 2 * k / 2 * (k - math.atan(k))
          - cfg.hbar / (2 * cfg.mass) * (1 - a * C ** 2) * math.atan(k))
    gaps = []
    for c in (40.0, 80.0, 160.0):
        series = rq.integrate(replace(cfg, c=c), cadence=1.0)
        assert series.times[-1] == 1.0
        gaps.append(np.abs(c ** 2 * (series.y[-1, 0] - 1.0) - dt).max())
    assert gaps[0] / gaps[1] == pytest.approx(4, rel=0.1), gaps
    assert gaps[1] / gaps[2] == pytest.approx(4, rel=0.1), gaps
    assert gaps[0] < 1e-3 * np.abs(dt).max(), gaps


def test_the_trajectory_field_tends_to_the_nonrelativistic_one_as_one_over_c_squared():
    # r(c) = c^2 max |x_rel - x_nr| at T = 1 (label by label, the relativistic
    # slice against the non-relativistic record at t = 1) reads 2.715196 /
    # 2.709051 / 2.707510 / 2.707124 at c = 20 / 40 / 80 / 160: its successive
    # differences fall 4x per doubling (3.987, 3.997), so the next term is
    # O(1/c^4).  Flipping the sign of force_sign's f1 row gives ratios 0.250;
    # flipping its f0 row keeps them near 4 but moves the limit to 2.670, which
    # only the pin of r(160) catches.
    cfg = baseline_config(t_final=1.0)
    nonrel = rq.nonrel_integrate(cfg, cadence=1.0)[-1]
    assert nonrel.t == 1.0
    r = []
    for c in (20.0, 40.0, 80.0, 160.0):
        series = rq.integrate(replace(cfg, c=c), cadence=1.0)
        assert series.times[-1] == 1.0
        r.append(c ** 2 * np.abs(series.y[-1, 1] - nonrel.x).max())
    steps = np.diff(r)
    assert steps[0] / steps[1] == pytest.approx(4, rel=0.1), r
    assert steps[1] / steps[2] == pytest.approx(4, rel=0.1), r
    assert round(r[-1], 3) == 2.707, r


class TestReferenceTrajectories:
    def test_zero_crossings_track_reference_labels(self, baseline_integer_snapshots):
        # the inner allowed/forbidden boundary stays within a quarter cell
        # of +-sqrt(2) for the whole run
        grid = rq.make_grid(-5, 5, 25)

        def crossing(Q, lo, hi):
            f = lambda cq: interpolate(Q, grid, cq)
            a, b = lo, hi
            fa = f(a)
            for _ in range(80):
                m = 0.5 * (a + b)
                if f(m) * fa > 0:
                    a = m
                else:
                    b = m
            return 0.5 * (a + b)

        for Q in baseline_integer_snapshots.Q:
            right = crossing(Q, 1.0, 1.9)
            left = crossing(Q, -1.9, -1.0)
            assert abs(right - np.sqrt(2)) < 0.11
            assert abs(left + np.sqrt(2)) < 0.11

    def test_gamma_bowing_direction_flips(self, baseline_integer_snapshots):
        # slice metric curves upward early, downward late
        series = baseline_integer_snapshots
        by_T = dict(zip(np.round(series.times).tolist(), series.gamma))
        g1, g10 = by_T[1], by_T[10]
        assert g1[13] - 2 * g1[12] + g1[11] > 0
        assert g10[13] - 2 * g10[12] + g10[11] < 0
