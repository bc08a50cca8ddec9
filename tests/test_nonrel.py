import math

import numpy as np
import pytest

import relqtraj as rq
from relqtraj import nonrel
from relqtraj.nonrel import nonrel_Q, nonrel_rhs
from relqtraj.state import StateValidationError, WeightFunction, check_state
from relqtraj.stencils import d_dC

from conftest import baseline_config


@pytest.fixture
def grid25():
    return rq.make_grid(-5, 5, 25)


def _config(grid, weight, hbar=1.0, mass=1.0):
    # nonrel_Q reads the plan, half the weight's log-derivative, hbar and m
    return rq.SimConfig(c=1, weight=weight, grid=grid, t_final=1, hbar=hbar, mass=mass)


class TestNonRelQ:
    def test_identity_positions_gaussian(self, grid25):
        C = grid25.nodes
        Q, _ = nonrel_Q(C, _config(grid25, rq.gaussian_weight(0.5)))
        np.testing.assert_allclose(Q, -0.5 * (0.25 * C ** 2 - 0.5), atol=1e-12)

    def test_uniform_weight_zero(self, grid25):
        C = grid25.nodes
        Q, _ = nonrel_Q(C, _config(grid25, rq.uniform_weight()))
        np.testing.assert_allclose(Q, 0.0, atol=1e-13)

    def test_uniform_stretch_against_symbolic_oracle(self):
        # brute-force evaluation of the nested-derivative form with sympy,
        # x = 2C and a gaussian weight, sampled at five labels
        sympy = pytest.importorskip("sympy")
        a_val, hbar, m = 0.5, 1.0, 1.0
        C = sympy.symbols("C", positive=False)
        a = sympy.Rational(1, 2)
        f_half = sympy.exp(-a * C ** 2 / 2)
        gamma = sympy.Integer(4)  # (dx/dC)^2 for x = 2C
        A = f_half / gamma ** sympy.Rational(1, 4)
        inner = sympy.diff(A, C) / sympy.sqrt(gamma)
        Q_sym = -sympy.Rational(1, 2) * (hbar ** 2 / m) \
            * sympy.diff(inner, C) / (gamma ** sympy.Rational(1, 4) * f_half)
        Q_sym = sympy.simplify(Q_sym)

        g = rq.make_grid(-2, 2, 25)
        cfg = _config(g, rq.gaussian_weight(a_val), hbar, m)
        Q_num, _ = nonrel_Q(2.0 * g.nodes, cfg)
        for idx in (2, 7, 12, 17, 22):
            expect = float(Q_sym.subs(C, sympy.Float(g.nodes[idx], 30)))
            assert Q_num[idx] == pytest.approx(expect, abs=1e-12)

    def test_non_monotone_rejected(self, grid25):
        x = grid25.nodes.copy()
        x[3] = x[5]
        with pytest.raises(ValueError):
            nonrel_Q(x, _config(grid25, rq.gaussian_weight(0.5)))


def _rhs(cfg, x, v):
    return nonrel_rhs(np.array([x, v]), cfg)


class TestNonRelRhs:
    def test_initial_gaussian_linear_acceleration(self, grid25):
        cfg = baseline_config()
        dx, dv = _rhs(cfg, grid25.nodes, np.zeros(25))
        np.testing.assert_allclose(dv, 0.25 * grid25.nodes, atol=1e-12)
        np.testing.assert_array_equal(dx, np.zeros(25))
        assert dv[12] == pytest.approx(0.0, abs=1e-13)

    def test_uniform_weight_free_motion(self, grid25):
        cfg = rq.SimConfig(mass=1, hbar=1, c=1, weight=rq.uniform_weight(),
                           grid=grid25, t_final=1, dt=1e-3)
        dx, dv = _rhs(cfg, grid25.nodes, np.full(25, 0.3))
        np.testing.assert_allclose(dv, 0.0, atol=1e-13)
        np.testing.assert_allclose(dx, 0.3, rtol=1e-15)

    def test_nonrel_rhs_is_the_1d_row_expressions_bitwise(self):
        # reference: the log-form Q with Python floats and one matmul per
        # derivative, on a state 50 steps in where v and the force are nonzero
        cfg = baseline_config(t_final=0.05)
        _, x, v = rq.nonrel_integrate(cfg, cadence=0.05)[-1]
        y = np.array([x, v])
        m, hbar = cfg.mass, cfg.hbar

        def D(u):
            return cfg.plan @ u

        x_C = D(x)
        gamma = x_C ** 2
        Lp = 0.5 * cfg.weight.dlog_f(cfg.grid.nodes) - 0.25 * D(np.log(gamma))
        g = gamma ** -0.5
        Q = -(hbar ** 2 / (2.0 * m)) * (g * D(g) * Lp + (Lp ** 2 + D(Lp)) / gamma)
        assert np.count_nonzero(v) and np.count_nonzero(x_C - 1.0)
        want = np.array([v, -(D(Q)) / x_C / m])
        assert np.array_equal(nonrel_rhs(y, cfg), want)


class TestNonRelState:
    """A (2, N) state (x, v) is held to the guard of the RK stages and records."""

    def test_crossing_rejected(self, grid25):
        x = grid25.nodes.copy()
        x[4] = x[5] + 0.1
        with pytest.raises(StateValidationError, match="between nodes 4 and 5"):
            check_state(np.array([x, np.zeros(25)]), 2)

    def test_nonfinite_velocity_rejected(self, grid25):
        v = np.zeros(25)
        v[7] = np.nan
        with pytest.raises(StateValidationError, match="non-finite values in field v"):
            check_state(np.array([grid25.nodes, v]), 2)

    def test_length_mismatch_rejected(self, grid25):
        # the wrong row count is reported before the non-finite third row
        y = np.array([grid25.nodes, np.zeros(25), np.full(25, np.nan)])
        with pytest.raises(StateValidationError, match=r"shape \(3, 25\), want \(2, N\)"):
            check_state(y, 2)


class TestNonRelIntegrate:
    def test_one_check_per_stage_and_record(self, monkeypatch):
        # the RK stages and the records run on the raw (x, v) array: check_state
        # sees each of the 4 x 50 stages and each of the 6 records, whose rows
        # are read-only views of the checked state
        checks = []
        check = nonrel.check_state

        def counting(y, rows):
            checks.append(y)
            check(y, rows)

        monkeypatch.setattr(nonrel, "check_state", counting)
        out = rq.nonrel_integrate(baseline_config(t_final=0.5, dt=0.01), cadence=0.1)
        assert [s.t for s in out] == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
        assert len(checks) == 4 * 50 + 6
        for s in out:
            assert s.x.base is s.v.base and any(s.x.base is y for y in checks)
            assert not (s.x.flags.writeable or s.v.flags.writeable)

    @pytest.mark.parametrize("broken, cadence, kept", [(0.02, 0.01, [0.0, 0.01]),
                                                        (0.03, 0.02, [0.0, 0.02])])
    def test_a_nonrel_record_that_breaks_the_state_is_refused(self, monkeypatch, broken,
                                                              cadence, kept):
        # the step to a record time, or the last step, swaps two trajectories:
        # the run fails at that t and keeps only the records before it
        cfg = baseline_config(t_final=0.03)
        step, steps = nonrel._rk4, []

        def crossing(rhs, y, config):  # the k-th step ends at t = k * dt
            y = step(rhs, y, config)
            steps.append(None)
            if math.isclose(len(steps) * config.dt, broken):
                y = y.copy()
                y[0, [3, 4]] = y[0, [4, 3]]
            return y

        monkeypatch.setattr(nonrel, "_rk4", crossing)
        with pytest.raises(rq.IntegrationError, match=rf"^run failed at T = {broken:g}: "
                           "trajectory ordering lost between nodes 3 and 4") as exc_info:
            rq.nonrel_integrate(cfg, cadence=cadence)
        assert isinstance(exc_info.value.__cause__, StateValidationError)
        assert [s.t for s in exc_info.value.series] == kept

    def test_zero_duration_returns_initial(self):
        cfg = baseline_config(t_final=0.0)
        out = rq.nonrel_integrate(cfg)
        assert len(out) == 1
        np.testing.assert_array_equal(out[0].x, cfg.grid.nodes)

    def test_monotone_broadening(self):
        cfg = baseline_config(t_final=5.0)
        out = rq.nonrel_integrate(cfg)
        prev = None
        for st in out:
            x_C = d_dC(st.x, cfg.plan)
            assert np.all(x_C >= 1.0 - 1e-9)
            width = st.x[-1] - st.x[0]
            if prev is not None:
                assert width > prev
            prev = width

    def test_gaussian_form_preserved(self):
        # x_C is label-independent for the gaussian packet: the defining
        # preservation property of the family
        cfg = baseline_config(t_final=10.0)
        for st in rq.nonrel_integrate(cfg):
            gamma = d_dC(st.x, cfg.plan) ** 2
            spread = gamma.max() - gamma.min()
            assert spread <= 1e-3 * gamma.mean()

    def test_step_halving_fourth_order(self):
        finals = []
        for dt in (0.05, 0.025, 0.0125):
            cfg = baseline_config(t_final=1.0, dt=dt)
            finals.append(rq.nonrel_integrate(cfg, cadence=10.0)[-1].x)
        e1 = np.max(np.abs(finals[0] - finals[1]))
        e2 = np.max(np.abs(finals[1] - finals[2]))
        assert np.log2(e1 / e2) == pytest.approx(4.0, abs=0.5)


def _energies(cfg, cadence):
    """<H> = sum f h [m v^2 / 2 + (hbar^2 / 8m) r^2 / x_C^2], r = d_C ln f -
    d_C ln x_C, of each record of the non-relativistic run of cfg: in the
    continuum the Q term integrates by parts to this Fisher term, so E is
    conserved."""
    C = cfg.grid.nodes
    fh = np.exp(cfg.weight.log_f(C)) * (C[1] - C[0])

    def energy(state):
        x_C = d_dC(state.x, cfg.plan)
        r = cfg.weight.dlog_f(C) - d_dC(np.log(x_C), cfg.plan)
        kinetic = 0.5 * cfg.mass * state.v ** 2
        return np.sum(fh * (kinetic + cfg.hbar ** 2 / (8 * cfg.mass) * r ** 2 / x_C ** 2))

    return np.array([energy(s) for s in rq.nonrel_integrate(cfg, cadence=cadence)])


def test_the_gaussian_ensemble_energy_is_conserved():
    # The relative drift reads 4.3e-15 to T = 4 and 8.9e-15 to T = 10;
    # dividing the force by x_C^2 instead of x_C reads 0.18.
    E = _energies(baseline_config(t_final=4.0), cadence=0.5)
    assert len(E) == 9
    assert np.abs(E - E[0]).max() <= 1e-13 * E[0]


def test_the_quartic_ensemble_energy_converges_at_T_1():
    # ln f = -C^2 / 2 - 0.05 C^4 on [-3.5, 3.5], order 4: the relative drift
    # at T = 1 reads -6.053e-4 / -9.481e-5 / -2.169e-5 at N = 17 / 25 / 33
    # (observed orders 4.57 and 5.13; the same digits at dt = 1e-3 and under
    # the Prescott kernel).  Dividing the force by x_C^2 instead of x_C reads
    # -6.0e-2 at every N.  The series stops at N = 33: N = 41 reads +4.9e-5,
    # the edge rows' grid-scale instability, not truncation.
    weight = WeightFunction("quartic", ((2, -0.5), (4, -0.05)))
    ns = np.array([17, 25, 33])
    drift = []
    for n in ns:
        cfg = rq.SimConfig(c=1.0, weight=weight, grid=rq.make_grid(-3.5, 3.5, n),
                           t_final=1.0, dt=1e-2)
        E = _energies(cfg, cadence=1.0)
        drift.append((E[-1] - E[0]) / E[0])
    assert [float(f"{d:.1e}") for d in drift] == [-6.1e-4, -9.5e-5, -2.2e-5]  # two digits
    orders = np.log(np.divide(drift[:-1], drift[1:])) / np.log(ns[1:] / ns[:-1])
    assert orders.min() >= 4.0
