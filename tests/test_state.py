import math

import numpy as np
import pytest

import relqtraj as rq
from relqtraj.analytic import hyperbolic_gamma_one_ensemble
from relqtraj.state import StateValidationError, check_state


class TestMakeGrid:
    def test_benchmark_grid_spacing(self):
        g = rq.make_grid(-5, 5, 25)
        np.testing.assert_allclose(np.diff(g.nodes), 10.0 / 24.0, rtol=1e-14)
        assert g.nodes[0] == -5.0 and g.nodes[-1] == 5.0

    def test_unit_interval_nodes(self):
        g = rq.make_grid(0, 1, 11)
        np.testing.assert_allclose(g.nodes, np.arange(11) / 10.0, atol=1e-15)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            rq.make_grid(-5, 5, 5)

    def test_non_integral_point_count_rejected(self):
        with pytest.raises(ValueError, match="n_points must be an integer, got 9.7"):
            rq.make_grid(-1, 1, 9.7)
        for n in (11, 11.0, np.int64(11), np.float64(11)):
            assert rq.make_grid(-1, 1, n).n_points == 11

    def test_nonfinite_bounds_rejected(self):
        with pytest.raises(ValueError):
            rq.make_grid(-np.inf, 5, 25)
        # finite bounds whose span, and so linspace's nodes, overflow
        with pytest.raises(ValueError, match=r"^grid span 1e\+308 - -1e\+308 is not finite$"):
            rq.make_grid(-1e308, 1e308, 25)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            rq.make_grid(5, -5, 25)

    def test_grids_are_values(self):
        g = rq.make_grid(-1, 1, 11)
        assert g == rq.make_grid(-1, 1, 11)
        assert g != rq.make_grid(-1, 1, 13)
        assert hash(g) == hash(rq.make_grid(-1.0, 1.0, 11))
        assert len({g, rq.make_grid(-1, 1, 11), rq.make_grid(-1, 1, 13)}) == 2

    def test_nodes_are_read_only_linspace(self):
        g = rq.make_grid(-5, 5, 25)
        assert g.nodes.tobytes() == np.linspace(-5.0, 5.0, 25).tobytes()
        with pytest.raises(ValueError):
            g.nodes[0] = 0.0


class TestWeightFunction:
    def test_gaussian_log_derivative(self):
        # d(-a C^2)/dC at a=1/2, C=2 is -2*(1/2)*2 = -2
        w = rq.gaussian_weight(0.5)
        assert w.dlog_f(2.0) == pytest.approx(-2.0, abs=1e-15)

    def test_uniform_log_derivative_zero(self):
        w = rq.uniform_weight()
        C = np.linspace(-7, 7, 13)
        np.testing.assert_array_equal(w.dlog_f(C), np.zeros(13))

    def test_exponential_log_derivative(self):
        # d(-2 kappa C)/dC = -2*0.3 = -0.6 at any C
        w = rq.exponential_weight(0.3)
        assert w.dlog_f(1.0) == pytest.approx(-0.6, abs=1e-15)

    @pytest.mark.parametrize("w", [
        rq.gaussian_weight(0.5),
        rq.exponential_weight(0.3),
        rq.uniform_weight(),
    ], ids=["gaussian", "exponential", "uniform"])
    def test_log_f_consistent_with_dlog_f(self, w):
        # central difference of log_f matches the closed-form derivative to O(h^2)
        C = np.linspace(-2, 2, 9)
        h = 1e-5
        fd = (w.log_f(C + h) - w.log_f(C - h)) / (2 * h)
        np.testing.assert_allclose(fd, w.dlog_f(C), atol=5e-10)

    def test_bad_gaussian_width(self):
        with pytest.raises(ValueError):
            rq.gaussian_weight(-1.0)

    def test_a_weight_is_a_value(self):
        # no callable fields: the same parameters give equal, equally hashed weights
        assert rq.gaussian_weight(0.5) == rq.gaussian_weight(0.5)
        assert hash(rq.exponential_weight(-0.3)) == hash(rq.exponential_weight(-0.3))
        assert rq.gaussian_weight(0.5) != rq.gaussian_weight(0.25)
        assert not any(callable(v) for v in vars(rq.uniform_weight()).values())


# The closed forms of each weight kind, one numpy expression per function:
# the bytewise reference of the term evaluator, signed zeros included.
_CLOSED_FORMS = [
    *(pytest.param(rq.gaussian_weight(a), lambda C, a=a: -a * C ** 2,
                   lambda C, a=a: -2.0 * a * C, id=f"gaussian-{a!r}")
      for a in (5e-324, 1e-3, 0.5, 3.0, 1e300)),
    *(pytest.param(rq.exponential_weight(k), lambda C, k=k: -2.0 * k * C,
                   lambda C, k=k: np.full_like(C, -2.0 * k), id=f"exponential-{k!r}")
      for k in (0.0, -0.0, 0.3, -0.3, 1e-300, -7.0)),
    pytest.param(rq.uniform_weight(), np.zeros_like, np.zeros_like, id="uniform"),
    pytest.param(hyperbolic_gamma_one_ensemble(1.0, 1.0).weight,
                 lambda C: np.full(np.shape(C), np.nan), np.zeros_like, id="no-density"),
]
_EDGE_NODES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-3, -0.5, 2.0, -7.25, 1e300, -1e300])


@pytest.mark.parametrize("w, log_f, dlog_f", _CLOSED_FORMS)
def test_weight_terms_are_bitwise_the_closed_forms(w, log_f, dlog_f):
    with np.errstate(over="ignore"):  # C^2 and a C overflow at 1e300
        for C in (_EDGE_NODES, rq.make_grid(-5, 5, 25).nodes):
            assert w.log_f(C).tobytes() == log_f(C).tobytes()
            assert w.dlog_f(C).tobytes() == dlog_f(C).tobytes()


class TestEnsembleState:
    def _array(self, n=9, c=1.0):
        x = np.linspace(0, 1, n)
        return np.array([np.zeros(n), x, np.full(n, c), np.zeros(n)])

    def test_valid_state_accepted(self):
        st = rq.EnsembleState(0.0, self._array())
        assert st.x.shape == (9,)

    def test_state_wraps_its_array_read_only(self):
        y = self._array()
        st = rq.EnsembleState(0.0, y)
        assert st.y is y and not y.flags.writeable
        for k, row in enumerate((st.t, st.x, st.u0, st.u1)):
            assert np.shares_memory(row, y) and np.array_equal(row, y[k])
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 1.0

    def test_crossing_trajectories_rejected(self):
        y = self._array()
        y[1, 4] = y[1, 5] + 0.1
        with pytest.raises(StateValidationError, match="degeneration"):
            rq.EnsembleState(0.0, y)

    def test_backward_time_rejected(self):
        y = self._array()
        y[2, 3] = -1.0
        with pytest.raises(StateValidationError, match="u0"):
            rq.EnsembleState(0.0, y)

    def test_nonfinite_rejected(self):
        y = self._array()
        y[0, 0] = np.nan
        with pytest.raises(StateValidationError):
            rq.EnsembleState(0.0, y)

    def test_first_broken_invariant_is_reported(self):
        # non-finite t is reported before the ordering of x
        y = self._array()
        y[0, 2] = np.inf
        y[1, 4] = y[1, 5] + 0.1
        with pytest.raises(StateValidationError, match="non-finite values in field t"):
            rq.EnsembleState(0.0, y)

    def test_length_mismatch_rejected(self):
        # a (4, N) state can be given only the wrong shape, not ragged rows
        for rows, shape in ((np.s_[:3], r"\(3, 9\)"), (np.s_[:, 0], r"\(4,\)"),
                            (np.s_[1:3], r"\(2, 9\)")):
            with pytest.raises(StateValidationError,
                               match=rf"state array has shape {shape}, want \(4, N\)"):
                rq.EnsembleState(0.0, self._array()[rows])

    def test_length_mismatch_reported_before_other_faults(self):
        y = self._array()[:3]
        y[0, 0] = np.nan
        with pytest.raises(StateValidationError, match=r"state array has shape \(3, 9\)"):
            rq.EnsembleState(0.0, y)


class TestSimConfig:
    def test_positive_parameters_enforced(self):
        g = rq.make_grid(-5, 5, 25)
        w = rq.gaussian_weight(0.5)
        with pytest.raises(ValueError):
            rq.SimConfig(mass=-1, hbar=1, c=1, weight=w, grid=g, t_final=1, dt=1e-3)
        with pytest.raises(ValueError):
            rq.SimConfig(mass=1, hbar=1, c=1, weight=w, grid=g, t_final=1, dt=0.0)
        with pytest.raises(ValueError):
            rq.SimConfig(mass=1, hbar=1, c=1, weight=w, grid=g, t_final=1, dt=1e-3,
                         stencil_order=3)

    def test_stage_scalars_are_read_only_0d_arrays_of_their_formulas(self):
        # each is the Python-float formula's value, cached, and cannot be written
        c, m, hbar, dt = 3.0, 2.0, 0.7, 1e-3
        cfg = rq.SimConfig(c=c, mass=m, hbar=hbar, dt=dt, weight=rq.gaussian_weight(0.5),
                           grid=rq.make_grid(-5, 5, 25), t_final=1)
        want = {"c_sq": c ** 2, "neg_mc_sq": -(m * c ** 2),
                "neg_hbar_sq_over_2m": -(hbar ** 2 / (2.0 * m)), "m": m}
        got = {name: getattr(cfg, name) for name in want}
        got.update(zip(("dt/2", "dt", "dt/6"), cfg.rk_weights))
        want.update({"dt/2": 0.5 * dt, "dt": dt, "dt/6": dt / 6.0})
        for name, value in got.items():
            assert (value.shape, value.dtype, float(value)) == ((), np.float64, want[name]), name
            with pytest.raises(ValueError, match="read-only"):
                value[()] = 1.0
        assert all(getattr(cfg, name) is got[name] for name in ("c_sq", "neg_mc_sq", "m"))
        assert cfg.rk_weights is cfg.rk_weights


def _ensemble(rows):
    """A valid 9-node ensemble: (t, x, u0, u1) for 4 rows, (x, v) for 2."""
    x = np.linspace(0.0, 1.0, 9)
    return np.array([np.zeros(9), x, np.ones(9), np.zeros(9)] if rows == 4 else [x, np.zeros(9)])


@pytest.mark.parametrize("rows, x_row, row, value, message", [
    (4, 1, 3, np.nan, "non-finite values in field u1"),
    (4, 1, 2, -1.0, "u0 must be positive"),
    (2, 0, 1, np.inf, "non-finite values in field v"),
])
def test_guard_reports_the_first_of_two_faults(rows, x_row, row, value, message):
    y = _ensemble(rows)
    y[x_row, 4] = y[x_row, 5] + 0.1  # x out of order ...
    y[row, 2] = value                # ... and one earlier invariant broken
    with pytest.raises(StateValidationError, match=message):
        check_state(y, rows)
    y[row, 2] = _ensemble(rows)[row, 2]
    with pytest.raises(StateValidationError, match="degeneration"):
        check_state(y, rows)


@pytest.mark.parametrize("rows", [4, 3, 2])
def test_guard_rejects_a_row_count_no_state_has(rows):
    # a finite (3, N) array, or one with a NaN in its third row, is no state
    y = np.ones((3, 9))
    with pytest.raises(StateValidationError, match=r"shape \(3, 9\)"):
        check_state(y, rows)
    y[2, 4] = np.nan
    with pytest.raises(StateValidationError, match=r"shape \(3, 9\)"):
        check_state(y, rows)


@pytest.mark.parametrize("make, message", [
    # the weight value refuses a non-finite kappa through its coefficient
    (lambda: rq.exponential_weight(math.inf),
     "exponential weight has a non-finite d ln f / dC coefficient"),
    (lambda: rq.exponential_weight(math.nan),
     "exponential weight has a non-finite d ln f / dC coefficient"),
    # d ln f / dC = -2 kappa and -2 a C overflow their coefficients
    (lambda: rq.exponential_weight(1e308),
     "^exponential weight has a non-finite d ln f / dC coefficient$"),
    (lambda: rq.gaussian_weight(1e308),
     "^gaussian weight has a non-finite d ln f / dC coefficient$"),
    (lambda: rq.SimConfig(c=1, weight=rq.uniform_weight(), grid=rq.make_grid(-1, 1, 9),
                          t_final=-1.0), "t_final must be nonnegative and finite, got -1.0"),
    (lambda: rq.SimConfig(c=1, weight=rq.uniform_weight(), grid=rq.make_grid(-1, 1, 9),
                          t_final=math.inf), "t_final must be nonnegative and finite, got inf"),
])
def test_refuses_an_out_of_range_parameter(make, message):
    with pytest.raises(ValueError, match=message):
        make()
