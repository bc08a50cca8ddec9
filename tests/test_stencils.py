import ast
import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import relqtraj as rq
from relqtraj.dynamics import rk4_step
from relqtraj.stencils import d_dC, fornberg_weights, interior, interpolate

from conftest import baseline_config


@pytest.fixture(params=[2, 4])
def order(request):
    return request.param


def _scalar_fornberg(xs, x0, deriv):
    """Fornberg's recursion on one window, node by node: the reference that
    every window of a stacked fornberg_weights call must match bit for bit."""
    n = len(xs)
    w = np.zeros((deriv + 1, n))
    w[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, n):
        mn = min(i, deriv)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    w[k, i] = c1 * (k * w[k - 1, i - 1] - c5 * w[k, i - 1]) / c2
                w[0, i] = -c1 * c5 * w[0, i - 1] / c2
            for k in range(mn, 0, -1):
                w[k, j] = ((xs[i] - x0) * w[k, j] - k * w[k - 1, j]) / c3
            w[0, j] = (xs[i] - x0) * w[0, j] / c3
        c1 = c2
    return w[deriv]


def _scalar_plan_matrix(grid, order):
    """The derivative matrix filled one row at a time from _scalar_fornberg."""
    nodes, n, width = grid.nodes, grid.n_points, order + 1
    D = np.zeros((n, n))
    for i in range(n):
        lo = min(max(i - order // 2, 0), n - width)
        D[i, lo:lo + width] = _scalar_fornberg(nodes[lo:lo + width], nodes[i], 1)
    return D


def _lagrange(values, grid, c_query):
    """Cubic Lagrange interpolation on the same 4-node window as interpolate."""
    nodes = grid.nodes
    j = min(max(int(np.searchsorted(nodes, c_query)) - 2, 0), grid.n_points - 4)
    xs = nodes[j:j + 4]
    return sum(values[j + i] * np.prod([(c_query - xs[k]) / (xs[i] - xs[k])
                                        for k in range(4) if k != i]) for i in range(4))


class TestBuildPlan:
    def test_rows_sum_to_zero(self, order):
        g = rq.make_grid(-1, 1, 21)
        plan = rq.build_plan(g, order)
        np.testing.assert_allclose(plan.sum(axis=1), 0.0, atol=1e-12)

    def test_polynomial_exactness_all_nodes(self, order):
        # width-(order+1) rows differentiate degree <= order exactly,
        # one-sided edge rows included
        g = rq.make_grid(-1, 1, 21)
        plan = rq.build_plan(g, order)
        for k in range(order + 1):
            d = d_dC(g.nodes ** k, plan)
            expect = np.zeros(21) if k == 0 else k * g.nodes ** (k - 1)
            np.testing.assert_allclose(d, expect, atol=5e-12)

    def test_interior_holds_the_centered_rows(self, order):
        plan = rq.build_plan(rq.make_grid(-1, 1, 21), order)
        ends = [np.flatnonzero(row)[[0, -1]] - i for i, row in enumerate(plan)]
        centered = [i for i, e in enumerate(ends) if e.tolist() == [-(order // 2), order // 2]]
        assert range(21)[interior(order, 21)] == range(centered[0], centered[-1] + 1)
        assert len(centered) == 21 - order

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            rq.build_plan(rq.make_grid(0, 1, 11), 6)

    def test_fornberg_central_coefficients(self):
        # classical 5-point centered first-derivative weights
        xs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        w = fornberg_weights(xs, 0.0, 1)
        np.testing.assert_allclose(
            w, [1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12], atol=1e-14
        )
        # five nodes fix no fifth derivative
        with pytest.raises(ValueError, match="need more nodes than derivative order"):
            fornberg_weights(xs, 0.0, 5)

    @pytest.mark.parametrize("span", [(-5, 5, 25), (-5, 5, 33), (-2.5, 2.5, 11), (0, 1, 101),
                                      (0.1, 7.3, 401), (-1e3, 2e3, 57)])
    def test_matrix_is_the_scalar_recursion_bitwise(self, order, span):
        # the plan is built without a BLAS call, so this holds under every kernel
        grid = rq.make_grid(*span)
        plan = rq.build_plan(grid, order)
        assert plan.dtype == np.float64 and not plan.flags.writeable
        assert np.array_equal(plan, _scalar_plan_matrix(grid, order))

    @pytest.mark.parametrize("deriv", [0, 1, 2, 3])
    def test_every_stacked_window_is_its_own_call_bitwise(self, deriv):
        rng = np.random.default_rng(deriv)
        xs = np.sort(rng.uniform(-3, 3, (3, 2, 5)), axis=-1)
        x0 = rng.uniform(-3, 3, (3, 2))
        got = fornberg_weights(xs, x0, deriv)
        assert got.shape == (3, 2, 5)
        for idx in np.ndindex(3, 2):
            assert got[idx].tobytes() == _scalar_fornberg(xs[idx], x0[idx], deriv).tobytes()
            assert got[idx].tobytes() == fornberg_weights(xs[idx], x0[idx], deriv).tobytes()


class TestDerivative:
    def test_identity_samples(self):
        g = rq.make_grid(-3, 3, 15)
        plan = rq.build_plan(g, 4)
        np.testing.assert_allclose(d_dC(g.nodes, plan), 1.0, atol=1e-13)

    def test_quadratic_exact_at_half(self):
        g = rq.make_grid(-1, 1, 21)
        plan = rq.build_plan(g, 2)
        d = d_dC(g.nodes ** 2, plan)
        i = int(np.argmin(np.abs(g.nodes - 0.5)))
        assert g.nodes[i] == pytest.approx(0.5)
        assert d[i] == pytest.approx(1.0, abs=1e-13)

    def test_sine_fourth_order_convergence(self):
        errs = {}
        for n in (81, 161, 321):
            g = rq.make_grid(-np.pi, np.pi, n)
            plan = rq.build_plan(g, 4)
            err = np.max(np.abs(d_dC(np.sin(g.nodes), plan) - np.cos(g.nodes)))
            errs[n] = err
        rate1 = np.log2(errs[81] / errs[161])
        rate2 = np.log2(errs[161] / errs[321])
        assert rate1 == pytest.approx(4.0, abs=0.2)
        assert rate2 == pytest.approx(4.0, abs=0.2)
        # error bounded by K h^4 with an O(1) empirical constant
        h = 2 * np.pi / 80
        K = errs[81] / h ** 4
        assert K < 10.0

    def test_grid_halving_rate_matches_order(self, order):
        errs = []
        for n in (81, 161):
            g = rq.make_grid(-1, 1, n)
            plan = rq.build_plan(g, order)
            errs.append(np.max(np.abs(d_dC(np.exp(g.nodes), plan) - np.exp(g.nodes))))
        rate = np.log2(errs[0] / errs[1])
        assert rate == pytest.approx(order, abs=0.3)

    def test_length_mismatch(self):
        g = rq.make_grid(0, 1, 11)
        plan = rq.build_plan(g, 4)
        with pytest.raises(ValueError, match="does not match grid"):
            d_dC(np.zeros(10), plan)

    @pytest.mark.parametrize("n", [9, 25, 101, 401])
    def test_every_1d_input_is_the_matrix_product_bitwise(self, order, n):
        # every float64 ndarray row, a strided view included, takes d_dC's
        # direct dispatch; lists, integer and float32 arrays, an ndarray
        # subclass and big-endian float64 take the checked path; all equal
        # plan @ values, and a short row of each is the grid error
        plan = rq.build_plan(rq.make_grid(-5, 5, n), order)
        stack = np.random.default_rng(n).standard_normal((n, 3)) * [1.0, 1e-3, 1e6]
        row = stack[:, 0].copy()
        for v in (row, stack[:, 1], stack.T[2], np.arange(n), row.astype(np.float32),
                  row.view(type("Subclass", (np.ndarray,), {})), row.astype(">f8")):
            want = plan @ np.asarray(v, dtype=float)
            assert d_dC(v, plan).tobytes() == want.tobytes()
            assert d_dC(v.tolist(), plan).tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="does not match grid"):
                d_dC(v[1:], plan)


class TestInterpolate:
    def test_identity(self):
        g = rq.make_grid(-3, 3, 25)
        assert interpolate(g.nodes, g, 1.2345) == pytest.approx(1.2345, abs=1e-13)

    def test_cubic_exactness(self):
        g = rq.make_grid(-2, 2, 41)
        vals = g.nodes ** 3
        assert interpolate(vals, g, 0.5) == pytest.approx(0.125, abs=1e-13)
        # every cubic is reproduced exactly, edges included
        poly = 2.0 - g.nodes + 0.5 * g.nodes ** 2 + 0.25 * g.nodes ** 3
        for cq in (-1.999, -1.3, 0.0, 0.77, 1.999):
            expect = 2.0 - cq + 0.5 * cq ** 2 + 0.25 * cq ** 3
            assert interpolate(poly, g, cq) == pytest.approx(expect, abs=1e-12)

    def test_lagrange_weights_to_roundoff(self):
        g = rq.make_grid(-5, 5, 25)
        vals = np.random.default_rng(3).standard_normal(25)
        for cq in np.linspace(-5, 5, 41):
            assert interpolate(vals, g, cq) == pytest.approx(_lagrange(vals, g, cq),
                                                               rel=1e-14, abs=1e-14)

    def test_exponential_accuracy(self):
        g = rq.make_grid(0, 1, 11)
        got = interpolate(np.exp(g.nodes), g, 0.55)
        assert got == pytest.approx(np.exp(0.55), abs=1e-5)

    def test_out_of_range_rejected(self):
        g = rq.make_grid(0, 1, 11)
        with pytest.raises(ValueError):
            interpolate(np.zeros(11), g, 1.5)


class TestStackedValues:
    """The last axis is the grid axis; each row of a stack (..., n) is one
    field, treated bitwise as a 1-D call would treat it."""

    def test_interpolate_is_the_per_row_call_bitwise(self):
        g = rq.make_grid(-2, 2, 25)
        stack = np.random.default_rng(7).standard_normal((6, 25))
        for cq in (-2.0, -1.3, 0.1, 1.99, 2.0):
            got = interpolate(stack, g, cq)
            assert got.shape == (6,)
            assert got.tolist() == [interpolate(row, g, cq) for row in stack]

    @pytest.mark.parametrize("n", [25, 101])
    def test_d_dC_is_the_per_row_call_bitwise(self, order, n):
        # one gemv per row of the stack, each the 1-D call's, for a (K, n)
        # stack, a strided view of one, a (K, 2, n) stack and a Fortran-order
        # one, strided along n as pde_residual's stack of time rows is
        plan = rq.build_plan(rq.make_grid(-2, 2, n), order)
        rng = np.random.default_rng(n)
        stack = rng.standard_normal((7, 3, n)) * np.array([1.0, 1e-3, 1e6])[:, None]
        for values in (stack[:, 0].copy(), stack[:, 2], stack[:, :2], np.asfortranarray(stack)):
            got = d_dC(values, plan)
            assert got.shape == values.shape
            rows = values.reshape(-1, n)
            assert [r.tobytes() for r in got.reshape(-1, n)] == \
                [d_dC(r.copy(), plan).tobytes() for r in rows]

    def test_last_axis_must_be_the_grid(self):
        g = rq.make_grid(-2, 2, 25)
        plan = rq.build_plan(g, 4)
        # a 0-d float64 array takes d_dC's direct dispatch, which numpy refuses
        for values in (np.zeros((25, 6)), np.zeros((2, 25, 6)), np.zeros(24), np.float64(1.0),
                       np.array(1.0)):
            with pytest.raises(ValueError, match="does not match grid"):
                d_dC(values, plan)
            with pytest.raises(ValueError, match="does not match grid"):
                interpolate(values, g, 0.0)


SOURCE = Path(rq.__file__).resolve().parent
NUMPY_PRODUCTS = {"dot", "matmul", "matvec", "vecmat", "einsum", "tensordot", "inner", "linalg"}


def _matrix_products(node, where):
    """(enclosing definition, line) of every matrix product under an ast node:
    an @ between operands, any .dot( and np.<name> for NUMPY_PRODUCTS."""
    for child in ast.iter_child_nodes(node):
        inside = (f"{where}.{child.name}" if isinstance(child, (ast.FunctionDef, ast.ClassDef))
                  else where)
        if (isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult)
                or isinstance(child, ast.Attribute) and (
                    child.attr == "dot" or child.attr in NUMPY_PRODUCTS
                    and isinstance(child.value, ast.Name) and child.value.id == "np")):
            yield inside, child.lineno
        yield from _matrix_products(child, inside)


def test_d_dC_is_the_packages_only_matrix_product():
    # one stencil application everywhere: every BLAS product of the package,
    # in C or in T, is d_dC's, so only d_dC's bits depend on the BLAS kernel
    found = [(where, f"{path.name}:{line}") for path in sorted(SOURCE.glob("*.py"))
             for where, line in _matrix_products(ast.parse(path.read_text()), path.stem)]
    assert {where for where, _ in found} == {"stencils.d_dC"}, found


def _bench_tracer():
    """bench/spans.Tracer, loaded from its file as tests/test_bench_contract.py does."""
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("_bench_spans_plans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


class TestOnePlanPerConfig:
    def test_a_run_and_its_check_build_one_space_and_one_time_plan(self):
        cfg = baseline_config(t_final=1.0)
        with _bench_tracer()(targets=(("stencils", "build_plan"),)) as tracer:
            series = rq.integrate(cfg, cadence=0.05)
            report = rq.evaluate_invariants(series)
            y = series.y[-1]
            for k in range(3):
                y = rk4_step(y, cfg)
        assert "pde_residual_x" in [r.name for r in report.records]
        assert len(tracer.arrays()[0]) == 2

    def test_the_plan_and_dlogf_are_cached_per_config(self):
        cfg = baseline_config()
        assert cfg.plan is cfg.plan and cfg.half_dlogf is cfg.half_dlogf
        assert np.array_equal(cfg.plan, rq.build_plan(cfg.grid, 4))
        second = replace(cfg, stencil_order=2)
        assert second.plan is not cfg.plan
        assert np.array_equal(second.plan, rq.build_plan(cfg.grid, 2))
        np.testing.assert_array_equal(cfg.half_dlogf, 0.5 * cfg.weight.dlog_f(cfg.grid.nodes))
        for cached in (cfg.plan, cfg.half_dlogf):
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 1.0

    def test_the_stage_constants_are_derived_once_per_config(self):
        cfg = rq.SimConfig(c=3.0, mass=2.0, weight=rq.gaussian_weight(0.5),
                           grid=rq.make_grid(-5, 5, 25), t_final=1)
        ones = np.ones(25)
        want = {"half_dlogf": [0.5 * cfg.weight.dlog_f(cfg.grid.nodes)],
                "force_sign": [-3.0 * ones, -ones],
                "rhs_divisor": [3.0 * ones, ones, 2.0 * ones, 2.0 * ones]}
        for name, rows in want.items():
            value = getattr(cfg, name)
            assert value is getattr(cfg, name)
            np.testing.assert_array_equal(value, np.squeeze(rows))
            with pytest.raises(ValueError, match="read-only"):
                value[0] = 1.0
