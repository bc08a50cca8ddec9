import numpy as np
import pytest

import relqtraj as rq
from relqtraj.analytic import (
    hyperbolic_gamma_one_ensemble,
    hyperbolic_gamma_T_ensemble,
    inertial_ensemble,
)
from relqtraj.geometry import attach_g01, compute_geometry
from relqtraj.state import StateValidationError
from relqtraj.stencils import interior


def _config(g, c):
    # compute_geometry reads the plan (order 4) and c^2 from a config
    return rq.SimConfig(c=c, weight=rq.uniform_weight(), grid=g, t_final=1)


class TestComputeGeometry:
    def test_initial_wavepacket_slice(self):
        # t = 0, x = C gives t_C = 0, x_C = 1, gamma = 1 at every node
        g = rq.make_grid(-5, 5, 25)
        tx = np.array((np.zeros(25), g.nodes))
        (t_C, x_C), gamma = compute_geometry(tx, _config(g, 3.0))
        np.testing.assert_allclose(t_C, 0.0, atol=1e-14)
        np.testing.assert_allclose(x_C, 1.0, atol=1e-13)
        np.testing.assert_allclose(gamma, 1.0, atol=1e-12)

    def test_hyperbolic_unit_metric_slice(self):
        # x_C = cosh(cBT), c t_C = sinh(cBT): gamma = 1 identically
        g = rq.make_grid(0.5, 3.0, 25)
        ens = hyperbolic_gamma_one_ensemble(B=1.0, c=3.0)
        _, gamma = compute_geometry(ens.evaluate(0.7, g.nodes), _config(g, 3.0))
        np.testing.assert_allclose(gamma, 1.0, atol=1e-10)

    def test_hyperbolic_fan_slice(self):
        # gamma = c^2 A^2 T^2, uniform in C
        g = rq.make_grid(-1, 1, 25)
        cfg = _config(g, 2.0)
        ens = hyperbolic_gamma_T_ensemble(A=1.0, c=2.0)
        _, gamma = compute_geometry(ens.evaluate(1.0, g.nodes), cfg)
        # edge rows carry the largest truncation constants at 25 nodes
        np.testing.assert_allclose(gamma, 4.0, rtol=1e-4)
        assert np.max(np.abs(gamma[interior(4, 25)] - gamma[12])) < 1e-9

    def test_inertial_slice_is_stencil_exact(self):
        # derivatives of linear fields are exact: gamma = 1, g01 = 0
        g = rq.make_grid(-2, 2, 25)
        ens = inertial_ensemble(beta0=0.6, c=1.0)
        y = ens.evaluate(1.3, g.nodes)
        cfg = _config(g, 1.0)
        tx_C, gamma = compute_geometry(y, cfg)
        g01 = attach_g01(tx_C, y[2:], cfg)  # tau_T = 1, c = 1
        np.testing.assert_allclose(gamma, 1.0, atol=1e-13)
        np.testing.assert_allclose(g01, 0.0, atol=1e-13)

    def test_degenerate_slice_raises(self):
        # superluminal label spread: x_C^2 < c^2 t_C^2
        g = rq.make_grid(0, 1, 11)
        with pytest.raises(StateValidationError, match="node"):
            compute_geometry(np.array((2.0 * g.nodes, g.nodes)), _config(g, 1.0))

    def test_overflowing_slice_names_the_first_bad_node(self):
        # x_C^2 overflows to inf from node 18 on; the smallest gamma, 1 at
        # node 0, is positive and finite and must not be the one named
        g = rq.make_grid(-5, 5, 25)
        x = g.nodes.copy()
        x[20:] *= 1e160
        with np.errstate(over="ignore"), pytest.raises(
                StateValidationError,
                match=r"^non-finite spatial metric gamma = inf at node 18: "):
            compute_geometry(np.array((np.zeros(25), x)), _config(g, 3.0))

