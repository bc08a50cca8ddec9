import numpy as np
import pytest

import relqtraj as rq
from relqtraj.analytic import (
    hyperbolic_gamma_one_ensemble,
    hyperbolic_gamma_T_ensemble,
    inertial_ensemble,
    sample_state,
)
from relqtraj.geometry import GeometryError


class TestComputeGeometry:
    def test_initial_wavepacket_slice(self):
        # t = 0, x = C gives t_C = 0, x_C = 1, gamma = 1 at every node
        g = rq.make_grid(-5, 5, 25)
        plan = rq.build_plan(g, 4)
        st = rq.EnsembleState(0.0, np.array([np.zeros(25), g.nodes,
                                             np.full(25, 3.0), np.zeros(25)]))
        geom = rq.compute_geometry(st, plan, c=3.0)
        np.testing.assert_allclose(geom.t_C, 0.0, atol=1e-14)
        np.testing.assert_allclose(geom.x_C, 1.0, atol=1e-13)
        np.testing.assert_allclose(geom.gamma, 1.0, atol=1e-12)

    def test_hyperbolic_unit_metric_slice(self):
        # x_C = cosh(cBT), c t_C = sinh(cBT): gamma = 1 identically
        g = rq.make_grid(0.5, 3.0, 25)
        plan = rq.build_plan(g, 4)
        ens = hyperbolic_gamma_one_ensemble(B=1.0, c=3.0)
        st = sample_state(ens, g, T=0.7)
        geom = rq.compute_geometry(st, plan, c=3.0)
        np.testing.assert_allclose(geom.gamma, 1.0, atol=1e-10)

    def test_hyperbolic_fan_slice(self):
        # gamma = c^2 A^2 T^2, uniform in C
        g = rq.make_grid(-1, 1, 25)
        plan = rq.build_plan(g, 4)
        ens = hyperbolic_gamma_T_ensemble(A=1.0, c=2.0)
        st = sample_state(ens, g, T=1.0)
        geom = rq.compute_geometry(st, plan, c=2.0)
        # edge rows carry the largest truncation constants at 25 nodes
        np.testing.assert_allclose(geom.gamma, 4.0, rtol=1e-4)
        assert np.max(np.abs(geom.gamma[plan.interior] - geom.gamma[12])) < 1e-9

    def test_inertial_slice_is_stencil_exact(self):
        # derivatives of linear fields are exact: gamma = 1, g01 = 0
        g = rq.make_grid(-2, 2, 25)
        plan = rq.build_plan(g, 4)
        ens = inertial_ensemble(beta0=0.6, c=1.0)
        st = sample_state(ens, g, T=1.3)
        geom = rq.attach_g01(rq.compute_geometry(st, plan, c=1.0), st, np.ones(25), 1.0)
        np.testing.assert_allclose(geom.gamma, 1.0, atol=1e-13)
        np.testing.assert_allclose(geom.g01_residual, 0.0, atol=1e-13)

    def test_degenerate_slice_raises(self):
        # superluminal label spread: x_C^2 < c^2 t_C^2
        g = rq.make_grid(0, 1, 11)
        plan = rq.build_plan(g, 4)
        st = rq.EnsembleState(0.0, np.array([2.0 * g.nodes, g.nodes,
                                             np.full(11, 1.0), np.zeros(11)]))
        with pytest.raises(GeometryError, match="node"):
            rq.compute_geometry(st, plan, c=1.0)

