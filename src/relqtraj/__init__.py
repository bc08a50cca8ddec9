"""Relativistic quantum trajectory ensembles in 1+1 spacetime dimensions.

A quantum state is represented by an ensemble of non-crossing timelike
worldlines (t(T,C), x(T,C)), one per label C, advanced in the ensemble
proper time T.  The inter-trajectory coupling enters through a quantum
potential built from spatial derivatives of the trajectory density on
each simultaneity submanifold; the same potential sets the local rate
dtau/dT of proper time against ensemble time.
"""

from .state import (
    SpatialGrid,
    WeightFunction,
    SimConfig,
    make_grid,
    gaussian_weight,
    exponential_weight,
    uniform_weight,
)
from .stencils import build_plan
from .dynamics import (
    SnapshotSeries,
    IntegrationError,
    record_series,
    rest_initial_state,
    integrate,
)
from .nonrel import nonrel_integrate
from .analytic import (
    AnalyticEnsemble,
    inertial_ensemble,
    exponential_ensemble,
    hyperbolic_gamma_one_ensemble,
    hyperbolic_gamma_T_ensemble,
)
from .diagnostics import (
    InvariantRecord,
    InvariantReport,
    derived_fields,
    evaluate_invariants,
    pde_residual,
)
from .snapshot_io import (
    ConfigError,
    parse_config,
    load_config,
    config_to_text,
    write_snapshots,
    read_snapshots,
    write_report,
)

__version__ = "0.1.0"
