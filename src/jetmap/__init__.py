"""Truncated power series ("jet") algebra with jet-transport ODE integration.

Builds Taylor-expanded transfer maps of polynomial ODEs, either by
integrating jet-valued states forward or by the backward linear coefficient
equations, and applies them to the driven Duffing oscillator's stroboscopic
map: fixed points, period-doubling sweeps, and attractor sampling.
"""

from .monoidx import (
    MonomialTable,
    TableMismatchError,
    TableSizeError,
    box,
    box_rev,
    build_table,
    rank,
    table_size,
)
from .jet import (
    Jet,
    constant,
    jet_from_dict,
    jet_to_dict,
    polyval_on_jets,
    power,
    prod,
    state_about,
    variable,
)
from .jetode import (
    DivergenceError,
    IntegratorConfig,
    OdeSystem,
    StepStats,
    StiffnessError,
    adaptive,
    expression_system,
    fixed_step,
    integrate,
    rk4,
    rkf45,
)
from .vareq import (
    CCoefficientTable,
    TaylorMap,
    backward_solve,
    c_coefficients,
    expand_rhs,
    forward_solve,
    taylor_map_from_dict,
    taylor_map_to_dict,
)
from .duffing import (
    DuffingParams,
    EscapeError,
    ExactStroboscopicMap,
    NewtonConvergenceError,
    ScanResult,
    SingularJacobianError,
    attractor_sample,
    detect_period,
    duffing_rhs,
    duffing_scaled_rhs,
    feigenbaum_scan,
    fixed_point_newton,
    iterate_map,
    stroboscopic_taylor_map,
    to_qp,
    to_scaled,
)

__version__ = "0.1.0"
