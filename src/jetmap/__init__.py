"""Truncated power series ("jet") algebra with jet-transport ODE integration.

Builds Taylor-expanded transfer maps of polynomial ODEs, either by
integrating jet-valued states forward or by the backward linear coefficient
equations, and applies them to the driven Duffing oscillator's stroboscopic
map: fixed points, period-doubling sweeps, and attractor sampling.

The top level exports the names README documents, the exceptions among them;
every other name is imported from its module (``from jetmap import duffing``).
"""

from .monoidx import TableMismatchError, TableSizeError, build_table
from .jet import state_about
from .jetode import (
    DivergenceError,
    OdeSystem,
    StiffnessError,
    adaptive,
    expression_system,
    fixed_step,
    rk4,
)
from .duffing import (
    EscapeError,
    ExactStroboscopicMap,
    NewtonConvergenceError,
    SingularJacobianError,
    attractor_sample,
    feigenbaum_scan,
    fixed_point_newton,
    stroboscopic_taylor_map,
)

__version__ = "0.1.0"
