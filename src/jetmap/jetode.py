"""Runge-Kutta integration generic over scalar and jet-valued states.

:func:`rk4` and :func:`rkf45` march one float64 array: ``(m,)`` for a state
of m floats, ``(m, L)`` for a state of m :class:`~jetmap.jet.Jet` rows over
one shared table.  The caller's tuple is packed into it once at entry and
unpacked once at exit, into floats or into jets that each own a frozen copy
of their row.  Stage combinations, the finiteness tests and the error norm
are then single numpy expressions over every coefficient of every component,
so one marching code serves both kinds of state.

Adaptive step control weighs each entry's error by ``1 + |value|``: absolute
for entries below one, relative above.  The degree-d coefficients of a
transfer map grow roughly geometrically with d (past 5e11 at degree 8 for
the Duffing map), so an absolute bound over them would ask for accuracy far
beneath float64 round-off of the large entries, while the mixed weight asks
every entry for ``tol`` in its own scale.

The right side receives a tuple: Python floats for a scalar state, read-only
``Jet`` views of the stage rows for a jet state.  It returns the m
derivatives as Jets or floats (on a jet state a float is a constant row), or
as one ``(m, L)`` array.  Integrating a state of jets initialized as
``center + x_a`` yields the Taylor expansion of the flow about ``center``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .jet import Jet, _new as _new_jet
from .monoidx import TableMismatchError

State = tuple  # components are floats or Jets


class DivergenceError(RuntimeError):
    """A non-finite value appeared during integration."""

    def __init__(self, message: str, step: int | None = None, t: float | None = None):
        super().__init__(message)
        self.step = step
        self.t = t


class StiffnessError(RuntimeError):
    """Adaptive step size underflowed the configured minimum."""


@dataclass(frozen=True)
class OdeSystem:
    """Right-hand side of an autonomous-size first-order system.

    ``rhs(state, t)`` receives a tuple of ``dim`` components and returns the
    ``dim`` derivatives (see the module docstring for their types).  It must
    be polynomial in the state components (with arbitrary time-dependent
    scalar coefficients) so that the same callable works on floats and on
    jets.  Lifted parameters, if any, occupy the
    trailing ``n_params`` slots and have identically zero derivatives.
    """

    dim: int
    rhs: Callable[[State, float], Sequence]
    n_params: int = 0
    param_values: tuple = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"system dimension must be >= 1, got {self.dim}")
        if not 0 <= self.n_params <= self.dim:
            raise ValueError(f"n_params={self.n_params} outside [0, {self.dim}]")

    @property
    def n_dynamical(self) -> int:
        return self.dim - self.n_params

    def initial_state(self, dynamical: Sequence[float]) -> tuple[float, ...]:
        """Full initial state: dynamical values followed by parameter values."""
        if len(dynamical) != self.n_dynamical:
            raise ValueError(
                f"expected {self.n_dynamical} dynamical values, got {len(dynamical)}"
            )
        return tuple(float(v) for v in dynamical) + tuple(self.param_values)


@dataclass(frozen=True)
class IntegratorConfig:
    """Step-control settings shared by the fixed and adaptive integrators.

    ``h`` is the step in fixed mode and the initial trial step in adaptive
    mode (default: the whole interval, so a quadrature-exact problem is done
    in one accepted step).  ``tol`` bounds the per-step error estimate, the
    4th/5th-order difference over the whole state array (every coefficient of
    every component, for jet and scalar states alike), each entry weighed by
    ``1 + max(|y|, |y5|)``: ``tol`` serves as both the absolute and the
    relative tolerance (see :func:`_error_norm`).
    """

    mode: str = "adaptive"
    h: float | None = None
    ns: int = 1
    tol: float = 1e-12
    safety: float = 0.9
    min_shrink: float = 0.1
    max_grow: float = 5.0
    h_min_frac: float = 1e-12
    max_steps: int = 500_000

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise ValueError(f"mode must be 'fixed' or 'adaptive', got {self.mode!r}")
        if self.mode == "fixed":
            if self.h is None or self.h <= 0:
                raise ValueError("fixed mode needs a positive step h")
            if self.ns < 1:
                raise ValueError("fixed mode needs ns >= 1")
        else:
            if self.tol <= 0:
                raise ValueError("adaptive mode needs tol > 0")
            if self.h is not None and self.h <= 0:
                raise ValueError("initial step must be positive when given")


def fixed_step(h: float, ns: int) -> IntegratorConfig:
    return IntegratorConfig(mode="fixed", h=h, ns=ns)


def adaptive(tol: float = 1e-12, h0: float | None = None) -> IntegratorConfig:
    return IntegratorConfig(mode="adaptive", tol=tol, h=h0)


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0
    h_min: float = math.inf
    h_max: float = 0.0

    def record(self, h: float) -> None:
        self.accepted += 1
        self.h_min = min(self.h_min, h)
        self.h_max = max(self.h_max, h)


# -- the array state ------------------------------------------------------------


class _Layout:
    """How a state tuple maps onto one flat float64 array.

    A scalar state of m floats is the (m,) array itself.  A jet state is the
    (m, L) array of coefficient rows over one shared table, flattened; floats
    among its components become constant rows.
    """

    def __init__(self, state0: Sequence):
        self.m = len(state0)
        self.table = next((z.table for z in state0 if isinstance(z, Jet)), None)
        self.shape = (self.m,) if self.table is None else (self.m, self.table.L)

    def pack(self, state: Sequence) -> np.ndarray:
        """The flat array of a state; jets over other tables are refused here."""
        if self.table is None:
            return np.array(state, dtype=np.float64)
        y = np.empty(self.shape)
        self.store(y, state)
        return y.reshape(-1)

    def unpack(self, y: np.ndarray) -> State:
        """The caller's tuple: floats, or jets that each own a frozen copy."""
        if self.table is None:
            return tuple(y.tolist())
        return tuple(_new_jet(self.table, row.copy()) for row in y.reshape(self.shape))

    def view(self, y: np.ndarray) -> State:
        """The right side's tuple: floats, or read-only jet views of y's rows."""
        if self.table is None:
            return tuple(y.tolist())
        return tuple(_new_jet(self.table, row) for row in y.reshape(self.shape))

    def store(self, dst: np.ndarray, values) -> None:
        """Write state or right-side values (jets, floats, or one array) into dst."""
        if isinstance(values, np.ndarray):
            if values.shape != dst.shape:
                raise ValueError(f"expected an array of shape {dst.shape}, got {values.shape}")
            dst[...] = values
            return
        if self.table is None:
            dst[...] = values
            return
        if len(values) != self.m:
            raise ValueError(f"got {len(values)} components, expected {self.m}")
        table = self.table
        for row, z in zip(dst, values):
            if isinstance(z, Jet):
                if z.table is not table and not table.same_shape(z.table):
                    raise TableMismatchError(
                        f"cannot combine a jet over (m={z.table.m}, p={z.table.p}) "
                        f"with a state over (m={table.m}, p={table.p})"
                    )
                row[...] = z.coeffs
            else:
                row[...] = 0.0
                row[0] = z


def _stages(
    system: OdeSystem,
    layout: _Layout,
    y: np.ndarray,
    t: float,
    h: float,
    a: np.ndarray,
    c: Sequence[float],
    k: np.ndarray,
) -> None:
    """Fill k[i] with f(y + h sum_j a[i, j] k[j], t + c[i] h), stage by stage."""
    ha = h * a
    stage_rows = k.reshape(len(c), *layout.shape)
    for i, ci in enumerate(c):
        arg = y + ha[i, :i] @ k[:i] if i else y
        layout.store(stage_rows[i], system.rhs(layout.view(arg), t + ci * h))


def _error_norm(
    weights: np.ndarray, k: np.ndarray, y: np.ndarray, y5: np.ndarray
) -> float:
    """Mixed absolute/relative size of the error estimate ``sum_i w_i k_i``.

    The max over every coefficient of every component of
    ``|sum_i w_i k_i| / (1 + max(|y|, |y5|))``, where y is the state at the
    start of the step and y5 the candidate it is compared against: the
    standard ``atol + rtol |y|`` weights (Hairer, Norsett & Wanner, *Solving
    ODEs I*, II.4) with atol = rtol, so a single ``tol`` serves both.  A NaN
    from overflowing entries counts as an infinite error.
    """
    scale = 1.0 + np.maximum(np.abs(y), np.abs(y5))
    err = float((np.abs(weights @ k) / scale).max())
    return math.inf if math.isnan(err) else err


# -- fixed-step RK4 ----------------------------------------------------------

_RK4_C = (0.0, 1 / 2, 1 / 2, 1.0)
_RK4_A = np.diag([1 / 2, 1 / 2, 1.0], k=-1)
_RK4_B = np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6])


def rk4(
    system: OdeSystem, state0: Sequence, t0: float, cfg: IntegratorConfig
) -> tuple[State, float]:
    """Classic fourth-order Runge-Kutta with ns steps of size h."""
    if cfg.mode != "fixed":
        raise ValueError("rk4 requires a fixed-mode config")
    h = cfg.h
    layout = _Layout(state0)
    y = layout.pack(state0)
    k = np.empty((4, y.size))
    t = t0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, cfg.ns + 1):
            try:
                _stages(system, layout, y, t, h, _RK4_A, _RK4_C, k)
            except OverflowError as err:
                raise DivergenceError(f"float overflow during step {i} (t={t})", i, t) from err
            y = y + (h * _RK4_B) @ k
            t = t0 + i * h
            if not np.isfinite(y).all():
                raise DivergenceError(f"non-finite state after step {i} (t={t})", i, t)
    return layout.unpack(y), t


# -- adaptive Runge-Kutta-Fehlberg 4(5) ---------------------------------------

# classical Fehlberg tableau
_RKF_C = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)
_RKF_A = np.array(
    [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1 / 4, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3 / 32, 9 / 32, 0.0, 0.0, 0.0, 0.0],
        [1932 / 2197, -7200 / 2197, 7296 / 2197, 0.0, 0.0, 0.0],
        [439 / 216, -8.0, 3680 / 513, -845 / 4104, 0.0, 0.0],
        [-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40, 0.0],
    ]
)
_RKF_B4 = np.array([25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0])
_RKF_B5 = np.array([16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55])
_RKF_DB = _RKF_B4 - _RKF_B5


def rkf45(
    system: OdeSystem,
    state0: Sequence,
    t0: float,
    tf: float,
    cfg: IntegratorConfig,
) -> tuple[State, float, StepStats]:
    """Adaptive Fehlberg 4(5) pair from t0 to tf (tf > t0).

    A step is accepted when the difference between the embedded fourth- and
    fifth-order results, each entry weighed by ``1 + max(|y|, |y5|)``
    (:func:`_error_norm`), is at most ``cfg.tol``; the fifth-order candidate
    y5 is the one propagated.  The final step is clamped so that integration
    ends at exactly ``tf``.
    """
    if cfg.mode != "adaptive":
        raise ValueError("rkf45 requires an adaptive-mode config")
    if not tf > t0:
        raise ValueError(f"need tf > t0, got t0={t0}, tf={tf}")

    span = tf - t0
    h_min = cfg.h_min_frac * span
    h = min(cfg.h if cfg.h is not None else span, span)
    stats = StepStats()
    layout = _Layout(state0)
    y = layout.pack(state0)
    k = np.empty((6, y.size))
    t = t0

    # overflow shows up as non-finite stages or state, handled below
    with np.errstate(over="ignore", invalid="ignore"):
        while t < tf:
            h = min(h, tf - t)
            last_step = h >= (tf - t)

            try:
                _stages(system, layout, y, t, h, _RKF_A, _RKF_C, k)
                finite = bool(np.isfinite(k).all())
            except OverflowError:
                finite = False
            if finite:
                # local extrapolation: march the fifth-order solution while the
                # fourth/fifth difference controls the step
                y5 = y + (h * _RKF_B5) @ k
                err = _error_norm(h * _RKF_DB, k, y, y5)
            else:
                err = math.inf

            if err <= cfg.tol:
                y = y5
                if not np.isfinite(y).all():
                    raise DivergenceError(f"non-finite state near t={t}", stats.accepted, t)
                stats.record(h)
                t = tf if last_step else t + h
            else:
                stats.rejected += 1

            if err > 0.0:
                factor = cfg.safety * (cfg.tol / err) ** 0.2 if math.isfinite(err) else cfg.min_shrink
                h *= min(max(factor, cfg.min_shrink), cfg.max_grow)
            else:
                h *= cfg.max_grow

            if t < tf and h < h_min:
                if not finite:
                    raise DivergenceError(
                        f"step collapsed below {h_min} at t={t} chasing non-finite stages",
                        stats.accepted,
                        t,
                    )
                raise StiffnessError(
                    f"step size {h} fell below minimum {h_min} at t={t} "
                    f"({stats.accepted} accepted, {stats.rejected} rejected)"
                )
            if stats.accepted + stats.rejected > cfg.max_steps:
                # a tolerance beneath the round-off floor of the error estimate
                # stalls instead of underflowing h; cap the work done
                raise StiffnessError(
                    f"exceeded {cfg.max_steps} steps at t={t} of {tf}; the "
                    f"tolerance {cfg.tol} appears unattainable for this state"
                )
    return layout.unpack(y), t, stats


def integrate(
    system: OdeSystem,
    state0: Sequence,
    t0: float,
    tf: float,
    cfg: IntegratorConfig,
) -> tuple[State, float, StepStats]:
    """Dispatch on cfg.mode; fixed mode derives ns*h from the config alone.

    The step statistics of a fixed-mode run are its ns steps of size h.
    """
    if cfg.mode == "fixed":
        state, t = rk4(system, state0, t0, cfg)
        return state, t, StepStats(accepted=cfg.ns, h_min=cfg.h, h_max=cfg.h)
    return rkf45(system, state0, t0, tf, cfg)
