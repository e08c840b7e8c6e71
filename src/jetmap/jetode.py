"""Runge-Kutta integration generic over scalar and jet-valued states.

:func:`rk4` and :func:`rkf45` each run one controller loop, which owns the
step size, acceptance, the step budget and divergence, over one of two state
kinds, picked by the caller's tuple:

* a state of m Python floats (:class:`_Floats`) keeps each component's stage
  values in a list of floats, and builds each stage argument, the step and
  the error estimates by ``sum`` over a tableau row: no numpy call per
  stage, so a scalar run's bits do not depend on the BLAS (they do depend
  on the Python version: ``sum`` of floats is compensated from 3.12 on);
* a state of m :class:`~jetmap.jet.Jet` rows over one shared table
  (:class:`_Jets`) is one ``(m, L)`` float64 array, the state row above the
  stage rows, so each stage argument and the step are one dot of a
  coefficient row (1, h a_i) over that array, and the error norm and the
  finiteness test single numpy expressions over every coefficient of every
  component.

Both kinds read one tableau and combine their error estimates in one
helper.  The caller's tuple is read once at entry and returned once at
exit, as floats or as jets that each own a frozen copy of their row.

The adaptive method is the Dormand-Prince 8(5,3) pair (Hairer, Norsett &
Wanner, *Solving ODEs I*, II.5 and II.10), reached as :func:`rkf45`.  Its
step control weighs each entry's error by ``1 + |value|``: absolute for
entries below one, relative above, and combines the max norms of the 5th-
and 3rd-order estimates as HNW II.10 does.  The degree-d coefficients of a
transfer map grow roughly geometrically with d (past 5e11 at degree 8 for
the Duffing map), so an absolute bound over them would ask for accuracy far
beneath float64 round-off of the large entries, while the mixed weight asks
every entry for ``tol`` in its own scale.

The right side receives a tuple: Python floats for a scalar state, read-only
``Jet`` views of the stage rows for a jet state.  It returns the m
derivatives as Jets or floats (on a jet state a float is a constant row), or,
on a jet state, as one ``(m, L)`` array; any other number of components is
refused with ``ValueError``.  Integrating a state of jets initialized as
``center + x_a`` yields the Taylor expansion of the flow about ``center``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
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
    """Adaptive step control fell below its minimum step or ran out of steps."""


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
    """Step policy over one span [t0, tf]: a step count or a tolerance.

    In fixed mode :func:`rk4` takes ``ns`` equal steps of ``(tf - t0) / ns``.
    In adaptive mode :func:`rkf45`, the Dormand-Prince 8(5,3) pair, bounds
    the per-step error estimate by ``tol``: the max norms of the 5th- and
    3rd-order estimates over the whole state (every coefficient of every
    component of a jet state, every component of a scalar one), each entry
    weighed by ``1 + max(|y|, |y8|)``, combined into one error as in HNW
    II.10, so ``tol`` serves as both the absolute and the relative tolerance
    (see :func:`_error_norm`).  At tol 1e-9 the order-3 Duffing map build takes
    113 accepted and 28 rejected steps (1,664 right-side calls), the order-8
    build 185 and 33 (2,583).

    The first trial step is the whole span, so a quadrature-exact problem is
    done in one accepted step.  The starting-step rule of HNW II.4 (dop853's
    ``hinit``) was measured in its place, when the two estimates were still
    combined entry by entry, and did not pay where the work is:
    the order-3 Duffing map build at tol 1e-9 took 2,085 -> 2,165 right-side
    calls and the order-8 build 3,817 -> 3,887, while one exact period at
    tol 1e-6 took 549 -> 517.
    """

    mode: str = "adaptive"
    ns: int = 1
    tol: float = 1e-12

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise ValueError(f"mode must be 'fixed' or 'adaptive', got {self.mode!r}")
        if self.mode == "fixed" and self.ns < 1:
            raise ValueError("fixed mode needs ns >= 1")
        if self.mode == "adaptive" and self.tol <= 0:
            raise ValueError("adaptive mode needs tol > 0")


def fixed_step(ns: int) -> IntegratorConfig:
    return IntegratorConfig(mode="fixed", ns=ns)


def adaptive(tol: float = 1e-12) -> IntegratorConfig:
    return IntegratorConfig(mode="adaptive", tol=tol)


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


# -- the two state kinds ----------------------------------------------------------


@dataclass(frozen=True)
class _Tableau:
    """An explicit Runge-Kutta tableau in the form each state kind reads.

    ``array`` holds the stage rows of ``a``, then ``b``, then any error rows,
    behind a column for y: column 0 is 1 in the rows that build a state (the
    stages and the step) and 0 in the error rows, so the columns after it,
    scaled by h, make one attempt's coefficients over ``(y, k_0, ...,
    k_{s-1})``.  ``rows`` are the same rows without that column, as tuples
    of Python floats.
    """

    c: tuple
    array: np.ndarray
    rows: tuple


def _tableau(a: np.ndarray, b: np.ndarray, c: Sequence[float], *error_rows) -> _Tableau:
    s = len(b)
    rows = np.vstack([a, b, *error_rows])
    array = np.zeros((len(rows), s + 1))
    array[: s + 1, 0] = 1.0
    array[:, 1:] = rows
    return _Tableau(tuple(c), array, tuple(tuple(row) for row in rows.tolist()))


def _combined_error(e5: float, e3: float) -> float:
    """One error from the max norms E5 and E3 of the 5th- and 3rd-order estimates.

    ``E5^2 / sqrt(E5^2 + 0.01 E3^2)`` (HNW II.10 and dop853.f), which is E5
    when E3 vanishes and 0 when E5 does.  A non-finite norm counts as an
    infinite error.
    """
    if not (math.isfinite(e5) and math.isfinite(e3)):
        return math.inf
    if e5 == 0.0:
        return 0.0
    return e5 * (e5 / math.hypot(e5, 0.1 * e3))


def _error_norm(
    weights: np.ndarray, k: np.ndarray, y: np.ndarray, y8: np.ndarray
) -> float:
    """Mixed absolute/relative size of the 5th- and 3rd-order error estimates.

    ``weights`` holds two rows, the 5th- and 3rd-order error weights times h,
    so ``weights @ k`` gives the two estimates e5 and e3.  Each entry is
    divided by ``1 + max(|y|, |y8|)``, where y is the state at the start of
    the step and y8 the candidate it is compared against: the standard
    ``atol + rtol |y|`` weights (Hairer, Norsett & Wanner, *Solving ODEs I*,
    II.4) with atol = rtol, so a single ``tol`` serves both.  E5 and E3 are
    the max of the weighed entries over every coefficient of every component,
    combined by :func:`_combined_error`.  Combining the norms, not the
    entries, keeps one estimate passing through zero in one entry from
    setting the step.  NaN from overflowing entries reaches the norms, and
    counts as an infinite error.
    """
    scale = np.maximum(np.abs(y), np.abs(y8))
    scale += 1.0
    e = np.abs(weights @ k)
    e /= scale
    e5, e3 = e.max(axis=1).tolist()
    return _combined_error(e5, e3)


def _wrong_length(values, m: int) -> ValueError:
    return ValueError(f"got {len(values)} components, expected {m}")


class _Floats:
    """A state of m Python floats, each component's stage values in a list.

    Stage i's argument is ``y_c + h * sum(a_i * k_c)`` per component, summed
    over the full tableau row, zeros included, so that a non-finite stage
    still reaches the step and the estimates as ``0 * inf = NaN``.  No
    numpy call is made per stage, and the right side sees Python floats
    for as long as it returns them.
    """

    def __init__(self, system: OdeSystem, state0: Sequence, tableau: _Tableau):
        self.rhs = system.rhs
        self.m = len(state0)
        self.y = tuple(float(v) for v in state0)
        self.tableau = tableau
        self.k: list = []

    def attempt(self, t: float, h: float, first: int = 0) -> None:
        """Evaluate the stages from ``first`` on and form the step's candidate."""
        rhs, m, y, k = self.rhs, self.m, self.y, self.k
        c, rows = self.tableau.c, self.tableau.rows
        # components by index: a zip per stage costs more than the indexing
        comps = range(m)
        if first == 0:
            f = rhs(y, t)
            if len(f) != m:
                raise _wrong_length(f, m)
            k[:] = [[v] for v in f]
        else:
            for k_c in k:
                del k_c[1:]
        for i in range(1, len(c)):
            a = rows[i]
            f = rhs(tuple([y[j] + h * sum(map(mul, a, k[j])) for j in comps]), t + c[i] * h)
            if len(f) != m:
                raise _wrong_length(f, m)
            for j in comps:
                k[j].append(f[j])
        b = rows[len(c)]
        self.h = h
        self.new = tuple([y[j] + h * sum(map(mul, b, k[j])) for j in comps])

    def error(self) -> float:
        """The error of the last attempt, weighed as :func:`_error_norm` does."""
        h, y, new, k = self.h, self.y, self.new, self.k
        w5, w3 = self.tableau.rows[len(self.tableau.c) + 1 :]
        e5 = e3 = 0.0
        for j in range(self.m):
            # max keeps its first argument's NaN, so a NaN candidate reaches d5
            scale = 1.0 + max(abs(new[j]), abs(y[j]))
            d5 = abs(h * sum(map(mul, w5, k[j]))) / scale
            d3 = abs(h * sum(map(mul, w3, k[j]))) / scale
            if d5 != d5 or d3 != d3:
                return math.inf
            e5, e3 = max(e5, d5), max(e3, d3)
        return _combined_error(e5, e3)

    def advance(self) -> bool:
        """Take the candidate as the state; False when it is not finite."""
        self.y = self.new
        return all(map(math.isfinite, self.y))

    def result(self) -> State:
        return self.y


class _Jets:
    """A state of m jets over one table, as one (m, L) float64 array.

    The state is row 0 of one array above the stage rows, so each stage
    argument and the step are one dot of a coefficient row (1, h a_i) over
    that array, the two error estimates one product over the stage rows, and
    the error norm and the finiteness test single numpy expressions over
    every coefficient of every component.  Floats among the components
    become constant rows.
    """

    def __init__(self, system: OdeSystem, state0: Sequence, tableau: _Tableau):
        self.rhs = system.rhs
        self.m = len(state0)
        self.table = next(z.table for z in state0 if isinstance(z, Jet))
        self.shape = (self.m, self.table.L)
        self.tableau = tableau
        self.coef = tableau.array.copy()
        # row 0 the state, rows 1.. the stages
        self.yk = np.empty((len(tableau.c) + 1, self.m * self.table.L))
        self.store(self.yk[0].reshape(self.shape), state0)

    def view(self, y: np.ndarray) -> State:
        """The right side's tuple: read-only jet views of y's rows."""
        return tuple(_new_jet(self.table, row) for row in y.reshape(self.shape))

    def store(self, dst: np.ndarray, values) -> None:
        """Write state or right-side values (jets, floats, or one array) into dst.

        Jets over other tables are refused here, so a mismatched initial
        state fails before the first right side.
        """
        if isinstance(values, np.ndarray):
            if values.shape != dst.shape:
                raise ValueError(f"expected an array of shape {dst.shape}, got {values.shape}")
            dst[...] = values
            return
        if len(values) != self.m:
            raise _wrong_length(values, self.m)
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

    def attempt(self, t: float, h: float, first: int = 0) -> None:
        """Fill the stage rows ``yk[1:]`` from stage ``first`` on and form the candidate.

        Row i of ``coef`` is ``(1, h a[i, 0], ..., h a[i, i-1], 0, ...)``, so
        stage i's argument ``y + h sum_j a[i, j] k_j`` is one dot over
        ``yk[:i + 1]``.
        """
        yk, coef, c = self.yk, self.coef, self.tableau.c
        np.multiply(self.tableau.array[:, 1:], h, out=coef[:, 1:])
        stage_rows = yk.reshape(len(yk), *self.shape)
        for i in range(first, len(c)):
            arg = np.dot(coef[i, : i + 1], yk[: i + 1])
            self.store(stage_rows[i + 1], self.rhs(self.view(arg), t + c[i] * h))
        self.new = coef[len(c)] @ yk

    def error(self) -> float:
        s = len(self.tableau.c)
        # a non-finite stage reaches both estimates or the candidate, through
        # the stages after it and 0 * inf = NaN in the dots
        return _error_norm(self.coef[s + 1 :, 1:], self.yk[1:], self.yk[0], self.new)

    def advance(self) -> bool:
        self.yk[0] = self.new
        return bool(np.isfinite(self.new).all())

    def result(self) -> State:
        """The caller's tuple: jets that each own a frozen copy of their row."""
        return tuple(_new_jet(self.table, row.copy()) for row in self.yk[0].reshape(self.shape))


def _marching_state(system: OdeSystem, state0: Sequence, tableau: _Tableau):
    """The state kind of ``state0``: jets if any component is one, else floats."""
    kind = _Jets if any(isinstance(z, Jet) for z in state0) else _Floats
    return kind(system, state0, tableau)


# -- fixed-step RK4 ----------------------------------------------------------

_RK4_C = (0.0, 1 / 2, 1 / 2, 1.0)
_RK4_A = np.diag([1 / 2, 1 / 2, 1.0], k=-1)
_RK4_B = np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6])
_RK4 = _tableau(_RK4_A, _RK4_B, _RK4_C)


def rk4(
    system: OdeSystem,
    state0: Sequence,
    t0: float,
    tf: float,
    cfg: IntegratorConfig,
) -> tuple[State, float, StepStats]:
    """Classic fourth-order Runge-Kutta: ``cfg.ns`` steps of ``(tf - t0) / ns``."""
    if cfg.mode != "fixed":
        raise ValueError("rk4 requires a fixed-mode config")
    if not tf > t0:
        raise ValueError(f"need tf > t0, got t0={t0}, tf={tf}")
    t0, tf = float(t0), float(tf)
    h = (tf - t0) / cfg.ns
    state = _marching_state(system, state0, _RK4)
    t = t0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, cfg.ns + 1):
            try:
                state.attempt(t, h)
            except OverflowError as err:
                raise DivergenceError(f"float overflow during step {i} (t={t})", i, t) from err
            t = t0 + i * h
            if not state.advance():
                raise DivergenceError(f"non-finite state after step {i} (t={t})", i, t)
    return state.result(), t, StepStats(accepted=cfg.ns, h_min=h, h_max=h)


# -- adaptive Dormand-Prince 8(5,3) -----------------------------------------------


def _lower_triangular(rows: Sequence[Sequence[float]]) -> np.ndarray:
    """The square stage matrix whose row i starts with ``rows[i]``."""
    a = np.zeros((len(rows), len(rows)))
    for i, row in enumerate(rows):
        a[i, : len(row)] = row
    return a


# the Dormand-Prince 8(5,3) pair: Hairer, Norsett & Wanner, *Solving ODEs I*,
# II.5 and II.10, with the constants of Hairer's dop853.f.  Twelve stages make
# the 8th-order step; the 5th- and 3rd-order error estimates use the same
# stages, so no thirteenth is evaluated before the step is accepted
_DOP_C = (
    0.0,
    0.526001519587677318785587544488e-1,
    0.789002279381515978178381316732e-1,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
)
_DOP_A = _lower_triangular(
    [
        [],
        [5.26001519587677318785587544488e-2],
        [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
        [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2],
        [
            2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
            9.24834003261792003115737966543e-1,
        ],
        [
            3.7037037037037037037037037037e-2, 0.0, 0.0,
            1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1,
        ],
        [
            3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
            6.02165389804559606850219397283e-2, -1.7578125e-2,
        ],
        [
            3.70920001185047927108779319836e-2, 0.0, 0.0,
            1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
            -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3,
        ],
        [
            6.24110958716075717114429577812e-1, 0.0, 0.0,
            -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
            2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
            -4.34898841810699588477366255144e1,
        ],
        [
            4.77662536438264365890433908527e-1, 0.0, 0.0,
            -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
            2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
            -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2,
        ],
        [
            -9.3714243008598732571704021658e-1, 0.0, 0.0,
            5.18637242884406370830023853209, 1.09143734899672957818500254654,
            -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
            2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
            -3.0467644718982195003823669022,
        ],
        [
            2.27331014751653820792359768449, 0.0, 0.0,
            -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
            -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
            -2.85899827713502369474065508674, -8.87285693353062954433549289258,
            1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1,
        ],
    ]
)
# 8th-order weights; f at the 8th-order result is the next step's stage 0
_DOP_B = np.array(
    [
        5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
        4.45031289275240888144113950566, 1.89151789931450038304281599044,
        -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
        -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
        4.47106157277725905176885569043e-2,
    ]
)
# rows: the 5th-order error weights (dop853.f's er), and the 3rd-order ones,
# B less the 3rd-order weights bhh on stages 0, 8 and 11
_DOP_E = np.array(
    [
        [
            0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
            -0.1225156446376204440720569753e1, -0.4957589496572501915214079952,
            0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
            0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
            -0.2235530786388629525884427845e-1,
        ],
        _DOP_B
        - np.array(
            [
                0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                0.733846688281611857341361741547, 0.0, 0.0,
                0.220588235294117647058823529412e-1,
            ]
        ),
    ]
)
# the stage rows, the 8th-order step and the two error rows
_DOP = _tableau(_DOP_A, _DOP_B, _DOP_C, _DOP_E)

# step-size controller (Hairer, Norsett & Wanner, *Solving ODEs I*, II.4):
# h grows by safety * (tol / err)^(1/8), clamped to [_MIN_SHRINK, _MAX_GROW],
# and not at all on the step after a rejection.  Levers measured in its place
# did not pay (attempts of the order-3, order-8 and order-2 backward Duffing
# builds at tol 1e-9, 141/218/270 here, and of the 348 exact periods of the
# 3-omega scan at tol 1e-6, 14,451 here, on float states as on the array
# state they used to share): dop853.f's PI term with beta 0.04
# took 134/204/264 but 15,145; safety 0.8 took 133/207/264 but 14,903; a
# growth cap of 2 left the builds alone and took 14,493.  Of the exact map's
# 13 rejections per period (30 periods at omega 1.2554), 2 shrink the
# whole-span first step and 10 come right after an accepted step: there the
# h^8 model set h for an error of 0.9^8 tol = 0.43 tol, never at the growth
# cap, and the error read a median 3.7 tol (quartiles 2.8 and 5.4).  The
# accepted step's 2-entry estimate read low, passing near zero, which no
# controller on past errors foresees
_SAFETY = 0.9
_MIN_SHRINK = 0.1
_MAX_GROW = 5.0
# a step below this fraction of the span means the problem is stiff
_H_MIN_FRAC = 1e-12
# step attempts per run: a tol beneath the error estimate's round-off floor
# stalls instead of underflowing h.  One exact Duffing period (eps 25, omega
# 1.285) takes 859 + 28 attempts at tol 1e-18, but 294,029 + 74,152 at 1e-20
# (39 s), within reach of the cap: below the floor the estimate is noise
_MAX_STEPS = 500_000


def rkf45(
    system: OdeSystem,
    state0: Sequence,
    t0: float,
    tf: float,
    cfg: IntegratorConfig,
) -> tuple[State, float, StepStats]:
    """Adaptive Dormand-Prince 8(5,3) pair from t0 to tf (tf > t0).

    The name predates the pair: callers, and the benchmark under
    ``perfbench/``, reach the adaptive method as ``jetode.rkf45``.

    A step is accepted when the error of :func:`_error_norm` (on a float
    state, the same weights taken component by component), the 5th- and
    3rd-order estimates' max norms with each entry weighed by
    ``1 + max(|y|, |y8|)``, combined, is at most ``cfg.tol``; the 8th-order
    candidate y8 is the one propagated.  An attempt whose stages or estimates
    are not finite has an infinite error and is rejected.  Stage 0, f at the
    state, is evaluated once per accepted state and reused by the attempts
    that follow a rejection, so a run makes ``11 * attempts + accepted``
    right-side calls.  The final step is clamped so that integration ends at
    exactly ``tf``.
    """
    if cfg.mode != "adaptive":
        raise ValueError("rkf45 requires an adaptive-mode config")
    if not tf > t0:
        raise ValueError(f"need tf > t0, got t0={t0}, tf={tf}")

    # Python floats: a numpy scalar here would make every stage time one
    t0, tf = float(t0), float(tf)
    span = tf - t0
    h_min = _H_MIN_FRAC * span
    h = span
    stats = StepStats()
    state = _marching_state(system, state0, _DOP)
    t = t0
    have_stage0 = False
    after_rejection = False

    # overflow shows up as a non-finite error estimate or state, handled below
    with np.errstate(over="ignore", invalid="ignore"):
        while t < tf:
            h = min(h, tf - t)
            last_step = h >= (tf - t)

            try:
                state.attempt(t, h, 1 if have_stage0 else 0)
                have_stage0 = True
                err = state.error()
            except OverflowError:
                err = math.inf
            finite = err < math.inf

            accepted = err <= cfg.tol
            if accepted:
                if not state.advance():
                    raise DivergenceError(f"non-finite state near t={t}", stats.accepted, t)
                stats.record(h)
                t = tf if last_step else t + h
                have_stage0 = False
            else:
                stats.rejected += 1

            if err > 0.0:
                factor = _SAFETY * (cfg.tol / err) ** 0.125 if finite else _MIN_SHRINK
                factor = min(max(factor, _MIN_SHRINK), _MAX_GROW)
            else:
                factor = _MAX_GROW
            h *= min(factor, 1.0) if after_rejection else factor
            after_rejection = not accepted

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
            if stats.accepted + stats.rejected > _MAX_STEPS:
                raise StiffnessError(
                    f"exceeded {_MAX_STEPS} steps at t={t} of {tf}; the "
                    f"tolerance {cfg.tol} appears unattainable for this state"
                )
    return state.result(), t, stats


def integrate(
    system: OdeSystem,
    state0: Sequence,
    t0: float,
    tf: float,
    cfg: IntegratorConfig,
) -> tuple[State, float, StepStats]:
    """:func:`rk4` in fixed mode, :func:`rkf45` in adaptive mode, over [t0, tf].

    Both are looked up in this module at call time, so a wrapper put on
    ``jetode.rkf45`` sees every adaptive run.
    """
    return (rk4 if cfg.mode == "fixed" else rkf45)(system, state0, t0, tf, cfg)
