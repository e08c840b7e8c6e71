"""Runge-Kutta integration generic over scalar and jet-valued states, and a
Taylor-series integrator for expression systems on floats.

:func:`rk4` and :func:`rkf45` each run one step loop, which owns the step
size, acceptance, the step budget and divergence.  It is written once, as
the source template :func:`_march_source`, and compiled per state kind into
one function, the march, cached with the kind's key.  The caller's tuple
picks the kind:

* a state of m Python floats is marched by one function per tableau and m
  (:func:`_float_kernel`), which holds the whole loop: stage 0, the later
  stages, the candidate, both error estimates and the controller, with
  every component, stage value and count in a local.  It writes every
  stage argument, the step and the error estimates out as sums over the
  tableau's rows with its constants inlined, zero weights included, and
  ``abs`` and ``max`` as conditional expressions: no numpy call, no loop
  per stage and no call but the right side's, once per stage, so a scalar
  run's bits do not depend on the BLAS.  The sums run left to right from
  0.0 on every Python version, as ``sum`` of floats does on 3.11; from
  3.12 ``sum`` is compensated, so a run there differs in the last bits
  from one that sums with it;
* a state of m :class:`~jetmap.jet.Jet` rows over one shared table
  (:class:`_Jets`) is one ``(m, L)`` float64 array, the state row above the
  stage rows, so each stage argument and the step are one dot of a
  coefficient row (1, h a_i) over that array, and the error norm and the
  finiteness test single numpy expressions over every coefficient of every
  component.  Each stage argument is written into one buffer made with
  the march, under one tuple of jets made with it too, and every array
  view an attempt reads is made with the march: no jet and no view is
  made per stage.  Its march (:func:`_jet_kernel`) calls the state's
  methods for stage 0, an attempt and taking the candidate.

Both kinds read one tableau and weigh and combine their error estimates as
:func:`_error_norm` does.  The caller's tuple, of the system's ``dim``
components or refused with ``ValueError``, is read once at entry and
returned once at exit, as floats or as jets that each own a frozen copy of
their row.

The adaptive method is the Dormand-Prince 8(5,3) pair (Hairer, Norsett &
Wanner, *Solving ODEs I*, II.5 and II.10), reached as :func:`rkf45`.  Its
step control weighs each entry's error by ``1 + |value|``: absolute for
entries below one, relative above, and combines the max norms of the 5th-
and 3rd-order estimates as HNW II.10 does.  The degree-d coefficients of a
transfer map grow roughly geometrically with d (past 5e11 at degree 8 for
the Duffing map), so an absolute bound over them would ask for accuracy far
beneath float64 round-off of the large entries, while the mixed weight asks
every entry for ``tol`` in its own scale.

The right side receives a tuple: Python floats for a scalar state; for a jet
state, the same tuple of read-only ``Jet`` views at every stage of a march,
over the stage argument that the next stage rewrites.  A right side that
keeps one of them past its return must copy its ``coeffs``.  Those jets are
the consecutive rows of one ``(m, L)`` float64 stage array, which
:func:`stage_array` returns as a read-only view: a right side that works on
the whole state as one array reads it once per march, and does not stack
the jets at every stage.  It returns the
m derivatives as floats, or, on a jet state, as what :func:`store_rows`
takes, which is read before the next stage; any other number of components
is refused with ``ValueError``.
Integrating a state of jets initialized as ``center + x_a`` yields the
Taylor expansion of the flow about ``center``.
:func:`expression_system` makes a right side from one expression string
per component, which runs the same operations on floats and on jets.

:class:`TaylorIntegrator` steps such a system on floats by its Taylor series
in time instead, at an order set by the tolerance.  The coefficients come
from recurrences generated from the expressions' syntax trees, compiled
into straight-line code once per source and order; the step size comes
from the last two coefficients, so no step is rejected.  Its bits, as the
float march's, depend neither on the BLAS nor on the Python version.  The
exact stroboscopic map of :mod:`jetmap.duffing` runs on it; the jet
marches, and everything else adaptive, run on the Dormand-Prince pair.
"""

from __future__ import annotations

import ast
import keyword
import math
import numbers
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .jet import Jet, _new as _new_jet
from .monoidx import MonomialTable, TableMismatchError

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
    ``dim`` derivatives (see the module docstring for their types).  On a
    jet march the components are read-only views that the next stage
    rewrites, the rows of one array (:func:`stage_array`): a right side
    that keeps one past its return copies its ``coeffs``.  It must
    be polynomial in the state components (with arbitrary time-dependent
    scalar coefficients) so that the same callable works on floats and on
    jets.  Lifted parameters, if any, occupy the
    trailing ``n_params`` slots and have identically zero derivatives.
    """

    dim: int
    rhs: Callable[[State, float], Sequence]
    n_params: int = 0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"system dimension must be >= 1, got {self.dim}")
        if not 0 <= self.n_params <= self.dim:
            raise ValueError(f"n_params={self.n_params} outside [0, {self.dim}]")


def stage_array(state: Sequence) -> np.ndarray:
    """The ``(m, L)`` array whose rows are the jets of ``state``, as a read-only view.

    A jet march hands its right side one tuple of m jets over one table,
    the rows of its stage array in order (see the module docstring), so the
    view shows every stage's argument as the march writes it.  Jets that
    are not such rows, as jets over buffers of their own are, raise
    ``ValueError``.
    """
    if not state or not all(type(z) is Jet for z in state):
        raise ValueError("a stage array is read off a tuple of jets")
    table = state[0].table
    base = state[0].coeffs.base
    if not (
        isinstance(base, np.ndarray)
        and base.dtype == np.float64
        and base.size == len(state) * table.L
        and base.flags.c_contiguous
    ):
        raise ValueError("the jets are not the rows of one (m, L) float64 array")
    rows = base.reshape(len(state), table.L)
    for z, row in zip(state, rows):
        if (
            z.table is not table
            or z.coeffs.__array_interface__["data"][0] != row.__array_interface__["data"][0]
            or z.coeffs.strides != row.strides
        ):
            raise ValueError("the jets are not the rows of one (m, L) float64 array")
    rows.setflags(write=False)
    return rows


def store_rows(dst: np.ndarray, values, table: MonomialTable) -> None:
    """Write a jet state or a right side's return into the ``(m, L)`` rows dst.

    ``values`` is one array of dst's shape, or m jets and numbers, a number
    being a constant row.  Another shape or count raises ``ValueError``; a
    jet over a table of another (m, p) than ``table`` raises
    :class:`~jetmap.monoidx.TableMismatchError`.
    """
    if isinstance(values, np.ndarray):
        if values.shape != dst.shape:
            raise ValueError(f"expected an array of shape {dst.shape}, got {values.shape}")
        dst[...] = values
        return
    if len(values) != len(dst):
        raise _wrong_length(values, len(dst))
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


# -- right sides from expressions ---------------------------------------------------

#: the functions an expression may call (of the time, or of constants)
_FUNCTIONS = {"sin": math.sin}


@dataclass(frozen=True)
class _Expressions:
    """The source of an :func:`expression_system`: its names and expressions.

    The constants are named here, in the order the compiled code takes
    them, and their values are not: one source serves every set of values.
    """

    states: tuple
    time: str
    expressions: tuple
    constants: tuple


def _expression_code(source: _Expressions) -> list:
    """The source's expressions as code, once its names and count are checked.

    Raises ``ValueError`` for no states; a number of expressions other than
    the number of states; a name that is not an identifier, is a keyword,
    starts with an underscore (the compiled code's own names do) or names
    one of the functions an expression may call; two equal names; and an
    expression that reads any other name.  Each expression comes back
    unparsed from its syntax tree, so a comment in it cannot reach the code
    it is written into.
    """
    names = (*source.states, source.time, *source.constants)
    if not source.states:
        raise ValueError("an expression system needs at least one state")
    if len(source.expressions) != len(source.states):
        raise ValueError(
            f"got {len(source.expressions)} expressions for {len(source.states)} states"
        )
    for name in names:
        if not (isinstance(name, str) and name.isidentifier()) or keyword.iskeyword(name):
            raise ValueError(f"{name!r} is not a name")
        if name.startswith("_") or name in _FUNCTIONS:
            raise ValueError(f"the name {name!r} is reserved")
    if len(set(names)) != len(names):
        raise ValueError(f"the names of states, time and constants must differ: {list(names)}")
    code = []
    for text in source.expressions:
        tree = ast.parse(text, mode="eval")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not (
                (node.id in names or node.id in _FUNCTIONS) and isinstance(node.ctx, ast.Load)
            ):
                raise ValueError(
                    f"expression {text!r} may only read its names; it uses {node.id!r}"
                )
        code.append(ast.unparse(tree))
    return code


@cache
def _rhs_factory(source: _Expressions) -> Callable:
    """``make(*constants) -> rhs``, the right side of ``source``; cached, so compiled once."""
    body = _expression_code(source)
    text = (
        f"def _make({', '.join(source.constants)}):\n"
        f"    def _rhs(_state, {source.time}):\n"
        f"        {''.join(f'{name}, ' for name in source.states)}= _state\n"
        f"        return ({''.join(f'{e}, ' for e in body)})\n"
        "    return _rhs\n"
    )
    namespace = dict(_FUNCTIONS)
    exec(compile(text, "<jetode expression right side>", "exec"), namespace)
    return namespace["_make"]


def expression_system(
    state_names: Sequence[str], time_name: str, expressions: Sequence[str], **constants
) -> OdeSystem:
    """A system whose right side is one Python expression per state component.

    Each expression may read the state names, the time name, the constants
    and the function ``sin``, and must be polynomial in the state, as
    :class:`OdeSystem` asks, so that it runs on floats and jets alike.  For
    example the unforced oscillator ``q'' = -q`` is
    ``expression_system(("q", "p"), "t", ("p", "-q"))``.  Names are checked
    here (see :func:`_expression_code`, which raises ``ValueError``).

    ``rhs(state, t)`` is compiled once per source (names, expressions and
    the constants' names) into a factory, cached by :func:`_rhs_factory`,
    and each system calls it with its constants, which become closure
    cells: making a system compiles nothing after the first.  The
    Runge-Kutta marches call it at every stage, as any right side.  It
    carries its source and constants as ``rhs.expressions`` and
    ``rhs.constants``, from which :class:`TaylorIntegrator` generates its
    recurrences; a wrapper around it, as made by
    ``dataclasses.replace(system, rhs=...)``, carries neither, and the
    Taylor integrator refuses it.
    """
    source = _Expressions(tuple(state_names), time_name, tuple(expressions), tuple(constants))
    values = tuple(constants.values())
    rhs = _rhs_factory(source)(*values)
    rhs.expressions, rhs.constants = source, values
    return OdeSystem(dim=len(source.states), rhs=rhs)


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
    (see :func:`_error_norm`).  After an accepted step h grows by the PI
    factor of dop853.f, which also weighs the previous accepted step's error,
    and after a rejected one by the error alone (see ``_SAFETY``).
    An adaptive ``tol`` must be finite and > 0, or ``ValueError`` is raised:
    at NaN no step is accepted and a run ends only at the step budget, and
    at inf every step is, the first being the whole span.  A non-integer
    ``ns`` raises ``ValueError``; both are kept as ``int(ns)`` and
    ``float(tol)``, so no numpy scalar reaches a march.

    The first trial step is the whole span, so a quadrature-exact problem is
    done in one accepted step.  The starting-step rule of HNW II.4 (dop853's
    ``hinit``) took more right-side calls on the map builds when it was
    measured in its place (see CHANGES.md).
    """

    mode: str = "adaptive"
    ns: int = 1
    tol: float = 1e-12

    def __post_init__(self):
        if self.mode not in ("fixed", "adaptive"):
            raise ValueError(f"mode must be 'fixed' or 'adaptive', got {self.mode!r}")
        if type(self.ns) is bool or not isinstance(self.ns, numbers.Integral):
            raise ValueError(f"ns must be an integer, got {self.ns!r}")
        object.__setattr__(self, "ns", int(self.ns))
        object.__setattr__(self, "tol", float(self.tol))
        if self.mode == "fixed" and self.ns < 1:
            raise ValueError("fixed mode needs ns >= 1")
        if self.mode == "adaptive" and not 0.0 < self.tol < math.inf:
            raise ValueError(f"adaptive mode needs 0 < tol < inf, got {self.tol!r}")


def fixed_step(ns: int) -> IntegratorConfig:
    return IntegratorConfig(mode="fixed", ns=ns)


def adaptive(tol: float = 1e-12) -> IntegratorConfig:
    return IntegratorConfig(mode="adaptive", tol=tol)


@dataclass(slots=True)
class StepStats:
    accepted: int = 0
    rejected: int = 0
    h_min: float = math.inf
    h_max: float = 0.0


# -- the marches: one step loop, generated per state kind ---------------------------


@dataclass(frozen=True, eq=False)
class _Tableau:
    """An explicit Runge-Kutta tableau, read by both state kinds.

    ``array`` holds the stage rows of ``a``, then ``b``, then any error rows,
    behind a column for y: column 0 is 1 in the rows that build a state (the
    stages and the step) and 0 in the error rows, so the columns after it,
    scaled by h, make one attempt's coefficients over ``(y, k_0, ...,
    k_{s-1})``.  :func:`_float_kernel` reads the same rows without that
    column.  A tableau hashes by identity, so it keys the kernels' caches.
    """

    c: tuple
    array: np.ndarray

    @property
    def adaptive(self) -> bool:
        """True when the tableau has error rows, so that its march controls the step."""
        return len(self.array) > len(self.c) + 1


def _tableau(a: list, b: np.ndarray, c: Sequence[float], *error_rows) -> _Tableau:
    """The tableau whose stage row i holds the i weights ``a[i]``, zero-padded."""
    s = len(b)
    rows = [*a, b, *error_rows]
    array = np.zeros((len(rows), s + 1))
    array[: s + 1, 0] = 1.0
    for i, row in enumerate(rows):
        array[i, 1 : len(row) + 1] = row
    return _Tableau(tuple(c), array)


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
    combined as ``E5^2 / sqrt(E5^2 + 0.01 E3^2)`` (HNW II.10 and dop853.f),
    which is E5 when E3 vanishes and 0 when E5 does.  Combining the norms,
    not the entries, keeps one estimate passing through zero in one entry
    from setting the step.  NaN from overflowing entries reaches the norms,
    and a norm that is not finite is an infinite error.
    :func:`_float_kernel` writes the same error out component by component.
    """
    scale = np.maximum(np.abs(y), np.abs(y8))
    scale += 1.0
    e = np.abs(weights @ k)
    e /= scale
    e5, e3 = e.max(axis=1).tolist()
    if not (math.isfinite(e5) and math.isfinite(e3)):
        return math.inf
    if e5 == 0.0:
        return 0.0
    return e5 * (e5 / math.hypot(e5, 0.1 * e3))


def _wrong_length(values, m: int) -> ValueError:
    return ValueError(f"got {len(values)} components, expected {m}")


# step-size controller (Hairer, Norsett & Wanner, *Solving ODEs I*, II.4, and
# dop853.f): after an accepted step h grows by the PI factor (Gustafsson, *ACM
# TOMS* 17, 1991, dop853.f's "Lund stabilisation", beta = _PI_BETA)
#     safety * (tol / err)^(1/8 - 0.2 beta) * (err_prev / tol)^beta,
# where err_prev is the last accepted step's error floored at _PI_FLOOR * tol,
# and tol before the first; after a rejected one by safety * (tol / err)^(1/8).
# Either is clamped to [_MIN_SHRINK, _MAX_GROW], and capped at 1 on the step
# after a rejection.  Most rejections come right after an accepted step whose
# estimate read low (it passed near zero), and the PI term slows the growth
# that follows a small error.  Attempts of the order-3, order-8 and order-2
# backward Duffing builds at tol 1e-9, and of the 348 exact periods of the
# 3-omega scan at tol 1e-6 at grid offsets 0 and 4, on float states as on jet
# ones: the I controller (without the PI term) took 141/218/270 and
# 14,586/14,451, this one 129/203/262 and 14,351/14,260 (142,195 against
# 145,184 over the ten offsets), and its maps lie closer to a tol-1e-13 map.
# Against the I controller, safety 0.8 took 133/207/264 but 14,903 and a
# growth cap of 2 left the builds alone and took 14,493 (offset 4).  Over 30
# exact periods at omega 1.2554 it rejects 322 of 1,254 attempts (the I
# controller 398 of 1,296): 30 whole-span first steps and 228 right after an
# accepted step (295)
_SAFETY = 0.9
_MIN_SHRINK = 0.1
_MAX_GROW = 5.0
_PI_BETA = 0.04
_PI_EXPONENT = 1 / 8 - 0.2 * _PI_BETA
_PI_FLOOR = 1e-4
# a step below this fraction of the span means the problem is stiff
_H_MIN_FRAC = 1e-12
# step attempts per run: a tol beneath the error estimate's round-off floor
# can stall instead of underflowing h.  One exact Duffing period (eps 25,
# omega 1.285) took 294,029 + 74,152 attempts at tol 1e-20 (39 s), within
# reach of the cap, while the two estimates were combined entry by entry; it
# now takes 873 + 6 at tol 1e-18 and 1,554 + 22 at 1e-20.  A span too long for
# the budget at the steps it allows ends here too (an exact period at omega
# 1e-6 is 6.3e6 long), so the message states the budget, t of tf, the counts
# and h, and names no cause.  Like the minimum step, the budget is tested
# only before tf: a run whose last attempt is the budget's next one ends
_MAX_STEPS = 500_000


def _march_source(
    tableau: _Tableau, start: list, stage0: list, attempt: list, take: list, finite: str, result: str
) -> list:
    """``march``, the step loop of :func:`rk4` or :func:`rkf45`, as lines of a ``_make``.

    A state kind fills the slots.  ``start``, ``stage0``, ``attempt`` and
    ``take`` are statements: ``start`` runs once on the state ``_y`` as the
    march gets it; ``stage0`` evaluates stage 0 at the state and ``_t``;
    ``attempt`` the later stages and the candidate at step ``_h``, and, for
    an adaptive tableau, sets ``_err``, the candidate's error; ``take``
    makes the candidate the state.  ``finite`` is an expression, true when
    the state just taken is finite, and ``result`` the state as the caller
    gets it.

    For an adaptive tableau, ``march(_y, _t0, _tf, _tol, _max_steps)`` is
    :func:`rkf45`'s controller, with stage 0 kept for the attempts after a
    rejection; an ``OverflowError`` in an attempt is an infinite error.  The
    controller's constants are written in as literals; the step budget is an
    argument, so that the caller reads ``_MAX_STEPS`` at each call.  For
    another, ``march(_y, _t0, _h, _ns)`` takes ns steps of h, and an
    ``OverflowError`` is a :class:`DivergenceError`.  Both return ``(state,
    t, StepStats)``.
    """

    def at(depth: int, lines: list) -> list:
        return [" " * depth + line for line in lines]

    if not tableau.adaptive:
        return [
            "    def march(_y, _t0, _h, _ns):",
            *at(8, start),
            "        _inf, _t = _INF, _t0",
            "        for _i in range(1, _ns + 1):",
            "            try:",
            *at(16, stage0 + attempt),
            "            except OverflowError as _error:",
            '                raise _DivergenceError(f"float overflow during step {_i} (t={_t})", '
            "_i, _t) from _error",
            "            _t = _t0 + _i * _h",
            *at(12, take),
            f"            if not ({finite}):",
            '                raise _DivergenceError(f"non-finite state after step {_i} (t={_t})", '
            "_i, _t)",
            f"        return {result}, _t, _StepStats(_ns, 0, _h, _h)",
        ]
    return [
        "    def march(_y, _t0, _tf, _tol, _max_steps):",
        *at(8, start),
        "        _inf, _t, _h = _INF, _t0, _tf - _t0",
        f"        _h_min = {_H_MIN_FRAC!r} * _h",
        "        _accepted = _rejected = 0",
        "        _h_lo, _h_hi = _inf, 0.0",
        "        _have_stage0 = _after_rejection = False",
        f"        _err_prev, _err_floor = _tol, {_PI_FLOOR!r} * _tol",
        "        while _t < _tf:",
        "            _rest = _tf - _t",
        "            if _h > _rest:",
        "                _h = _rest",
        "            _last_step = _h >= _rest",
        "            try:",
        "                if not _have_stage0:",
        *at(20, stage0),
        *at(16, attempt),
        "                _have_stage0 = True",
        "            except OverflowError:",
        "                _err = _inf",
        "            _ok = _err <= _tol",
        "            if _ok:",
        *at(16, take),
        f"                if not ({finite}):",
        '                    raise _DivergenceError(f"non-finite state near t={_t}", _accepted, _t)',
        "                _accepted += 1",
        "                if _h < _h_lo:",
        "                    _h_lo = _h",
        "                if _h > _h_hi:",
        "                    _h_hi = _h",
        "                _t = _tf if _last_step else _t + _h",
        "                _have_stage0 = False",
        "            else:",
        "                _rejected += 1",
        "            if not _err > 0.0:",
        f"                _factor = {_MAX_GROW!r}",
        "            elif not _err < _inf:",
        f"                _factor = {_MIN_SHRINK!r}",
        "            else:",
        "                if _ok:",
        f"                    _factor = {_SAFETY!r} * (_tol / _err) ** {_PI_EXPONENT!r} "
        f"* (_err_prev / _tol) ** {_PI_BETA!r}",
        "                else:",
        f"                    _factor = {_SAFETY!r} * (_tol / _err) ** 0.125",
        f"                if _factor < {_MIN_SHRINK!r}:",
        f"                    _factor = {_MIN_SHRINK!r}",
        f"                elif _factor > {_MAX_GROW!r}:",
        f"                    _factor = {_MAX_GROW!r}",
        "            if _after_rejection and _factor > 1.0:",
        "                _factor = 1.0",
        "            _h *= _factor",
        "            if _ok:",
        "                _err_prev = _err if _err > _err_floor else _err_floor",
        "            _after_rejection = not _ok",
        "            if _t < _tf and _h < _h_min:",
        "                if not _err < _inf:",
        '                    raise _DivergenceError(f"step collapsed below {_h_min} at t={_t} '
        'chasing non-finite stages", _accepted, _t)',
        '                raise _StiffnessError(f"step size {_h} fell below minimum {_h_min} at '
        't={_t} ({_accepted} accepted, {_rejected} rejected)")',
        "            if _t < _tf and _accepted + _rejected > _max_steps:",
        '                raise _StiffnessError(f"exceeded {_max_steps} steps at t={_t} of {_tf} '
        '({_accepted} accepted, {_rejected} rejected, step size {_h})")',
        f"        return {result}, _t, _StepStats(_accepted, _rejected, _h_lo, _h_hi)",
    ]


def _compile_make(lines: list, label: str) -> Callable:
    """The ``_make`` that ``lines`` define, compiled under ``label``."""
    namespace = {
        "_DivergenceError": DivergenceError, "_StiffnessError": StiffnessError,
        "_StepStats": StepStats, "_wrong_length": _wrong_length, "_INF": math.inf,
        "_hypot": math.hypot, "_sin": math.sin, "_cos": math.cos, **_FUNCTIONS,
    }
    exec(compile("\n".join(lines), label, "exec"), namespace)
    return namespace["_make"]


@cache
def _float_kernel(tableau: _Tableau, m: int) -> Callable:
    """The march of m Python floats for ``tableau``, compiled as straight-line code.

    :func:`_march_source`'s loop with every attempt written out in it (see
    the module docstring).  Components and stage values are locals
    (``_y0``, ``_k3_1``, ...); stage i's argument is ``_y_c + _h * (0.0 +
    a_i0 * _k0_c + ... + a_i,i-1 * _k{i-1}_c)`` with every weight a
    literal, zeros included, so a stage that is not finite makes each sum
    that weighs it NaN.  The candidate and the two estimates are the same
    sums over b and the error rows, and the estimates are weighed and
    combined as :func:`_error_norm` does, a NaN among them being an
    infinite error.  Each stage calls ``_rhs`` on a tuple, and a result of
    the wrong length is refused at the stage that returns it.

    Returns ``_make(_rhs)``, which returns the march with the right side
    bound as a closure cell.  Cached on ``(tableau, m)``.
    """
    c, rows = tableau.c, tableau.array[:, 1:].tolist()
    s = len(c)
    comps = range(m)

    def names(prefix: str) -> str:
        return "".join(f"{prefix}{j}, " for j in comps)

    def row_sum(row, j: int) -> str:
        return " + ".join(["0.0", *(f"{a!r} * _k{i}_{j}" for i, a in enumerate(row))])

    def sums(row) -> list:
        return [f"_y{j} + _h * ({row_sum(row, j)})" for j in comps]

    def stage(i: int, args: list, time: str) -> list:
        return [
            f"_f = _rhs(({''.join(f'{a}, ' for a in args)}), {time})",
            f"if len(_f) != {m}:",
            f"    raise _wrong_length(_f, {m})",
            f"{names(f'_k{i}_')}= _f",
        ]

    attempt: list = []
    for i in range(1, s):
        attempt += stage(i, sums(rows[i][:i]), f"_t + {c[i]!r} * _h")
    attempt += [f"_n{j} = {n}" for j, n in enumerate(sums(rows[s]))]
    if tableau.adaptive:
        w5, w3 = rows[s + 1 :]
        for j in comps:
            e5, e3 = row_sum(w5, j), row_sum(w3, j)
            # abs and max as conditional expressions; max keeps its first
            # argument's NaN, so a NaN candidate reaches d5
            attempt += [
                f"_a = -_n{j} if _n{j} < 0.0 else _n{j}",
                f"_b = -_y{j} if _y{j} < 0.0 else _y{j}",
                "_scale = 1.0 + (_b if _b > _a else _a)",
                f"_e = _h * ({e5})",
                f"_d5_{j} = (-_e if _e < 0.0 else _e) / _scale",
                f"_e = _h * ({e3})",
                f"_d3_{j} = (-_e if _e < 0.0 else _e) / _scale",
            ]
        nan = " or ".join(f"_d5_{j} != _d5_{j} or _d3_{j} != _d3_{j}" for j in comps)
        # the max norms as max(0.0, d_0, d_1, ...) takes them
        norms = []
        for e, d in (("_e5", "_d5_"), ("_e3", "_d3_")):
            norms.append(f"{e} = {d}0 if {d}0 > 0.0 else 0.0")
            norms += [f"{e} = {d}{j} if {d}{j} > {e} else {e}" for j in comps[1:]]
        attempt += [
            f"if {nan}:",
            "    _err = _inf",
            "else:",
            *(f"    {line}" for line in norms),
            "    if _e5 < _inf and _e3 < _inf:",
            "        _err = 0.0 if _e5 == 0.0 else _e5 * (_e5 / _hypot(_e5, 0.1 * _e3))",
            "    else:",
            "        _err = _inf",
        ]
    lines = [
        "def _make(_rhs):",
        *_march_source(
            tableau,
            [f"{names('_y')}= _y"],
            stage(0, [f"_y{j}" for j in comps], "_t"),
            attempt,
            [f"_y{j} = _n{j}" for j in comps],
            " and ".join(f"-_inf < _y{j} < _inf" for j in comps),
            f"({names('_y')})",
        ),
        "    return march",
    ]
    return _compile_make(lines, f"<jetode march, {s} stages, m={m}>")


class _Jets:
    """A state of m jets over one table, as one (m, L) float64 array.

    The state is row 0 of one array above the stage rows, so each stage
    argument and the step are one dot of a coefficient row (1, h a_i) over
    that array, the two error estimates one product over the stage rows, and
    the error norm and the finiteness test single numpy expressions over
    every coefficient of every component.  The initial state and each stage
    are written in by :func:`store_rows`, so a jet over another table fails
    before the first right side.

    ``arg`` holds the stage argument, and ``args``, the right side's tuple,
    read-only jets over its rows in order, which :func:`stage_array` reads
    back as one ``(m, L)`` view.  They and every view an attempt reads are
    made here, once per march: for each stage i the coefficient row's
    prefix ``coef[i, :i + 1]``, the rows ``yk[:i + 1]`` it weighs, the
    stage's own row of ``yk`` as (m, L) and ``c_i``; and the scaled weights
    ``coef[:, 1:]``, the final row ``coef[s]``, the error rows
    ``coef[s + 1:, 1:]`` and the state and stage rows ``yk[0]`` and
    ``yk[1:]``.  Every stage writes ``arg`` and hands over ``args`` again.
    :func:`_jet_kernel`'s march calls :meth:`stage0`, :meth:`attempt` and
    :meth:`advance`.
    """

    def __init__(self, system: OdeSystem, state0: Sequence, tableau: _Tableau):
        self.rhs = system.rhs
        self.m = len(state0)
        self.table = next(z.table for z in state0 if isinstance(z, Jet))
        self.shape = (self.m, self.table.L)
        s = len(tableau.c)
        self.weights = tableau.array[:, 1:]
        coef = tableau.array.copy()
        self.scaled = coef[:, 1:]
        self.final = coef[s]
        self.errors = coef[s + 1 :, 1:] if tableau.adaptive else None
        # row 0 the state, rows 1.. the stages
        self.yk = yk = np.empty((s + 1, self.m * self.table.L))
        self.y, self.k = yk[0], yk[1:]
        stage_rows = yk.reshape(s + 1, *self.shape)
        self.stages = [
            (coef[i, : i + 1], yk[: i + 1], stage_rows[i + 1], c_i)
            for i, c_i in enumerate(tableau.c)
        ]
        store_rows(stage_rows[0], state0, self.table)
        self.arg = np.empty(self.m * self.table.L)
        self.args = tuple(_new_jet(self.table, row) for row in self.arg.reshape(self.shape))

    def stage0(self, t: float) -> None:
        """Fill stage 0's row with f at the state and ``t``."""
        row, prefix, stage, _ = self.stages[0]
        np.dot(row, prefix, out=self.arg)
        store_rows(stage, self.rhs(self.args, t), self.table)

    def attempt(self, t: float, h: float) -> float | None:
        """Fill the stage rows after stage 0; return the candidate's error.

        Row i of ``coef`` is ``(1, h a[i, 0], ..., h a[i, i-1], 0, ...)``, so
        stage i's argument ``y + h sum_j a[i, j] k_j`` is one dot over
        ``yk[:i + 1]``, written into ``arg`` under the jets of ``args``.  The
        error is :func:`_error_norm`'s, None for a tableau without error rows.
        """
        rhs, table, yk, arg, args = self.rhs, self.table, self.yk, self.arg, self.args
        np.multiply(self.weights, h, out=self.scaled)
        for row, prefix, stage, c_i in self.stages[1:]:
            np.dot(row, prefix, out=arg)
            store_rows(stage, rhs(args, t + c_i * h), table)
        self.new = self.final @ yk
        if self.errors is None:
            return None
        # a non-finite stage reaches both estimates or the candidate, through
        # the stages after it and 0 * inf = NaN in the dots
        return _error_norm(self.errors, self.k, self.y, self.new)

    def advance(self) -> bool:
        """Take the candidate as the state; False when it is not finite."""
        self.y[...] = self.new
        return bool(np.isfinite(self.new).all())

    def result(self) -> State:
        """The caller's tuple: jets that each own a frozen copy of their row."""
        return tuple(_new_jet(self.table, row.copy()) for row in self.y.reshape(self.shape))


@cache
def _jet_kernel(tableau: _Tableau) -> Callable:
    """The march of a :class:`_Jets` state for ``tableau``, compiled on first use.

    :func:`_march_source`'s loop with the state's methods in its slots; the
    march takes the ``_Jets`` as its state.  Cached on the tableau.
    """
    lines = [
        "def _make():",
        *_march_source(
            tableau,
            ["_stage0, _attempt, _advance = _y.stage0, _y.attempt, _y.advance"],
            ["_stage0(_t)"],
            ["_err = _attempt(_t, _h)"],
            [],
            "_advance()",
            "_y.result()",
        ),
        "    return march",
    ]
    return _compile_make(lines, f"<jetode march, {len(tableau.c)} stages, jets>")()


def _march(system: OdeSystem, state0: Sequence, tableau: _Tableau) -> tuple[Callable, object]:
    """The march of ``state0``'s kind for ``tableau``, and the state it starts from.

    A state of other than ``dim`` components is refused with ``ValueError``
    before anything compiles.  Jets, if any component is one, march as a
    :class:`_Jets` in :func:`_jet_kernel`'s march; floats as a tuple of
    Python floats in :func:`_float_kernel`'s, made with the right side.
    """
    if len(state0) != system.dim:
        raise _wrong_length(state0, system.dim)
    if any(isinstance(z, Jet) for z in state0):
        return _jet_kernel(tableau), _Jets(system, state0, tableau)
    march = _float_kernel(tableau, len(state0))(system.rhs)
    return march, tuple(float(v) for v in state0)


def _span(t0: float, tf: float) -> tuple[float, float]:
    """t0 and tf as Python floats, once both are finite and tf > t0; else ``ValueError``.

    Python floats: a numpy scalar here would make every stage time one.
    """
    t0, tf = float(t0), float(tf)
    if not (math.isfinite(t0) and math.isfinite(tf)):
        raise ValueError(f"need a finite span, got t0={t0}, tf={tf}")
    if not tf > t0:
        raise ValueError(f"need tf > t0, got t0={t0}, tf={tf}")
    return t0, tf


# -- fixed-step RK4 ----------------------------------------------------------

_RK4_C = (0.0, 1 / 2, 1 / 2, 1.0)
_RK4_A = [[], [1 / 2], [0.0, 1 / 2], [0.0, 0.0, 1.0]]
_RK4_B = np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6])
_RK4 = _tableau(_RK4_A, _RK4_B, _RK4_C)


def rk4(
    system: OdeSystem,
    state0: Sequence,
    t0: float,
    tf: float,
    cfg: IntegratorConfig,
) -> tuple[State, float, StepStats]:
    """Classic fourth-order Runge-Kutta: ``cfg.ns`` steps of ``(tf - t0) / ns``.

    The steps run in the state kind's generated march (see
    :func:`_march_source`).  A span that is not finite, or with tf <= t0,
    raises ``ValueError``.
    """
    if cfg.mode != "fixed":
        raise ValueError("rk4 requires a fixed-mode config")
    t0, tf = _span(t0, tf)
    march, y = _march(system, state0, _RK4)
    with np.errstate(over="ignore", invalid="ignore"):
        return march(y, t0, (tf - t0) / cfg.ns, cfg.ns)


# -- adaptive Dormand-Prince 8(5,3) -----------------------------------------------


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
_DOP_A = [
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
_DOP = _tableau(_DOP_A, _DOP_B, _DOP_C, *_DOP_E)


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
    candidate y8 is the one propagated.  Each attempt forms its candidate and
    its error; one whose stages or estimates are not finite has an infinite
    error and is rejected.  Stage 0, f at the state, is evaluated once per
    accepted state and reused by the attempts that follow a rejection, so a
    run calls the right side ``11 * attempts + accepted`` times.  The final
    step is clamped so that integration ends at exactly ``tf``.

    The whole run is one call of the state kind's march (see
    :func:`_march_source`), which keeps its counts and its range of h in
    locals and makes the :class:`StepStats` once, at the end; it takes the
    step budget ``_MAX_STEPS`` as this call reads it.  A span that is not
    finite, or with tf <= t0, raises ``ValueError`` before any attempt.
    """
    if cfg.mode != "adaptive":
        raise ValueError("rkf45 requires an adaptive-mode config")
    t0, tf = _span(t0, tf)
    march, y = _march(system, state0, _DOP)
    # overflow shows up as a non-finite error estimate or state, handled there
    with np.errstate(over="ignore", invalid="ignore"):
        return march(y, t0, tf, cfg.tol, _MAX_STEPS)


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


# -- the Taylor march of an expression system ----------------------------------------

# the Taylor march's order is one formula of tol, round(0.6 (-ln tol) + 4):
# 12 at tol 1e-6, 16 at 1e-9 and 21 at 1e-12.  Best of 7 runs of 30 periods
# at omega 1.2902 (beta 0.1, eps 25) from the published point, orders 8-26
# on a 2-core VM, the fastest order was 13, 17 and 20 for (q, p) and 13, 16
# and 21 for the six-state variational system; at the rule's order either
# system ran within 4% of its fastest.  The step is limited by the series'
# radius of convergence (h reaches at most about 0.24 there at every tol), so
# past the optimum a higher order buys fewer steps than it costs.
# _TAYLOR_MAX_ORDER is the rule's order at tol 2**-52: a smaller tol is met
# by smaller steps at that order, which bounds the generated code, whose
# products grow with the square of the order
_TAYLOR_MAX_ORDER = 26
# the step is _TAYLOR_SAFETY times the largest that makes the last two terms
# of the series tol in the scale (1 + max |y|); over the same 30 periods at
# omega 1.2902 and 1.2554, order 12 at tol 1e-6, safety 0.8 / 0.9 / 0.95 /
# 1.0 took 38 / 34 / 32 / 30 steps per period with a worst per-period error
# of 1.9e-7 / 4.9e-7 / 1.3e-6 / 2.4e-6 at omega 1.2902, where DOP853 at the
# same tol errs by 1.5e-6
_TAYLOR_SAFETY = 0.9


def _taylor_order(tol: float) -> int:
    """The order of the Taylor march at ``tol`` (see ``_TAYLOR_MAX_ORDER``)."""
    return max(2, min(_TAYLOR_MAX_ORDER, round(0.6 * -math.log(tol) + 4)))


def _lower(source: _Expressions) -> tuple[dict, dict, list]:
    """The series nodes of ``source``'s expressions, equal ones shared.

    Returns ``(hoisted, nodes, outputs)``.  A value is ``("s", prefix)``, a
    series whose coefficient k is the local ``prefix + str(k)`` (state j's
    prefix is ``_y{j}_``, node i's ``_v{i}_``), or ``("c", name)``, a
    constant: a subtree that reads no state and not the time.  ``hoisted``
    maps the code of each constant that is not a name to the local
    ``_make`` computes it in, once per set of constants; ``nodes`` maps
    each node, in the order made, operands first, to its prefix: ``("neg",
    x)``, ``("add", x, y)``, ``("sub", x, y)``, ``("mul", x, y)`` (a Cauchy
    product when both are series) and ``("sin", a, argument)``, the sine of
    the affine ``argument`` of slope ``a`` in time; ``outputs`` holds each
    expression's series.  ``u**n`` is ``u * (u * ...)``, as
    :func:`~jetmap.jet.power` makes it, so equal subexpressions, ``q**2``
    and the ``q * q`` inside ``q**3`` among them, are one node.  Any other
    form raises ``ValueError``.
    """
    _expression_code(source)
    states = {name: ("s", f"_y{j}_") for j, name in enumerate(source.states)}
    reads = {*source.states, source.time}
    hoisted: dict = {}
    nodes: dict = {}

    def refuse(tree, why: str):
        return ValueError(f"the Taylor integrator cannot step {ast.unparse(tree)!r}: {why}")

    def constant(code: str) -> tuple:
        if not code.isidentifier():
            code = hoisted.setdefault(code, f"_c{len(hoisted)}")
        return ("c", code)

    def node(*key) -> tuple:
        return ("s", nodes.setdefault(key, f"_v{len(nodes)}_"))

    def free(tree, names) -> bool:
        return not any(isinstance(n, ast.Name) and n.id in names for n in ast.walk(tree))

    def slope(tree) -> str | None:
        """The code of d(tree)/d(time) for an affine ``tree``; None for no time."""
        if free(tree, {source.time}):
            return None
        if isinstance(tree, ast.Name):
            return "1.0"
        if isinstance(tree, ast.UnaryOp) and isinstance(tree.op, ast.USub):
            return f"-({slope(tree.operand)})"
        if isinstance(tree, ast.BinOp) and isinstance(tree.op, (ast.Add, ast.Sub)):
            left, right = slope(tree.left), slope(tree.right)
            sign = "+" if isinstance(tree.op, ast.Add) else "-"
            if right is None:
                return left
            if left is None:
                return right if sign == "+" else f"-({right})"
            return f"({left}) {sign} ({right})"
        if isinstance(tree, ast.BinOp) and isinstance(tree.op, ast.Mult):
            left, right = slope(tree.left), slope(tree.right)
            if left is None or right is None:
                factor = ast.unparse(tree.left if left is None else tree.right)
                rate = right if left is None else left
                return factor if rate == "1.0" else f"({factor}) * ({rate})"
        raise refuse(tree, "a sine's argument must be affine in the time")

    def lower(tree) -> tuple:
        if free(tree, reads):
            return constant(ast.unparse(tree))
        if isinstance(tree, ast.Name):
            if tree.id in states:
                return states[tree.id]
            raise refuse(tree, "the time may appear only in a sine's argument")
        if isinstance(tree, ast.UnaryOp) and isinstance(tree.op, ast.USub):
            return node("neg", lower(tree.operand))
        if isinstance(tree, ast.BinOp) and isinstance(tree.op, ast.Pow):
            n = tree.right
            if not (
                isinstance(n, ast.Constant) and type(n.value) is int and n.value >= 1
            ):
                raise refuse(tree, "a series is raised only to an integer power >= 1")
            base = out = lower(tree.left)
            for _ in range(n.value - 1):
                out = node("mul", base, out)
            return out
        if isinstance(tree, ast.BinOp) and isinstance(tree.op, (ast.Add, ast.Sub, ast.Mult)):
            left, right = lower(tree.left), lower(tree.right)
            if isinstance(tree.op, ast.Mult):
                return node("mul", left, right)
            if left[0] == right[0] == "s":
                return node("add" if isinstance(tree.op, ast.Add) else "sub", left, right)
            raise refuse(tree, "a constant is not added to a series")
        if (
            isinstance(tree, ast.Call)
            and isinstance(tree.func, ast.Name)
            and tree.func.id == "sin"
            and len(tree.args) == 1
            and not tree.keywords
        ):
            (arg,) = tree.args
            if not free(arg, source.states):
                raise refuse(tree, "a sine reads only the time and constants")
            return node("sin", constant(slope(arg)), ast.unparse(arg))
        raise refuse(tree, "not a sum, product, integer power or sine of the time")

    outputs = []
    for text in source.expressions:
        tree = ast.parse(text, mode="eval").body
        value = lower(tree)
        if value[0] != "s":
            raise refuse(tree, "a constant derivative")
        outputs.append(value)
    return hoisted, nodes, outputs


@cache
def _taylor_kernel(source: _Expressions, order: int) -> Callable:
    """``_make(*constants)``, the Taylor march of order ``order`` for ``source``.

    Straight-line code from :func:`_lower`'s nodes, as :func:`_float_kernel`
    writes its march: every coefficient is a local (``_y{j}_{k}``,
    ``_v{i}_{k}``), and each step writes orders 0 to N - 1 out in turn, every
    node at order k and then each state's coefficient k + 1, its
    expression's coefficient k times ``1 / (k + 1)`` as a literal.  A
    product of two series is its Cauchy sum ``0.0 + x_0 * y_k + x_1 *
    y_{k-1} + ...``, left to right from 0.0, so the bits depend neither on
    the BLAS nor on the Python version; a sine of ``a t + b`` makes one
    ``sin`` and one ``cos`` of its argument at the step's start and, for k
    >= 1, the coefficient ``sin(theta + k pi / 2) a^k / k!`` as one of
    ``cos``, ``-sin`` and ``-cos`` times a^k / k!.  Each constant factor
    that is not a name, and each a^k / k! (made as (a^(k-1) / (k-1)!) * a /
    k), is computed in ``_make``, once per set of constants, and read by the
    march as a closure cell.

    The march ``march(_y, _t0, _tf, _tol, _max_steps)`` returns ``(state,
    t, StepStats)`` with no rejected step.  Each step's h is
    ``_TAYLOR_SAFETY`` times the smaller of ``(tol (1 + max |y|) / max_j
    |c_k,j|)^(1/k)`` for k = N - 1 and N (Jorba & Zou, *Exp. Math.* 14,
    2005, section 3.2; infinite when both are zero), with ``max |y|`` over
    the state at the step's start, and the last step is clamped to end at
    tf exactly.  Each state is summed by Horner's rule.  A top coefficient
    that is not finite raises :class:`DivergenceError` before the step, as
    a state that is not finite after it and an ``OverflowError`` do; an h
    below ``_H_MIN_FRAC`` of the span short of tf raises
    :class:`StiffnessError`, as more steps than ``_max_steps`` do, tested
    only before tf.  Cached on ``(source, order)``.
    """
    hoisted, nodes, outputs = _lower(source)
    comps = range(len(source.states))
    n = order
    sines = [(name, key) for key, name in nodes.items() if key[0] == "sin"]

    def at(value: tuple, k: int) -> str:
        kind, text = value
        return f"{text}{k}" if kind == "s" else text

    make = [f"{name} = {code}" for code, name in hoisted.items()]
    for name, (_, (_, a), _) in sines:
        make.append(f"{name}g1 = {a}")
        make += [f"{name}g{k} = {name}g{k - 1} * {a} / {k}" for k in range(2, n)]

    step = [f"{source.time} = _t"] if sines else []
    for name, (_, _, arg) in sines:
        step += [f"_th = {arg}", f"{name}0 = _sin(_th)", f"{name}c = _cos(_th)"]
    quarter = ("{0}0", "{0}c", "-{0}0", "-{0}c")
    for k in range(n):
        for key, name in nodes.items():
            op, x = key[0], key[1]
            if op == "sin":
                if k:
                    step.append(f"{name}{k} = {quarter[k % 4].format(name)} * {name}g{k}")
                continue
            if op == "neg":
                value = f"-{at(x, k)}"
            elif op in ("add", "sub"):
                value = f"{at(x, k)} {'+' if op == 'add' else '-'} {at(key[2], k)}"
            elif x[0] == key[2][0] == "s":
                value = " + ".join(
                    ["0.0", *(f"{x[1]}{i} * {key[2][1]}{k - i}" for i in range(k + 1))]
                )
            else:
                value = f"{at(x, k)} * {at(key[2], k)}"
            step.append(f"{name}{k} = {value}")
        for j, out in enumerate(outputs):
            step.append(f"_y{j}_{k + 1} = {at(out, k)}" + (f" * {1 / (k + 1)!r}" if k else ""))

    def norm(var: str, k: int) -> list:
        lines = []
        for j in comps:
            lines += [f"_a = _y{j}_{k}", "_a = -_a if _a < 0.0 else _a"]
            lines.append(f"{var} = _a" if j == 0 else f"{var} = _a if _a > {var} else {var}")
        return lines

    def horner(j: int) -> str:
        text = f"_y{j}_{n}"
        for k in range(n - 1, -1, -1):
            text = f"({text}) * _h + _y{j}_{k}"
        return text

    state = "".join(f"_y{j}_0, " for j in comps)
    step += [
        *norm("_ny", 0),
        *norm("_m1", n - 1),
        *norm("_m2", n),
        "if not (_m1 < _inf and _m2 < _inf):",
        '    raise _DivergenceError(f"non-finite Taylor coefficients at t={_t}", _steps, _t)',
        "_bound = _tol * (1.0 + _ny)",
        "_h = _inf",
        "if _m1 > 0.0:",
        f"    _h = (_bound / _m1) ** {1 / (n - 1)!r}",
        "if _m2 > 0.0:",
        f"    _r = (_bound / _m2) ** {1 / n!r}",
        "    if _r < _h:",
        "        _h = _r",
        f"_h = {_TAYLOR_SAFETY!r} * _h",
        "_rest = _tf - _t",
        "_last = _h >= _rest",
        "if _last:",
        "    _h = _rest",
        "elif _h < _h_min:",
        '    raise _StiffnessError(f"step size {_h} fell below minimum {_h_min} at t={_t} '
        '({_steps} steps)")',
        *(f"_y{j}_0 = {horner(j)}" for j in comps),
    ]
    lines = [
        f"def _make({', '.join(source.constants)}):",
        *(f"    {line}" for line in make),
        "    def march(_y, _t0, _tf, _tol, _max_steps):",
        f"        {state}= _y",
        "        _inf, _t = _INF, _t0",
        f"        _h_min = {_H_MIN_FRAC!r} * (_tf - _t0)",
        "        _steps = 0",
        "        _h_lo, _h_hi = _inf, 0.0",
        "        while _t < _tf:",
        "            try:",
        *(f"                {line}" for line in step),
        "            except OverflowError as _error:",
        '                raise _DivergenceError(f"float overflow near t={_t}", _steps, _t) '
        "from _error",
        "            if not ({}):".format(" and ".join(f"-_inf < _y{j}_0 < _inf" for j in comps)),
        '                raise _DivergenceError(f"non-finite state near t={_t}", _steps, _t)',
        "            _steps += 1",
        "            if _h < _h_lo:",
        "                _h_lo = _h",
        "            if _h > _h_hi:",
        "                _h_hi = _h",
        "            _t = _tf if _last else _t + _h",
        "            if _t < _tf and _steps > _max_steps:",
        '                raise _StiffnessError(f"exceeded {_max_steps} steps at t={_t} of {_tf} '
        '({_steps} accepted, 0 rejected, step size {_h})")',
        f"        return ({state}), _t, _StepStats(_steps, 0, _h_lo, _h_hi)",
        "    return march",
    ]
    return _compile_make(lines, f"<jetode Taylor march, order {n}>")


class TaylorIntegrator:
    """A float integrator that steps an expression system by its Taylor series in time.

    The flow is analytic in time, so each step sums the solution's own
    Taylor series, of order ``N = _taylor_order(tol)``, whose coefficients
    come from recurrences generated from the expressions (Jorba & Zou,
    *Exp. Math.* 14, 2005; see :func:`_lower` and :func:`_taylor_kernel`).
    The step size is set from the last two coefficients, so no step is
    rejected.  ``system`` must be made by :func:`expression_system`, from
    sums, differences and negations of series, products of series with
    series or constants, integer powers ``u**n`` (n >= 1) and sines of an
    affine function of the time with constant coefficients; anything else,
    a right side without expressions, and a ``tol`` that is not finite and
    > 0 raise ``ValueError`` here, before any step.  Making one compiles
    nothing after the first for its source and order, and binds the
    system's constants.

    ``integrator(state0, t0, tf)`` steps the ``dim`` floats of ``state0``
    from t0 to tf and returns ``(state, t, StepStats)``: a tuple of Python
    floats, t equal to tf, and the step count with ``rejected == 0``.  A
    state of another length, or a span that is not finite or has tf <= t0,
    raises ``ValueError`` before any step; failures raise as
    :func:`_taylor_kernel` says, the step budget being ``_MAX_STEPS`` as
    this call reads it.
    """

    def __init__(self, system: OdeSystem, tol: float):
        source = getattr(system.rhs, "expressions", None)
        if source is None:
            raise ValueError("the Taylor integrator steps an expression_system's right side")
        self.tol = adaptive(tol).tol
        self.order = _taylor_order(self.tol)
        self.dim = system.dim
        self._march = _taylor_kernel(source, self.order)(*system.rhs.constants)

    def __call__(self, state0: Sequence, t0: float, tf: float) -> tuple[State, float, StepStats]:
        if len(state0) != self.dim:
            raise _wrong_length(state0, self.dim)
        t0, tf = _span(t0, tf)
        return self._march(tuple(float(v) for v in state0), t0, tf, self.tol, _MAX_STEPS)
