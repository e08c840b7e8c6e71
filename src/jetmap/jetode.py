"""Runge-Kutta integration generic over scalar and jet-valued states.

:func:`rk4` and :func:`rkf45` each run one controller loop, which owns the
step size, acceptance, the step budget and divergence, over one of two state
kinds, picked by the caller's tuple:

* a state of m Python floats (:class:`_Floats`) is stepped by one function
  per tableau, m and right-side source, compiled on first use
  (:func:`_float_kernel`), which keeps components and stage values in
  locals and writes every stage argument, the step and the error estimates
  out as sums over the tableau's rows with its constants inlined: no numpy
  call and no loop per stage, so a scalar run's bits do not depend on the
  BLAS.  The sums run left to right from 0.0 on every Python version, as
  ``sum`` of floats does on 3.11; from 3.12 ``sum`` is compensated, so a
  run there differs in the last bits from one that sums with it.  A row's
  zero weights share one product per attempt, ``0.0 * k_a * k_b * ...``,
  which is a zero, and so changes no sum, while every stage is finite, and
  NaN, as the zero terms it replaces were, once one is not.  A right side
  made by :func:`expression_system` is written into every stage after the
  first as its expressions, with no call; any other right side is called;
* a state of m :class:`~jetmap.jet.Jet` rows over one shared table
  (:class:`_Jets`) is one ``(m, L)`` float64 array, the state row above the
  stage rows, so each stage argument and the step are one dot of a
  coefficient row (1, h a_i) over that array, and the error norm and the
  finiteness test single numpy expressions over every coefficient of every
  component.  Each stage argument is written into one buffer made with
  the march, under one tuple of jets made with it too, and every array
  view an attempt reads is made with the march: no jet and no view is
  made per stage.

Both kinds read one tableau and combine their error estimates in one
helper.  An attempt, from a given stage on, forms the candidate and returns
its error, None for a tableau without error rows (RK4's).  The caller's
tuple, of the system's ``dim`` components or refused with ``ValueError``,
is read once at entry and returned once at exit, as floats or as jets that
each own a frozen copy of their row.

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
keeps one of them past its return must copy its ``coeffs``.  It returns the
m derivatives as floats, or, on a jet state, as what :func:`store_rows`
takes, which is read before the next stage; any other number of components
is refused with ``ValueError``.
Integrating a state of jets initialized as ``center + x_a`` yields the
Taylor expansion of the flow about ``center``.
:func:`expression_system` makes a right side from one expression string
per component, which runs the same operations on floats and on jets.
"""

from __future__ import annotations

import ast
import keyword
import math
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
    rewrites: a right side that keeps one past its return copies its
    ``coeffs``.  It must
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
    cells: making a system compiles nothing after the first.  The callable
    carries its source and constants, so on float states the integrator
    writes the expressions into its compiled attempt instead of calling
    them (see :func:`_float_kernel`).  A wrapper around it, as made by
    ``dataclasses.replace(system, rhs=...)``, carries neither and is called
    at every stage.
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
    (see :func:`_error_norm`).  At tol 1e-9 the order-3 Duffing map build takes
    113 accepted and 28 rejected steps (1,664 right-side calls), the order-8
    build 185 and 33 (2,583).  An adaptive ``tol`` must be finite and > 0,
    or ``ValueError`` is raised: at NaN no step is accepted and a run ends
    only at the step budget, and at inf every step is, the first being the
    whole span.

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


# -- the two state kinds ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Tableau:
    """An explicit Runge-Kutta tableau, read by both state kinds.

    ``array`` holds the stage rows of ``a``, then ``b``, then any error rows,
    behind a column for y: column 0 is 1 in the rows that build a state (the
    stages and the step) and 0 in the error rows, so the columns after it,
    scaled by h, make one attempt's coefficients over ``(y, k_0, ...,
    k_{s-1})``.  :func:`_float_kernel` reads the same rows without that
    column.  A tableau hashes by identity, so it keys that function's cache.
    """

    c: tuple
    array: np.ndarray


def _tableau(a: list, b: np.ndarray, c: Sequence[float], *error_rows) -> _Tableau:
    """The tableau whose stage row i holds the i weights ``a[i]``, zero-padded."""
    s = len(b)
    rows = [*a, b, *error_rows]
    array = np.zeros((len(rows), s + 1))
    array[: s + 1, 0] = 1.0
    for i, row in enumerate(rows):
        array[i, 1 : len(row) + 1] = row
    return _Tableau(tuple(c), array)


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


@cache
def _float_kernel(tableau: _Tableau, m: int, source: _Expressions | None = None) -> Callable:
    """One attempt on m Python floats, compiled as straight-line code for ``tableau``.

    The attempt takes ``(rhs, y, t, h, k0)``, with k0 the right side at
    ``(y, t)``, and returns ``(candidate, error)``, the error None for a
    tableau without error rows.  Components and stage values are locals
    (``_y0``, ``_k3_1``, ...), and each sum over a tableau row is written
    out with the row's constants as literals: stage i's argument is
    ``_y_c + _h * (0.0 + a_i0 * _k0_c + ... + a_i,i-1 * _k{i-1}_c)``, and
    the candidate and the two estimates are the same sums over b and the
    error rows.  Each sum runs left to right from 0.0, which is what
    ``sum`` over the row does on Python 3.11 (from 3.12 ``sum``
    compensates, and differs in the last bits).  The estimates are weighed
    as :func:`_error_norm` weighs them and combined by
    :func:`_combined_error`; a NaN among them is an infinite error.

    A row's zero weights make one term, ``0.0 * k_a * k_b * ...`` over their
    stages, standing where the first of them stood.  Each such product is
    made once per attempt from the product over its prefix, so DOP853's
    zeros cost 4 multiplies per component (``0.0 * k1``, then ``* k2``,
    ``* k3``, ``* k4``) where one term per zero cost 28 multiplies and 28
    additions.  The bits are the same: with every stage finite the product
    is a zero, and a zero added to a partial sum that starts at +0.0 (which
    such a sum never leaves for -0.0) changes nothing; with a stage that is
    not finite the product is NaN, as ``0 * inf`` made the sum NaN before,
    so the attempt still fails.

    Without ``source`` each later stage calls ``rhs`` on a tuple, and a
    result of the wrong length is refused at the stage that returns it.
    With the source of an :func:`expression_system` of m states, stage i
    assigns its arguments to the state names and ``t + c_i * h`` to the
    time name and writes the expressions into ``_k{i}_c``: no call, no
    tuple and no length check (the count was checked when the system was
    made).  The operations are those of the right side's own code, in its
    order, so both give the same bits.  The kernel's own names start with
    an underscore, which the system's names may not.

    Returns the attempt; given a source, a function of the system's
    constants, in the source's order, that returns the attempt with them
    bound as closure cells, so that one source compiles once for every
    set of constants.  Cached on ``(tableau, m, source)``.
    """
    c, rows = tableau.c, tableau.array[:, 1:].tolist()
    s = len(c)
    comps = range(m)
    body = _expression_code(source) if source is not None else None
    lines = [f"def _make({', '.join(source.constants) if source else ''}):"]
    # the indices of a row's zero weights -> the name of their product
    products: dict = {}

    def names(prefix: str) -> str:
        return "".join(f"{prefix}{j}, " for j in comps)

    def product(zeros: tuple) -> str:
        """The name of ``0.0 * k_a * k_b * ...`` over ``zeros``, made at its first use."""
        if zeros not in products:
            head = product(zeros[:-1]) if len(zeros) > 1 else None
            name = products[zeros] = f"_z{len(products)}_"
            for j in comps:
                factor = f"{head}{j}" if head else "0.0"
                lines.append(f"        {name}{j} = {factor} * _k{zeros[-1]}_{j}")
        return products[zeros]

    def row_sum(row, j: int) -> str:
        zeros = tuple(i for i, a in enumerate(row) if a == 0.0)
        terms = ["0.0"]
        for i, a in enumerate(row):
            if a != 0.0:
                terms.append(f"{a!r} * _k{i}_{j}")
            elif i == zeros[0]:
                terms.append(f"{product(zeros)}{j}")
        return " + ".join(terms)

    def sums(row) -> list:
        return [f"_y{j} + _h * ({row_sum(row, j)})" for j in comps]

    lines += [
        "    def attempt(_rhs, _y, _t, _h, _k0):",
        f"        {names('_y')}= _y",
        f"        {names('_k0_')}= _k0",
    ]
    for i in range(1, s):
        args, time = sums(rows[i][:i]), f"_t + {c[i]!r} * _h"
        if body is None:
            stage = [
                f"_f = _rhs(({''.join(f'{a}, ' for a in args)}), {time})",
                f"if len(_f) != {m}:",
                f"    raise _wrong_length(_f, {m})",
                f"{names(f'_k{i}_')}= _f",
            ]
        else:
            stage = [
                *(f"{name} = {a}" for name, a in zip(source.states, args)),
                f"{source.time} = {time}",
                *(f"_k{i}_{j} = {body[j]}" for j in comps),
            ]
        lines += [f"        {line}" for line in stage]
    step = sums(rows[s])
    lines += [f"        _n{j} = {step[j]}" for j in comps]
    candidate = f"({names('_n')})"
    if len(rows) == s + 1:
        lines.append(f"        return {candidate}, None")
    else:
        w5, w3 = rows[s + 1 :]
        for j in comps:
            e5, e3 = row_sum(w5, j), row_sum(w3, j)
            # max keeps its first argument's NaN, so a NaN candidate reaches d5
            lines += [
                f"        _scale = 1.0 + _max(_abs(_n{j}), _abs(_y{j}))",
                f"        _d5_{j} = _abs(_h * ({e5})) / _scale",
                f"        _d3_{j} = _abs(_h * ({e3})) / _scale",
            ]
        nan = " or ".join(f"_d5_{j} != _d5_{j} or _d3_{j} != _d3_{j}" for j in comps)
        e5, e3 = (f"_max(0.0, {names(d)})" for d in ("_d5_", "_d3_"))
        lines += [
            f"        if {nan}:",
            f"            return {candidate}, _inf",
            f"        return {candidate}, _combined_error({e5}, {e3})",
        ]
    lines.append("    return attempt")
    namespace = {
        "_wrong_length": _wrong_length, "_combined_error": _combined_error, "_inf": math.inf,
        "_abs": abs, "_max": max, **_FUNCTIONS,
    }
    label = f"<jetode attempt, {s} stages, m={m}{', expressions' if source else ''}>"
    exec(compile("\n".join(lines), label, "exec"), namespace)
    return namespace["_make"] if source else namespace["_make"]()


class _Floats:
    """A state of m Python floats, stepped by one compiled function per tableau, m and source.

    Stage 0, f at the state, is evaluated here and kept for the attempts
    after a rejection; :func:`_float_kernel`, cached on ``(tableau, m,
    source)``, makes every later stage, the candidate and the error of one
    attempt.  A right side made by :func:`expression_system` is written into
    that function and its constants are bound to it here; any other right
    side is called at every stage.  No numpy call is made per stage, and the
    right side sees Python floats for as long as it returns them.
    """

    def __init__(self, system: OdeSystem, state0: Sequence, tableau: _Tableau):
        self.rhs = rhs = system.rhs
        self.m = m = len(state0)
        self.y = tuple(float(v) for v in state0)
        source = getattr(rhs, "expressions", None)
        kernel = _float_kernel(tableau, m, source)
        self.kernel = kernel if source is None else kernel(*rhs.constants)

    def attempt(self, t: float, h: float, first: int = 0) -> float | None:
        """Evaluate the stages from ``first`` on, form the candidate and return its error."""
        if first == 0:
            k0 = self.rhs(self.y, t)
            if len(k0) != self.m:
                raise _wrong_length(k0, self.m)
            self.k0 = k0
        self.new, err = self.kernel(self.rhs, self.y, t, h, self.k0)
        return err

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
    every coefficient of every component.  The initial state and each stage
    are written in by :func:`store_rows`, so a jet over another table fails
    before the first right side.

    ``arg`` holds the stage argument, and ``args``, the right side's tuple,
    read-only jets over its rows.  They and every view an attempt reads are
    made here, once per march: for each stage i the coefficient row's
    prefix ``coef[i, :i + 1]``, the rows ``yk[:i + 1]`` it weighs, the
    stage's own row of ``yk`` as (m, L) and ``c_i``; and the scaled weights
    ``coef[:, 1:]``, the final row ``coef[s]``, the error rows
    ``coef[s + 1:, 1:]`` and the state and stage rows ``yk[0]`` and
    ``yk[1:]``.  Every stage writes ``arg`` and hands over ``args`` again.
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
        self.errors = coef[s + 1 :, 1:] if len(coef) > s + 1 else None
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

    def attempt(self, t: float, h: float, first: int = 0) -> float | None:
        """Fill the stage rows ``yk[1:]`` from stage ``first`` on; return the candidate's error.

        Row i of ``coef`` is ``(1, h a[i, 0], ..., h a[i, i-1], 0, ...)``, so
        stage i's argument ``y + h sum_j a[i, j] k_j`` is one dot over
        ``yk[:i + 1]``, written into ``arg`` under the jets of ``args``.  The
        error is :func:`_error_norm`'s, None for a tableau without error rows.
        """
        rhs, table, yk, arg, args = self.rhs, self.table, self.yk, self.arg, self.args
        np.multiply(self.weights, h, out=self.scaled)
        for row, prefix, stage, c_i in self.stages[first:]:
            np.dot(row, prefix, out=arg)
            store_rows(stage, rhs(args, t + c_i * h), table)
        self.new = self.final @ yk
        if self.errors is None:
            return None
        # a non-finite stage reaches both estimates or the candidate, through
        # the stages after it and 0 * inf = NaN in the dots
        return _error_norm(self.errors, self.k, self.y, self.new)

    def advance(self) -> bool:
        self.y[...] = self.new
        return bool(np.isfinite(self.new).all())

    def result(self) -> State:
        """The caller's tuple: jets that each own a frozen copy of their row."""
        return tuple(_new_jet(self.table, row.copy()) for row in self.y.reshape(self.shape))


def _marching_state(system: OdeSystem, state0: Sequence, tableau: _Tableau):
    """The state kind of ``state0``: jets if any component is one, else floats."""
    if len(state0) != system.dim:
        raise _wrong_length(state0, system.dim)
    kind = _Jets if any(isinstance(z, Jet) for z in state0) else _Floats
    return kind(system, state0, tableau)


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
    candidate y8 is the one propagated.  Each attempt forms its candidate and
    returns that error; one whose stages or estimates are not finite has an
    infinite error and is rejected.  Stage 0, f at the state, is evaluated
    once per accepted state and reused by the attempts that follow a
    rejection, so a run evaluates the right side
    ``11 * attempts + accepted`` times: as many calls, except on a float
    state with an :func:`expression_system`, which is called only for
    stage 0 and written into the other stages.  The final step is clamped
    so that integration ends at exactly ``tf``.  The loop keeps its counts,
    its range of h and the state's methods in locals and makes the
    :class:`StepStats` once, at the end.
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
    tol, inf = cfg.tol, math.inf
    state = _marching_state(system, state0, _DOP)
    attempt, advance = state.attempt, state.advance
    n_accepted = n_rejected = 0
    h_lo, h_hi = inf, 0.0
    t = t0
    have_stage0 = False
    after_rejection = False

    # overflow shows up as a non-finite error estimate or state, handled below
    with np.errstate(over="ignore", invalid="ignore"):
        while t < tf:
            rest = tf - t
            if h > rest:
                h = rest
            last_step = h >= rest

            try:
                err = attempt(t, h, 1 if have_stage0 else 0)
                have_stage0 = True
            except OverflowError:
                err = inf
            finite = err < inf

            accepted = err <= tol
            if accepted:
                if not advance():
                    raise DivergenceError(f"non-finite state near t={t}", n_accepted, t)
                n_accepted += 1
                if h < h_lo:
                    h_lo = h
                if h > h_hi:
                    h_hi = h
                t = tf if last_step else t + h
                have_stage0 = False
            else:
                n_rejected += 1

            if err > 0.0:
                factor = _SAFETY * (tol / err) ** 0.125 if finite else _MIN_SHRINK
                factor = min(max(factor, _MIN_SHRINK), _MAX_GROW)
            else:
                factor = _MAX_GROW
            h *= min(factor, 1.0) if after_rejection else factor
            after_rejection = not accepted

            if t < tf and h < h_min:
                if not finite:
                    raise DivergenceError(
                        f"step collapsed below {h_min} at t={t} chasing non-finite stages",
                        n_accepted,
                        t,
                    )
                raise StiffnessError(
                    f"step size {h} fell below minimum {h_min} at t={t} "
                    f"({n_accepted} accepted, {n_rejected} rejected)"
                )
            if n_accepted + n_rejected > _MAX_STEPS:
                raise StiffnessError(
                    f"exceeded {_MAX_STEPS} steps at t={t} of {tf}; the "
                    f"tolerance {tol} appears unattainable for this state"
                )
    return state.result(), t, StepStats(n_accepted, n_rejected, h_lo, h_hi)


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
