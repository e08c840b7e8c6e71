"""Driven Duffing oscillator: stroboscopic maps, fixed points, and scans.

The scaled oscillator is ``q'' + 2 beta q' + q + q^3 = -eps sin(omega tau)``.
Substituting ``q = omega Q``, ``t = omega tau`` and ``sigma = 1/omega`` turns
the driving frequency into a polynomial parameter: the first-order system in
``(z1, z2, z3) = (Q, dQ/dt, sigma)`` is cubic in its variables and has period
``2 pi`` in ``t``, so its transfer map over one period is the stroboscopic
map, and expanding that map to order ``p`` in all three variables yields a
polynomial map that is iterated instead of re-integrating the flow.

The exact integrated map (:class:`ExactStroboscopicMap`) and the polynomial
map with the parameter deviation of one omega folded in (``_Poly2Map``) take
the same three operations: calling the map applies it once, as a pure
function of the state's bytes; ``linearize`` returns the image and the 2 x 2
Jacobian; ``to_qp`` reports iterates in the (q, p) frame.  Steady-state
sweeps over ``omega`` (Feigenbaum diagrams) and attractor sampling build one
such map per omega and run its orbit through one kernel, and Newton
refinement of periodic points runs on ``linearize``, on either map.

The exact map steps each period by the flow's Taylor series in time
(:class:`~jetmap.jetode.TaylorIntegrator`), whose recurrences are generated
from the (q, p) expressions, and its Jacobian by the same march over the
variational system.  Both maps return a pair of Python floats: the exact
map the integrator's scalar state, the polynomial map its nested Horner
evaluation, compiled once per map order into one straight-line expression
per row whose coefficients each omega's fold binds as closure cells.
Orbits run in one compiled kernel: each map order writes its Horner step
into its own copy, so an orbit of the polynomial map makes no Python call
per iterate, and one more copy calls any other step, the exact map among
them.  The kernel keeps iterates as float pairs and builds one array of
samples at the end, so iterating either map makes no numpy call per step.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from . import jet
from .jet import Jet
from .jetode import IntegratorConfig, OdeSystem, TaylorIntegrator, adaptive, expression_system
from .monoidx import build_table
from .vareq import TaylorMap, backward_solve, forward_solve

TWO_PI = 2.0 * math.pi

#: defaults for steady-state sweeps; bifurcation structure is robust to
#: these, pixel-exact diagrams are not
DEFAULT_TRANSIENT = 2000
DEFAULT_RECORD = 200
DEFAULT_ESCAPE_RADIUS = 10.0
PERIOD_CLUSTER_TOL = 1e-6


class EscapeError(RuntimeError):
    """An iterated orbit left the configured trust region."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class NewtonConvergenceError(RuntimeError):
    """Newton iteration failed to converge within the allowed iterations."""


class SingularJacobianError(RuntimeError):
    """Newton linear system is singular (a unit multiplier)."""


@dataclass(frozen=True)
class DuffingParams:
    """Damping, driving strength, and driving frequency."""

    beta: float
    eps: float
    omega: float

    def __post_init__(self):
        # written so that NaN fails each test
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"damping must be finite and >= 0, got {self.beta}")
        if not 0 <= self.eps < math.inf:
            raise ValueError(f"driving strength must be finite and >= 0, got {self.eps}")
        _check_frequency(self.omega)

    @property
    def period(self) -> float:
        return TWO_PI / self.omega


def _check_frequency(omega: float) -> None:
    """Refuse a driving frequency that is not finite and > 0, or whose period is not finite.

    Below about 1.7e-308 the period 2 pi / omega overflows to inf, and no
    integration can span it.
    """
    # written so that NaN fails each test
    if not 0 < omega < math.inf:
        raise ValueError(f"driving frequency must be finite and > 0, got {omega}")
    if not TWO_PI / omega < math.inf:
        raise ValueError(f"driving frequency {omega} has a period 2 pi / omega that is not finite")


# -- coordinate frames --------------------------------------------------------


def to_scaled(q: float, p: float, omega: float) -> tuple[float, float]:
    """(q, p) -> (z1, z2) = (q/omega, p/omega^2)."""
    return q / omega, p / omega**2


def to_qp(z1: float, z2: float, omega: float) -> tuple[float, float]:
    """(z1, z2) -> (q, p) = (omega z1, omega^2 z2)."""
    return omega * z1, omega**2 * z2


# -- right sides ----------------------------------------------------------------


# the (q, p) pair's two expressions, and the variational equation of its
# Jacobian J = (a, b; c, d), J' = [[0, 1], [-1 - 3 q^2, -2 beta]] J (Hairer,
# Norsett & Wanner, *Solving ODEs I*, I.14); -2.0 * beta * p already
# evaluates as (-2.0 * beta) * p
_QP = ("p", "m2beta * p - q - q**3 - eps * sin(omega * tau)")
_JACOBIAN = ("c", "d", "m2beta * c - a - 3.0 * q**2 * a", "m2beta * d - b - 3.0 * q**2 * b")


def duffing_rhs(params: DuffingParams) -> OdeSystem:
    """First-order pair in the (q, p) frame; period 2 pi / omega in tau.

    An :func:`~jetmap.jetode.expression_system` of the expressions that
    :class:`ExactStroboscopicMap` steps by its Taylor series; its right side
    runs on floats and on jets alike.
    """
    return _qp_system(params, ("q", "p"), _QP)


def _qp_system(params: DuffingParams, states: tuple, expressions: tuple) -> OdeSystem:
    """The expression system in ``states`` and tau with the constants of ``params``."""
    return expression_system(
        states, "tau", expressions, m2beta=-2.0 * params.beta, eps=params.eps, omega=params.omega
    )


def duffing_scaled_rhs(beta: float, eps: float, sigma: float) -> OdeSystem:
    """Three-variable scaled system with sigma lifted; period 2 pi in t.

    The state is ``(z1, z2, sigma)`` and carries sigma's value, so the
    ``sigma`` argument is not read.  When all three are jets over one
    table, as the forward march's stage views and the backward route's
    expansions are, the right side works on their coefficient arrays
    through the product kernel :func:`~jetmap.jet.box_sums` and returns a
    ``(3, L)`` float64 array with sigma's row zero; on floats, or a tuple
    that mixes jets and floats, it evaluates the same expression through
    the operators and returns a tuple.

    The expression is ``(m2beta * s) * z2 - z1 * (z1 * z1 + s**2) - (eps
    * sin(t)) * (s * s**2)``, the cubic nested as Horner nests it: 5
    truncated products, 2 of them in sigma alone.  The array form gathers
    each operand once per evaluation, 4 gathers for the other 3: z1 through
    ``flat_box`` and ``flat_box_rev``, z2 and ``z1 * z1 + s**2`` through
    ``flat_box_rev``.  sigma's derivative is zero, so it keeps, for the
    last sigma seen, ``(m2beta * s)[flat_box]``, ``s**2`` ungathered,
    ``s * s**2`` and a writable copy of the table's ``seg_starts`` for its
    products to sum over: 3 products per evaluation, 5 at a new sigma.  The
    memo is keyed on sigma's table and coefficient bytes, not on the jet,
    since a march and a backward run hand over the same jets at every stage
    and expansion, rewritten in place; it holds only arrays it made, never the
    jets it was given.  It also holds the returned array, which every
    evaluation at that sigma rewrites: a caller that keeps a return past
    the next call must copy it, as the march's
    :func:`~jetmap.jetode.store_rows` and :func:`~jetmap.vareq.expand_rhs`
    do, while the backward route's expansion hands it on as it is and reads
    it before the next.  Both forms keep the
    expression's operands in its order, each product's included, and row 1
    is formed in place as ``w = z1 * z1; w += s**2``, then ``(m2beta * s)
    * z2 - z1 * w``, then ``-= (eps sin t) * s**3``, the expression's
    grouping, so every result is the full expression's, bit for bit.
    """
    m2beta = -2.0 * beta
    sin = math.sin
    # (key, (m2beta * s)[flat_box], s**2, s**3, seg_starts copy, returned
    # rows) of the last sigma jet seen
    memo = (None,) * 6

    def rhs(state, t):
        nonlocal memo
        z1, z2, s = state
        if type(z1) is type(z2) is type(s) is Jet and z1.table is s.table is z2.table:
            table, a, b, c = s.table, z1.coeffs, z2.coeffs, s.coeffs
            box, rev = table.flat_box, table.flat_box_rev
            kernel = jet.box_sums
            key = (table, c.tobytes())
            # one read of the memo: a call that replaces it leaves ours whole
            hit = memo
            if key != hit[0]:
                seg = table.seg_starts.copy()
                c_box = c[box]
                s2 = kernel(c_box, c[rev], seg)
                s3 = kernel(c_box, s2[rev], seg)
                hit = memo = (key, (c * m2beta)[box], s2, s3, seg, np.zeros((3, table.L)))
            _, ms_box, s2, s3, seg, rows = hit
            a_box = a[box]
            rows[0] = b
            w = kernel(a_box, a[rev], seg)
            w += s2
            row = rows[1]
            np.subtract(kernel(ms_box, b[rev], seg), kernel(a_box, w[rev], seg), out=row)
            row -= (eps * sin(t)) * s3
            return rows
        s2 = s**2
        return (z2, (m2beta * s) * z2 - z1 * (z1 * z1 + s2) - (eps * sin(t)) * (s * s2), 0.0)

    return OdeSystem(dim=3, rhs=rhs, n_params=1)


# -- exact stroboscopic map -------------------------------------------------------


@dataclass(frozen=True)
class ExactStroboscopicMap:
    """One-period transfer map of the (q, p) system by direct integration.

    Each period is stepped by its Taylor series in time
    (:class:`~jetmap.jetode.TaylorIntegrator`, at the order ``tol`` sets).
    Calling the map integrates one scalar orbit, the path scans take, and
    returns the integrator's pair of Python floats.
    :meth:`linearize` integrates the variational equation beside the orbit
    and also returns the map's exact Jacobian, the path Newton takes.
    """

    params: DuffingParams
    tol: float = 1e-12

    # each built at the map's first use and kept for every later period, from
    # the expressions themselves: the Taylor integrator steps an expression
    # system's source, which a wrapper put on duffing_rhs would not carry
    @cached_property
    def _flow(self) -> TaylorIntegrator:
        return TaylorIntegrator(_qp_system(self.params, ("q", "p"), _QP), self.tol)

    @cached_property
    def _variational_flow(self) -> TaylorIntegrator:
        system = _qp_system(self.params, ("q", "p", "a", "b", "c", "d"), _QP + _JACOBIAN)
        return TaylorIntegrator(system, self.tol)

    def __call__(self, point: Sequence[float]) -> tuple[float, float]:
        return self._flow(point, 0.0, self.params.period)[0]

    def linearize(self, point: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """The image of ``point`` and the 2 x 2 Jacobian of the map there.

        One float integration over a period of (q, p) and its Jacobian J
        from ``(point, I)``, six states in one Taylor march: J at the end is
        the map's Jacobian, with the integrator's error and no differencing
        step.  The step size weighs J's coefficients as it weighs (q, p)'s.
        """
        if len(point) != 2:
            raise ValueError(f"got {len(point)} components, expected 2")
        state = self._variational_flow((*point, 1.0, 0.0, 0.0, 1.0), 0.0, self.params.period)[0]
        return np.array(state[:2]), np.array(state[2:]).reshape(2, 2)

    def to_qp(self, iterates: np.ndarray, omega: float) -> np.ndarray:
        """The iterates unchanged: this map already works in (q, p)."""
        return iterates


# -- polynomial map construction ---------------------------------------------------


def stroboscopic_taylor_map(
    beta: float,
    eps: float,
    expansion: Sequence[float],
    p: int,
    cfg: IntegratorConfig = IntegratorConfig(),
    method: str = "forward",
) -> TaylorMap:
    """Order-p Taylor expansion of the stroboscopic map about ``expansion``.

    ``expansion`` is the scaled-frame point (z1, z2, sigma).  ``cfg`` is the
    integrator setting over the period [0, 2 pi]: by default the adaptive
    pair at tol 1e-12; pass ``fixed_step(ns)`` to reproduce plain RK4 runs.
    A ``beta`` or ``eps`` that :class:`DuffingParams` refuses, or an expansion
    coordinate that is not finite, raises ``ValueError`` before any integration.
    """
    if p < 1:
        raise ValueError(f"map order must be >= 1, got {p}")
    if len(expansion) != 3:
        raise ValueError("expansion point must be (z1, z2, sigma)")
    DuffingParams(beta, eps, 1.0)  # checks beta and eps; 1.0 stands in for omega
    if not all(map(math.isfinite, expansion)):
        raise ValueError(f"expansion point must be finite, got {list(expansion)}")
    system = duffing_scaled_rhs(beta, eps, sigma=float(expansion[2]))
    table = build_table(3, p)
    if method == "forward":
        return forward_solve(system, expansion, 0.0, TWO_PI, table, cfg)
    if method == "backward":
        return backward_solve(system, expansion, 0.0, TWO_PI, table, cfg)
    raise ValueError(f"method must be 'forward' or 'backward', got {method!r}")


# -- fast iteration of a polynomial map ---------------------------------------------


#: an iterate's bytes, as ``ndarray.tobytes()`` gives them for a float64 pair
_PAIR = struct.Struct("=2d")


def _compile(source: str, name: str) -> Callable:
    """The function ``make`` that ``source`` defines, compiled under ``name``."""
    namespace = {"EscapeError": EscapeError, "math": math, "_PAIR": _PAIR}
    exec(compile(source, name, "exec"), namespace)
    return namespace["make"]


def _orbit_source(start: str, step: str, iterate: str) -> str:
    """The orbit kernel ``orbit(state, n, radius)``, as lines of a ``make``.

    ``start`` runs once; ``step`` takes ``state`` to the next iterate and
    leaves its two components in ``z1, z2``; the trajectory keeps
    ``iterate``.  Each iterate then takes :func:`_orbit`'s escape test and
    cycle key.  Returns ``(traj, state, cut)``: the iterates kept, the last
    state, and ``(i, j)`` once iterate i repeats iterate j (stepping stops
    there), else None.
    """
    return (
        "    def orbit(state, n, radius):\n"
        "        traj, seen = [], {}\n"
        "        append, setdefault, pack, hypot = traj.append, seen.setdefault, _PAIR.pack, math.hypot\n"
        f"        {start}\n"
        "        for i in range(n):\n"
        f"            {step}\n"
        "            if not hypot(z1, z2) <= radius:\n"
        '                raise EscapeError(f"orbit escaped at iterate {i + 1}", i + 1)\n'
        "            j = setdefault(pack(z1, z2), i)\n"
        f"            append({iterate})\n"
        "            if j < i:\n"
        "                return traj, state, (i, j)\n"
        "        return traj, state, None\n"
    )


@cache
def _horner_factory(p: int) -> tuple[Callable, tuple]:
    """The compiled Horner step and orbit kernel of maps of order ``p``.

    Returns ``(make, index)``.  ``make(c0_p_0, ..., c1_0_p)`` takes the
    folded block's triangle as ``block[index].tolist()``: row 0, then row 1,
    j1 from p down and j2 up.  It returns ``(apply, orbit)`` with those
    coefficients bound as closure cells, so one source compiles per order,
    on the first fold of that order, and each omega's fold is one call.  ``apply(zeta)`` writes each row's
    nested Horner out as one expression, zeta2 on the inside and zeta1 on
    the outside::

        ((0.0 * z1 + c_p_0) * z1 + (c_{p-1}_1 * z2 + c_{p-1}_0)) * z1 + ...

    These are the operations, in their order, of a nested Horner loop whose
    sums start from 0.0, the leading ``0.0 * z1`` included, so -0.0, inf
    and NaN pass through the sums as they do there.  At p = -1, the order of
    an order-0 map's partials, the triangle is empty and both rows are 0.0.
    ``orbit`` is :func:`_orbit_source`'s kernel with the same two
    expressions as its step, so an orbit makes no Python call per iterate
    and each iterate has the bits ``apply`` gives it.
    """
    rows = (0, 1)
    triangle = [(j1, j2) for j1 in range(p, -1, -1) for j2 in range(p - j1 + 1)]
    params = ", ".join(f"c{a}_{j1}_{j2}" for a in rows for j1, j2 in triangle)

    def horner(a: int) -> str:
        outer = "0.0"
        for j1 in range(p, -1, -1):
            inner = f"c{a}_{j1}_{p - j1}"
            for j2 in range(p - j1 - 1, -1, -1):
                inner = f"({inner} * z2 + c{a}_{j1}_{j2})"
            outer = f"({outer} * z1 + {inner})"
        return outer

    image = f"{horner(0)}, {horner(1)}"
    source = (
        f"def make({params}):\n"
        "    def apply(zeta):\n"
        "        z1, z2 = float(zeta[0]), float(zeta[1])\n"
        f"        return {image}\n"
        + _orbit_source(
            "z1, z2 = float(state[0]), float(state[1])", f"z1, z2 = {image}; state = z1, z2", "state"
        )
        + "    return apply, orbit\n"
    )
    index = tuple(np.array([(a, *t) for a in rows for t in triangle], dtype=np.intp).reshape(-1, 3).T)
    return _compile(source, f"<duffing Horner step, p={p}>"), index


@cache
def _call_orbit_factory() -> Callable:
    """``make(step)``: the orbit kernel of any other step, compiled on first use.

    Each iterate is ``state = step(state)``, so the step gets back its own
    last return (an array stays an array), and the trajectory keeps the
    pair of its components.
    """
    source = (
        "def make(step):\n"
        + _orbit_source("pass", "state = step(state); z1, z2 = state", "(z1, z2)")
        + "    return orbit\n"
    )
    return _compile(source, "<duffing orbit kernel, called step>")


class _Poly2Map:
    """Dynamical rows of a TaylorMap with the parameter deviation folded in.

    Collapsing the fixed sigma-deviation turns the three-variable rows into
    two-variable polynomials of the same degree, folded into one dense block
    ``block[a, j1, j2]`` (row ``a``, coefficient of ``zeta1^j1 zeta2^j2``,
    zero above total degree p) with the expansion offset taken off the
    constant term.  The map works in deviation coordinates ``zeta``;
    :meth:`to_qp` reports iterates in the (q, p) frame.

    Both rows are evaluated by nested Horner on Python floats (Knuth,
    TAOCP vol. 2, 4.6.4), zeta2 on the inside and zeta1 on the outside.
    An application runs one straight-line function per map order, compiled
    on the first fold of that order (:func:`_horner_factory`); each fold
    binds its block's triangle to that function's closure, so no omega
    compiles anything.  It makes no numpy call and no loop, and returns a
    pair of Python floats.  An orbit does not call it: it runs in the
    fold's orbit kernel ``_kernel``, bound to the same coefficients with the
    same expressions written in, so an orbit makes no Python call per
    iterate.
    :meth:`linearize` takes its image from the same step, so Newton's fixed
    points are fixed points of the map that scans apply, and its Jacobian
    from the two partial derivatives, order p - 1 blocks bound to that
    order's step (:attr:`_partials`), which the first :meth:`linearize` call
    folds: scans and attractor samples only call the map.
    """

    def __init__(self, tmap: TaylorMap, dsigma: float):
        if tmap.m_dynamical != 2 or tmap.n_params != 1:
            raise ValueError("expected a 2-variable map with one lifted parameter")
        table = tmap.table
        p = table.p
        exps = table.exponents
        # integer-typed exponents keep negative dsigma legal under **
        sig_pow = dsigma ** exps[:, 2]
        self.offset = np.asarray(tmap.expansion_point[:2], dtype=np.float64)
        block = np.zeros((2, p + 1, p + 1))
        for a in range(2):
            np.add.at(block[a], (exps[:, 0], exps[:, 1]), tmap.rows[a].coeffs * sig_pow)
            block[a, 0, 0] -= self.offset[a]
        make, index = _horner_factory(p)
        self._apply, self._kernel = make(*block[index].tolist())
        self._block = block

    @cached_property
    def _partials(self) -> tuple[Callable, Callable]:
        """The compiled steps of the rows' partials in zeta1 and zeta2.

        Each is the block of one partial, ``j1 c[a, j1, j2]`` or
        ``j2 c[a, j1, j2]`` shifted one place, folded into
        :func:`_horner_factory`'s step of order p - 1.
        """
        block = self._block
        p = block.shape[1] - 1
        make, index = _horner_factory(p - 1)
        j = np.arange(1, p + 1)
        return tuple(
            make(*partial[index].tolist())[0]
            for partial in (block[:, 1:, :-1] * j[:, None], block[:, :-1, 1:] * j)
        )

    def __call__(self, zeta: Sequence[float]) -> tuple[float, float]:
        """One application of the deviation map, as a pair of floats."""
        return self._apply(zeta)

    def linearize(self, zeta: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """The image of ``zeta``, bit for bit :meth:`__call__`'s, and the 2 x 2
        Jacobian of the folded rows there."""
        d1, d2 = self._partials
        return np.array(self._apply(zeta)), np.array([d1(zeta), d2(zeta)]).T

    def to_qp(self, iterates: np.ndarray, omega: float) -> np.ndarray:
        """Deviation iterates as (q, p) points in the frame of ``omega``."""
        q, p = to_qp(self.offset[0] + iterates[:, 0], self.offset[1] + iterates[:, 1], omega)
        return np.column_stack([q, p])


def _trust_radius(escape_radius: float) -> float:
    """``escape_radius`` capped at the largest float; ``ValueError`` unless > 0.

    ``hypot`` is inf when either component is inf, so the cap keeps an
    infinite radius from passing inf.
    """
    if not escape_radius > 0.0:
        raise ValueError(f"escape_radius must be > 0, got {escape_radius!r}")
    return min(escape_radius, sys.float_info.max)


def _orbit(step, state, transient: int, record: int, escape_radius: float):
    """Apply ``step`` ``transient + record`` times from ``state``.

    Returns the (record, 2) post-transient iterates, the final state, the
    number of times ``step`` ran, and whether the orbit closed on a cycle.
    Raises :class:`EscapeError` at the first iterate that is not finite or
    lies outside the ball of the given radius (:func:`_trust_radius`): the
    comparison is false for NaN.

    The iterates run in one compiled kernel (:func:`_orbit_source`): a
    :class:`_Poly2Map`'s own, with its Horner step written in, so the orbit
    makes no Python call per iterate; for any other step, one that calls it.
    ``step`` returns a pair of floats, as both stroboscopic maps do; each
    iterate is kept as the pair of its components and the samples become
    one array at the end.  ``step`` must be a pure function of the state's
    bytes, as both stroboscopic maps are.
    Each iterate is keyed by the bytes of its two float64 components (so 0.0
    and -0.0 stay apart), and once iterate i repeats iterate j the orbit has
    period i - j from j on: stepping stops and the remaining iterates are
    the cycle ``j + 1 .. i`` repeated, bit for bit what further steps would
    give.
    """
    radius = _trust_radius(escape_radius)
    n = transient + record
    kernel = step._kernel if isinstance(step, _Poly2Map) else _call_orbit_factory()(step)
    traj, state, cut = kernel(state, n, radius)
    applied, closed = n, False
    if cut is not None:
        i, j = cut
        rest = n - i - 1
        traj += (traj[j + 1 : i + 1] * (rest // (i - j) + 1))[:rest]
        state = traj[-1]
        applied, closed = i + 1, True
    return np.array(traj[transient:], dtype=np.float64).reshape(record, 2), state, applied, closed


def iterate_map(
    tmap: TaylorMap,
    zeta0: Sequence[float],
    dsigma: float,
    n: int,
    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
) -> np.ndarray:
    """Iterate the polynomial stroboscopic map n times in deviation coordinates.

    Returns the (n + 1, 2) trajectory starting at ``zeta0``; the parameter
    deviation ``dsigma`` is held fixed.  Raises :class:`EscapeError` when an
    iterate leaves the ball of the given radius (the polynomial is no longer
    trustworthy outside its convergence region); a start outside the ball,
    or not finite, raises at step 0.  Once an iterate repeats an earlier one
    bit for bit, the rest of the trajectory is copied off that cycle instead
    of stepped.  Raises ``ValueError`` for ``n < 0`` and for an escape radius
    that is not > 0, as scans do.
    """
    if n < 0:
        raise ValueError(f"iteration count must be >= 0, got {n}")
    radius = _trust_radius(escape_radius)
    zeta = np.asarray(zeta0, dtype=np.float64)
    if zeta.shape != (2,):
        raise ValueError(f"expected a 2-component deviation, got shape {zeta.shape}")
    if not math.hypot(zeta[0], zeta[1]) <= radius:
        raise EscapeError("starting deviation is outside the trust region", 0)
    iterates = _orbit(_Poly2Map(tmap, dsigma), zeta, 0, n, escape_radius)[0]
    return np.vstack([zeta, iterates])


# -- fixed points -------------------------------------------------------------------


def fixed_point_newton(
    map_source: TaylorMap | ExactStroboscopicMap,
    guess: Sequence[float],
    dsigma: float = 0.0,
    k: int = 1,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> tuple[np.ndarray, np.ndarray]:
    """Newton refinement of a period-k point of the stroboscopic map.

    Each iteration chains k calls of the map's ``linearize``,
    ``x -> (F(x), DF(x))``.  A :class:`TaylorMap` is folded at ``dsigma``
    into the map that scans iterate, and Newton runs in its deviation
    coordinates on the Jacobian of the folded rows; an
    :class:`ExactStroboscopicMap` runs in (q, p), one float integration of
    (q, p) and its Jacobian per application.  Returns the refined point and
    the eigenvalues of the k-fold Jacobian (the stability multipliers).

    On a polynomial map, a point outside the scans' escape radius
    (``DEFAULT_ESCAPE_RADIUS``), whether a Newton iterate or one of its
    first k - 1 images, ends the run in :class:`NewtonConvergenceError`, as
    it ends a scan's orbit: the polynomial says nothing about the flow out
    there, and a run that leaves would otherwise wander on to ``max_iter``.
    Raises ``ValueError`` for ``k < 1`` or ``max_iter < 1``.
    """
    if k < 1:
        raise ValueError(f"period must be >= 1, got {k}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    x = np.asarray(guess, dtype=np.float64).copy()
    if x.shape != (2,):
        raise ValueError(f"expected a 2-component guess, got shape {x.shape}")

    # the polynomial is trusted inside the scans' escape radius only; the
    # exact map has no such bound
    radius = math.inf
    if isinstance(map_source, TaylorMap):
        map_source = _Poly2Map(map_source, dsigma)
        radius = DEFAULT_ESCAPE_RADIUS
    # a diverging run overflows; that is caught below as non-finite values
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            x_cur, jac_k = x, np.eye(2)
            for _ in range(k):
                if not math.hypot(x_cur[0], x_cur[1]) <= radius:
                    raise NewtonConvergenceError(
                        f"Newton left the polynomial's trust region |zeta| <= {radius} at {x_cur}"
                    )
                x_cur, jac = map_source.linearize(x_cur)
                jac_k = jac @ jac_k
            scale = max(1.0, np.abs(jac_k).max()) ** 2
            if not (np.all(np.isfinite(x_cur)) and np.all(np.isfinite(jac_k)) and np.isfinite(scale)):
                raise NewtonConvergenceError(
                    f"the {k}-fold image or Jacobian is not finite at {x}: Newton diverged"
                )
            f = x_cur - x
            if np.max(np.abs(f)) <= tol:
                return x, np.linalg.eigvals(jac_k)
            newton_matrix = jac_k - np.eye(2)
            if abs(np.linalg.det(newton_matrix)) < 1e-14 * scale:
                raise SingularJacobianError(
                    "Jacobian minus identity is singular (multiplier at 1); "
                    "the fixed point is degenerate at this parameter"
                )
            x = x - np.linalg.solve(newton_matrix, f)
            if not np.all(np.isfinite(x)):
                raise NewtonConvergenceError("iterates became non-finite")
    raise NewtonConvergenceError(
        f"no convergence to {tol} within {max_iter} iterations (|F|={np.max(np.abs(f))})"
    )


# -- steady-state sweeps ---------------------------------------------------------


@dataclass
class ScanResult:
    """Recorded steady-state samples per driving frequency.

    ``samples[i]`` is a (record, 2) array of consecutive post-transient
    (q, p) iterates for ``omegas[i]``; rows that diverged are empty arrays,
    and ``failures`` holds one ``(omega, message)`` pair for each of them.
    ``applications[i]`` counts the map applications made for ``omegas[i]``
    (up to the escape for a diverged row), and ``cycles[i]`` says whether
    its orbit closed on a cycle, which cut the stepping short.
    """

    omegas: np.ndarray
    samples: list
    failures: list
    applications: list
    cycles: list

    def periods(self, tol: float = PERIOD_CLUSTER_TOL, max_period: int = 64) -> list:
        return [
            detect_period(s, tol=tol, max_period=max_period) if len(s) else None
            for s in self.samples
        ]


def _map_factory(map_source: str | TaylorMap, beta: float, eps: float, tol: float):
    """The per-omega map of ``map_source``, as a function of omega.

    ``"exact"`` integrates the flow at tolerance ``tol`` per application; a
    :class:`TaylorMap` with lifted sigma is folded at each omega's parameter
    deviation.  A tol the exact map cannot integrate at (not finite and
    > 0), or a beta or eps that :class:`DuffingParams` refuses, raises
    ``ValueError`` here, before any omega runs.
    """
    if isinstance(map_source, TaylorMap):
        return lambda omega: _Poly2Map(map_source, 1.0 / omega - map_source.expansion_point[2])
    if map_source == "exact":
        adaptive(tol)
        # the omegas are checked by the caller; 1.0 stands in for each
        DuffingParams(beta, eps, 1.0)
        return lambda omega: ExactStroboscopicMap(DuffingParams(beta, eps, omega), tol)
    raise ValueError("map_source must be 'exact' or a TaylorMap")


def _orbit_inputs(
    omega_grid: Sequence[float],
    transient: int,
    record: int,
    seed: Sequence[float] | None,
    escape_radius: float,
    seed_policy: str = "continue",
) -> tuple[list, tuple[float, float]]:
    """Refuse what no orbit can run on, before any map is built or any omega runs.

    Returns the grid as a list of Python floats, and ``seed`` as a pair of
    Python floats, (0, 0) when it is None.  Python floats: an np.float64
    omega would make every stage value of an exact orbit a numpy scalar
    through omega * tau.
    """
    omegas = np.asarray(list(omega_grid), dtype=np.float64)
    if omegas.size == 0:
        raise ValueError("omega grid is empty")
    steps = np.diff(omegas)
    # either direction is allowed: downward sweeps expose hysteresis
    if omegas.size > 1 and not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValueError("omega grid must be strictly monotonic")
    if seed_policy not in ("continue", "fixed"):
        raise ValueError(f"seed_policy must be 'continue' or 'fixed', got {seed_policy!r}")
    if transient < 1 or record < 1:
        raise ValueError(f"transient and sample count must be >= 1, got {transient}, {record}")
    grid = omegas.tolist()
    for omega in grid:
        _check_frequency(omega)
    radius = _trust_radius(escape_radius)
    if seed is None:
        return grid, (0.0, 0.0)
    pair = tuple(float(v) for v in seed)
    if len(pair) != 2 or not all(map(math.isfinite, pair)):
        raise ValueError(f"seed must be two finite numbers, got {list(pair)}")
    # the test iterate_map applies to its start, and _orbit to every iterate
    if not math.hypot(*pair) <= radius:
        raise ValueError(f"seed {list(pair)} lies outside escape_radius {escape_radius!r}")
    return grid, pair


def _run_poly(map_at, omega, state, transient, record, escape_radius):
    """One omega of a scan or an attractor sample on the map ``map_at(omega)``.

    Returns the orbit of :func:`_orbit` with its samples in the (q, p) frame.
    The benchmark under ``perfbench/`` marks its clock at each call of this
    name, once per scan omega, so the name stays although both kinds of map,
    exact and polynomial, run here.
    """
    stroboscopic_map = map_at(omega)
    out, final, applied, closed = _orbit(stroboscopic_map, state, transient, record, escape_radius)
    return stroboscopic_map.to_qp(out, omega), final, applied, closed


def feigenbaum_scan(
    map_source: str | TaylorMap,
    beta: float,
    eps: float,
    omega_grid: Sequence[float],
    transient: int = DEFAULT_TRANSIENT,
    record: int = DEFAULT_RECORD,
    seed_policy: str = "continue",
    seed: Sequence[float] | None = None,
    tol: float = 1e-12,
    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
) -> ScanResult:
    """Steady-state (q, p) samples over a monotonic omega grid.

    ``map_source`` is either the string ``"exact"`` (integrate the flow per
    application) or a :class:`TaylorMap` with lifted sigma (iterate the
    polynomial, shifting the parameter deviation per omega).  Under the
    default continuation policy each omega is seeded with the previous
    omega's final state, which follows attractor branches and exposes
    hysteresis; ``"fixed"`` reseeds every omega identically.  Omegas run
    one after another.  A diverging omega yields an empty sample row and the
    scan continues from the configured seed.  An orbit that repeats an
    iterate bit for bit stops stepping and reads its remaining iterates off
    the cycle; the samples are the same as if it had stepped on.

    Raises ``ValueError`` before any omega runs for a grid that is empty,
    not strictly monotonic, or holds an omega that is not finite and > 0 or
    whose period 2 pi / omega is not finite, a seed that is not two finite
    numbers or lies outside the escape radius, an escape radius that is not
    > 0, or, for the exact map, a ``tol`` that is not finite and > 0.
    """
    grid, seed = _orbit_inputs(omega_grid, transient, record, seed, escape_radius, seed_policy)
    map_at = _map_factory(map_source, beta, eps, tol)

    samples, failures, applications, cycles = [], [], [], []
    state = seed
    for omega in grid:
        try:
            block, final, applied, closed = _run_poly(
                map_at, omega, state, transient, record, escape_radius
            )
            samples.append(block)
            if seed_policy == "continue":
                state = final
        except EscapeError as err:
            samples.append(np.empty((0, 2)))
            failures.append((omega, str(err)))
            applied, closed = err.step, False
            state = seed  # restart the continuation from the configured seed
        applications.append(applied)
        cycles.append(closed)

    return ScanResult(np.array(grid), samples, failures, applications, cycles)


def attractor_sample(
    map_source: str | TaylorMap,
    beta: float,
    eps: float,
    omega: float,
    transient: int = DEFAULT_TRANSIENT,
    count: int = DEFAULT_RECORD,
    seed: Sequence[float] | None = None,
    tol: float = 1e-12,
    escape_radius: float = DEFAULT_ESCAPE_RADIUS,
) -> np.ndarray:
    """Post-transient (q, p) samples at a single driving frequency.

    The orbit is one omega of a scan from ``seed``, refused on the same
    inputs.  Raises the :class:`EscapeError` of the escaping orbit, which
    carries the step of the escape as :func:`iterate_map`'s does.
    """
    (omega,), seed = _orbit_inputs([omega], transient, count, seed, escape_radius)
    map_at = _map_factory(map_source, beta, eps, tol)
    return _run_poly(map_at, omega, seed, transient, count, escape_radius)[0]


def detect_period(
    samples: np.ndarray,
    tol: float = PERIOD_CLUSTER_TOL,
    max_period: int = 64,
) -> int | None:
    """Smallest k with samples[i + k] == samples[i] to within tol, else None.

    ``samples`` must be consecutive iterates; matching every k-shifted pair
    means the points fall into k clusters of diameter below tol that the map
    permutes cyclically.
    """
    samples = np.asarray(samples)
    n = len(samples)
    for k in range(1, max_period + 1):
        if n < 2 * k:
            return None
        gap = np.abs(samples[k:] - samples[:-k]).max()
        if gap < tol:
            return k
    return None
