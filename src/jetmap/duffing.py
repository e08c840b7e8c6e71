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

Both maps return a pair of Python floats: the exact map the integrator's
scalar state, the polynomial map its nested Horner evaluation.  The orbit
kernel keeps iterates as float pairs and builds one array of samples at the
end, so iterating either map makes no numpy call per step.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .jetode import IntegratorConfig, OdeSystem, adaptive, integrate
from .monoidx import build_table
from .vareq import TaylorMap, backward_solve, forward_solve, lift_parameters

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
        if self.beta < 0:
            raise ValueError(f"damping must be >= 0, got {self.beta}")
        if self.eps < 0:
            raise ValueError(f"driving strength must be >= 0, got {self.eps}")
        if self.omega <= 0:
            raise ValueError(f"driving frequency must be > 0, got {self.omega}")

    @property
    def sigma(self) -> float:
        return 1.0 / self.omega

    @property
    def period(self) -> float:
        return TWO_PI / self.omega


# -- coordinate frames --------------------------------------------------------


def to_scaled(q: float, p: float, omega: float) -> tuple[float, float]:
    """(q, p) -> (z1, z2) = (q/omega, p/omega^2)."""
    return q / omega, p / omega**2


def to_qp(z1: float, z2: float, omega: float) -> tuple[float, float]:
    """(z1, z2) -> (q, p) = (omega z1, omega^2 z2)."""
    return omega * z1, omega**2 * z2


# -- right sides ----------------------------------------------------------------


def duffing_rhs(params: DuffingParams) -> OdeSystem:
    """First-order pair in the (q, p) frame; period 2 pi / omega in tau."""
    beta, eps, omega = params.beta, params.eps, params.omega

    def rhs(state, tau):
        q, p = state
        return (p, -2.0 * beta * p - q - q**3 - eps * math.sin(omega * tau))

    return OdeSystem(dim=2, rhs=rhs)


def duffing_scaled_rhs(beta: float, eps: float, sigma: float) -> OdeSystem:
    """Three-variable scaled system with sigma lifted; period 2 pi in t."""

    def core(state, t, params):
        z1, z2 = state
        (s,) = params
        s2 = s**2
        return (
            z2,
            -2.0 * beta * (s * z2) - s2 * z1 - z1**3 - (eps * math.sin(t)) * (s * s2),
        )

    return lift_parameters(core, 2, (sigma,))


# -- exact stroboscopic map -------------------------------------------------------


@dataclass(frozen=True)
class ExactStroboscopicMap:
    """One-period transfer map of the (q, p) system by direct integration.

    Calling the map integrates one scalar orbit, the path scans take, and
    returns the integrator's pair of Python floats.
    :meth:`linearize` integrates the order-1 variational equations instead
    and also returns the map's exact Jacobian, the path Newton takes.
    """

    params: DuffingParams
    tol: float = 1e-12

    def __call__(self, point: Sequence[float]) -> tuple[float, float]:
        cfg = adaptive(self.tol)
        return integrate(duffing_rhs(self.params), tuple(point), 0.0, self.params.period, cfg)[0]

    def linearize(self, point: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """The image of ``point`` and the 2 x 2 Jacobian of the map there.

        One jet integration of ``point + (x1, x2)`` over a period, at order
        1: the degree-1 coefficients solve the variational equations, so the
        Jacobian carries the integrator's error and no differencing step.
        """
        tmap = forward_solve(
            duffing_rhs(self.params),
            point,
            0.0,
            self.params.period,
            build_table(2, 1),
            adaptive(self.tol),
        )
        return np.array(tmap.design_endpoint), tmap.linear_matrix()

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
    """
    if p < 1:
        raise ValueError(f"map order must be >= 1, got {p}")
    if len(expansion) != 3:
        raise ValueError("expansion point must be (z1, z2, sigma)")
    system = duffing_scaled_rhs(beta, eps, sigma=float(expansion[2]))
    table = build_table(3, p)
    if method == "forward":
        return forward_solve(system, expansion, 0.0, TWO_PI, table, cfg)
    if method == "backward":
        return backward_solve(system, expansion, 0.0, TWO_PI, table, cfg)
    raise ValueError(f"method must be 'forward' or 'backward', got {method!r}")


# -- fast iteration of a polynomial map ---------------------------------------------


class _Poly2Map:
    """Dynamical rows of a TaylorMap with the parameter deviation folded in.

    Collapsing the fixed sigma-deviation turns the three-variable rows into
    two-variable polynomials of the same degree, folded into one dense block
    ``block[a, j1, j2]`` (row ``a``, coefficient of ``zeta1^j1 zeta2^j2``,
    zero above total degree p) with the expansion offset taken off the
    constant term.  The map works in deviation coordinates ``zeta``;
    :meth:`to_qp` reports iterates in the (q, p) frame.

    Both rows are evaluated by nested Horner on Python floats (Knuth,
    TAOCP vol. 2, 4.6.4), zeta2 on the inside and zeta1 on the outside, in
    one pass over the block's triangle kept as Python floats in that order.
    An application makes no numpy call and returns a pair of Python floats,
    so the orbit's next step starts from floats too; :meth:`linearize`
    makes the same pass, so Newton's fixed points are fixed points of the
    map that scans apply.
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
        # Horner order: j1 from p down, and within it j2 from p - j1 down;
        # each entry is the two rows' leading coefficients and the pairs after
        self._horner = []
        for j1 in range(p, -1, -1):
            pairs = list(zip(block[0, j1, p - j1 :: -1].tolist(), block[1, j1, p - j1 :: -1].tolist()))
            self._horner.append((*pairs[0], tuple(pairs[1:])))

    def __call__(self, zeta: Sequence[float]) -> tuple[float, float]:
        """One application of the deviation map, as a pair of floats."""
        z1, z2 = float(zeta[0]), float(zeta[1])
        a0 = a1 = 0.0
        for i0, i1, tail in self._horner:
            for c0, c1 in tail:
                i0 = i0 * z2 + c0
                i1 = i1 * z2 + c1
            a0 = a0 * z1 + i0
            a1 = a1 * z1 + i1
        return a0, a1

    def linearize(self, zeta: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """The image of ``zeta`` and the 2 x 2 Jacobian of the folded rows there.

        The Horner pass of :meth:`__call__` carries the derivatives along
        (each inner sum's in zeta2, each outer sum's in zeta1 and zeta2); the
        image takes the same operations in the same order, so it is the
        image that :meth:`__call__` returns, bit for bit.
        """
        z1, z2 = float(zeta[0]), float(zeta[1])
        a0 = a1 = 0.0
        a0_1 = a0_2 = a1_1 = a1_2 = 0.0
        for i0, i1, tail in self._horner:
            d0 = d1 = 0.0
            for c0, c1 in tail:
                d0 = d0 * z2 + i0
                d1 = d1 * z2 + i1
                i0 = i0 * z2 + c0
                i1 = i1 * z2 + c1
            a0_1 = a0_1 * z1 + a0
            a1_1 = a1_1 * z1 + a1
            a0_2 = a0_2 * z1 + d0
            a1_2 = a1_2 * z1 + d1
            a0 = a0 * z1 + i0
            a1 = a1 * z1 + i1
        return np.array([a0, a1]), np.array([[a0_1, a0_2], [a1_1, a1_2]])

    def to_qp(self, iterates: np.ndarray, omega: float) -> np.ndarray:
        """Deviation iterates as (q, p) points in the frame of ``omega``."""
        q, p = to_qp(self.offset[0] + iterates[:, 0], self.offset[1] + iterates[:, 1], omega)
        return np.column_stack([q, p])


#: an iterate's bytes, as ``ndarray.tobytes()`` gives them for a float64 pair
_PAIR = struct.Struct("=2d")


def _orbit(step, state, transient: int, record: int, escape_radius: float):
    """Apply ``step`` ``transient + record`` times from ``state``.

    Returns the (record, 2) post-transient iterates, the final state, the
    number of times ``step`` ran, and whether the orbit closed on a cycle.
    Raises :class:`EscapeError` at the first iterate that is not finite or
    lies outside the ball of the given radius: the comparison is false for
    NaN, and ``hypot`` is inf when either component is inf.  Capping the
    radius at the largest float keeps an infinite radius from passing inf.

    ``step`` returns a pair of floats, as both stroboscopic maps do; each
    iterate is kept as the pair of its components and the samples become
    one array at the end.  ``step`` must be a pure function of the state's
    bytes, as both stroboscopic maps are.
    Each iterate is keyed by the bytes of its two float64 components (so 0.0
    and -0.0 stay apart), and once iterate i repeats iterate j the orbit has
    period i - j from j on: stepping stops and the remaining iterates are
    copied off that cycle, bit for bit what further steps would give.
    """
    radius = min(escape_radius, sys.float_info.max)
    n = transient + record
    traj: list = []
    seen: dict = {}
    applied, closed = n, False
    for i in range(n):
        state = step(state)
        a, b = state
        if not math.hypot(a, b) <= radius:
            raise EscapeError(f"orbit escaped at iterate {i + 1}", i + 1)
        j = seen.setdefault(_PAIR.pack(a, b), i)
        traj.append((a, b))
        if j < i:
            cycle = traj[j:i]
            traj.extend(cycle[(k - j) % (i - j)] for k in range(i + 1, n))
            state = traj[-1]
            applied, closed = i + 1, True
            break
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
    or not finite, raises at step 0.  Once an iterate repeats an earlier one bit for bit, the rest of
    the trajectory is copied off that cycle instead of stepped.
    """
    zeta = np.asarray(zeta0, dtype=np.float64)
    if zeta.shape != (2,):
        raise ValueError(f"expected a 2-component deviation, got shape {zeta.shape}")
    if not math.hypot(zeta[0], zeta[1]) <= min(escape_radius, sys.float_info.max):
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
    :class:`ExactStroboscopicMap` runs in (q, p), one order-1 jet
    integration per application.  Returns the refined point and the
    eigenvalues of the k-fold Jacobian (the stability multipliers).

    On a polynomial map, a point outside the scans' escape radius
    (``DEFAULT_ESCAPE_RADIUS``), whether a Newton iterate or one of its
    first k - 1 images, ends the run in :class:`NewtonConvergenceError`, as
    it ends a scan's orbit: the polynomial says nothing about the flow out
    there, and a run that leaves would otherwise wander on to ``max_iter``.
    """
    if k < 1:
        raise ValueError(f"period must be >= 1, got {k}")
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
    deviation.
    """
    if isinstance(map_source, TaylorMap):
        return lambda omega: _Poly2Map(map_source, 1.0 / omega - map_source.expansion_point[2])
    if map_source == "exact":
        return lambda omega: ExactStroboscopicMap(DuffingParams(beta, eps, omega), tol)
    raise ValueError("map_source must be 'exact' or a TaylorMap")


def _orbit_inputs(
    omegas: list, transient: int, record: int, seed: Sequence[float] | None, escape_radius: float
) -> tuple[float, float]:
    """Refuse what no orbit can run on, before any omega runs.

    Returns ``seed`` as a pair of Python floats, (0, 0) when it is None.
    """
    if transient < 1 or record < 1:
        raise ValueError(f"transient and sample count must be >= 1, got {transient}, {record}")
    for omega in omegas:
        if not 0.0 < omega < math.inf:
            raise ValueError(f"driving frequency must be finite and > 0, got {omega!r}")
    if not escape_radius > 0.0:
        raise ValueError(f"escape_radius must be > 0, got {escape_radius!r}")
    if seed is None:
        return 0.0, 0.0
    pair = tuple(float(v) for v in seed)
    if len(pair) != 2 or not all(map(math.isfinite, pair)):
        raise ValueError(f"seed must be two finite numbers, got {list(pair)}")
    return pair


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
    not strictly monotonic, or holds an omega that is not finite and > 0, a
    seed that is not two finite numbers, or an escape radius that is not > 0.
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
    # Python floats: an np.float64 omega would make every stage value of an
    # exact orbit a numpy scalar through omega * tau
    grid = omegas.tolist()
    seed = _orbit_inputs(grid, transient, record, seed, escape_radius)
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

    return ScanResult(omegas, samples, failures, applications, cycles)


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
    # a Python float: an np.float64 omega would make every stage value of an
    # exact orbit a numpy scalar through omega * tau
    omega = float(omega)
    seed = _orbit_inputs([omega], transient, count, seed, escape_radius)
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
