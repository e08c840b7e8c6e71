"""Test oracles: independent versions of what the package computes.

The hand-written two-variable coefficient equations, the generic forward
coefficient derivatives by jet composition, the C-table by a rank loop and
its contraction by ``np.add.at``, a central-difference Jacobian, a map's
linear block, parameter lifting and a parameter-freezing wrapper for
lifted systems, a frame-tagged phase point, a Runge-Kutta attempt on
floats by ``sum`` over tableau rows, the folded polynomial map and its
Jacobian by a Horner loop, the exact map's Jacobian by an order-1 jet
integration, the (q, p) Duffing right side as a hand-written closure, the
scaled Duffing right side with every product made at every call, the
backward route with a right side that stacks its state and makes new jets
for every expansion, and a jet's value at a point by its monomial values.
None of them is used by the package itself.
"""

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import add, mul

import numpy as np

from jetmap import duffing as duf
from jetmap import vareq
from jetmap.jet import Jet, constant, monomial_values, state_about
from jetmap.jetode import OdeSystem, adaptive, integrate
from jetmap.monoidx import MonomialTable, build_table, rank
from jetmap.vareq import CCoefficientTable, TaylorMap, c_coefficients, expand_rhs, forward_solve


# -- coefficient equations ------------------------------------------------------


def two_var_oracle_rhs(g: np.ndarray, h: np.ndarray, direction: str) -> np.ndarray:
    """Hand-transcribed coefficient equations for m=2 through degree 2.

    ``g`` and ``h`` are (2, 5) arrays indexed [a-1, r-1] in the degree->=1
    labeling r=1..5 for monomials z1, z2, z1^2, z1*z2, z2^2.  Returns the
    (2, 5) array of time derivatives of h, for the forward equations or for
    the backward (reversed-time) linear equations.
    """
    g = np.asarray(g, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if g.shape != (2, 5) or h.shape != (2, 5):
        raise ValueError("g and h must have shape (2, 5)")
    (g11, g21, g31, g41, g51), (g12, g22, g32, g42, g52) = g
    (h11, h21, h31, h41, h51), (h12, h22, h32, h42, h52) = h
    out = np.empty((2, 5))
    if direction == "forward":
        out[0, 0] = g11 * h11 + g21 * h12
        out[1, 0] = g12 * h11 + g22 * h12
        out[0, 1] = g11 * h21 + g21 * h22
        out[1, 1] = g12 * h21 + g22 * h22
        out[0, 2] = g11 * h31 + g21 * h32 + g31 * h11**2 + g41 * h11 * h12 + g51 * h12**2
        out[1, 2] = g12 * h31 + g22 * h32 + g32 * h11**2 + g42 * h11 * h12 + g52 * h12**2
        out[0, 3] = (
            g11 * h41
            + g21 * h42
            + 2 * g31 * h11 * h21
            + g41 * (h11 * h22 + h21 * h12)
            + 2 * g51 * h12 * h22
        )
        out[1, 3] = (
            g12 * h41
            + g22 * h42
            + 2 * g32 * h11 * h21
            + g42 * (h11 * h22 + h21 * h12)
            + 2 * g52 * h12 * h22
        )
        out[0, 4] = g11 * h51 + g21 * h52 + g31 * h21**2 + g41 * h21 * h22 + g51 * h22**2
        out[1, 4] = g12 * h51 + g22 * h52 + g32 * h21**2 + g42 * h21 * h22 + g52 * h22**2
    elif direction == "backward":
        out[0, 0] = -g11 * h11 - g12 * h21
        out[1, 0] = -g11 * h12 - g12 * h22
        out[0, 1] = -g21 * h11 - g22 * h21
        out[1, 1] = -g21 * h12 - g22 * h22
        out[0, 2] = -2 * g11 * h31 - g31 * h11 - g12 * h41 - g32 * h21
        out[1, 2] = -2 * g11 * h32 - g31 * h12 - g12 * h42 - g32 * h22
        out[0, 3] = (
            -g11 * h41 - 2 * g21 * h31 - g41 * h11 - 2 * g12 * h51 - g22 * h41 - g42 * h21
        )
        out[1, 3] = (
            -g11 * h42 - 2 * g21 * h32 - g41 * h12 - 2 * g12 * h52 - g22 * h42 - g42 * h22
        )
        out[0, 4] = -g21 * h41 - g51 * h11 - 2 * g22 * h51 - g52 * h21
        out[1, 4] = -g21 * h42 - g51 * h12 - 2 * g22 * h52 - g52 * h22
    else:
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    return out


def forward_variational_rhs(
    g: np.ndarray, h: np.ndarray, table: MonomialTable
) -> np.ndarray:
    """Generic forward coefficient derivatives for arbitrary forcing values.

    ``g`` and ``h`` are (m, L) arrays in jet ranks with column 0 ignored.
    Computes hdot_a = sum_r g[a, r] * (monomial r composed with the h series),
    the composition being evaluated with jet products.  Exists as the generic
    counterpart of :func:`two_var_oracle_rhs`; the production forward path in
    ``vareq.forward_solve`` gets the same result implicitly.
    """
    m, L = g.shape
    if (m, L) != (table.m, table.L) or h.shape != (m, L):
        raise ValueError("g and h must have shape (table.m, table.L)")
    series = []
    for a in range(m):
        coeffs = h[a].copy()
        coeffs[0] = 0.0
        series.append(Jet(table, coeffs))
    out = np.zeros((m, L))
    for i in range(1, L):
        composed = constant(table, 1.0)
        for b, exponent in enumerate(table.exponents[i]):
            for _ in range(int(exponent)):
                composed = composed * series[b]
        for a in range(m):
            out[a] += g[a, i] * composed.coeffs
    out[:, 0] = 0.0
    return out


def contraction_matrix_add_at(ctab, g: np.ndarray, L: int) -> np.ndarray:
    """A[r, r'] = sum_{b, r''} C^r_{b r' r''} g[b, r''], one entry at a time.

    Scatters the C-table's flat entries into a zeroed (L, L) array with
    ``np.add.at``, which adds in entry order, the order the package's
    ``CCoefficientTable.contraction_matrix`` must reproduce bit for bit.
    """
    out = np.zeros((L, L))
    r, rp = divmod(ctab.idx_out, L)
    b, rpp = divmod(ctab.idx_g, L)
    np.add.at(out, (r, rp), ctab.values * g[b, rpp])
    return out


def backward_solve_stacked(
    system: OdeSystem, zd0, t_i: float, t_f: float, table: MonomialTable, cfg
) -> TaylorMap:
    """``vareq.backward_solve`` with a right side that makes everything per call.

    Each evaluation of the reversed coefficient equations stacks the stage
    jets into a new (m, L) array with ``np.stack``, expands the system with
    its own ``expand_rhs`` call, so the system gets new jets every time, and
    contracts with :func:`contraction_matrix_add_at`.  The design run, the
    final conditions and the map are the package's.  Its maps, design
    endpoints and step statistics must be the package's bit for bit.
    """
    design_cfg = replace(cfg, tol=cfg.tol * vareq._DESIGN_TOL_FACTOR)
    zd0 = tuple(float(v) for v in zd0)
    endpoint_state, _, design_stats = integrate(system, zd0, t_i, t_f, design_cfg)
    endpoint = tuple(float(v) for v in endpoint_state)
    ctab = c_coefficients(table.m, table.p, table)

    def reversed_rhs(state, s):
        h = np.stack([component.coeffs for component in state])
        fvals, g = expand_rhs(system, h[:, 0], t_f - s, table)
        dh = h @ contraction_matrix_add_at(ctab, g, table.L).T
        dh[:, 0] = -fvals
        return dh

    reversed_system = OdeSystem(dim=table.m, rhs=reversed_rhs)
    state, _, coeff_stats = integrate(
        reversed_system, state_about(table, endpoint), 0.0, t_f - t_i, cfg
    )
    coeffs = np.stack([component.coeffs for component in state])
    coeffs[:, 0] = endpoint
    return TaylorMap(
        table=table,
        t_i=t_i,
        t_f=t_f,
        expansion_point=zd0,
        rows=tuple(Jet(table, row) for row in coeffs),
        n_params=system.n_params,
        diagnostics=(design_stats, coeff_stats),
    )


# -- C-coefficients ---------------------------------------------------------------


def c_coefficients_by_rank(m: int, p: int, table: MonomialTable) -> CCoefficientTable:
    """``vareq.c_coefficients`` by a loop over (b, r', r'') and :func:`rank`.

    Each entry's r is the rank of the exponent vector r' - e_b + r'', and
    its value is j'_b, taken in the package's order: b, then r', then r''.
    Its arrays must be the package's, dtypes included.
    """
    idx_out, idx_g, values = [], [], []
    for b in range(m):
        for ip in range(1, table.L):  # r' = ip + 1, degree >= 1
            jp = table.exponents[ip]
            if jp[b] < 1:
                continue
            lowered = jp.copy()
            lowered[b] -= 1
            d_lowered = int(table.degrees[ip]) - 1
            for ipp in range(1, table.L):  # r'' = ipp + 1, degree >= 1
                if d_lowered + int(table.degrees[ipp]) > p:
                    continue
                target = lowered + table.exponents[ipp]
                idx_out.append((rank(target.tolist()) - 1) * table.L + ip)
                idx_g.append(b * table.L + ipp)
                values.append(float(jp[b]))
    return CCoefficientTable(
        L=table.L,
        idx_out=np.array(idx_out, dtype=np.intp),
        idx_g=np.array(idx_g, dtype=np.intp),
        values=np.array(values),
    )


# -- Jacobians --------------------------------------------------------------------


def central_difference_jacobian(fn, point) -> np.ndarray:
    """2 x 2 Jacobian of ``fn`` at ``point`` by central differences.

    Truncation error is O(step^2), and an error e in ``fn`` adds up to
    e / step: at this 1e-6 step, a map integrated at tol 1e-12 gives a
    Jacobian good to about 1e-6.  ``fn`` may return an array or a pair of
    floats.
    """
    step = 1e-6
    point = np.asarray(point, dtype=np.float64)
    cols = []
    for b in range(2):
        bump = np.zeros(2)
        bump[b] = step
        cols.append((np.asarray(fn(point + bump)) - np.asarray(fn(point - bump))) / (2 * step))
    return np.stack(cols, axis=1)


def linear_matrix(tmap: TaylorMap) -> np.ndarray:
    """Degree-1 block of a map's dynamical rows: d(final)/d(initial deviation)."""
    n = tmap.m_dynamical
    ranks = [tmap.table.variable_rank(b + 1) - 1 for b in range(n)]
    return tmap.coefficient_matrix()[:n, ranks]


# -- parameter lifting -----------------------------------------------------------


def lift_parameters(rhs, m: int, param_values) -> OdeSystem:
    """Adjoin parameters as trailing state variables with zero derivatives.

    ``rhs(state, t, params)`` defines the m dynamical derivatives and must be
    polynomial in both the state and the parameters.  The returned system has
    dimension ``m + len(param_values)``; maps expanded for it carry parameter
    deviations as extra initial-condition variables, and the parameter rows
    of any such map are exact identities.  The values themselves ride in
    the state, so only their count is kept.
    """
    n = len(param_values)

    def lifted(state: tuple, t: float):
        dyn = rhs(tuple(state[:m]), t, tuple(state[m:]))
        return tuple(dyn) + (0.0,) * n

    return OdeSystem(dim=m + n, rhs=lifted, n_params=n)


def fix_parameters(system: OdeSystem, param_values) -> OdeSystem:
    """Freeze a lifted system's parameters at ``param_values``.

    Returns the plain dynamical system (dimension ``dim - n_params``) whose
    right side sees the parameters as constants of the working algebra.
    """
    values = tuple(float(v) for v in param_values)
    if len(values) != system.n_params:
        raise ValueError(f"need {system.n_params} parameter values, got {len(values)}")
    if system.n_params == 0:
        return system
    m = system.dim - system.n_params

    def frozen(state: tuple, t: float):
        anchor = state[0]
        params = tuple(0.0 * anchor + v for v in values)
        return system.rhs(tuple(state) + params, t)[:m]

    return OdeSystem(dim=m, rhs=frozen)


# -- coordinate frames --------------------------------------------------------


@dataclass(frozen=True)
class PhasePoint:
    """A phase-space point tagged with its frame ('qp' or 'scaled')."""

    x1: float
    x2: float
    frame: str = "qp"

    def __post_init__(self):
        if self.frame not in ("qp", "scaled"):
            raise ValueError(f"frame must be 'qp' or 'scaled', got {self.frame!r}")

    def as_qp(self, omega: float) -> "PhasePoint":
        if self.frame == "qp":
            return self
        q, p = duf.to_qp(self.x1, self.x2, omega)
        return PhasePoint(q, p, "qp")

    def as_scaled(self, omega: float) -> "PhasePoint":
        if self.frame == "scaled":
            return self
        z1, z2 = duf.to_scaled(self.x1, self.x2, omega)
        return PhasePoint(z1, z2, "scaled")


# -- Runge-Kutta attempts ----------------------------------------------------------


def _row_sum(row, values) -> float:
    """``sum(map(mul, row, values))`` as Python up to 3.11 sums floats.

    Left to right from the integer 0, which turns the first product p into
    ``0.0 + p`` (so -0.0 into 0.0).  From 3.12 ``sum`` compensates its float
    sum and differs in the last bits.
    """
    return reduce(add, map(mul, row, values), 0)


def float_attempt(tableau, rhs, y: tuple, t: float, h: float, k0) -> tuple:
    """One Runge-Kutta attempt on a tuple of floats by ``sum`` over each tableau row.

    ``tableau`` is a ``jetode._Tableau`` and k0 the right side at ``(y,
    t)``.  Each component keeps its stage values in a list, and stage i's
    argument is ``y_c + h * sum(map(mul, a_i, k_c))``; the candidate and the
    5th- and 3rd-order estimates are the same sums over b and the two error
    rows, each estimate weighed by ``1 + max(|candidate|, |y|)``, a NaN
    among them an infinite error, and the two max norms combined as HNW
    II.10 does.  Returns ``(candidate, error)``, the error None for a
    tableau without error rows.  ``jetode``'s compiled attempt must give the
    same bits.  The sums are :func:`_row_sum`, the left-to-right ``sum`` of
    Python up to 3.11, on every version.
    """
    m = len(y)
    c, rows = tableau.c, tableau.array[:, 1:].tolist()
    s = len(c)
    k = [[v] for v in k0]
    for i in range(1, s):
        f = rhs(tuple([y[j] + h * _row_sum(rows[i], k[j]) for j in range(m)]), t + c[i] * h)
        if len(f) != m:
            raise ValueError(f"got {len(f)} components, expected {m}")
        for j in range(m):
            k[j].append(f[j])
    new = tuple([y[j] + h * _row_sum(rows[s], k[j]) for j in range(m)])
    if len(rows) == s + 1:
        return new, None
    w5, w3 = rows[s + 1 :]
    e5 = e3 = 0.0
    for j in range(m):
        # max keeps its first argument's NaN, so a NaN candidate reaches d5
        scale = 1.0 + max(abs(new[j]), abs(y[j]))
        d5 = abs(h * _row_sum(w5, k[j])) / scale
        d3 = abs(h * _row_sum(w3, k[j])) / scale
        if d5 != d5 or d3 != d3:
            return new, math.inf
        e5, e3 = max(e5, d5), max(e3, d3)
    if not (math.isfinite(e5) and math.isfinite(e3)):
        return new, math.inf
    # E5^2 / sqrt(E5^2 + 0.01 E3^2), HNW II.10
    return new, 0.0 if e5 == 0.0 else e5 * (e5 / math.hypot(e5, 0.1 * e3))


# -- folded polynomial map -----------------------------------------------------------


def horner_triangle(block: np.ndarray) -> list:
    """A folded block's triangle as Python floats in Horner order.

    ``block`` is ``duffing._Poly2Map._block``.  Per j1 from p down, both
    rows' coefficients of ``zeta1^j1 zeta2^(p - j1)`` and then the pairs of
    both rows for j2 from p - j1 - 1 down to 0.
    """
    p = block.shape[1] - 1
    horner = []
    for j1 in range(p, -1, -1):
        pairs = list(zip(block[0, j1, p - j1 :: -1].tolist(), block[1, j1, p - j1 :: -1].tolist()))
        horner.append((*pairs[0], tuple(pairs[1:])))
    return horner


def horner_loop_linearize(horner: list, zeta) -> tuple:
    """A folded polynomial map's image and Jacobian by a nested Horner loop.

    ``horner`` is :func:`horner_triangle`'s.  Both rows run zeta2 on the
    inside and zeta1 on the outside, each sum from 0.0, and the loop carries
    each inner sum's derivative in zeta2 and each outer sum's in zeta1 and
    zeta2 along.  Returns the image as a pair of floats, which the compiled
    step must give bit for bit, and the 2 x 2 Jacobian.
    """
    z1, z2 = float(zeta[0]), float(zeta[1])
    a0 = a1 = 0.0
    a0_1 = a0_2 = a1_1 = a1_2 = 0.0
    for i0, i1, tail in horner:
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
    return (a0, a1), np.array([[a0_1, a0_2], [a1_1, a1_2]])


# -- exact map Jacobian -------------------------------------------------------------


def jet_linearize(exact, point) -> tuple:
    """``ExactStroboscopicMap.linearize`` by one order-1 jet integration.

    The state is the jet ``point + (x1, x2)`` over ``build_table(2, 1)``,
    integrated over one period at the map's tolerance; its degree-1
    coefficients are the Jacobian.  An order-1 jet's coefficients are
    (value, d/dx1, d/dx2), so step control weighs the same entries as on
    the package's six floats.  Returns the image, the Jacobian and the
    run's ``StepStats``.
    """
    tmap = forward_solve(
        duf.duffing_rhs(exact.params),
        point,
        0.0,
        exact.params.period,
        build_table(2, 1),
        adaptive(exact.tol),
    )
    return np.array(tmap.design_endpoint), linear_matrix(tmap), tmap.diagnostics[0]


# -- Duffing right sides -------------------------------------------------------------


def duffing_rhs(params) -> OdeSystem:
    """``duffing.duffing_rhs`` as a hand-written closure, which carries no source.

    The package's right side is an expression system, written into the
    compiled float attempt; this one is called at every stage, and its
    values, on floats and on jets, and its runs must be the package's bit
    for bit.
    """
    beta, eps, omega = params.beta, params.eps, params.omega
    m2beta = -2.0 * beta
    sin = math.sin

    def rhs(state, tau):
        q, p = state
        return (p, m2beta * p - q - q**3 - eps * sin(omega * tau))

    return OdeSystem(dim=2, rhs=rhs)




def duffing_scaled_rhs(beta: float, eps: float, sigma: float) -> OdeSystem:
    """``duffing.duffing_scaled_rhs`` with every product made at every call.

    Six truncated products per evaluation on jets, sigma's two among them,
    each made through the jet operators, and the lifted tuple return of
    ``lift_parameters``.  The package keeps sigma's products for the last
    sigma seen and works on coefficient arrays; its maps, step statistics
    and right-side values must be this system's, bit for bit.
    """

    def core(state, t, params):
        z1, z2 = state
        (s,) = params
        s2 = s**2
        return (
            z2,
            -2.0 * beta * (s * z2) - s2 * z1 - z1**3 - (eps * math.sin(t)) * (s * s2),
        )

    return lift_parameters(core, 2, (sigma,))


# -- jet values -------------------------------------------------------------------


def evaluate(u: Jet, x) -> float:
    """Value of the polynomial ``u`` at the point ``x`` (length m)."""
    return float(u.coeffs @ monomial_values(u.table, np.asarray(x, dtype=np.float64)))
