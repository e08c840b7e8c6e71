"""Transfer maps of polynomial ODEs via the variational equations.

Deviations from a reference ("design") trajectory obey ODEs whose right side
is the Taylor expansion of the system about that trajectory, retaining all
polynomial orders.  The time-dependent Taylor coefficients of the solution,
``h^r_a(t)``, assemble the transfer map sending initial deviations to final
deviations.  Two independent solution routes are provided:

* :func:`forward_solve` integrates the state as jets ``center_a + x_a``; the
  Taylor rule makes the final jets the transfer map directly.
* :func:`backward_solve` integrates the coefficient functions themselves
  backward in time.  Their equations are *linear* in the unknowns, with
  constant integer structure coefficients (:func:`c_coefficients`) contracted
  against the forcing terms of the expanded right side.

Both produce the same :class:`TaylorMap`, which makes either one an oracle
for the other.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .jet import (
    Jet,
    jet_from_dict,
    jet_to_dict,
    monomial_values,
    state_about,
)
from .jetode import IntegratorConfig, OdeSystem, StepStats, integrate
from .monoidx import MonomialTable, rank


# -- expansion of the right side ---------------------------------------------


def expand_rhs(
    system: OdeSystem, zd: Sequence[float], t: float, table: MonomialTable
) -> tuple[np.ndarray, np.ndarray]:
    """Split f(zd + zeta, t) into the design value and the forcing terms.

    Returns ``(fvals, g)`` where ``fvals[a] = f_a(zd, t)`` and ``g[a, r-1]``
    is the coefficient of the rank-r monomial in the deviation expansion of
    ``f_a`` (column 0, the constant, is zeroed: forcing terms have degree
    one or more).
    """
    if len(zd) != system.dim or table.m != system.dim:
        raise ValueError(
            f"system dim {system.dim}, table m {table.m}, design point "
            f"length {len(zd)} must all agree"
        )
    jets = system.rhs(state_about(table, zd), t)
    g = np.empty((system.dim, table.L))
    for a, component in enumerate(jets):
        if isinstance(component, Jet):
            g[a] = component.coeffs
        else:  # constant right side written as a plain number
            g[a] = 0.0
            g[a, 0] = float(component)
    fvals = g[:, 0].copy()
    g[:, 0] = 0.0
    return fvals, g


# -- the transfer map object ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class TaylorMap:
    """Polynomial transfer map about a design trajectory.

    ``rows[a]`` is the jet of the final value of variable ``a + 1`` as a
    polynomial in the initial deviations; its constant term is the design
    endpoint.  Trailing ``n_params`` variables are lifted parameters whose
    rows are exact identities.  ``diagnostics`` holds the step statistics of
    each integration that built the map (empty for a map read from a file
    that has none).
    """

    table: MonomialTable
    t_i: float
    t_f: float
    expansion_point: tuple[float, ...]
    design_endpoint: tuple[float, ...]
    rows: tuple[Jet, ...]
    n_params: int = 0
    diagnostics: tuple[StepStats, ...] = ()

    def __post_init__(self):
        if len(self.rows) != self.table.m:
            raise ValueError(
                f"need {self.table.m} rows, got {len(self.rows)}"
            )
        if len(self.expansion_point) != self.table.m:
            raise ValueError("expansion point length must match variable count")

    @property
    def m_dynamical(self) -> int:
        return self.table.m - self.n_params

    @property
    def order(self) -> int:
        return self.table.p

    def coefficient_matrix(self) -> np.ndarray:
        """(m, L) array of row coefficients."""
        return np.stack([row.coeffs for row in self.rows])

    def final_state(self, deviation: Sequence[float]) -> np.ndarray:
        """Absolute final coordinates for an initial deviation vector."""
        dev = np.asarray(deviation, dtype=np.float64)
        if dev.shape != (self.table.m,):
            raise ValueError(f"expected {self.table.m} deviations, got {dev.shape}")
        return self.coefficient_matrix() @ monomial_values(self.table, dev)

    def deviation_map(self, deviation: Sequence[float]) -> np.ndarray:
        """Final deviations (relative to the design endpoint)."""
        return self.final_state(deviation) - np.asarray(self.design_endpoint)

    def linear_matrix(self, dynamical_only: bool = True) -> np.ndarray:
        """Degree-1 block: d(final)/d(initial deviation)."""
        n = self.m_dynamical if dynamical_only else self.table.m
        out = np.empty((n, n))
        for a in range(n):
            for b in range(n):
                out[a, b] = self.rows[a].coeffs[self.table.variable_rank(b + 1) - 1]
        return out

    def jacobian(self, deviation: Sequence[float]) -> np.ndarray:
        """Exact Jacobian of final_state at the given deviation (m x m)."""
        dev = np.asarray(deviation, dtype=np.float64)
        cols = []
        for b in range(1, self.table.m + 1):
            block = np.stack([row.partial(b).coeffs for row in self.rows])
            cols.append(block @ monomial_values(self.table, dev))
        return np.stack(cols, axis=1)


def taylor_map_to_dict(tmap: TaylorMap, suppress_zeros: bool = False) -> dict:
    """JSON-ready description of a TaylorMap."""
    rows = [
        {"var": a + 1, "coeffs": jet_to_dict(row, suppress_zeros)["coeffs"]}
        for a, row in enumerate(tmap.rows)
    ]
    return {
        "m_dynamical": tmap.m_dynamical,
        "n_params": tmap.n_params,
        "p": tmap.table.p,
        "t_i": tmap.t_i,
        "t_f": tmap.t_f,
        "expansion_point": list(tmap.expansion_point),
        "design_endpoint": list(tmap.design_endpoint),
        "rows": rows,
        "diagnostics": [asdict(stats) for stats in tmap.diagnostics],
    }


def taylor_map_from_dict(data: dict, table: MonomialTable | None = None) -> TaylorMap:
    from .monoidx import build_table

    m = data["m_dynamical"] + data["n_params"]
    if table is None:
        table = build_table(m, data["p"])
    if table.m != m or table.p != data["p"]:
        raise ValueError(
            f"table (m={table.m}, p={table.p}) does not match serialized map "
            f"(m={m}, p={data['p']})"
        )
    rows = [
        jet_from_dict(table, {"m": table.m, "p": table.p, "coeffs": row["coeffs"]})
        for row in data["rows"]
    ]
    return TaylorMap(
        table=table,
        t_i=float(data["t_i"]),
        t_f=float(data["t_f"]),
        expansion_point=tuple(data["expansion_point"]),
        design_endpoint=tuple(data["design_endpoint"]),
        rows=tuple(rows),
        n_params=int(data["n_params"]),
        diagnostics=tuple(StepStats(**stats) for stats in data.get("diagnostics", ())),
    )


# -- forward route -------------------------------------------------------------


def forward_solve(
    system: OdeSystem,
    zd0: Sequence[float],
    t_i: float,
    t_f: float,
    table: MonomialTable,
    cfg: IntegratorConfig,
) -> TaylorMap:
    """Transfer map by integrating the jet state ``zd0_a + x_a`` forward."""
    if table.m != system.dim:
        raise ValueError(f"table has m={table.m}, system has dim={system.dim}")
    if len(zd0) != system.dim:
        raise ValueError(f"expected {system.dim} initial values, got {len(zd0)}")
    state0 = state_about(table, zd0)
    state, _, stats = integrate(system, state0, t_i, t_f, cfg)
    rows = tuple(state)
    endpoint = tuple(float(row.coeffs[0]) for row in rows)
    return TaylorMap(
        table=table,
        t_i=t_i,
        t_f=t_f,
        expansion_point=tuple(float(v) for v in zd0),
        design_endpoint=endpoint,
        rows=rows,
        n_params=system.n_params,
        diagnostics=(stats,),
    )


# -- universal structure coefficients for the backward route -------------------


@dataclass(frozen=True, eq=False)
class CCoefficientTable:
    """Nonzero integer coefficients C^r_{b r' r''}.

    ``[(d/d zeta_b) G_{r'}] G_{r''} = sum_r C^r_{b r' r''} G_r`` with all
    ranks in jet labeling (constant = rank 1, so every stored rank is >= 2).
    Entry i is held in flat arrays as 0-based indices ``idx_r[i]``,
    ``idx_b[i]``, ``idx_rp[i]``, ``idx_rpp[i]`` and the float ``values[i]``;
    ``idx_out[i] = idx_r[i] * L + idx_rp[i]`` is its cell in the (L, L)
    contraction matrix.  :attr:`entries` reads them as a dict.
    """

    m: int
    p: int
    idx_r: np.ndarray
    idx_b: np.ndarray
    idx_rp: np.ndarray
    idx_rpp: np.ndarray
    idx_out: np.ndarray
    values: np.ndarray

    @property
    def entries(self) -> dict[tuple[int, int, int, int], int]:
        """``{(r, b, r', r''): C}`` in 1-based ranks and variable index."""
        keys = np.stack([self.idx_r, self.idx_b, self.idx_rp, self.idx_rpp], axis=1) + 1
        return {tuple(k): int(v) for k, v in zip(keys.tolist(), self.values)}

    def contraction_matrix(self, g: np.ndarray, out: np.ndarray) -> np.ndarray:
        """A[r, r'] = sum_{b, r''} C^r_{b r' r''} g[b, r''], written into out."""
        terms = self.values * g[self.idx_b, self.idx_rpp]
        out[:] = np.bincount(self.idx_out, weights=terms, minlength=out.size).reshape(out.shape)
        return out


def c_coefficients(m: int, p: int, table: MonomialTable) -> CCoefficientTable:
    """Enumerate all nonzero C^r_{b r' r''} for degree(r) <= p."""
    if table.m != m or table.p != p:
        raise ValueError(f"table is (m={table.m}, p={table.p}), asked for ({m}, {p})")
    idx_r, idx_b, idx_rp, idx_rpp, values = [], [], [], [], []
    for b in range(1, m + 1):
        for ip in range(1, table.L):  # r' = ip + 1, degree >= 1
            jp = table.exponents[ip]
            if jp[b - 1] < 1:
                continue
            lowered = jp.copy()
            lowered[b - 1] -= 1
            d_lowered = int(table.degrees[ip]) - 1
            for ipp in range(1, table.L):  # r'' = ipp + 1, degree >= 1
                if d_lowered + int(table.degrees[ipp]) > p:
                    continue
                target = lowered + table.exponents[ipp]
                idx_r.append(rank(target.tolist()) - 1)
                idx_b.append(b - 1)
                idx_rp.append(ip)
                idx_rpp.append(ipp)
                values.append(float(jp[b - 1]))
    idx_r = np.array(idx_r, dtype=np.intp)
    idx_rp = np.array(idx_rp, dtype=np.intp)
    return CCoefficientTable(
        m=m,
        p=p,
        idx_r=idx_r,
        idx_b=np.array(idx_b, dtype=np.intp),
        idx_rp=idx_rp,
        idx_rpp=np.array(idx_rpp, dtype=np.intp),
        idx_out=idx_r * table.L + idx_rp,
        values=np.array(values),
    )


# -- backward route -------------------------------------------------------------

# tolerance of the backward route's scalar design run relative to cfg.tol.
# Its endpoint error sets the Duffing map's: at tol 1e-9 the mixed-relative
# error against a tol-1e-13 forward map is, at factor 1e-2 -> 1, 1.3e-9 ->
# 2.2e-8 at order 2, 9.5e-9 -> 1.0e-7 at order 3 and 7.4e-9 -> 1.0e-7 at
# order 4, and the gap to the forward map at the same tol widens alike (order
# 3: 1.1e-8 -> 1.0e-7)
_DESIGN_TOL_FACTOR = 1e-2


def backward_solve(
    system: OdeSystem,
    zd0: Sequence[float],
    t_i: float,
    t_f: float,
    table: MonomialTable,
    cfg: IntegratorConfig,
) -> TaylorMap:
    """Transfer map via the linear coefficient equations, integrated backward.

    The design orbit is first run forward to the final time; the coefficient
    functions then march from their final-time identity values back to the
    initial time, co-integrating the design orbit in reverse.  The equations
    for the coefficients are linear, with right side assembled from the
    C-coefficient contraction of the current forcing terms.

    The forward design run takes ``cfg.tol * _DESIGN_TOL_FACTOR``.  Every
    coefficient inherits its endpoint error through the next degree's
    coefficients, which its own error norm cannot see; the forward route's
    orbit rides in the jet state and gets that accuracy from the
    coefficients' step sequence.
    """
    if table.m != system.dim:
        raise ValueError(f"table has m={table.m}, system has dim={system.dim}")
    scalar_state0 = tuple(float(v) for v in zd0)
    design_cfg = replace(cfg, tol=cfg.tol * _DESIGN_TOL_FACTOR)
    endpoint_state, _, design_stats = integrate(system, scalar_state0, t_i, t_f, design_cfg)
    endpoint = tuple(float(v) for v in endpoint_state)

    ctab = c_coefficients(table.m, table.p, table)
    amat = np.empty((table.L, table.L))
    span = t_f - t_i

    def reversed_rhs(state: tuple, s: float):
        # s runs 0 -> span while the physical time runs t_f -> t_i
        tbar = t_f - s
        h = np.stack([component.coeffs for component in state])
        zd = h[:, 0]
        fvals, g = expand_rhs(system, zd, tbar, table)
        ctab.contraction_matrix(g, amat)
        dh = h @ amat.T  # -(d/dtbar) h, negated once more by ds = -dtbar
        dh[:, 0] = -fvals
        return dh

    reversed_system = OdeSystem(dim=table.m, rhs=reversed_rhs)
    # final conditions: identity coefficients on top of the design endpoint
    state0 = state_about(table, endpoint)
    state, _, coeff_stats = integrate(reversed_system, state0, 0.0, span, cfg)

    coeffs = np.stack([component.coeffs for component in state])
    coeffs[:, 0] = endpoint  # constant slot holds the design endpoint
    rows = [Jet(table, row) for row in coeffs]
    return TaylorMap(
        table=table,
        t_i=t_i,
        t_f=t_f,
        expansion_point=scalar_state0,
        design_endpoint=endpoint,
        rows=tuple(rows),
        n_params=system.n_params,
        diagnostics=(design_stats, coeff_stats),
    )


# -- parameter lifting -----------------------------------------------------------


def lift_parameters(
    rhs: Callable[[tuple, float, tuple], Sequence],
    m: int,
    param_values: Sequence[float],
) -> OdeSystem:
    """Adjoin parameters as trailing state variables with zero derivatives.

    ``rhs(state, t, params)`` defines the m dynamical derivatives and must be
    polynomial in both the state and the parameters.  The returned system has
    dimension ``m + len(param_values)``; maps expanded for it carry parameter
    deviations as extra initial-condition variables, and the parameter rows
    of any such map are exact identities.
    """
    values = tuple(float(v) for v in param_values)
    n = len(values)

    def lifted(state: tuple, t: float):
        dyn = rhs(tuple(state[:m]), t, tuple(state[m:]))
        return tuple(dyn) + (0.0,) * n

    return OdeSystem(dim=m + n, rhs=lifted, n_params=n, param_values=values)
