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
from typing import Sequence

import numpy as np

from . import monoidx
from .jet import Jet, _new as _new_jet, monomial_values, state_about
from .jetode import IntegratorConfig, OdeSystem, StepStats, integrate, store_rows
from .monoidx import MonomialTable


# -- expansion of the right side ---------------------------------------------


def _expansion(system: OdeSystem, table: MonomialTable):
    """``expand(zd, t) -> g`` for ``system`` on buffers made once.

    The factory owns the identity jets ``zd_a + x_a``, read-only views over
    the rows of one ``np.eye(m, L, k=1)`` buffer, and the array ``g`` it
    returns.  Each call writes ``zd`` into the buffer's column 0, hands the
    right side those same jets and stores its return into ``g`` through
    :func:`~jetmap.jetode.store_rows`, which refuses what it cannot store.
    ``g[:, 0]`` is the design value f(zd, t), and the other columns are the
    forcing terms.  So the next call rewrites the jets the right side got
    and the array it returned.
    """
    # x_a has rank a + 1 (MonomialTable.variable_rank)
    about = np.eye(table.m, table.L, k=1)
    state = tuple(_new_jet(table, row) for row in about)
    g = np.empty((table.m, table.L))

    def expand(zd, t: float) -> np.ndarray:
        about[:, 0] = zd
        store_rows(g, system.rhs(state, t), table)
        return g

    return expand


def expand_rhs(
    system: OdeSystem, zd: Sequence[float], t: float, table: MonomialTable
) -> tuple[np.ndarray, np.ndarray]:
    """Split f(zd + zeta, t) into the design value and the forcing terms.

    Returns ``(fvals, g)`` where ``fvals[a] = f_a(zd, t)`` and ``g[a, r-1]``
    is the coefficient of the rank-r monomial in the deviation expansion of
    ``f_a`` (column 0, the constant, is zeroed: forcing terms have degree
    one or more).  Each call makes its own :func:`_expansion`, so the right
    side gets read-only jets that no other call shares, and the caller owns
    the arrays returned.
    """
    if len(zd) != system.dim or table.m != system.dim:
        raise ValueError(
            f"system dim {system.dim}, table m {table.m}, design point "
            f"length {len(zd)} must all agree"
        )
    g = _expansion(system, table)(zd, t)
    fvals = g[:, 0].copy()
    g[:, 0] = 0.0
    return fvals, g


# -- the transfer map object ---------------------------------------------------


@dataclass(frozen=True, eq=False)
class TaylorMap:
    """Polynomial transfer map about a design trajectory.

    ``rows[a]`` is the jet of the final value of variable ``a + 1`` as a
    polynomial in the initial deviations; their constant terms are the
    design endpoint, :attr:`design_endpoint`.  Trailing ``n_params``
    variables are lifted parameters whose rows are exact identities.
    ``diagnostics`` holds the step statistics of each integration that
    built the map (empty for a map read from a file that has none).
    """

    table: MonomialTable
    t_i: float
    t_f: float
    expansion_point: tuple[float, ...]
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
    def design_endpoint(self) -> tuple[float, ...]:
        return tuple(float(row.coeffs[0]) for row in self.rows)

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


def taylor_map_to_dict(tmap: TaylorMap) -> dict:
    """JSON-ready description of a TaylorMap; each row lists every rank's ``{r, exponents, value}``."""
    rows = []
    for a, row in enumerate(tmap.rows):
        pairs = zip(tmap.table.exponents.tolist(), row.coeffs.tolist())
        entries = [{"r": r, "exponents": e, "value": v} for r, (e, v) in enumerate(pairs, start=1)]
        rows.append({"var": a + 1, "coeffs": entries})
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


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _read_row(table: MonomialTable, entries: list) -> Jet:
    """Jet of one row's entries; missing ranks read 0, entries off ``table`` and non-numbers raise."""
    ranks = [entry["r"] for entry in entries]
    if len(set(ranks)) < len(ranks) or not all(type(r) is int and 1 <= r <= table.L for r in ranks):
        raise ValueError(f"coefficient ranks must be distinct integers in [1, {table.L}]")
    index = np.array(ranks, dtype=np.intp) - 1
    if [entry["exponents"] for entry in entries] != table.exponents[index].tolist():
        raise ValueError("coefficient exponents differ from their ranks' table rows")
    values = [entry["value"] for entry in entries]
    if not all(_is_number(v) for v in values):
        raise ValueError("coefficient values must be numbers")
    coeffs = np.zeros(table.L)
    coeffs[index] = values
    return _new_jet(table, coeffs)


def taylor_map_from_dict(data: dict) -> TaylorMap:
    """TaylorMap of a :func:`taylor_map_to_dict` dict, refused unless its expansion point is m
    finite numbers, its rows are on the table and its endpoint is their constants."""
    # through the module, so that a wrapper put on monoidx.build_table sees it
    table = monoidx.build_table(data["m_dynamical"] + data["n_params"], data["p"])
    point = data["expansion_point"]
    if type(point) is not list or not all(_is_number(v) and np.isfinite(v) for v in point):
        raise ValueError(f"expansion_point must be {table.m} finite numbers, got {point!r}")
    tmap = TaylorMap(
        table=table,
        t_i=float(data["t_i"]),
        t_f=float(data["t_f"]),
        expansion_point=tuple(point),
        rows=tuple(_read_row(table, row["coeffs"]) for row in data["rows"]),
        n_params=int(data["n_params"]),
        diagnostics=tuple(StepStats(**stats) for stats in data.get("diagnostics", ())),
    )
    if list(tmap.design_endpoint) != data["design_endpoint"]:
        raise ValueError(f"design_endpoint is not the rows' constants {list(tmap.design_endpoint)}")
    return tmap


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
    state0 = state_about(table, zd0)
    state, _, stats = integrate(system, state0, t_i, t_f, cfg)
    return TaylorMap(
        table=table,
        t_i=t_i,
        t_f=t_f,
        expansion_point=tuple(float(v) for v in zd0),
        rows=tuple(state),
        n_params=system.n_params,
        diagnostics=(stats,),
    )


# -- universal structure coefficients for the backward route -------------------


@dataclass(frozen=True, eq=False)
class CCoefficientTable:
    """Nonzero integer coefficients C^r_{b r' r''} over a table of L rows.

    ``[(d/d zeta_b) G_{r'}] G_{r''} = sum_r C^r_{b r' r''} G_r`` with all
    ranks in jet labeling (constant = rank 1, so every stored rank is >= 2).
    Entry i is held in flat arrays as two 0-based cells and the float
    ``values[i]``: ``idx_out[i] = (r - 1) * L + r' - 1`` in the (L, L)
    contraction matrix and ``idx_g[i] = (b - 1) * L + r'' - 1`` in the
    (m, L) forcing array it reads.  :attr:`entries` reads them as a dict.
    """

    L: int
    idx_out: np.ndarray
    idx_g: np.ndarray
    values: np.ndarray

    @property
    def entries(self) -> dict[tuple[int, int, int, int], int]:
        """``{(r, b, r', r''): C}`` in 1-based ranks and variable index."""
        (r, rp), (b, rpp) = np.divmod(self.idx_out, self.L), np.divmod(self.idx_g, self.L)
        keys = np.stack([r, b, rp, rpp], axis=1) + 1
        return {tuple(k): int(v) for k, v in zip(keys.tolist(), self.values)}

    def contraction_matrix(self, g: np.ndarray, out: np.ndarray) -> np.ndarray:
        """A[r, r'] = sum_{b, r''} C^r_{b r' r''} g[b, r''], written into out."""
        terms = self.values * g.take(self.idx_g)
        out[:] = np.bincount(self.idx_out, weights=terms, minlength=out.size).reshape(out.shape)
        return out


def c_coefficients(m: int, p: int, table: MonomialTable) -> CCoefficientTable:
    """All nonzero C^r_{b r' r''} for degree(r) <= p, read off the box pairs.

    ``d/d zeta_b x^{r'} = j'_b x^{r' - e_b}``, so C^r_{b r' r''} is
    ``d_b + 1`` exactly when (d, r'') is a box pair of r (``flat_box`` and
    ``flat_box_rev`` over r's segment), r'' is not constant and
    ``r' = d z_b``: m (C(p + 2m, 2m) - L) entries.  ``d z_b`` is the r of
    the pair (d, z_b), z_b having 0-based row b + 1.  Entries are ordered by
    b, then r', then r'', the order in which :meth:`contraction_matrix
    <CCoefficientTable.contraction_matrix>` sums each cell's terms.
    """
    if table.m != m or table.p != p:
        raise ValueError(f"table is (m={table.m}, p={table.p}), asked for ({m}, {p})")
    L = table.L
    d, rpp = table.flat_box, table.flat_box_rev
    r = np.repeat(np.arange(L), np.diff(table.seg_starts, append=d.size))
    # times_var[b, d] = 0-based rank of d z_b, for every d of degree < p
    times_var = np.zeros((m, L), dtype=np.intp)
    lift = (rpp >= 1) & (rpp <= m)
    times_var[rpp[lift] - 1, d[lift]] = r[lift]
    keep = rpp >= 1
    d, rpp, r = d[keep], rpp[keep], r[keep]
    b = np.repeat(np.arange(m), d.size)
    rp = times_var[:, d].ravel()
    rpp, r = np.tile(rpp, m), np.tile(r, m)
    order = np.lexsort((rpp, rp, b))
    return CCoefficientTable(
        L=L,
        idx_out=(r * L + rp)[order],
        idx_g=(b * L + rpp)[order],
        values=(table.exponents[d].T.ravel() + 1.0)[order],
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

    The run makes one :func:`_expansion` of ``system``, and one buffer it
    reads each stage's coefficients into, so the system's right side gets
    the same read-only jets at every expansion, rewritten in place; like a
    jet march's (see :mod:`~jetmap.jetode`), a right side that keeps one
    past its return must copy its ``coeffs``.  Each expansion's column 0,
    f at the design point, drives the design orbit; the contraction reads
    only the other columns, the forcing terms.
    """
    if table.m != system.dim:
        raise ValueError(f"table has m={table.m}, system has dim={system.dim}")
    scalar_state0 = tuple(float(v) for v in zd0)
    design_cfg = replace(cfg, tol=cfg.tol * _DESIGN_TOL_FACTOR)
    endpoint_state, _, design_stats = integrate(system, scalar_state0, t_i, t_f, design_cfg)
    endpoint = tuple(float(v) for v in endpoint_state)

    ctab = c_coefficients(table.m, table.p, table)
    amat = np.empty((table.L, table.L))
    expand = _expansion(system, table)
    h_flat = np.empty(table.m * table.L)
    h = h_flat.reshape(table.m, table.L)
    zd = h[:, 0]
    span = t_f - t_i

    def reversed_rhs(state: tuple, s: float):
        # s runs 0 -> span while the physical time runs t_f -> t_i
        tbar = t_f - s
        np.concatenate([component.coeffs for component in state], out=h_flat)
        g = expand(zd, tbar)
        ctab.contraction_matrix(g, amat)
        dh = h @ amat.T  # -(d/dtbar) h, negated once more by ds = -dtbar
        dh[:, 0] = -g[:, 0]
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
        rows=tuple(rows),
        n_params=system.n_params,
        diagnostics=(design_stats, coeff_stats),
    )
