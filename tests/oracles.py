"""Test oracles: independent versions of what the package computes.

The hand-written two-variable coefficient equations, the generic forward
coefficient derivatives by jet composition, the C-contraction by
``np.add.at``, a central-difference Jacobian, a parameter-freezing wrapper
for lifted systems, and a frame-tagged phase point.  None of them is used by
the package itself.
"""

from dataclasses import dataclass

import numpy as np

from jetmap import duffing as duf
from jetmap.jet import Jet, constant
from jetmap.jetode import OdeSystem
from jetmap.monoidx import MonomialTable


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
    np.add.at(out, (ctab.idx_r, ctab.idx_rp), ctab.values * g[ctab.idx_b, ctab.idx_rpp])
    return out


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


# -- parameter lifting -----------------------------------------------------------


def fix_parameters(system: OdeSystem) -> OdeSystem:
    """Freeze a lifted system's parameters at their design values.

    Returns the plain dynamical system (dimension ``m_dynamical``) whose
    right side sees the parameters as constants of the working algebra.
    """
    if system.n_params == 0:
        return system
    m = system.n_dynamical
    values = system.param_values

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
