"""Truncated multivariate power series ("jets") over a shared monomial table.

A jet is a dense vector of ``L(m, p)`` coefficients; entry ``r`` multiplies
the monomial of rank ``r`` in modified glex order.  Addition and scalar
multiplication are coordinate-wise; multiplication contracts the box tables
of the shared :class:`~jetmap.monoidx.MonomialTable`, which truncates the
product beyond total degree ``p`` implicitly.

Because the arithmetic operators are overloaded, any Python expression built
from ``+``, ``-``, ``*`` and integer ``**`` evaluates equally well on floats
and on jets.  Evaluating a polynomial on the jets ``c + x_a`` (constant plus
first-order variable part) yields its Taylor expansion about ``c``; this is
what lets one numerical integrator propagate whole Taylor maps.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .monoidx import MonomialTable, TableMismatchError

_SCALARS = (int, float, np.integer, np.floating)


class Jet:
    """Dense coefficient vector over a shared monomial table."""

    __slots__ = ("table", "coeffs")

    def __init__(self, table: MonomialTable, coeffs):
        coeffs = np.array(coeffs, dtype=np.float64)
        if coeffs.shape != (table.L,):
            raise ValueError(
                f"expected {table.L} coefficients for (m={table.m}, p={table.p}), "
                f"got shape {coeffs.shape}"
            )
        # jets are value-semantic: the buffer is a private copy, frozen
        coeffs.setflags(write=False)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Jet is immutable")

    # -- helpers ---------------------------------------------------------

    def _check_companion(self, other: "Jet") -> None:
        if self.table is other.table:
            return
        if not self.table.same_shape(other.table):
            raise TableMismatchError(
                f"cannot combine jets over (m={self.table.m}, p={self.table.p}) "
                f"and (m={other.table.m}, p={other.table.p})"
            )

    def __repr__(self) -> str:
        return f"Jet(m={self.table.m}, p={self.table.p}, coeffs={self.coeffs!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        return self.table.same_shape(other.table) and np.array_equal(
            self.coeffs, other.coeffs
        )

    __hash__ = None

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check_companion(other)
            return _new(self.table, self.coeffs + other.coeffs)
        if isinstance(other, _SCALARS):
            out = self.coeffs.copy()
            out[0] += other
            return _new(self.table, out)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _new(self.table, -self.coeffs)

    def __sub__(self, other):
        if isinstance(other, Jet):
            self._check_companion(other)
            return _new(self.table, self.coeffs - other.coeffs)
        if isinstance(other, _SCALARS):
            out = self.coeffs.copy()
            out[0] -= other
            return _new(self.table, out)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            out = -self.coeffs
            out[0] += other
            return _new(self.table, out)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Jet):
            return prod(self, other)
        if isinstance(other, _SCALARS):
            return _new(self.table, self.coeffs * float(other))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        if isinstance(n, (int, np.integer)):
            return power(self, int(n))
        return NotImplemented

    # -- evaluation -------------------------------------------------------

    def evaluate(self, x: Sequence[float]) -> float:
        """Value of the underlying polynomial at the point x (length m)."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.table.m,):
            raise ValueError(f"expected {self.table.m} coordinates, got {x.shape}")
        return float(self.coeffs @ monomial_values(self.table, x))


def _new(table: MonomialTable, coeffs: np.ndarray) -> Jet:
    """Jet over a float64 (L,) buffer the caller hands over: frozen, not copied.

    The ring operations build their results here; they guarantee dtype and
    shape, so the checks of ``Jet.__init__`` are skipped.
    """
    coeffs.setflags(write=False)
    u = object.__new__(Jet)
    _set_table(u, table)
    _set_coeffs(u, coeffs)
    return u


# slot setters, bypassing Jet.__setattr__
_set_table = Jet.table.__set__
_set_coeffs = Jet.coeffs.__set__


def monomial_values(table: MonomialTable, x: np.ndarray) -> np.ndarray:
    """Vector of all L monomial values at the point x."""
    # per-variable power lookup keeps this O(m*p + L*m)
    powers = x[:, None] ** np.arange(table.p + 1)[None, :]
    g = powers[0][table.exponents[:, 0]]
    for a in range(1, table.m):
        g = g * powers[a][table.exponents[:, a]]
    return g


# -- constructors ----------------------------------------------------------


def constant(table: MonomialTable, c: float) -> Jet:
    """Jet of the constant polynomial c."""
    coeffs = np.zeros(table.L)
    coeffs[0] = c
    return Jet(table, coeffs)


def variable(table: MonomialTable, a: int) -> Jet:
    """Jet of the bare variable z_a (1-based index)."""
    r = table.variable_rank(a)
    coeffs = np.zeros(table.L)
    coeffs[r - 1] = 1.0
    return Jet(table, coeffs)


def state_about(table: MonomialTable, center: Sequence[float]) -> tuple[Jet, ...]:
    """Jets ``center_a + x_a`` for every variable: the expansion-point state.

    Feeding this state through any polynomial recipe produces Taylor
    expansions about ``center``.
    """
    if len(center) != table.m:
        raise ValueError(f"expected {table.m} center coordinates, got {len(center)}")
    # x_a has rank a + 1 (MonomialTable.variable_rank)
    coeffs = np.eye(table.m, table.L, k=1)
    coeffs[:, 0] = center
    return tuple(_new(table, row) for row in coeffs)


# -- named operations (operator sugar above delegates here) -----------------


def prod_coeffs(table: MonomialTable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of two (L,) coefficient arrays via the box tables.

    The array kernel under :func:`prod`: ``a`` and ``b`` must be float64
    coefficient vectors over ``table``, and the result is a fresh array.
    Swapping the operands sums each output's terms in reverse order, which
    can move its last bits.
    """
    return np.add.reduceat(a[table.flat_box] * b[table.flat_box_rev], table.seg_starts)


def prod(u: Jet, v: Jet) -> Jet:
    """Truncated product via the precomputed box tables."""
    u._check_companion(v)
    return _new(u.table, prod_coeffs(u.table, u.coeffs, v.coeffs))


def power(u: Jet, n: int) -> Jet:
    """n-th power by repeated multiplication (n >= 0)."""
    if n < 0:
        raise ValueError("negative powers are not defined on truncated series")
    if n == 0:
        return constant(u.table, 1.0)
    out = u
    for _ in range(n - 1):
        out = prod(u, out)
    return out


# -- serialization ----------------------------------------------------------


def jet_to_dict(u: Jet, suppress_zeros: bool = False) -> dict:
    """JSON-ready dict {m, p, coeffs: [{r, exponents, value}]}."""
    entries = []
    for i, value in enumerate(u.coeffs):
        if suppress_zeros and value == 0.0:
            continue
        entries.append(
            {
                "r": i + 1,
                "exponents": [int(j) for j in u.table.exponents[i]],
                "value": float(value),
            }
        )
    return {"m": u.table.m, "p": u.table.p, "coeffs": entries}


def jet_from_dict(table: MonomialTable, data: dict) -> Jet:
    """Jet of a :func:`jet_to_dict` dict; missing ranks read 0, entries off ``table`` raise."""
    if data["m"] != table.m or data["p"] != table.p:
        raise TableMismatchError(
            f"serialized jet is (m={data['m']}, p={data['p']}), "
            f"table is (m={table.m}, p={table.p})"
        )
    entries = data["coeffs"]
    ranks = [entry["r"] for entry in entries]
    if len(set(ranks)) < len(ranks) or not all(type(r) is int and 1 <= r <= table.L for r in ranks):
        raise ValueError(f"coefficient ranks must be distinct integers in [1, {table.L}]")
    rows = np.array(ranks, dtype=np.intp) - 1
    if [entry["exponents"] for entry in entries] != table.exponents[rows].tolist():
        raise ValueError("coefficient exponents differ from their ranks' table rows")
    coeffs = np.zeros(table.L)
    coeffs[rows] = [entry["value"] for entry in entries]
    return Jet(table, coeffs)
