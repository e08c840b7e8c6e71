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


def box_sums(left: np.ndarray, right: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """The product kernel: ``left * right`` summed over each box segment.

    ``left`` and ``right`` are operands gathered through a table's box
    arrays, ``a[flat_box]`` and ``b[flat_box_rev]``, and ``seg`` is its
    ``seg_starts`` or a writable copy, on which numpy 2.4's ``reduceat``
    runs faster; the result is the fresh (L,) truncated product of a and b.
    """
    return np.add.reduceat(left * right, seg)


def prod(u: Jet, v: Jet) -> Jet:
    """Truncated product, summed over the table's own read-only ``seg_starts``.

    Swapping the operands sums each output's terms in reverse order, which
    can move its last bits.
    """
    u._check_companion(v)
    t = u.table
    return _new(t, box_sums(u.coeffs[t.flat_box], v.coeffs[t.flat_box_rev], t.seg_starts))


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
