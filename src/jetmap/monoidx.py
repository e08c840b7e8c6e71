"""Monomial labeling tables for truncated multivariate polynomials.

Monomials in ``m`` variables up to total degree ``p`` are listed in
*modified graded lexicographic* order: ascending total degree, and within
each degree block descending lexicographic order of the exponent vectors.
The constant monomial therefore always has rank 1 and the variable ``z_a``
has rank ``a + 1``.

Ranks are 1-based throughout the public API.  Each table also carries, in
flat arrays, for every rank ``k`` the *box* ``B_k``: the ascending list of ranks whose
exponent vectors divide the exponent vector of ``k`` componentwise, together
with its reverse ``Brev_k``.  The two lists are complementary pair by pair
(``exponents(B_k[i]) + exponents(Brev_k[i]) = exponents(k)``), which turns
truncated polynomial multiplication into a sequence of dot products.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator, Sequence

import numpy as np

#: Refuse to build tables with more than this many rows.
MAX_TABLE_ENTRIES = 10_000_000


class TableSizeError(ValueError):
    """Requested (m, p) would produce an unreasonably large table."""


class TableMismatchError(ValueError):
    """Operands built over different (m, p) tables were combined."""


def table_size(m: int, p: int) -> int:
    """Number of monomials in m variables with total degree <= p."""
    if m < 1:
        raise ValueError(f"need at least one variable, got m={m}")
    if p < 0:
        raise ValueError(f"max degree must be non-negative, got p={p}")
    return comb(p + m, p)


def _compositions_desc(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All weak compositions of `total` into `parts` parts, descending lex."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions_desc(total - first, parts - 1):
            yield (first,) + rest


def rank(exponents: Sequence[int]) -> int:
    """1-based rank of an exponent vector in modified glex order.

    Uses the closed-form binomial sum (Giorgilli formula), which is defined
    for any degree, including degrees beyond any particular table's cutoff.
    """
    m = len(exponents)
    r = 1
    tail = 0
    for ell in range(1, m + 1):
        j = exponents[m - ell]
        if j < 0:
            raise ValueError(f"exponents must be non-negative, got {tuple(exponents)}")
        tail += j
        r += comb(ell - 1 + tail, ell)
    return r


@dataclass(frozen=True, eq=False)
class MonomialTable:
    """Immutable index structure for monomials in m variables, degree <= p.

    Attributes:
        m: number of variables.
        p: maximum total degree.
        L: number of rows, binomial(p + m, p).
        exponents: (L, m) integer array; row ``r - 1`` holds the exponent
            vector of rank ``r``.
        degrees: (L,) integer array of total degrees.
        flat_box: every box, concatenated in rank order, as 0-based ranks;
            the box of rank k holds the ranks r, ascending, with
            exponents(r) <= exponents(k) componentwise.
        flat_box_rev: the same segments, each reversed.
        seg_starts: (L,) offset of each rank's segment in the flat arrays.

    :func:`box` and :func:`box_rev` read one rank's segment as 1-based ranks.
    """

    m: int
    p: int
    L: int
    exponents: np.ndarray
    degrees: np.ndarray
    flat_box: np.ndarray
    flat_box_rev: np.ndarray
    seg_starts: np.ndarray

    def same_shape(self, other: "MonomialTable") -> bool:
        return self.m == other.m and self.p == other.p

    def unrank(self, r: int) -> tuple[int, ...]:
        if not 1 <= r <= self.L:
            raise IndexError(f"rank {r} outside [1, {self.L}]")
        return tuple(int(j) for j in self.exponents[r - 1])

    def degree(self, r: int) -> int:
        if not 1 <= r <= self.L:
            raise IndexError(f"rank {r} outside [1, {self.L}]")
        return int(self.degrees[r - 1])

    def variable_rank(self, a: int) -> int:
        """Rank of the degree-1 monomial in variable a (1-based)."""
        if not 1 <= a <= self.m:
            raise IndexError(f"variable index {a} outside [1, {self.m}]")
        if self.p < 1:
            raise ValueError("table with p=0 has no degree-1 monomials")
        return a + 1

    def rows_csv(self) -> Iterator[str]:
        """Rows in the r, j_1..j_m, D column layout."""
        yield "r," + ",".join(f"j{a}" for a in range(1, self.m + 1)) + ",D"
        for i in range(self.L):
            cols = [str(i + 1)] + [str(int(j)) for j in self.exponents[i]]
            cols.append(str(int(self.degrees[i])))
            yield ",".join(cols)


def build_table(m: int, p: int, max_entries: int = MAX_TABLE_ENTRIES) -> MonomialTable:
    """Build the full monomial table for m variables through degree p."""
    L = table_size(m, p)
    if L > max_entries:
        raise TableSizeError(
            f"table for m={m}, p={p} has {L} rows, exceeding the cap of {max_entries}"
        )
    rows = []
    for d in range(p + 1):
        rows.extend(_compositions_desc(d, m))
    exponents = np.array(rows, dtype=np.int64)
    degrees = exponents.sum(axis=1)

    box = [np.flatnonzero(np.all(exponents <= exponents[k], axis=1)) for k in range(L)]
    flat_box = np.concatenate(box)  # each segment ascending by construction
    flat_box_rev = np.concatenate([b[::-1] for b in box])
    sizes = np.array([b.size for b in box])
    seg_starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))

    for arr in (exponents, degrees, flat_box, flat_box_rev, seg_starts):
        arr.setflags(write=False)

    return MonomialTable(
        m=m,
        p=p,
        L=L,
        exponents=exponents,
        degrees=degrees,
        flat_box=flat_box,
        flat_box_rev=flat_box_rev,
        seg_starts=seg_starts,
    )


def _segment(table: MonomialTable, flat: np.ndarray, k: int) -> np.ndarray:
    if not 1 <= k <= table.L:
        raise IndexError(f"rank {k} outside [1, {table.L}]")
    start = table.seg_starts[k - 1]
    stop = table.seg_starts[k] if k < table.L else flat.size
    return flat[start:stop] + 1


def box(table: MonomialTable, k: int) -> np.ndarray:
    """Ascending ranks of the componentwise divisors of monomial k."""
    return _segment(table, table.flat_box, k)


def box_rev(table: MonomialTable, k: int) -> np.ndarray:
    """The k-th box in reverse order (complementary labels)."""
    return _segment(table, table.flat_box_rev, k)
