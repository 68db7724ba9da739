"""Exact rank computation over GF(2), GF(p), and the rationals.

GF(2) rows are int bitmasks reduced by XOR pivoting.  GF(p) and rational
rows are sparse: each is a dict from column to a nonzero integer entry,
so a boundary row costs its c nonzeros rather than the full width.  These
eliminate on a row's highest column against a dict of pivot rows.  GF(p)
pivots are made monic; the rational path stays fraction-free (integer
cross-multiplication, each new pivot divided by its content), so no
floating point or Fraction is involved anywhere.

``rank_unimodular`` eliminates the same integer rows with no gcd and no
modulus, and gives up (None) at the first pivot that is not +-1.  When it
does not give up, its rank holds over Q and over every GF(p) at once.
Simplicial boundary matrices reduce almost entirely with +-1 pivots
(Dumas, Heckenbach, Saunders and Welker, 2003), so one elimination can
stand in for a rank per field.  Input rows are never modified.
"""

from __future__ import annotations

from math import gcd


def rank_gf2(rows: list[int]) -> int:
    pivots: dict[int, int] = {}
    rank = 0
    for row in rows:
        while row:
            low = row & -row
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = row
                rank += 1
                break
            row ^= piv
    return rank


def rank_mod_p(rows: list[dict[int, int]], p: int) -> int:
    """Rank over GF(p) of sparse integer rows ({column: entry})."""
    pivots: dict[int, dict[int, int]] = {}  # pivot column -> monic row
    for row in rows:
        row = {j: x % p for j, x in row.items() if x % p}
        while row:
            col = max(row)
            prow = pivots.get(col)
            if prow is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {j: x * inv % p for j, x in row.items()}
                break
            c = row[col]
            for j, y in prow.items():
                x = (row.get(j, 0) - c * y) % p
                if x:
                    row[j] = x
                else:
                    del row[j]  # c * y != 0 mod p, so j was in row
    return len(pivots)


def rank_rationals(rows: list[dict[int, int]]) -> int:
    """Rank over Q of sparse integer rows, by exact integer elimination."""
    pivots: dict[int, dict[int, int]] = {}  # pivot column -> primitive row
    for row in rows:
        row = {j: x for j, x in row.items() if x}
        while row:
            col = max(row)
            prow = pivots.get(col)
            if prow is None:
                g = 0
                for x in row.values():
                    g = gcd(g, x)
                pivots[col] = {j: x // g for j, x in row.items()} if g > 1 else row
                break
            pc, c = prow[col], row[col]
            g = gcd(pc, c)
            a, b = pc // g, c // g
            if a != 1:
                row = {j: a * x for j, x in row.items()}
            for j, y in prow.items():
                x = row.get(j, 0) - b * y
                if x:
                    row[j] = x
                else:
                    del row[j]  # b * y != 0, so j was in row
    return len(pivots)


def rank_unimodular(rows: list[dict[int, int]]) -> int | None:
    """Rank of sparse integer rows over Q and every GF(p), or None.

    Rows are eliminated as in ``rank_rationals``, on each row's highest
    column, but with no gcd: a row whose lead c meets a pivot row (lead 1)
    subtracts c times it.  A new pivot whose lead is -1 is negated.  The
    first new pivot whose lead is not +-1 ends the elimination with None.

    Why the count holds over every field: each step adds an integer
    multiple of an earlier row or negates a row, so the steps compose to
    one unit lower-triangular integer transform T (its diagonal entries
    are +-1).  det T = +-1, so T stays invertible mod every prime p, and
    T A has the rank of A over Q and over every GF(p).  The rows of T A
    are the pivot rows, whose leads are 1 in distinct columns (an echelon
    form, whose rows stay independent mod p because 1 != 0 mod p), and
    rows that are zero over the integers, hence zero mod every p.  So the
    number of pivots is the rank over Q and over every GF(p).
    """
    pivots: dict[int, dict[int, int]] = {}  # pivot column -> row with lead 1
    for row in rows:
        row = {j: x for j, x in row.items() if x}
        while row:
            col = max(row)
            prow = pivots.get(col)
            if prow is None:
                lead = row[col]
                if lead == -1:
                    row = {j: -x for j, x in row.items()}
                elif lead != 1:
                    return None
                pivots[col] = row
                break
            c = row[col]
            for j, y in prow.items():
                x = row.get(j, 0) - c * y
                if x:
                    row[j] = x
                else:
                    del row[j]  # c * y != 0, so j was in row
    return len(pivots)
