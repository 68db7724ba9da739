"""Exact arithmetic on square-free monomial ideals.

A square-free monomial is identified with its support, stored as a
bitmask over variables 1..n.  An ideal is its unique minimal generating
set: an antichain of supports, kept sorted by vertex tuple so that equal
ideals compare equal structurally.  The zero ideal has no generators.

Minimal primes are the minimal vertex covers (transversals) of the
generator hypergraph; height/big height/unmixedness derive from them.
Both the covers and the antichains are computed from per-vertex
incidence bitsets (``bitset.incidence_rows``), never by comparing a set
against every kept one:

- a Berge step keeps an extended cover only when each of its old
  vertices still has a private generator (the ``crit`` test of
  Murakami and Uno's MMCS), so no cover list is pruned afterwards;
- a support m contains a kept support iff some kept one avoids every
  vertex outside m: one AND-NOT against the OR of those vertices' rows
  (supports are walked by size and tested against the smaller kept ones);
- a sum of two ideals merges their antichains, dropping only the
  generators of one that a generator of the other divides.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence

from .bitset import bit, incidence_rows, iter_bits, mask_of, vertices_of
from .graphs import Graph, connected_subsets


def _as_mask(support: int | Iterable[int]) -> int:
    if isinstance(support, int):
        return support
    return mask_of(support)


def minimalize_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """Inclusion-minimal antichain of the given supports, canonically sorted."""
    return tuple(sorted(_prune_nonminimal(masks), key=vertices_of))


@dataclass(frozen=True)
class SquareFreeIdeal:
    n: int
    gens: tuple[int, ...]

    @staticmethod
    def make(n: int, supports: Iterable[int | Iterable[int]]) -> "SquareFreeIdeal":
        masks = [_as_mask(s) for s in supports]
        full = (1 << n) - 1
        for m in masks:
            if m & ~full:
                raise ValueError(f"support {vertices_of(m)} out of range 1..{n}")
        return SquareFreeIdeal(n, minimalize_masks(masks))

    @staticmethod
    def zero(n: int) -> "SquareFreeIdeal":
        return SquareFreeIdeal(n, ())

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def _check_ambient(self, other: "SquareFreeIdeal") -> None:
        if self.n != other.n:
            raise ValueError(f"ambient mismatch: {self.n} vs {other.n}")

    def add(self, other: "SquareFreeIdeal") -> "SquareFreeIdeal":
        """Sum of two ideals: a merge of two antichains, with no full re-prune.

        A generator of ``other`` is dropped when one of ``self`` divides it;
        a generator of ``self`` is then dropped when a kept generator of
        ``other`` divides it, so a generator of both is kept once.
        """
        self._check_ambient(other)
        theirs = _not_above(self.gens, other.gens)
        mine = _not_above(theirs, self.gens)
        return SquareFreeIdeal(self.n, tuple(sorted(mine + theirs, key=vertices_of)))

    def intersect(self, other: "SquareFreeIdeal") -> "SquareFreeIdeal":
        self._check_ambient(other)
        lcms = [a | b for a in self.gens for b in other.gens]
        return SquareFreeIdeal(self.n, minimalize_masks(lcms))

    def colon(self, support: int | Iterable[int]) -> "SquareFreeIdeal":
        """Quotient (I : m) for a square-free monomial m."""
        m = _as_mask(support)
        return SquareFreeIdeal(self.n, minimalize_masks(g & ~m for g in self.gens))

    def scale(self, support: int | Iterable[int]) -> "SquareFreeIdeal":
        """Product m*I for a square-free monomial with support disjoint from all generators."""
        m = _as_mask(support)
        for g in self.gens:
            if g & m:
                raise ValueError("scale requires a support disjoint from every generator")
        return SquareFreeIdeal(self.n, tuple(sorted((g | m for g in self.gens), key=vertices_of)))

    # -- minimal primes / cover statistics ---------------------------------

    def minimal_primes(self) -> tuple[tuple[int, ...], ...]:
        """All minimal transversals of the generator hypergraph, sorted.

        Berge expansion: fold the generators in one at a time.  A cover
        that meets the next generator g is kept; one that misses it is
        extended by each vertex v of g, and the extension is kept only
        when every old vertex has a private generator (one that meets the
        extension in that vertex alone).  Every vertex of a kept cover
        thus has a private generator, so a cover that meets every
        generator is minimal: the last step leaves exactly the minimal
        transversals, with no pruning pass.
        """
        if self.is_zero:
            return ()
        covers = minimal_transversals(self.gens)
        return tuple(sorted((vertices_of(c) for c in covers)))

    def cover_stats(self) -> "CoverStats":
        if self.is_zero:
            return CoverStats(0, 0, True, ())
        covers = self.minimal_primes()
        if not covers:
            raise ValueError("the unit ideal has no cover statistics")
        sizes = [len(c) for c in covers]
        height, bight = min(sizes), max(sizes)
        return CoverStats(height, bight, height == bight, covers)


@dataclass(frozen=True)
class CoverStats:
    height: int
    bight: int
    unmixed: bool
    covers: tuple[tuple[int, ...], ...]


def minimal_transversals(gens: Sequence[int]) -> list[int]:
    """Minimal transversals of the hypergraph ``gens`` (see ``minimal_primes``).

    The private-generator test reads incidence rows over all generators,
    not only the ones folded in so far.  A cover it accepts early keeps
    its private generators to the end, and every minimal cover of a
    prefix is still reached, because its private generators lie in that
    prefix.
    """
    rows = incidence_rows(gens)
    covers = {0}
    for g in gens:
        nxt = set()
        for c in covers:
            if c & g:
                nxt.add(c)
                continue
            old = [rows[u] for u in iter_bits(c)]
            once = multi = 0  # generators meeting c at least once / at least twice
            for r in old:
                multi |= once & r
                once |= r
            for v in iter_bits(g):
                r = rows[v]
                exact = (once | r) & ~(multi | once & r)  # meet c + v exactly once
                # v passes: g meets c + v in v alone
                if all(r_u & exact for r_u in old):
                    nxt.add(c | bit(v))
        covers = nxt
    return list(covers)


def _not_above(kept: Sequence[int], masks: Iterable[int]) -> list[int]:
    """The masks that contain no support of ``kept``, in their order.

    A support lies inside m iff it has no vertex outside m, that is iff its
    bit is clear in the OR of the incidence rows of the vertices outside m.
    """
    vertex_rows = [(bit(v), r) for v, r in enumerate(incidence_rows(kept)) if r]
    full = (1 << len(kept)) - 1
    out = []
    for m in masks:
        outside = 0
        for b, r in vertex_rows:
            if not m & b:
                outside |= r
        if not full & ~outside:
            out.append(m)
    return out


def _prune_nonminimal(masks: Iterable[int]) -> list[int]:
    """The distinct inclusion-minimal masks, walked and kept in increasing size.

    Distinct masks of one size never contain one another, so each size is
    tested only against the masks kept from the smaller sizes: one
    incidence-row build per size.
    """
    kept: list[int] = []
    for _, level in groupby(sorted(set(masks), key=int.bit_count), key=int.bit_count):
        kept += _not_above(kept, level)
    return kept


# ---------------------------------------------------------------------------
# Ideal builders from graphs


def t_connected_ideal(g: Graph, t: int) -> SquareFreeIdeal:
    """Ideal generated by the monomials of connected t-subsets of G.

    Zero when no component of G has t vertices.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    return SquareFreeIdeal(g.n, tuple(mask_of(c) for c in connected_subsets(g, t)))


def t_clique_ideal(g: Graph, t: int) -> SquareFreeIdeal:
    """Ideal generated by the monomials of t-subsets inducing complete subgraphs."""
    if t < 2:
        raise ValueError("t must be >= 2")
    gens = []
    for c in connected_subsets(g, t):  # a clique is connected
        m = mask_of(c)
        if all(m & ~g.adj[v - 1] & ~bit(v) == 0 for v in c):
            gens.append(m)
    return SquareFreeIdeal(g.n, tuple(gens))
