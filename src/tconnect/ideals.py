"""Exact arithmetic on square-free monomial ideals.

A square-free monomial is identified with its support, stored as a
bitmask over variables 1..n.  An ideal is its unique minimal generating
set: an antichain of supports, kept in ascending integer order so that
equal ideals compare equal structurally (the constructor rejects any
other order).  The zero ideal has no generators.

Minimal primes are the minimal vertex covers (transversals) of the
generator hypergraph; height/big height/unmixedness derive from them
(``cover_stats``).  ``harness.predict`` lists the covers only off chordal
graphs, or over the bag-choice cap: on a chordal graph the covers are
the complements of the facets of Ind_t(G), and it takes the smallest and
largest facet from ``graphs.independence_extremes``.
Both the covers and the antichains are computed from per-vertex
incidence bitsets (``bitset.incidence_rows``, one transpose of the
generator masks with no per-bit loop), never by comparing a set against
every kept one:

- the covers come from a depth-first search (Murakami and Uno's MMCS)
  that grows one cover at a time and extends it by a vertex only when
  each of its vertices keeps a private generator, so every minimal
  transversal is reached exactly once and no list of partial covers is
  kept; the covers stay masks (``CoverStats.masks``), and only
  ``CoverStats.covers`` turns them into vertex tuples;
- the supports that contain a kept support k are the AND of the rows of
  k's vertices, the rows built over the supports tested: one AND per
  vertex of each kept support, whatever the number of supports (they are
  walked by size and tested against the smaller kept ones).
  An ideal built from supports and a sum (the union of both antichains)
  are minimalised this way.
  Intersecting with a monomial prime <x_v : v in P> needs less: a
  generator meeting P stays, and one avoiding P times x_w (w in P) is
  dropped only when it contains a kept generator meeting P in w alone,
  one test per w on one transpose of the generators avoiding P
  (``intersect_variables``);
- the rows of I's own generators are transposed once per ideal and kept
  on it (``SquareFreeIdeal.incidence``).  The generators that contain a
  support are the AND of its vertices' rows (``containing``), and those
  that meet it the OR (``meeting``), so the peeling ledger drops the
  generators above C_i and finds those avoiding a vertex set without a
  scan of the generators;
- a colon (I : m) never builds the stripped masks g - m: it walks those
  rows, with the generators meeting m and the sizes of their g - m as
  bit-sliced index sets (``SquareFreeIdeal.colon_within``).  So the n
  colons (I : x_v) of the homology tables share one transpose, and the
  peeling ledger takes every (K_i : x_C) on the rows of the full ideal,
  over the indices K_i keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby, islice
from operator import lt
from typing import Iterable, Sequence

from .bitset import bit, incidence_rows, iter_bits, mask_of, select, size_levels, vertices_of
from .graphs import Graph, connected_masks


def _as_mask(support: int | Iterable[int]) -> int:
    if isinstance(support, int):
        return support
    return mask_of(support)


def minimalize_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """Inclusion-minimal antichain of the given supports, in ascending order."""
    return tuple(sorted(_prune_nonminimal(masks)))


@dataclass(frozen=True)
class SquareFreeIdeal:
    n: int
    gens: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(map(lt, self.gens, islice(self.gens, 1, None))):
            raise ValueError("generators must be distinct and in ascending order")

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

    def add(self, other: "SquareFreeIdeal") -> "SquareFreeIdeal":
        """Sum of two ideals: the minimal supports of both generating sets."""
        if self.n != other.n:
            raise ValueError(f"ambient mismatch: {self.n} vs {other.n}")
        return SquareFreeIdeal(self.n, minimalize_masks(self.gens + other.gens))

    def intersect_variables(self, support: int | Iterable[int]) -> "SquareFreeIdeal":
        """I ∩ <x_v : v in support>, with no generic prune.

        Let G be the generators of I and P the support.  The lcms of G with
        the variables of P are S1 = {g in G : g meets P} and g | x_w for g
        in G avoiding P and w in P.  No proper containment holds among them
        except an h of S1 inside some g | x_w:
        - S1 lies in the antichain G, and no h in S1 lies above a g | x_w,
          for h would then lie above g, and h != g as h meets P;
        - g | x_w inside g' | x_w' forces w = w', since g' avoids P, and
          then g inside g', so g = g'.
        So g | x_w is redundant only when some h of S1 meets P in w alone
        and h - w lies in g.  The generators avoiding P are transposed once
        (``bitset.incidence_rows``); for each w, those lying above a stripped
        h - w are the AND of its vertices' rows, and the union needs no
        further prune.
        """
        p = _as_mask(support)
        meets = [g for g in self.gens if g & p]
        avoids = [g for g in self.gens if not g & p]
        out = list(meets)
        rows = incidence_rows(avoids)
        every = (1 << len(avoids)) - 1
        for w in iter_bits(p):
            b = bit(w)
            above = 0
            for h in meets:
                if h & p == b:
                    above |= _containing(rows, every, h ^ b)
            out += [g | b for g in select(avoids, every & ~above)]
        return SquareFreeIdeal(self.n, tuple(sorted(out)))

    @cached_property
    def incidence(self) -> list[int]:
        """The generators' incidence rows (``bitset.incidence_rows``), built on first use."""
        return incidence_rows(self.gens)

    def containing(self, support: int) -> int:
        """The index set of the generators that contain ``support``: the AND of
        its vertices' rows (every index when ``support`` is 0)."""
        return _containing(self.incidence, (1 << len(self.gens)) - 1, support)

    def meeting(self, support: int) -> int:
        """The index set of the generators that meet ``support``: the OR of
        its vertices' rows (none when ``support`` is 0)."""
        rows = self.incidence
        support &= (1 << len(rows) - 1) - 1  # a vertex past the rows is in no generator
        out = 0
        while support:
            low = support & -support
            out |= rows[low.bit_length()]
            support ^= low
        return out

    def colon(self, support: int | Iterable[int]) -> "SquareFreeIdeal":
        """Quotient (I : m) for a square-free monomial m: ``colon_within`` on
        every generator, so it relies on the generators being an antichain."""
        return self.colon_within((1 << len(self.gens)) - 1, support)

    def colon_within(self, live: int, support: int | Iterable[int]) -> "SquareFreeIdeal":
        """(I' : m) for I' generated by the generators at the indices in ``live``.

        (I' : m) is generated by the minimal supports g - m.  It relies on the
        generators being an antichain, and walks their incidence rows, never
        the stripped masks:
        - the generators meeting m are ``meeting(m)``, the OR of the rows of
          m's vertices;
        - the size of each of their g - m is a bit-sliced count of the rows
          of the vertices outside m (``bitset.size_levels``), so each size
          is one index set;
        - from the smallest size up, the lowest index not yet marked gives a
          minimal g - m = h, and every index whose generator holds h is
          marked (the AND of h's rows): its g' - m contains h, duplicates
          of h included;
        - a generator avoiding m is kept unless marked: it lies under no
          g - m, for then it would lie under g, and g != it as g meets m.
        So only the kept supports are looped over.  h = 0 (m swallows a
        generator) marks every index and leaves the unit ideal.
        """
        m = _as_mask(support)
        gens, rows = self.gens, self.incidence
        meet = self.meeting(m) & live
        kept: list[int] = []
        marked = 0
        if meet:
            held = [rows[v] for v in range(1, len(rows))
                    if rows[v] & meet and not m >> (v - 1) & 1]
            for level in size_levels(held, meet):
                level &= ~marked
                while level:
                    h = gens[(level & -level).bit_length() - 1] & ~m
                    kept.append(h)
                    above = _containing(rows, live, h)
                    marked |= above
                    level &= ~above
        kept += select(gens, live & ~meet & ~marked)
        return SquareFreeIdeal(self.n, tuple(sorted(kept)))

    def scale(self, support: int | Iterable[int]) -> "SquareFreeIdeal":
        """Product m*I for a square-free monomial with support disjoint from all generators."""
        m = _as_mask(support)
        for g in self.gens:
            if g & m:
                raise ValueError("scale requires a support disjoint from every generator")
        # adding the same disjoint bits to every mask keeps their order
        return SquareFreeIdeal(self.n, tuple(g | m for g in self.gens))

    # -- minimal covers / cover statistics ----------------------------------

    def cover_stats(self) -> "CoverStats":
        if self.is_zero:
            return CoverStats(0, 0, True, ())
        covers, nodes = minimal_transversals(self.gens)
        if not covers:
            raise ValueError("the unit ideal has no cover statistics")
        sizes = [c.bit_count() for c in covers]
        height, bight = min(sizes), max(sizes)
        return CoverStats(height, bight, height == bight, tuple(sorted(covers)), nodes)


@dataclass(frozen=True)
class CoverStats:
    """Height, big height and unmixedness from the minimal covers.

    The zero ideal has no covers here by convention; the unit ideal has
    none because no cover meets its empty generator, and is rejected.
    """

    height: int
    bight: int
    unmixed: bool
    masks: tuple[int, ...]  # the minimal covers, ascending
    nodes: int = field(default=0, compare=False)  # search nodes of minimal_transversals

    @property
    def covers(self) -> tuple[tuple[int, ...], ...]:
        """The minimal covers (minimal primes) as sorted vertex tuples."""
        return tuple(sorted(map(vertices_of, self.masks)))


def minimal_transversals(gens: Sequence[int]) -> tuple[list[int], int]:
    """The minimal transversals of the hypergraph ``gens`` as masks, and the
    number of search nodes visited.

    Depth-first MMCS (Murakami and Uno, Discrete Appl. Math. 2014).  A
    node holds a cover S, for each u in S its ``crit`` bitset (the
    generators that meet S in u alone), the candidate vertices and the
    generators S does not meet yet.  It branches on the lowest uncovered
    generator F: F's candidate vertices leave the candidates, and the
    i-th of them is tried with the earlier ones put back, so no cover is
    reached twice.  S + v is kept only when every u in S keeps a crit
    generator (each crit ANDed with the complement of v's incidence row,
    taken once per vertex), so every node's S is minimal for what it
    covers, and a node that meets every generator is a minimal
    transversal.  The search runs on an explicit stack, so its depth is
    not bounded by Python's recursion limit.  A generator 0 (the unit
    ideal) has no vertex to branch on, so it yields no cover.
    """
    rows = incidence_rows(gens)
    missing = [~r for r in rows]  # the generators avoiding each vertex
    covers = []
    nodes = 0
    every = (1 << (len(rows) - 1)) - 1  # vertices 1 .. the largest in a generator
    stack = [(0, [], (1 << len(gens)) - 1, every)]
    while stack:
        cover, crits, uncovered, cand = stack.pop()
        nodes += 1
        if not uncovered:
            covers.append(cover)
            continue
        branch = cand & gens[(uncovered & -uncovered).bit_length() - 1]
        rest = cand & ~branch
        todo = branch
        while todo:
            low = todo & -todo
            todo ^= low
            v = low.bit_length()
            avoid = missing[v]
            kept = [c & avoid for c in crits]
            if all(kept):
                kept.append(uncovered & rows[v])
                stack.append((cover | low, kept, uncovered & avoid, rest | branch & (low - 1)))
    return covers, nodes


def _not_above(kept: Sequence[int], masks: Sequence[int]) -> list[int]:
    """The masks that contain no support of ``kept``, in their order.

    The masks that contain a support k are the AND of the incidence rows of
    k's vertices, built once over ``masks`` (all of them when k = 0); so the
    work per mask is one byte string in the transpose, not a loop.
    """
    if not kept:
        return list(masks)
    rows = incidence_rows(masks)
    full = (1 << len(masks)) - 1
    above = 0
    for k in kept:
        above |= _containing(rows, full, k)
    return select(masks, full & ~above)


def _containing(rows: Sequence[int], live: int, support: int) -> int:
    """The indices of ``live`` whose mask contains ``support``: the AND of the
    rows of its vertices (none when a vertex lies past the rows)."""
    top = len(rows)
    for v in iter_bits(support):
        if v >= top:
            return 0
        live &= rows[v]
    return live


def _prune_nonminimal(masks: Iterable[int]) -> list[int]:
    """The distinct inclusion-minimal masks, walked and kept in increasing size.

    Distinct masks of one size never contain one another, so each size is
    tested only against the masks kept from the smaller sizes: one
    incidence-row build per size.
    """
    kept: list[int] = []
    for _, level in groupby(sorted(set(masks), key=int.bit_count), key=int.bit_count):
        kept += _not_above(kept, list(level))
    return kept


# ---------------------------------------------------------------------------
# Ideal builders from graphs


def t_connected_ideal(g: Graph, t: int) -> SquareFreeIdeal:
    """Ideal generated by the monomials of connected t-subsets of G.

    Zero when no component of G has t vertices.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    return SquareFreeIdeal(g.n, tuple(sorted(connected_masks(g, t))))


def t_clique_ideal(g: Graph, t: int) -> SquareFreeIdeal:
    """Ideal generated by the monomials of t-subsets inducing complete subgraphs."""
    if t < 2:
        raise ValueError("t must be >= 2")
    gens = [m for m in connected_masks(g, t)  # a clique is connected
            if all(m & ~g.adj[v - 1] & ~bit(v) == 0 for v in iter_bits(m))]
    return SquareFreeIdeal(g.n, tuple(sorted(gens)))
