"""Exact arithmetic on square-free monomial ideals.

A square-free monomial is identified with its support, stored as a
bitmask over variables 1..n.  An ideal is its unique minimal generating
set: an antichain of supports, kept in ascending integer order so that
equal ideals compare equal structurally (the constructor rejects any
other order).  The zero ideal has no generators.

Minimal primes are the minimal vertex covers (transversals) of the
generator hypergraph; height/big height/unmixedness derive from them.
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
  Every ideal is minimalised this way: one built from supports, a sum
  (the union of both antichains), an intersection (the pairwise lcms)
  and a colon.  Intersecting with a monomial prime <x_v : v in P> needs
  less: a generator meeting P stays, and one avoiding P times x_w (w in
  P) is dropped only when it contains a kept generator meeting P in w
  alone, one test per w (``intersect_variables``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby, islice
from operator import lt
from typing import Iterable, Sequence

from .bitset import bit, incidence_rows, iter_bits, mask_of, vertices_of
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

    def _check_ambient(self, other: "SquareFreeIdeal") -> None:
        if self.n != other.n:
            raise ValueError(f"ambient mismatch: {self.n} vs {other.n}")

    def add(self, other: "SquareFreeIdeal") -> "SquareFreeIdeal":
        """Sum of two ideals: the minimal supports of both generating sets."""
        self._check_ambient(other)
        return SquareFreeIdeal(self.n, minimalize_masks(self.gens + other.gens))

    def intersect(self, other: "SquareFreeIdeal") -> "SquareFreeIdeal":
        self._check_ambient(other)
        lcms = [a | b for a in self.gens for b in other.gens]
        return SquareFreeIdeal(self.n, minimalize_masks(lcms))

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
        and h - w lies in g: one ``_not_above`` per w, against the stripped
        h of that w, and the union needs no further prune.
        """
        p = _as_mask(support)
        meets = [g for g in self.gens if g & p]
        avoids = [g for g in self.gens if not g & p]
        out = list(meets)
        for w in iter_bits(p):
            b = bit(w)
            stripped = [h ^ b for h in meets if h & p == b]
            out += [g | b for g in _not_above(stripped, avoids)]
        return SquareFreeIdeal(self.n, tuple(sorted(out)))

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
    top = len(rows)
    full = (1 << len(masks)) - 1
    above = 0
    for k in kept:
        inside = full
        for v in iter_bits(k):
            inside &= rows[v] if v < top else 0
        above |= inside
    # bit j of ``above`` is digit j from the right of its binary string
    return [m for m, a in zip(masks, format(above, f"0{len(masks)}b")[::-1]) if a == "0"]


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
