"""Exact arithmetic on square-free monomial ideals.

A square-free monomial is identified with its support, stored as a
bitmask over variables 1..n.  An ideal is its unique minimal generating
set: an antichain of supports, kept sorted by vertex tuple so that equal
ideals compare equal structurally.  The zero ideal has no generators.

Minimal primes are the minimal vertex covers (transversals) of the
generator hypergraph; height/big height/unmixedness derive from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .bitset import bit, iter_bits, mask_of, vertices_of
from .graphs import Graph, connected_subsets


def _as_mask(support: int | Iterable[int]) -> int:
    if isinstance(support, int):
        return support
    return mask_of(support)


def minimalize_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """Inclusion-minimal antichain of the given supports, canonically sorted."""
    return tuple(sorted(_prune_nonminimal(set(masks)), key=vertices_of))


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

    def gens_vertices(self) -> tuple[tuple[int, ...], ...]:
        return tuple(vertices_of(m) for m in self.gens)

    def _check_ambient(self, other: "SquareFreeIdeal") -> None:
        if self.n != other.n:
            raise ValueError(f"ambient mismatch: {self.n} vs {other.n}")

    def add(self, other: "SquareFreeIdeal") -> "SquareFreeIdeal":
        self._check_ambient(other)
        return SquareFreeIdeal(self.n, minimalize_masks(self.gens + other.gens))

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

        Incremental Berge expansion: fold generators in one at a time,
        extending the running cover set and pruning non-minimal covers
        after every step.
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

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.n, "gens": [list(v) for v in self.gens_vertices()]}

    @staticmethod
    def from_json_dict(data: dict) -> "SquareFreeIdeal":
        return SquareFreeIdeal.make(data["n"], data["gens"])


@dataclass(frozen=True)
class CoverStats:
    height: int
    bight: int
    unmixed: bool
    covers: tuple[tuple[int, ...], ...]


def minimal_transversals(gens: Sequence[int]) -> list[int]:
    covers = [0]
    for g in gens:
        nxt = set()
        for c in covers:
            if c & g:
                nxt.add(c)
            else:
                for v in iter_bits(g):
                    nxt.add(c | bit(v))
        covers = _prune_nonminimal(nxt)
    return covers


def _prune_nonminimal(masks: Iterable[int]) -> list[int]:
    kept: list[int] = []
    for m in sorted(masks, key=int.bit_count):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def minimalize(gens: Iterable[int | Iterable[int]], n: int) -> SquareFreeIdeal:
    """Canonicalize a generator list into a SquareFreeIdeal."""
    return SquareFreeIdeal.make(n, gens)


def variables_ideal(n: int, vs: Iterable[int]) -> SquareFreeIdeal:
    return SquareFreeIdeal.make(n, [[v] for v in vs])


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
    for c in combinations(range(1, g.n + 1), t):
        m = mask_of(c)
        if all(m & ~g.adj[v - 1] & ~bit(v) == 0 for v in c):
            gens.append(m)
    return SquareFreeIdeal(g.n, tuple(gens))
