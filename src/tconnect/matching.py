"""Exact t-induced matching numbers.

``nu_t`` packs disjoint connected t-sets of a graph with no edges
between distinct blocks, by branch-and-bound over a conflict graph.  The
conflict relation is built from vertex incidences: the row of a t-set C
costs one OR of k-bit rows per vertex of N[C], not a walk over subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .bitset import incidence_rows, iter_bits, mask_of, vertices_of
from .graphs import Graph, connected_subsets, neighborhood_mask


class SearchSpaceError(RuntimeError):
    """The candidate set exceeds the configured cap."""


DEFAULT_CANDIDATE_CAP = 50_000


@dataclass(frozen=True)
class MatchingResult:
    value: int
    blocks: tuple[tuple[int, ...], ...]


def _conflict_rows(g: Graph, masks: Sequence[int]) -> Iterator[int]:
    """Row i has bit j set when masks[j] meets N[masks[i]]; bit i included."""
    containing = incidence_rows(masks)
    support = (1 << (len(containing) - 1)) - 1  # the vertices that have a row
    for m in masks:
        row = 0
        for v in iter_bits(neighborhood_mask(g, m, closed=True) & support):
            row |= containing[v]
        yield row


def nu_t(g: Graph, t: int, cap: int = DEFAULT_CANDIDATE_CAP) -> MatchingResult:
    """Maximum t-induced matching of G with a witnessing family.

    Candidates are the connected t-subsets; two conflict when they
    intersect or a graph edge joins them.  Conflict rows come from vertex
    incidences (one OR of k-bit rows per vertex of N[C], k candidates), and
    the largest conflict-free family is found by branch-and-bound seeded
    with a greedy packing.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    cands = [mask_of(c) for c in connected_subsets(g, t)]
    if len(cands) > cap:
        raise SearchSpaceError(
            f"{len(cands)} connected {t}-subsets exceed the cap of {cap}"
        )
    if not cands:
        return MatchingResult(0, ())

    degree = {m: row.bit_count() - 1 for m, row in zip(cands, _conflict_rows(g, cands))}
    # Branch in descending conflict degree; ties resolved lexicographically.
    order = sorted(cands, key=lambda m: (-degree[m], vertices_of(m)))
    full = (1 << len(order)) - 1
    compat = [full & ~row for row in _conflict_rows(g, order)]

    remaining = full
    chosen: list[int] = []
    while remaining:  # greedy seed, least-conflicted candidates first
        i = remaining.bit_length() - 1
        chosen.append(i)
        remaining &= compat[i] & ((1 << i) - 1)
    best_val, best_set = len(chosen), chosen

    def search(chosen: list[int], remaining: int) -> None:
        nonlocal best_val, best_set
        while remaining:
            if len(chosen) + remaining.bit_count() <= best_val:
                return
            low = remaining & -remaining
            i = low.bit_length() - 1
            search(chosen + [i], remaining & compat[i])
            remaining ^= low
        if len(chosen) > best_val:
            best_val, best_set = len(chosen), list(chosen)

    if best_val < len(order):
        search([], full)
    blocks = sorted(vertices_of(order[i]) for i in best_set)
    return MatchingResult(best_val, tuple(blocks))
