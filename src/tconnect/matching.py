"""Exact t-induced matching numbers.

Two routes, matching the two definitions: ``nu_t`` packs disjoint
connected t-sets of a graph with no edges between distinct blocks
(branch-and-bound over a conflict graph), while
``hypergraph_induced_matching`` packs disjoint hyperedges whose union
contains no further hyperedge (depth-first search with containment
pruning).  Both are exact; the test suite checks they agree on the
hypergraph of connected t-subsets.  Both graph-side functions share one
conflict relation built from vertex incidences: the row of a t-set C
costs one OR of k-bit rows per vertex of N[C], not a walk over subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .bitset import incidence_rows, iter_bits, mask_of, vertices_of
from .graphs import Graph, connected_subsets, is_connected_mask, neighborhood_mask


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


def is_t_induced_matching(g: Graph, t: int, blocks: Sequence[Iterable[int]]) -> bool:
    """Check: blocks of size t, connected, pairwise disjoint, no cross edges."""
    masks = []
    for b in blocks:
        m = mask_of(b)
        if m & ~g.vertex_mask:
            raise ValueError(f"block {vertices_of(m)} out of vertex range 1..{g.n}")
        masks.append(m)
    if any(m.bit_count() != t or not is_connected_mask(g, m) for m in masks):
        return False
    return all(not row & ~(1 << i) for i, row in enumerate(_conflict_rows(g, masks)))


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


def hypergraph_induced_matching(
    edges: Sequence[Iterable[int]], n: int
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Maximum induced matching of a hypergraph, with witness.

    A valid family consists of pairwise-disjoint edges whose union
    contains no edge outside the family.  Violations cannot be repaired
    by growing the family, so the search prunes as soon as a foreign
    edge lands inside the running union.
    """
    masks = sorted({mask_of(e) for e in edges}, key=vertices_of)
    if len(masks) != len(edges):
        raise ValueError("edges must be distinct")
    if any(m == 0 for m in masks):
        raise ValueError("edges must be nonempty")
    by_size: dict[int, list[int]] = {}
    for m in masks:
        by_size.setdefault(m.bit_count(), []).append(m)
    for s1, group1 in by_size.items():
        for s2, group2 in by_size.items():
            if s1 < s2 and any(a & b == a for a in group1 for b in group2):
                raise ValueError("edges must form an antichain")
    if not masks:
        return 0, ()
    min_size = min(by_size)

    best_val = 0
    best: tuple[int, ...] = ()

    def extend(start: int, chosen: list[int], chosen_set: set[int], union: int) -> None:
        nonlocal best_val, best
        if len(chosen) > best_val:
            best_val, best = len(chosen), tuple(chosen)
        if len(chosen) + (n - union.bit_count()) // min_size <= best_val:
            return
        for idx in range(start, len(masks)):
            e = masks[idx]
            if e & union:
                continue
            union2 = union | e
            if any(f & ~union2 == 0 and f != e and f not in chosen_set for f in masks):
                continue
            chosen.append(e)
            chosen_set.add(e)
            extend(idx + 1, chosen, chosen_set, union2)
            chosen_set.discard(e)
            chosen.pop()

    extend(0, [], set(), 0)
    return best_val, tuple(vertices_of(m) for m in best)
