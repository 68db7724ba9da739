"""Exact t-induced matching numbers.

``nu_t`` packs disjoint connected t-sets of a graph with no edges
between distinct blocks: candidates C and D conflict when D meets N[C].

On a chordal graph a greedy is exact.  Let p(C) be the largest position
of a vertex of C in the perfect elimination ordering that ``chordality``
returns.  The candidates are walked by ascending p(C), ties in
lexicographic order of their vertex tuples, and each one that misses
N[C] of every block taken so far is taken; ``_chordal_greedy`` walks
them on their masks and incidence rows, with no sort.  Why this is
exact: in a clique tree of G each connected set is a subtree, and D
meets N[C] exactly when their subtrees meet.  So the conflict graph is a
subtree-intersection graph, which is chordal (Gavril, JCTB 1974), and a
greedy along its elimination order finds a maximum independent set
(Gavril, SIAM J. Comput. 1972; for t = 2 this is Cameron's induced
matchings, DAM 1989).  Directly: let u be the vertex of C at position
p(C) and K the clique of u and its later neighbours.  Take D in conflict
with C and p(D) >= p(C).  C + D is connected, and a shortest path inside
it from u to another vertex at a position >= p(C) has only earlier
vertices inside, so its far end is adjacent to u; that end lies in D.
So every such D meets K, any two of them conflict, and C can replace the
one an optimum holds.

Other graphs are searched by branch and bound over a conflict graph
built from vertex incidences: the row of a t-set C costs one OR of k-bit
rows per vertex of N[C], not a walk over subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .bitset import incidence_rows, iter_bits, mask_of, vertices_of
from .graphs import Graph, chordality, connected_masks, connected_subsets, neighborhood_mask


@dataclass(frozen=True)
class MatchingResult:
    value: int
    blocks: tuple[tuple[int, ...], ...]
    method: str = field(compare=False)  # "chordal-greedy" or "branch-and-bound"
    candidates: int = field(compare=False)  # connected t-subsets considered


def _conflict_rows(g: Graph, masks: Sequence[int]) -> Iterator[int]:
    """Row i has bit j set when masks[j] meets N[masks[i]]; bit i included."""
    containing = incidence_rows(masks)
    support = (1 << (len(containing) - 1)) - 1  # the vertices that have a row
    for m in masks:
        row = 0
        for v in iter_bits(neighborhood_mask(g, m, closed=True) & support):
            row |= containing[v]
        yield row


def nu_t(g: Graph, t: int) -> MatchingResult:
    """Maximum t-induced matching of G with a witnessing family.

    Candidates are the connected t-subsets, at most ``CANDIDATE_CAP`` of
    them (``connected_masks`` raises ``SearchSpaceError`` past it); two
    conflict when they intersect or a graph edge joins them.  A chordal G takes the greedy
    of the module docstring, any other G branch and bound.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    peo = chordality(g).peo
    if peo is None:
        return _branch_and_bound(g, connected_subsets(g, t))
    return _chordal_greedy(g, peo, connected_masks(g, t))


def _chordal_greedy(g: Graph, peo: Sequence[int], masks: Sequence[int]) -> MatchingResult:
    """The greedy of the module docstring, on the candidates' incidence rows.

    The candidates with p(C) = i contain u = peo[i] and no later vertex,
    one AND of rows each.  Every one of them holds u, so the greedy takes
    at most one: the lexicographically first that misses N[C] of every
    block taken so far.  Among equal-size sets that is the one left after
    keeping, vertex by vertex in ascending order, those that contain it
    whenever any does.  No candidate is sorted or turned into a tuple.
    """
    rows = incidence_rows(masks)
    top = len(rows)
    row = lambda v: rows[v] if v < top else 0  # a vertex in no candidate
    later = 0
    by_position = []
    for u in reversed(peo):
        by_position.append(row(u) & ~later)
        later |= row(u)
    blocked = hit = 0  # N[C] of every block taken, and the candidates meeting it
    blocks = []
    for free in reversed(by_position):
        free &= ~hit
        if not free:
            continue
        v = 1
        while free & (free - 1):
            free = free & row(v) or free
            v += 1
        m = masks[free.bit_length() - 1]
        blocks.append(vertices_of(m))
        fresh = neighborhood_mask(g, m, closed=True) & ~blocked
        blocked |= fresh
        for w in iter_bits(fresh):
            hit |= row(w)
    return MatchingResult(len(blocks), tuple(sorted(blocks)), "chordal-greedy", len(masks))


def _branch_and_bound(g: Graph, subsets: Sequence[tuple[int, ...]]) -> MatchingResult:
    """The largest conflict-free family of ``subsets``, on any graph.

    Conflict rows come from vertex incidences (one OR of k-bit rows per
    vertex of N[C], k candidates), and the search is seeded with a greedy
    packing.
    """
    if not subsets:
        return MatchingResult(0, (), "branch-and-bound", 0)
    cands = [mask_of(c) for c in subsets]
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
    return MatchingResult(best_val, tuple(blocks), "branch-and-bound", len(subsets))
