"""Independent brute-force oracles, sample generators and graph constructions
for the tests.

The ``brute_*`` functions recompute results from first principles
(exhaustive enumeration over subsets), deliberately avoiding the
package's own algorithms, so the main code paths are checked against a
second route.  ``is_t_induced_matching`` (on ``nu_t``'s conflict rows)
and ``hypergraph_induced_matching`` (the hypergraph definition of nu_t)
are the second definitions the tests compare ``nu_t`` against, and
``sorted_chordal_greedy`` is its chordal greedy on sorted vertex tuples.
``neighbors``, ``degree``, ``has_edge`` and ``gens_vertices`` read a
graph or an ideal in the forms only the tests need.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable, Sequence
from math import gcd

from tconnect.bitset import bit, iter_bits, mask_of, vertices_of
from tconnect.graphs import Graph, chordality, connected_subsets, graph_from_edges, neighborhood_mask
from tconnect.matching import _conflict_rows


def brute_incidence_rows(masks):
    """``bitset.incidence_rows`` one bit at a time: row v gets bit j for each
    vertex v of masks[j]."""
    top = 0
    for m in masks:
        top |= m
    rows = [0] * (top.bit_length() + 1)
    for j, m in enumerate(masks):
        for v in iter_bits(m):
            rows[v] |= 1 << j
    return rows


def brute_minimal_transversals(gens_vertices, n):
    """All minimal hitting sets by scanning every subset of 1..n.

    Hitting is closed upwards, so a hitting set is minimal iff dropping any
    one of its vertices leaves a set that misses some generator.
    """
    gens = [frozenset(g) for g in gens_vertices]

    def hits(cs):
        return all(cs & g for g in gens)

    minimal = []
    for r in range(n + 1):
        for cand in combinations(range(1, n + 1), r):
            cs = set(cand)
            if hits(cs) and not any(hits(cs - {v}) for v in cand):
                minimal.append(cand)
    return sorted(minimal)


def brute_minimalize(masks):
    """Inclusion-minimal masks, walked and kept in increasing size, each one
    compared against every mask kept so far."""
    kept = []
    for m in sorted(masks, key=int.bit_count):
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def brute_is_t_induced_matching(g: Graph, t, blocks):
    """Definition check via explicit edge sets, from scratch."""
    blocks = [tuple(sorted(b)) for b in blocks]
    union = set()
    for b in blocks:
        if len(b) != t or len(set(b)) != t:
            return False
        if union & set(b):
            return False
        union |= set(b)
    edges = set(g.edges())
    if any(not _connected_on(edges, b) for b in blocks):
        return False
    union_edges = {e for e in edges if set(e) <= union}
    block_edges = set()
    for b in blocks:
        block_edges |= {e for e in edges if set(e) <= set(b)}
    return union_edges == block_edges


def _connected_on(edges, vs):
    vs = list(vs)
    if len(vs) <= 1:
        return True
    reach = {vs[0]}
    while True:
        grow = {v for e in edges for v in e if set(e) <= set(vs) and (set(e) & reach)}
        if grow <= reach:
            return set(vs) <= reach
        reach |= grow


def brute_connected_subsets(g: Graph, t):
    """Connected t-subsets by testing every combination, in lexicographic order."""
    edges = set(g.edges())
    return [c for c in combinations(range(1, g.n + 1), t) if _connected_on(edges, c)]


def brute_nu_t(g: Graph, t):
    """Exhaustive maximum over families of candidate blocks."""
    cands = brute_connected_subsets(g, t)
    best = 0
    for r in range(g.n // t, 0, -1):
        if r <= best:
            break
        for family in combinations(cands, r):
            if brute_is_t_induced_matching(g, t, family):
                best = r
                break
    return best


def sorted_chordal_greedy(g: Graph, t):
    """``nu_t``'s chordal greedy the long way, as (value, blocks): every
    connected t-subset as a tuple, sorted by p(C), the largest position of
    a vertex of C in ``chordality``'s perfect elimination ordering (a
    stable sort, so ties stay lexicographic), then taken when it misses
    N[C] of every block taken so far."""
    peo = chordality(g).peo
    if peo is None:
        raise ValueError("the chordal greedy needs a chordal graph")
    position = [0] * (g.n + 1)
    for i, v in enumerate(peo):
        position[v] = i
    blocked = 0
    blocks = []
    for c in sorted(connected_subsets(g, t), key=lambda c: max(map(position.__getitem__, c))):
        m = mask_of(c)
        if not m & blocked:
            blocks.append(c)
            blocked |= neighborhood_mask(g, m, closed=True)
    return len(blocks), tuple(sorted(blocks))


def is_connected_mask(g: Graph, amask: int) -> bool:
    """Whether the vertices of ``amask`` induce a connected subgraph (true when empty)."""
    if amask == 0:
        return True
    start = amask & -amask
    reached = start
    while True:
        grow = reached
        for v in iter_bits(reached):
            grow |= g.adj[v - 1] & amask
        if grow == reached:
            return reached == amask
        reached = grow


def is_t_induced_matching(g: Graph, t: int, blocks: Sequence[Iterable[int]]) -> bool:
    """Check: blocks of size t, connected, pairwise disjoint, no cross edges.

    Uses the conflict rows that ``nu_t`` branches on; a block is valid when
    its row holds no other block.
    """
    masks = []
    for b in blocks:
        m = mask_of(b)
        if m & ~g.vertex_mask:
            raise ValueError(f"block {vertices_of(m)} out of vertex range 1..{g.n}")
        masks.append(m)
    if any(m.bit_count() != t or not is_connected_mask(g, m) for m in masks):
        return False
    return all(not row & ~(1 << i) for i, row in enumerate(_conflict_rows(g, masks)))


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


def brute_hypergraph_induced_matching(edges_vertices, n):
    """Exhaustive maximum induced matching of a hypergraph."""
    edges = [frozenset(e) for e in edges_vertices]
    best = 0
    for r in range(len(edges), 0, -1):
        if r <= best:
            break
        for family in combinations(edges, r):
            union = set().union(*family)
            if sum(len(e) for e in family) != len(union):
                continue
            if any(e <= union and e not in family for e in edges):
                continue
            best = r
            break
    return best


def brute_rank(rows, p):
    """Rank of a dense integer matrix over GF(p), or over Q when p is None.

    Forward elimination: over GF(p) on residues, over Q fraction-free on
    integers (row = a*row - b*pivot), which keeps the rank over Q.
    """
    rows = [list(r) if p is None else [x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top, a = rows[rank], rows[rank][col]
        for i in range(rank + 1, len(rows)):
            b = rows[i][col]
            if b:
                if p is None:
                    row = [a * x - b * y for x, y in zip(rows[i], top)]
                    g = gcd(*row)
                    rows[i] = [x // g for x in row] if g > 1 else row
                else:
                    f = b * pow(a, p - 2, p)
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def brute_betti_table(gens_vertices, n, p):
    """Graded Betti numbers of R/I by Hochster's formula, from scratch.

    Every subset W of 1..n is evaluated (no cone skip, no collapse of
    either kind): its faces are the subsets of W containing no generator,
    and the reduced homology comes from dense ranks of the boundary maps
    over GF(p), or over Q when p is None.  Returns {(i, j): beta} with
    beta_{0,0} = 1.
    """
    return brute_betti_tables(gens_vertices, n, (p,))[p]


def brute_betti_tables(gens_vertices, n, ps):
    """``brute_betti_table`` over each GF(p) (Q for None) in ps, listing every face once."""
    gens = [frozenset(g) for g in gens_vertices]
    tables = {p: {(0, 0): 1} for p in ps}
    for j in range(1, n + 1):
        for w in combinations(range(1, n + 1), j):
            faces = [[] for _ in range(j + 1)]
            for r in range(j + 1):
                for f in combinations(w, r):
                    if not any(g <= set(f) for g in gens):
                        faces[r].append(f)
            matrices = [None] * (j + 2)
            for r in range(1, j + 1):
                if faces[r]:
                    index = {f: k for k, f in enumerate(faces[r - 1])}
                    rows = []
                    for f in faces[r]:
                        row = [0] * len(faces[r - 1])
                        for k in range(r):
                            row[index[f[:k] + f[k + 1:]]] = (-1) ** k
                        rows.append(row)
                    matrices[r] = rows
            for p, entries in tables.items():
                ranks = [0 if rows is None else brute_rank(rows, p) for rows in matrices]
                for r in range(j + 1):
                    d = len(faces[r]) - ranks[r] - ranks[r + 1]
                    if d:
                        entries[(j - r, j)] = entries.get((j - r, j), 0) + d
    return tables


def brute_non_cone_count(gens_vertices, n):
    """Number of nonempty W in which every vertex lies in a generator inside W."""
    gens = [frozenset(g) for g in gens_vertices]
    count = 0
    for j in range(1, n + 1):
        for w in combinations(range(1, n + 1), j):
            inside = [g for g in gens if g <= set(w)]
            count += set(w) == set().union(*inside)
    return count


def brute_covered(gens, w):
    """The union of the generators (bitmasks) inside W, by scanning them.

    W is a face when it is 0, and restricts to a cone when it is not W.
    """
    covered = 0
    for g in gens:
        if g & w == g:
            covered |= g
    return covered


def brute_cone_link(w, colons):
    """The bit of the lowest vertex v of W whose link in the restriction to W is
    a cone, or 0, by scanning the colon's generators at W.

    ``colons[b]`` holds the generators of (I : x_v) for v the vertex of bit b,
    or None when {v} is a generator.  The link is a cone iff the colon
    generators inside W - v do not cover W - v.
    """
    for b in range(w.bit_length()):
        v = 1 << b
        if w & v and colons[b] is not None and brute_covered(colons[b], w ^ v) != w ^ v:
            return v
    return 0


def brute_components(w, gens):
    """The vertex sets of the components of the generators (bitmasks) inside W,
    merged one generator at a time by scanning every generator."""
    comps = []
    for g in gens:
        if not g & ~w:
            rest = [c for c in comps if not c & g]
            merged = g
            for c in comps:
                if c & g:
                    merged |= c
            comps = rest + [merged]
    return comps


def list_zeta(table, op):
    """Fold each entry over its subsets in place: table[a] = op over table[s], s ⊆ a.

    Bit by bit, every a with the bit set takes op(table[a], table[a - bit]),
    by slices: one per block of such a when the blocks are long, one per
    offset inside a block when they are short.
    """
    size = len(table)
    step = 1
    while step < size:
        span = step << 1
        if step * step < size:
            for r in range(step):
                table[step + r::span] = map(op, table[step + r::span], table[r::span])
        else:
            for hi in range(step, size, span):
                table[hi:hi + step] = map(op, table[hi:hi + step], table[hi - step:hi])
        step = span
    return table


def brute_euler_table(face):
    """chi[a], the reduced Euler characteristic of the restriction to every subset a,
    as the list zeta of the signed face indicator (face[a] true when a is a face):
    a face F counts (-1)^(|F| - 1), so the empty face counts -1."""
    signed = [(1 if a.bit_count() & 1 else -1) if f else 0 for a, f in enumerate(face)]
    return list_zeta(signed, int.__add__)


def random_antichain_ideal(rng: random.Random, n: int, max_gens: int = 5):
    """A random nonzero square-free ideal given as vertex tuples."""
    from tconnect.ideals import SquareFreeIdeal

    gens = set()
    for _ in range(rng.randint(1, max_gens)):
        size = rng.randint(1, n)
        gens.add(tuple(sorted(rng.sample(range(1, n + 1), size))))
    return SquareFreeIdeal.make(n, gens)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Seeded Erdos-Renyi G(n, p)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = random.Random(seed)
    edges = [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < p]
    return graph_from_edges(n, edges)


def relabel(g: Graph, perm) -> Graph:
    """Relabel vertices: vertex v becomes ``perm[v-1]``."""
    if sorted(perm) != list(range(1, g.n + 1)):
        raise ValueError("perm must be a permutation of 1..n")
    return graph_from_edges(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges()])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; vertices of ``g2`` are shifted by ``g1.n``."""
    shift = g1.n
    edges = list(g1.edges()) + [(u + shift, v + shift) for u, v in g2.edges()]
    return graph_from_edges(g1.n + g2.n, edges)


def variables_ideal(n, vs):
    """The ideal generated by the variables x_v, v in vs."""
    from tconnect.ideals import SquareFreeIdeal

    return SquareFreeIdeal.make(n, [[v] for v in vs])


def intersect(i, j):
    """I ∩ J of two ideals in one ambient ring: the pairwise lcms, minimalized."""
    from tconnect.ideals import SquareFreeIdeal, minimalize_masks

    return SquareFreeIdeal(i.n, minimalize_masks(a | b for a in i.gens for b in j.gens))


def lcm_l_ideal(n, c, j_ideal, k_ideal):
    """The paper's L_i: <lcm(m, m') / x_{C_i} : m in J_i, m' in K_i>, minimalized."""
    from tconnect.ideals import SquareFreeIdeal

    cmask = mask_of(c)
    return SquareFreeIdeal.make(
        n, [(jm | km) & ~cmask for jm in j_ideal.gens for km in k_ideal.gens]
    )


def neighbors(g: Graph, v: int) -> tuple[int, ...]:
    return vertices_of(g.adj[v - 1])


def degree(g: Graph, v: int) -> int:
    return g.adj[v - 1].bit_count()


def has_edge(g: Graph, u: int, v: int) -> bool:
    return bool(g.adj[u - 1] & bit(v))


def gens_vertices(ideal) -> tuple[tuple[int, ...], ...]:
    """The generators of a square-free ideal as vertex tuples, in its order."""
    return tuple(vertices_of(m) for m in ideal.gens)


def neighborhood(g: Graph, c, closed=False):
    """Open neighborhood N(C) (or closed N[C]) of a vertex set, sorted."""
    cs = set(c)
    out = {u for v in cs for u in neighbors(g, v)}
    return tuple(sorted(out | cs if closed else out - cs))


def to_networkx(g: Graph):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from(g.edges())
    return h


def shift_ideal(ideal, offset, new_n):
    """Reembed an ideal with every variable shifted by ``offset``."""
    from tconnect.ideals import SquareFreeIdeal

    return SquareFreeIdeal.make(
        new_n, [tuple(v + offset for v in g) for g in gens_vertices(ideal)]
    )


def quadratic_lex_bfs_order(g: Graph) -> list[int]:
    """Lex-BFS by explicit labels, the reference for ``graphs.lex_bfs_order``:
    each step takes the unvisited vertex of largest label (a list of the
    decreasing stamps of its visited neighbours), ties to the smallest."""
    labels: dict[int, list[int]] = {v: [] for v in g.vertices()}
    unvisited = set(g.vertices())
    order = []
    for step in range(g.n):
        v = max(unvisited, key=lambda u: (labels[u], -u))
        unvisited.discard(v)
        order.append(v)
        stamp = g.n - step
        for u in iter_bits(g.adj[v - 1]):
            if u in unvisited:
                labels[u].append(stamp)
    return order
