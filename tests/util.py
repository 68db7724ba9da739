"""Independent brute-force oracles, sample generators and graph constructions
for the tests.

Everything here recomputes results from first principles (exhaustive
enumeration over subsets), deliberately avoiding the package's own
algorithms, so the main code paths are checked against a second route.
"""

from __future__ import annotations

import random
from itertools import combinations

from tconnect.bitset import mask_of
from tconnect.graphs import Graph, graph_from_edges


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


def lcm_l_ideal(n, c, j_ideal, k_ideal):
    """The paper's L_i: <lcm(m, m') / x_{C_i} : m in J_i, m' in K_i>, minimalized."""
    from tconnect.ideals import SquareFreeIdeal

    cmask = mask_of(c)
    return SquareFreeIdeal.make(
        n, [(jm | km) & ~cmask for jm in j_ideal.gens for km in k_ideal.gens]
    )


def neighborhood(g: Graph, c, closed=False):
    """Open neighborhood N(C) (or closed N[C]) of a vertex set, sorted."""
    cs = set(c)
    out = {u for v in cs for u in g.neighbors(v)}
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
        new_n, [tuple(v + offset for v in g) for g in ideal.gens_vertices()]
    )
