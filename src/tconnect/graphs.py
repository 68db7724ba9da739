"""Finite simple graphs on vertex set 1..n with bitset adjacency.

Provides parsing/formatting of the edge-list text format, named fixtures,
neighborhoods, induced subgraphs, connectivity, connected t-subset
enumeration (grown along neighbors from single vertices, so its cost
follows the output rather than C(n, t); the result is sorted, and more
than ``CANDIDATE_CAP`` t-sets raise ``SearchSpaceError`` before any use),
chordality certificates (Lex-BFS + perfect elimination check),
simplicial vertices, and a seeded random chordal generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .bitset import bit, iter_bits, vertices_of


class GraphParseError(ValueError):
    """Malformed edge-list document; the message names the offending line."""


class SearchSpaceError(RuntimeError):
    """More connected t-subsets than ``CANDIDATE_CAP``."""


CANDIDATE_CAP = 50_000


@dataclass(frozen=True)
class Graph:
    """Simple graph: ``adj[v-1]`` is the neighbor bitmask of vertex v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v in range(1, self.n + 1):
            row = self.adj[v - 1]
            if row & ~full:
                raise ValueError(f"neighbor of vertex {v} out of range")
            if row & bit(v):
                raise ValueError(f"self-loop at vertex {v}")
            for u in iter_bits(row):
                if not self.adj[u - 1] & bit(v):
                    raise ValueError(f"adjacency not symmetric at {{{u},{v}}}")

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for v in range(1, self.n + 1):
            for u in iter_bits(self.adj[v - 1]):
                if u > v:
                    out.append((v, u))
        return tuple(out)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    adj = [0] * n
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge {{{u},{v}}} out of range 1..{n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        adj[u - 1] |= bit(v)
        adj[v - 1] |= bit(u)
    return Graph(n, tuple(adj))


# ---------------------------------------------------------------------------
# Edge-list text format


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format.

    Lines beginning with ``#`` are comments; blank lines are skipped.  The
    first remaining line is the vertex count n; every later non-empty line
    is ``u v`` with 1 <= u < v <= n.  Duplicate edges collapse; self-loops
    and out-of-range endpoints are errors that name the line number.
    """
    n: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.startswith("#"):
            continue
        line = raw.strip()
        if not line:
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise GraphParseError(f"line {lineno}: expected vertex count, got {raw!r}")
            if n < 0:
                raise GraphParseError(f"line {lineno}: vertex count must be nonnegative")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer endpoint in {raw!r}")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop at vertex {u}")
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphParseError(f"line {lineno}: vertex out of range 1..{n}")
        if u > v:
            raise GraphParseError(f"line {lineno}: endpoints must satisfy u < v")
        edges.append((u, v))
    if n is None:
        raise GraphParseError("line 1: missing vertex count")
    return graph_from_edges(n, edges)


def format_graph(g: Graph) -> str:
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Fixtures

# 14-vertex chordal fixture; vertex i plays the role of x_i.
FIG1_N = 14
FIG1_EDGES: tuple[tuple[int, int], ...] = (
    (1, 2), (2, 4), (3, 4), (1, 3), (1, 4), (2, 3), (3, 5), (4, 5),
    (5, 6), (6, 7), (7, 8), (6, 8), (7, 9), (8, 9), (9, 10), (10, 11),
    (11, 12), (12, 13), (13, 14), (11, 14), (11, 13), (12, 14), (4, 6), (3, 6),
)


def fixture(name: str, *params: int) -> Graph:
    """Build a named fixture graph.

    Known names: ``fig1``, ``cycle(n)``, ``path(n)``, ``complete(n)``,
    ``complete_minus_edge(n)`` (drops {1,2}), ``clique_star(t, r)``
    (r+1 copies of K_t pairwise sharing exactly vertex 1).
    """
    if name == "fig1":
        if params:
            raise ValueError("fig1 takes no parameters")
        return graph_from_edges(FIG1_N, FIG1_EDGES)
    if name == "cycle":
        (n,) = _need_params(name, params, 1)
        if n < 3:
            raise ValueError("cycle needs n >= 3")
        edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
        return graph_from_edges(n, edges)
    if name == "path":
        (n,) = _need_params(name, params, 1)
        if n < 1:
            raise ValueError("path needs n >= 1")
        return graph_from_edges(n, [(i, i + 1) for i in range(1, n)])
    if name == "complete":
        (n,) = _need_params(name, params, 1)
        if n < 1:
            raise ValueError("complete needs n >= 1")
        return graph_from_edges(n, combinations(range(1, n + 1), 2))
    if name == "complete_minus_edge":
        (n,) = _need_params(name, params, 1)
        if n < 2:
            raise ValueError("complete_minus_edge needs n >= 2")
        edges = [e for e in combinations(range(1, n + 1), 2) if e != (1, 2)]
        return graph_from_edges(n, edges)
    if name == "clique_star":
        t, r = _need_params(name, params, 2)
        if t < 2 or r < 0:
            raise ValueError("clique_star needs t >= 2 and r >= 0")
        n = 1 + (t - 1) * (r + 1)
        edges = []
        for i in range(r + 1):
            block = [1] + list(range(2 + (t - 1) * i, 2 + (t - 1) * (i + 1)))
            edges.extend(combinations(block, 2))
        return graph_from_edges(n, edges)
    raise ValueError(f"unknown fixture {name!r}")


def _need_params(name: str, params: tuple[int, ...], count: int) -> tuple[int, ...]:
    if len(params) != count:
        raise ValueError(f"{name} takes exactly {count} parameter(s), got {len(params)}")
    return params


# ---------------------------------------------------------------------------
# Neighborhoods, induced subgraphs, connectivity


def neighborhood_mask(g: Graph, cmask: int, closed: bool = False) -> int:
    m = 0
    for v in iter_bits(cmask):
        m |= g.adj[v - 1]
    return m | cmask if closed else m & ~cmask


def induced_subgraph(g: Graph, w: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on ``w`` with vertices renumbered 1..|w|.

    Returns ``(h, old)`` where new vertex i corresponds to old vertex
    ``old[i-1]`` (ascending).
    """
    wmask = 0
    for v in w:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} out of range 1..{g.n}")
        wmask |= bit(v)
    old = vertices_of(wmask)
    pos = {v: i + 1 for i, v in enumerate(old)}
    adj = [0] * len(old)
    for i, v in enumerate(old):
        for u in iter_bits(g.adj[v - 1] & wmask):
            adj[i] |= bit(pos[u])
    return Graph(len(old), tuple(adj)), old


def connected_subsets(g: Graph, t: int) -> list[tuple[int, ...]]:
    """All C with |C| = t and G[C] connected, in lexicographic order.

    Grown level by level from single vertices: each connected k-set keeps
    its open neighborhood, and the (k+1)-sets are the k-sets plus one
    neighbor each, so no disconnected set is ever formed.  The last level
    is sorted by vertex tuple; more than ``CANDIDATE_CAP`` sets in it (not
    in the levels grown on the way) raise ``SearchSpaceError`` first.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    level = {bit(v): g.adj[v - 1] for v in g.vertices()}
    for _ in range(t - 1):
        grown: dict[int, int] = {}
        for c, nbrs in level.items():
            for w in iter_bits(nbrs):
                d = c | bit(w)
                if d not in grown:
                    grown[d] = (nbrs | g.adj[w - 1]) & ~d
        level = grown
    if len(level) > CANDIDATE_CAP:
        raise SearchSpaceError(
            f"{len(level)} connected {t}-subsets exceed the cap of {CANDIDATE_CAP}"
        )
    return sorted(vertices_of(c) for c in level)


# ---------------------------------------------------------------------------
# Chordality


@dataclass(frozen=True)
class ChordalityCertificate:
    """Either a perfect elimination ordering or an induced long cycle."""

    is_chordal: bool
    peo: tuple[int, ...] | None
    witness_cycle: tuple[int, ...] | None


def lex_bfs_order(g: Graph) -> list[int]:
    """Lex-BFS visit order; ties broken toward the smallest vertex index."""
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


def chordality(g: Graph) -> ChordalityCertificate:
    """Test chordality via Lex-BFS; extract an induced long cycle on failure.

    The reversed visit order is returned as the perfect elimination
    ordering when the graph is chordal: every vertex's later neighbors
    (in that ordering) form a clique.
    """
    order = lex_bfs_order(g)
    seen = 0
    for v in order:
        earlier = g.adj[v - 1] & seen
        for u in iter_bits(earlier):
            missing = earlier & ~g.adj[u - 1] & ~bit(u)
            if missing:
                a, b = u, next(iter_bits(missing))
                cycle = _induced_cycle_witness(g, v, a, b)
                if cycle is None:
                    cycle = _search_induced_cycle(g)
                if cycle is None:
                    raise RuntimeError("failed elimination check but no induced cycle found")
                return ChordalityCertificate(False, None, cycle)
        seen |= bit(v)
    return ChordalityCertificate(True, tuple(reversed(order)), None)


def _induced_cycle_witness(g: Graph, v: int, a: int, b: int) -> tuple[int, ...] | None:
    """Cycle v-a-...-b-v from a shortest a->b path avoiding N[v] \\ {a,b}."""
    allowed = g.vertex_mask & ~(neighborhood_mask(g, bit(v), closed=True) & ~bit(a) & ~bit(b))
    parent = {a: 0}
    frontier = [a]
    while frontier and b not in parent:
        nxt = []
        for u in frontier:
            for w in iter_bits(g.adj[u - 1] & allowed):
                if w not in parent:
                    parent[w] = u
                    nxt.append(w)
        frontier = nxt
    if b not in parent:
        return None
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    path.reverse()
    return tuple([v] + path)


def _search_induced_cycle(g: Graph) -> tuple[int, ...] | None:
    for v in g.vertices():
        nv = g.adj[v - 1]
        for a in iter_bits(nv):
            nonadj = nv & ~g.adj[a - 1] & ~bit(a)
            for b in iter_bits(nonadj):
                if b < a:
                    continue
                cycle = _induced_cycle_witness(g, v, a, b)
                if cycle is not None:
                    return cycle
    return None


def simplicial_vertices(g: Graph) -> tuple[int, ...]:
    """Vertices whose open neighborhood induces a clique, ascending."""
    out = []
    for v in g.vertices():
        nv = g.adj[v - 1]
        if all(nv & ~g.adj[u - 1] & ~bit(u) == 0 for u in iter_bits(nv)):
            out.append(v)
    return tuple(out)


# ---------------------------------------------------------------------------
# Random generators


def random_chordal(n: int, seed: int, max_clique: int) -> Graph:
    """Seeded random chordal graph.

    Vertices are added one at a time; each new vertex is joined to a
    clique of the current graph, so every prefix stays chordal.  The
    clique size is uniform on 0..min(max_clique, i-1); a clique of that
    size is grown greedily from random starts with up to 64 retries,
    falling back to a single random vertex.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_clique < 0:
        raise ValueError("max_clique must be >= 0")
    rng = random.Random(seed)
    adj = [0]
    for i in range(2, n + 1):
        size = rng.randint(0, min(max_clique, i - 1))
        clique = _sample_clique(adj, i - 1, size, rng)
        adj.append(0)
        for u in clique:
            adj[i - 1] |= bit(u)
            adj[u - 1] |= bit(i)
    return Graph(n, tuple(adj))


def _sample_clique(adj: list[int], n_cur: int, size: int, rng: random.Random) -> list[int]:
    if size == 0:
        return []
    for _ in range(64):
        v = rng.randint(1, n_cur)
        clique = [v]
        common = adj[v - 1]
        while len(clique) < size and common:
            u = rng.choice(vertices_of(common))
            clique.append(u)
            common &= adj[u - 1]
        if len(clique) == size:
            return clique
    return [rng.randint(1, n_cur)]
