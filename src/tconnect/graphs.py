"""Finite simple graphs on vertex set 1..n with bitset adjacency.

Provides parsing/formatting of the edge-list text format, named fixtures,
neighborhoods, induced subgraphs, connectivity, connected t-subset
enumeration (each set grown once from its lowest vertex, on a stack of
masks, so time follows the output rather than C(n, t) and memory holds
only the t-sets; more than ``CANDIDATE_CAP`` of them raise
``SearchSpaceError`` before any use),
chordality certificates (Lex-BFS + perfect elimination check),
simplicial vertices, the smallest and largest facet of the
t-independence complex of a chordal graph (one pass over its elimination
tree, ``independence_extremes``), and a seeded random chordal generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from .bitset import bit, iter_bits, mask_of, vertices_of


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


def connected_masks(g: Graph, t: int) -> list[int]:
    """The masks of all C with |C| = t and G[C] connected, each once, unsorted.

    Wernicke's ESU (WABI 2005): every set is grown from its lowest vertex
    v.  A stack entry holds a connected set S, its extension (the vertices
    that may still join S, all above v) and N[S].  Each vertex w leaves
    the extension as it is added, and the child's extension gains only
    w's exclusive neighbors above v, those outside N[S]; so two branches
    never reach the same set.  The stack holds only the siblings not yet
    taken along one branch, never a level of sets, and a set of size t - 1
    emits its t-sets without pushing them.  More than ``CANDIDATE_CAP``
    sets raise ``SearchSpaceError``, with their exact count.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    adj = g.adj
    out = [bit(v) for v in g.vertices()] if t == 1 else []
    for v in g.vertices() if 1 < t <= g.n else ():  # no t-set when t > n
        root = bit(v)
        above = -(root << 1)  # the vertices above v
        stack = [(root, adj[v - 1] & above, adj[v - 1] | root)]
        while stack:
            s, ext, closed = stack.pop()
            if s.bit_count() == t - 1:
                while ext:
                    low = ext & -ext
                    out.append(s | low)
                    ext ^= low
                continue
            while ext:
                low = ext & -ext
                ext ^= low
                nbrs = adj[low.bit_length() - 1]
                stack.append((s | low, ext | nbrs & above & ~closed, closed | nbrs))
    if len(out) > CANDIDATE_CAP:
        raise SearchSpaceError(
            f"{len(out)} connected {t}-subsets exceed the cap of {CANDIDATE_CAP}"
        )
    return out


def connected_subsets(g: Graph, t: int) -> list[tuple[int, ...]]:
    """All C with |C| = t and G[C] connected, as vertex tuples in
    lexicographic order: ``connected_masks`` (and its cap), sorted."""
    return sorted(map(vertices_of, connected_masks(g, t)))


# ---------------------------------------------------------------------------
# Chordality


@dataclass(frozen=True)
class ChordalityCertificate:
    """Either a perfect elimination ordering or an induced long cycle."""

    is_chordal: bool
    peo: tuple[int, ...] | None
    witness_cycle: tuple[int, ...] | None


class _Part:
    """One class of the Lex-BFS partition: vertices of equal label, linked in
    ascending order from ``head`` to ``tail`` (0 when empty), and linked to
    the classes of larger (``before``) and smaller (``after``) label."""

    __slots__ = ("head", "tail", "before", "after", "split")

    def __init__(self, before: "_Part | None", after: "_Part | None") -> None:
        self.head = self.tail = 0
        self.before, self.after = before, after
        self.split: _Part | None = None  # the class its neighbours move to this step


def lex_bfs_order(g: Graph) -> list[int]:
    """Lex-BFS visit order; ties broken toward the smallest vertex index.

    Partition refinement (Rose, Tarjan and Lueker 1976), O(n + m): the
    unvisited vertices sit in classes of equal label, ordered by decreasing
    label.  The next vertex is the head of the first class, the smallest
    vertex of largest label.  Its unvisited neighbours, taken in ascending
    order, move to the tail of a new class just before their own, so every
    class stays in ascending order.
    """
    n = g.n
    nxt = list(range(1, n + 1)) + [0]  # vertex links within a class; 0 ends a list
    prv = list(range(-1, n))
    first: _Part | None = _Part(None, None) if n else None
    if first:
        first.head, first.tail = 1, n
    part = [first] * (n + 1)

    def unlink(v: int) -> None:
        cell = part[v]
        if prv[v]:
            nxt[prv[v]] = nxt[v]
        else:
            cell.head = nxt[v]
        if nxt[v]:
            prv[nxt[v]] = prv[v]
        else:
            cell.tail = prv[v]

    def drop_if_empty(cell: _Part) -> None:
        nonlocal first
        if cell.head:
            return
        if cell.before:
            cell.before.after = cell.after
        else:
            first = cell.after
        if cell.after:
            cell.after.before = cell.before

    unvisited = g.vertex_mask
    order = []
    while first is not None:
        v = first.head
        unlink(v)
        drop_if_empty(first)
        order.append(v)
        unvisited &= ~bit(v)
        touched = []
        for u in iter_bits(g.adj[v - 1] & unvisited):
            old = part[u]
            new = old.split
            if new is None:
                new = old.split = _Part(old.before, old)
                if old.before:
                    old.before.after = new
                else:
                    first = new
                old.before = new
                touched.append(old)
            unlink(u)
            prv[u], nxt[u] = new.tail, 0
            if new.tail:
                nxt[new.tail] = u
            else:
                new.head = u
            new.tail = u
            part[u] = new
        for old in touched:
            old.split = None
            drop_if_empty(old)
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
# Facets of the t-independence complex


@lru_cache(maxsize=1024)
def bag_choices(weights: tuple[int, ...], top: int) -> int:
    """The number of count vectors k with 0 <= k_i <= weights[i] and sum <= top."""
    ways = [1] + [0] * top  # ways[s]: the vectors so far that sum to s
    for w in weights:
        ways = [sum(ways[max(0, s - w):s + 1]) for s in range(top + 1)]
    return sum(ways)


@lru_cache(maxsize=1024)
def _choices(weights: tuple[int, ...], top: int) -> tuple[tuple[int, ...], ...]:
    """The count vectors that ``bag_choices`` counts."""
    out: list[tuple[int, ...]] = [()]
    for w in reversed(weights):
        out = [(k, *rest) for rest in out for k in range(min(w, top - sum(rest)) + 1)]
    return tuple(out)


def independence_extremes(g: Graph, t: int, peo: Sequence[int]) -> tuple[int, int, int] | None:
    """(smallest, largest, states) for a chordal G with perfect elimination
    ordering ``peo``: the least and the largest size of a facet of Ind_t(G),
    and the number of table entries kept; None, with no table built, when
    the bag choices number more than ``CANDIDATE_CAP``.

    A facet is a maximal A with no connected t-set: every component of G[A]
    has at most t - 1 vertices, and every v outside A has a load (the
    vertices of the components of G[A] beside it) of at least t - 1.  The
    minimal covers of J_t(G) are the complements of the facets, so the
    height is n - largest and the big height n - smallest.

    True twins (equal closed neighbourhoods) are merged into one class of
    their count; the classes form a chordal graph, and ``peo`` restricted
    to their representatives is a perfect elimination ordering of it.  A
    class v has the bag {v} + its later neighbours L(v), a clique, and its
    parent is the earliest of them.  Every neighbour of v's subtree outside
    it lies in L(v), so one bottom-up pass over that elimination tree
    decides A.  The table of v is keyed by a state on L(v):
    - the chosen count of each class of L(v), at most t - 1 in all, since
      the chosen vertices of a clique lie in one component;
    - ``inner``: the chosen vertices below v in the component through the
      chosen ones of L(v), at most t - 1 with them;
    - the loads of the classes of L(v) with nothing chosen, from the
      finished components below v (capped at t - 1), placed as in the
      parent's bag;
    - ``need``: the least final size of the component through L(v) that
      the unchosen vertices below v still need.
    Its values are the (least, largest) count of chosen vertices below v.
    A class v is forgotten at its own bag.  An unchosen vertex of v needs
    t - 1 - its load from the component through the bag; a partly chosen
    class has load 0, as its finished neighbours would join its chosen
    twins, so it needs t - 1.  When no class of L(v) is chosen, the
    component through the bag is finished: it must meet ``need``, and its
    size joins the load of every class of L(v).  The bag choices are
    counted, against ``CANDIDATE_CAP``, before any table is built.
    """
    if t < 2:
        raise ValueError("t must be >= 2")
    top = t - 1
    rep_of: dict[int, int] = {}
    weight: dict[int, int] = {}  # representatives in ``peo`` order
    for v in peo:
        r = rep_of.setdefault(g.adj[v - 1] | bit(v), v)
        weight[r] = weight.get(r, 0) + 1
    reps = list(weight)
    pos = {v: i for i, v in enumerate(reps)}
    every = mask_of(reps)
    bags = {v: (v, *sorted((u for u in iter_bits(g.adj[v - 1] & every) if pos[u] > pos[v]),
                           key=pos.__getitem__)) for v in reps}
    bag_weights = {v: tuple(map(weight.__getitem__, bag)) for v, bag in bags.items()}
    if sum(bag_choices(ws, top) for ws in bag_weights.values()) > CANDIDATE_CAP:
        return None
    kids: dict[int, list[int]] = {v: [] for v in reps}
    place: dict[int, tuple[int, ...]] = {}  # where L(v) sits in the parent's bag
    for v in reps:
        if len(bags[v]) > 1:
            above = bags[v][1]
            kids[above].append(v)
            place[v] = tuple(map(bags[above].index, bags[v][1:]))
    tables: dict[int, dict] = {}
    smallest = largest = states = 0
    for p in reps:
        children = [(tables.pop(c), place[c]) for c in kids[p]]
        slots = place.get(p, ())
        width = len(bags[bags[p][1]]) if slots else 0
        wp = weight[p]
        table: dict[tuple[int, ...], dict] = {}
        for kappa in _choices(bag_weights[p], top):
            kp, total = kappa[0], sum(kappa)
            room = top - total
            if children:
                (child, idx), *others = children
                partial = child.get(tuple([kappa[i] for i in idx]), {})
                for child, idx in others:
                    partial = _merge(partial, child.get(tuple([kappa[i] for i in idx]), {}),
                                     room, top)
            else:
                partial = {(0, 0, (0,) * len(kappa)): (0, 0)}
            out = table.setdefault(kappa[1:], {})
            for (inner, need, loads), (lo, hi) in partial.items():
                if inner > room:
                    continue
                if kp < wp:
                    need = max(need, top - loads[0])
                size = inner + kp
                if total > kp:
                    key, outer = (size, need), loads[1:]
                elif size < need:
                    continue
                else:
                    key, outer = (0, 0), [min(top, x + size) for x in loads[1:]]
                placed = [0] * width
                for i, x in zip(slots, outer):
                    placed[i] = x
                key += (tuple(placed),)
                old = out.get(key)
                lo, hi = lo + kp, hi + kp
                out[key] = (lo, hi) if old is None else (min(old[0], lo), max(old[1], hi))
        states += sum(map(len, table.values()))
        if p in place:
            tables[p] = table
        else:  # a root: its one state holds its component's extremes
            ((lo, hi),) = table[()].values()
            smallest += lo
            largest += hi
    return smallest, largest, states


def _merge(partial: dict, entries: dict, room: int, top: int) -> dict:
    """A child's entries joined to the partial states of its parent's bag;
    ``room`` bounds the chosen vertices below the bag in its component."""
    out: dict = {}
    for (inner, need, loads), (lo, hi) in partial.items():
        for (c_inner, c_need, c_loads), (c_lo, c_hi) in entries.items():
            size = inner + c_inner
            if size > room:
                continue
            key = (size, max(need, c_need),
                   tuple([min(top, a + b) for a, b in zip(loads, c_loads)]))
            lo2, hi2 = lo + c_lo, hi + c_hi
            old = out.get(key)
            out[key] = (lo2, hi2) if old is None else (min(old[0], lo2), max(old[1], hi2))
    return out


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
