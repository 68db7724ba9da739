import random
import time
import tracemalloc
from itertools import product

import pytest

import tconnect.graphs
from tconnect.bitset import mask_of, vertices_of
from tconnect.graphs import (
    FIG1_EDGES,
    Graph,
    GraphParseError,
    bag_choices,
    chordality,
    connected_masks,
    connected_subsets,
    fixture,
    format_graph,
    graph_from_edges,
    independence_extremes,
    induced_subgraph,
    lex_bfs_order,
    neighborhood_mask,
    parse_graph,
    random_chordal,
    simplicial_vertices,
)
from tconnect.ideals import t_connected_ideal
from util import (
    brute_connected_subsets,
    degree,
    disjoint_union,
    has_edge,
    is_connected_mask,
    neighbors,
    quadratic_lex_bfs_order,
    random_graph,
    relabel,
    to_networkx,
)


# -- parsing ----------------------------------------------------------------


def test_parse_path3():
    g = parse_graph("3\n1 2\n2 3")
    assert g.n == 3
    assert g.edges() == ((1, 2), (2, 3))


def test_parse_edgeless():
    g = parse_graph("2\n")
    assert g.n == 2
    assert g.edges() == ()


def test_parse_comments_and_blanks():
    g = parse_graph("# a comment\n\n3\n\n1 3\n# trailing\n")
    assert g.edges() == ((1, 3),)


def test_parse_duplicates_collapse():
    g = parse_graph("3\n1 2\n1 2\n2 3")
    assert g.edge_count() == 2


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("3\n1 2 3", "line 2"),
        ("3\n0 2", "out of range"),
        ("3\n1 4", "out of range"),
        ("3\n2 2", "self-loop"),
        ("3\n2 1", "u < v"),
        ("x\n1 2", "vertex count"),
        ("", "missing vertex count"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(GraphParseError, match=fragment.replace("(", "\\(")):
        parse_graph(text)


def test_format_round_trip():
    g = fixture("fig1")
    assert parse_graph(format_graph(g)) == g


# -- fixtures ----------------------------------------------------------------


def test_fig1_fixture():
    g = fixture("fig1")
    assert g.n == 14
    assert g.edge_count() == 24
    assert set(g.edges()) == {tuple(sorted(e)) for e in FIG1_EDGES}
    degs = sorted(degree(g, v) for v in g.vertices())
    assert sum(degs) == 48


def test_complete_vs_minus_edge():
    k6 = fixture("complete", 6)
    k6e = fixture("complete_minus_edge", 6)
    assert set(k6.edges()) - set(k6e.edges()) == {(1, 2)}
    assert k6.edge_count() == 15 and k6e.edge_count() == 14


def test_clique_star():
    g = fixture("clique_star", 3, 2)
    assert g.n == 7
    blocks = [(1, 2, 3), (1, 4, 5), (1, 6, 7)]
    for b in blocks:
        sub, _ = induced_subgraph(g, b)
        assert sub.edge_count() == 3
    assert g.edge_count() == 9


@pytest.mark.parametrize(
    "name,params",
    [("cycle", (2,)), ("path", (0,)), ("complete", (0,)), ("clique_star", (1, 2)), ("nosuch", ())],
)
def test_fixture_errors(name, params):
    with pytest.raises(ValueError):
        fixture(name, *params)


# -- neighborhoods, subgraphs, connectivity ----------------------------------


def test_neighborhood_fig1():
    g = fixture("fig1")
    assert vertices_of(neighborhood_mask(g, mask_of([3, 4, 5]))) == (1, 2, 6)


def test_neighborhood_empty_seed():
    assert neighborhood_mask(fixture("fig1"), 0) == 0


def test_neighborhood_closed_path():
    closed = neighborhood_mask(fixture("path", 4), mask_of([2]), closed=True)
    assert vertices_of(closed) == (1, 2, 3)


def test_induced_subgraph_range_error():
    with pytest.raises(ValueError, match="out of range"):
        induced_subgraph(fixture("path", 4), [5])


def test_induced_subgraph_k4():
    sub, old = induced_subgraph(fixture("fig1"), [1, 2, 3, 4])
    assert old == (1, 2, 3, 4)
    assert sub.edge_count() == 6  # complete on four vertices


def test_induced_subgraph_identity():
    g = fixture("cycle", 5)
    sub, old = induced_subgraph(g, g.vertices())
    assert sub == g and old == (1, 2, 3, 4, 5)


def test_induced_subgraph_cycle_pair():
    sub, old = induced_subgraph(fixture("cycle", 5), [1, 2, 4])
    assert old == (1, 2, 4)
    assert sub.edges() == ((1, 2),)


def test_is_connected_subset():
    p4 = fixture("path", 4)
    assert is_connected_mask(p4, mask_of([1, 2, 3]))
    assert not is_connected_mask(p4, mask_of([1, 3]))
    assert is_connected_mask(p4, 0)
    assert is_connected_mask(p4, mask_of([3]))
    assert is_connected_mask(fixture("fig1"), mask_of([5, 6, 7, 8]))


def test_connected_subsets_path4():
    assert connected_subsets(fixture("path", 4), 3) == [(1, 2, 3), (2, 3, 4)]


def test_connected_subsets_cycle5():
    got = connected_subsets(fixture("cycle", 5), 3)
    assert got == [(1, 2, 3), (1, 2, 5), (1, 4, 5), (2, 3, 4), (3, 4, 5)]


def test_connected_subsets_complete_pair():
    a = connected_subsets(fixture("complete", 6), 3)
    b = connected_subsets(fixture("complete_minus_edge", 6), 3)
    assert a == b and len(a) == 20


def test_connected_subsets_are_edges_at_t2():
    for seed in range(10):
        g = random_graph(8, 0.4, seed)
        assert set(connected_subsets(g, 2)) == set(g.edges())


def test_connected_subsets_match_brute_force():
    graphs = [
        graph_from_edges(0, []),
        graph_from_edges(5, []),
        graph_from_edges(7, [(1, 2), (2, 3), (4, 5), (6, 7), (5, 6)]),
        disjoint_union(fixture("cycle", 4), fixture("complete", 4)),
    ]
    for seed in range(40):
        graphs.append(random_graph(seed % 11, 0.2 + 0.15 * (seed % 5), seed))
        graphs.append(random_chordal(1 + seed % 10, seed, 1 + seed % 4))
        graphs.append(disjoint_union(random_chordal(1 + seed % 6, seed, 3),
                                     random_graph(seed % 5, 0.5, seed)))
    for g in graphs:
        for t in range(1, g.n + 3):
            masks = connected_masks(g, t)
            assert len(set(masks)) == len(masks), (g, t)  # each set grown once
            assert connected_subsets(g, t) == brute_connected_subsets(g, t), (g, t)
        for t in (0, -1):
            with pytest.raises(ValueError, match="t must be >= 1"):
                connected_subsets(g, t)


def test_connected_subsets_dense_peak_memory():
    # complete(16) has 1 820 connected 12-sets; growing C(16, 8) = 12 870
    # 8-sets on the way, a level at a time, peaked at 2.9 MiB.
    g = fixture("complete", 16)
    tracemalloc.start()
    try:
        got = connected_subsets(g, 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got) == 1820
    assert peak < 1 << 20, peak


def test_connected_subsets_long_path_is_output_sized():
    start = time.perf_counter()
    got = connected_subsets(fixture("path", 400), 3)
    elapsed = time.perf_counter() - start
    assert got == [(i, i + 1, i + 2) for i in range(1, 399)]
    assert elapsed < 1.0, elapsed


# -- chordality ----------------------------------------------------------------


def test_chordality_fig1():
    cert = chordality(fixture("fig1"))
    assert cert.is_chordal and cert.witness_cycle is None
    assert sorted(cert.peo) == list(range(1, 15))


def test_lex_bfs_order_matches_the_labelled_reference():
    # partition refinement must visit in the labelled order: largest label
    # first, ties to the smallest vertex, so every PEO and witness stays put
    rng = random.Random(27)
    graphs = [fixture("path", 400), fixture("fig1"), Graph(0, ())]
    for _ in range(60):
        n = rng.randint(1, 60)
        graphs.append(random_chordal(n, rng.randrange(10**6), rng.randint(1, 6)))
        graphs.append(random_graph(n, rng.choice((0.05, 0.15, 0.4, 0.8)), rng.randrange(10**6)))
    for g in graphs:
        assert lex_bfs_order(g) == quadratic_lex_bfs_order(g), g


def test_chordality_cycle5():
    cert = chordality(fixture("cycle", 5))
    assert not cert.is_chordal
    assert len(cert.witness_cycle) == 5
    _assert_induced_cycle(fixture("cycle", 5), cert.witness_cycle)


def test_chordality_complete():
    assert chordality(fixture("complete", 6)).is_chordal


def _assert_induced_cycle(g: Graph, cycle):
    k = len(cycle)
    assert k >= 4
    assert len(set(cycle)) == k
    for i, u in enumerate(cycle):
        for j in range(i + 1, k):
            v = cycle[j]
            adjacent = has_edge(g, u, v)
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            assert adjacent == consecutive, (cycle, u, v)


def test_peo_property_on_random_chordal():
    for seed in range(20):
        g = random_chordal(1 + seed % 11, seed, 4)
        cert = chordality(g)
        assert cert.is_chordal
        pos = {v: i for i, v in enumerate(cert.peo)}
        for v in g.vertices():
            later = [u for u in neighbors(g, v) if pos[u] > pos[v]]
            for a_i, a in enumerate(later):
                for b in later[a_i + 1:]:
                    assert has_edge(g, a, b)


def test_chordality_against_networkx():
    nx = pytest.importorskip("networkx")
    for seed in range(60):
        g = random_graph(2 + seed % 8, 0.45, seed)
        assert chordality(g).is_chordal == nx.is_chordal(to_networkx(g))


def test_witness_is_induced_on_random_nonchordal():
    found = 0
    for seed in range(80):
        g = random_graph(4 + seed % 6, 0.4, 1000 + seed)
        cert = chordality(g)
        if not cert.is_chordal:
            _assert_induced_cycle(g, cert.witness_cycle)
            found += 1
    assert found > 5


def test_chordality_relabel_invariant():
    rng = random.Random(7)
    for seed in range(15):
        g = random_graph(7, 0.4, seed)
        perm = list(range(1, 8))
        rng.shuffle(perm)
        assert chordality(g).is_chordal == chordality(relabel(g, perm)).is_chordal


# -- simplicial vertices -------------------------------------------------------


def test_simplicial_examples():
    assert 5 in simplicial_vertices(fixture("fig1"))
    assert simplicial_vertices(fixture("path", 4)) == (1, 4)
    assert simplicial_vertices(fixture("cycle", 5)) == ()


def test_chordal_has_simplicial_vertex():
    for seed in range(30):
        g = random_chordal(1 + seed % 12, seed * 3, 4)
        assert simplicial_vertices(g)


def test_induced_subgraph_of_chordal_is_chordal():
    rng = random.Random(3)
    for seed in range(15):
        g = random_chordal(8, seed, 4)
        w = rng.sample(range(1, 9), rng.randint(1, 8))
        sub, _ = induced_subgraph(g, w)
        assert chordality(sub).is_chordal


def test_simplicial_deletion_keeps_connectivity():
    # X simplicial, A connected with x in A and |A| >= 2  =>  A - {x} connected.
    for seed in range(12):
        g = random_chordal(2 + seed % 8, 17 * seed + 1, 4)
        simp = set(simplicial_vertices(g))
        for size in range(2, min(g.n, 6) + 1):
            for c in connected_subsets(g, size):
                for x in simp & set(c):
                    rest = [v for v in c if v != x]
                    assert is_connected_mask(g, mask_of(rest)), (seed, c, x)


# -- random generators -----------------------------------------------------------


def test_random_chordal_single_vertex():
    g = random_chordal(1, 5, 3)
    assert g.n == 1 and g.edge_count() == 0


def test_random_chordal_deterministic():
    a = random_chordal(9, 123, 4)
    b = random_chordal(9, 123, 4)
    assert a == b
    assert a != random_chordal(9, 124, 4)


def test_random_chordal_always_chordal():
    count = 0
    for n in range(1, 13):
        for seed in range(84):
            g = random_chordal(n, seed, 1 + seed % 4)
            count += 1
            assert chordality(g).is_chordal, (n, seed)
    assert count >= 1000


def test_random_chordal_no_cliques_is_edgeless():
    g = random_chordal(8, 2, 0)
    assert g.edge_count() == 0


def test_disjoint_union_shifts():
    g = disjoint_union(fixture("path", 3), fixture("path", 2))
    assert g.edges() == ((1, 2), (2, 3), (4, 5))


def test_empty_graph_edge_cases():
    g = parse_graph("0\n")
    assert g.n == 0 and g.edges() == ()
    cert = chordality(g)
    assert cert.is_chordal and cert.peo == ()
    assert connected_subsets(g, 1) == []


# -- facets of the t-independence complex ---------------------------------------


def cover_extremes(g, t):
    """(height, bight) from every minimal cover of J_t(G)."""
    stats = t_connected_ideal(g, t).cover_stats()
    return stats.height, stats.bight


def dp_extremes(g, t, peo=None):
    """(height, bight) from the elimination-tree DP's smallest and largest facet."""
    smallest, largest, _ = independence_extremes(g, t, peo or chordality(g).peo)
    return g.n - largest, g.n - smallest


def test_bag_choices_counts_the_bounded_vectors():
    for weights in [(), (1,), (3,), (1, 1, 1), (2, 1, 4), (5, 5)]:
        for top in range(5):
            brute = sum(1 for k in product(*(range(w + 1) for w in weights)) if sum(k) <= top)
            assert bag_choices(weights, top) == brute, (weights, top)


def test_independence_extremes_match_the_covers_on_a_seeded_corpus():
    rng = random.Random(7)
    items = 0
    for seed in range(940):
        g = random_chordal(rng.randint(1, 13), seed, rng.randint(2, 5))
        for t in range(2, 7):
            assert dp_extremes(g, t) == cover_extremes(g, t), (g.n, seed, t)
            items += 1
    for seed in range(60):
        g = random_chordal(16, seed, 6)
        for t in range(2, 8):
            assert dp_extremes(g, t) == cover_extremes(g, t), (seed, t)
            items += 1
    assert items == 5060


def test_independence_extremes_take_any_perfect_elimination_ordering():
    # random_chordal joins each new vertex to a clique of the earlier ones,
    # so the reversed insertion order is a perfect elimination ordering too
    for seed in range(40):
        g = random_chordal(12, seed, 4)
        for t in (2, 3, 4):
            assert dp_extremes(g, t, tuple(range(g.n, 0, -1))) == dp_extremes(g, t), (seed, t)


@pytest.mark.parametrize("name, params", [
    ("complete", (7,)), ("complete_minus_edge", (7,)), ("clique_star", (3, 2)),
    ("clique_star", (4, 2)), ("fig1", ()),
])
def test_independence_extremes_match_the_covers_on_the_fixtures_at_every_t(name, params):
    g = fixture(name, *params)
    for t in range(2, g.n + 2):
        assert dp_extremes(g, t) == cover_extremes(g, t), t


def test_independence_extremes_on_isolated_vertices_and_the_zero_ideal():
    g = disjoint_union(disjoint_union(fixture("path", 4), Graph(2, (0, 0))), fixture("complete", 3))
    for t in range(2, 6):
        assert dp_extremes(g, t) == cover_extremes(g, t), t
    assert dp_extremes(g, 5) == (0, 0)  # no component has 5 vertices
    assert dp_extremes(Graph(3, (0, 0, 0)), 2) == (0, 0)


def test_independence_extremes_on_a_long_path_and_a_large_clique():
    start = time.perf_counter()
    assert dp_extremes(fixture("path", 40), 3) == (13, 20)
    assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    assert dp_extremes(fixture("complete", 20), 15) == (6, 6)  # one class of 20 twins
    assert time.perf_counter() - start < 0.5


def test_independence_extremes_count_the_bag_choices_before_any_table(monkeypatch):
    def no_tables(weights, top):
        raise AssertionError("a table was built over the bag-choice cap")

    g = fixture("path", 40)  # no twins: 39 bags of two vertices and the root's of one
    peo = chordality(g).peo
    monkeypatch.setattr(tconnect.graphs, "CANDIDATE_CAP", 39 * 4 + 2)
    assert independence_extremes(g, 3, peo)[:2] == (20, 27)
    monkeypatch.setattr(tconnect.graphs, "CANDIDATE_CAP", 39 * 4 + 1)
    monkeypatch.setattr(tconnect.graphs, "_choices", no_tables)
    assert independence_extremes(g, 3, peo) is None
