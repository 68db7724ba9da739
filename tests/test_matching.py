import random
import time

import pytest

import tconnect.graphs
from tconnect.graphs import (
    SearchSpaceError,
    chordality,
    connected_subsets,
    fixture,
    induced_subgraph,
    random_chordal,
)
from tconnect.ideals import t_connected_ideal
from tconnect.matching import _branch_and_bound, nu_t
from util import (
    brute_hypergraph_induced_matching,
    brute_is_t_induced_matching,
    brute_nu_t,
    gens_vertices,
    hypergraph_induced_matching,
    is_t_induced_matching,
    neighborhood,
    random_graph,
    sorted_chordal_greedy,
)


# -- membership check -----------------------------------------------------------


def test_empty_family_is_matching():
    assert is_t_induced_matching(fixture("fig1"), 3, [])


def test_fig1_two_far_edges():
    # no fixture edge joins {1,2} to {7,9}, so the family qualifies
    g = fixture("fig1")
    blocks = [(1, 2), (7, 9)]
    assert brute_is_t_induced_matching(g, 2, blocks)
    assert is_t_induced_matching(g, 2, blocks)


def test_path6_cross_edge_fails():
    assert not is_t_induced_matching(fixture("path", 6), 3, [(1, 2, 3), (4, 5, 6)])


def test_wrong_block_size_fails():
    assert not is_t_induced_matching(fixture("path", 6), 3, [(1, 2)])


def test_disconnected_block_fails():
    assert not is_t_induced_matching(fixture("path", 6), 3, [(1, 2, 4)])


def test_overlapping_blocks_fail():
    g = fixture("complete", 6)
    assert not is_t_induced_matching(g, 3, [(1, 2, 3), (3, 4, 5)])
    assert not is_t_induced_matching(g, 3, [(1, 2, 3), (1, 2, 3)])


def test_block_out_of_range():
    with pytest.raises(ValueError):
        is_t_induced_matching(fixture("path", 4), 2, [(4, 5)])


def test_membership_matches_brute_force():
    rng = random.Random(31)
    for seed in range(40):
        g = random_graph(7, 0.45, seed)
        t = rng.choice((2, 3))
        blocks = []
        for _ in range(rng.randint(1, 3)):
            blocks.append(tuple(sorted(rng.sample(range(1, 8), t))))
        assert is_t_induced_matching(g, t, blocks) == brute_is_t_induced_matching(g, t, blocks)


# -- nu_t --------------------------------------------------------------------------

# Witness blocks on fig1, as the README tour prints them: the chordal
# greedy's picks.  A change of its sort key or tie-break would alter them.
FIG1_BLOCKS = {
    2: ((1, 2), (5, 6), (9, 10), (13, 14)),
    3: ((3, 4, 5), (8, 9, 10), (12, 13, 14)),
    4: ((6, 7, 8, 9), (11, 12, 13, 14)),
    5: ((4, 5, 6, 7, 8), (10, 11, 12, 13, 14)),
}


def test_nu_table_fig1():
    g = fixture("fig1")
    expected = {2: 4, 3: 3, 4: 2, 5: 2, 6: 2}
    expected.update({t: 1 for t in range(7, 15)})
    expected[15] = 0
    for t, want in expected.items():
        result = nu_t(g, t)
        assert result.value == want, t
        assert is_t_induced_matching(g, t, result.blocks)
        if t in FIG1_BLOCKS:
            assert result.blocks == FIG1_BLOCKS[t], t


def test_nu_cycle5():
    assert nu_t(fixture("cycle", 5), 3).value == 1


def test_nu_clique_star():
    assert nu_t(fixture("clique_star", 3, 2), 3).value == 1


def test_nu_long_paths_and_cycles():
    # sparse graphs whose complement of N[C] is large: the conflict rows
    # must not cost time exponential in n.  Paths are chordal and take the
    # greedy: about 10 ms on path(200), where branch and bound took 12.8 s
    # on path(64) at t = 3.
    for t in (2, 3):
        assert nu_t(fixture("cycle", 40), t).value == 40 // (t + 1)
    slowest = 0.0
    for n in [*range(2, 41), *range(41, 200, 7), 200]:
        g = fixture("path", n)
        for t in range(2, 6):
            start = time.perf_counter()
            got = nu_t(g, t)
            slowest = max(slowest, time.perf_counter() - start)
            assert got.value == (n + 1) // (t + 1), (n, t)
    assert slowest < 0.25, slowest


def test_chordal_greedy_matches_branch_and_bound():
    cases = 0
    for n in range(4, 18):
        for seed in range(3):
            g = random_chordal(n, 100 * n + seed, 2 + (n + seed) % 6)
            for t in range(2, 7):
                got = nu_t(g, t)
                assert got.method == "chordal-greedy"
                ref = _branch_and_bound(g, connected_subsets(g, t))
                assert got.value == ref.value, (n, seed, t)
                assert got.candidates == ref.candidates
                assert is_t_induced_matching(g, t, got.blocks)
                cases += got.value > 1
    assert cases > 40


def test_chordal_greedy_matches_the_sorted_walk():
    # same value and same blocks as sorting every t-set by p(C)
    rng = random.Random(23)
    cases = 0
    for trial in range(60):
        n = rng.randint(1, 14)
        g = random_chordal(n, rng.randrange(10**6), rng.randint(0, 5))
        for t in range(2, 6):
            got = nu_t(g, t)
            assert got.method == "chordal-greedy"
            assert (got.value, got.blocks) == sorted_chordal_greedy(g, t), (n, trial, t)
            cases += got.value > 1
    assert cases > 40


def test_nu_complete20_within_budget():
    g = fixture("complete", 20)
    start = time.perf_counter()
    got = nu_t(g, 6)
    elapsed = time.perf_counter() - start
    assert got.value == 1 and got.method == "chordal-greedy"
    assert elapsed < 1.0, elapsed  # 0.3 s, mostly connected_subsets; branch and bound 1.4 s


def test_nu_non_chordal_takes_branch_and_bound():
    graphs = [fixture("cycle", 40)]
    graphs += [g for g in (random_graph(9, 0.4, seed) for seed in range(20))
               if not chordality(g).is_chordal]
    assert len(graphs) > 10
    for g in graphs:
        for t in (2, 3):
            got = nu_t(g, t)
            assert got.method == "branch-and-bound"
            assert got == _branch_and_bound(g, connected_subsets(g, t))


def test_nu_requires_t2():
    with pytest.raises(ValueError):
        nu_t(fixture("path", 3), 1)


def test_nu_candidate_cap(monkeypatch):
    monkeypatch.setattr(tconnect.graphs, "CANDIDATE_CAP", 10)
    with pytest.raises(SearchSpaceError, match="^120 connected 3-subsets exceed the cap of 10$"):
        nu_t(fixture("complete", 10), 3)


def test_candidate_cap_counts_the_returned_sets(monkeypatch):
    # complete(6) grows 20 3-sets on the way to its 6 5-sets
    monkeypatch.setattr(tconnect.graphs, "CANDIDATE_CAP", 15)
    g = fixture("complete", 6)
    assert nu_t(g, 5).value == 1
    with pytest.raises(SearchSpaceError, match="^20 connected 3-subsets exceed the cap of 15$"):
        nu_t(g, 3)


def test_nu_matches_brute_force():
    for seed in range(25):
        g = random_graph(3 + seed % 5, 0.45, seed)
        for t in (2, 3):
            got = nu_t(g, t)
            assert got.value == brute_nu_t(g, t), (seed, t)
            assert is_t_induced_matching(g, t, got.blocks)


def test_nu_monotone_under_induced_subgraphs():
    rng = random.Random(13)
    for seed in range(12):
        g = random_graph(8, 0.4, seed + 300)
        w = rng.sample(range(1, 9), rng.randint(2, 8))
        sub, _ = induced_subgraph(g, w)
        for t in (2, 3):
            assert nu_t(sub, t).value <= nu_t(g, t).value


def test_nu_drops_when_deleting_closed_neighborhoods():
    # deleting N[C] + N[w] for a connected (t-1)-set C and neighbor w
    # costs at least one block
    checked = 0
    for seed in range(10):
        g = random_graph(4 + seed % 7, 0.4, seed + 77)
        for t in (2, 3):
            base = nu_t(g, t).value
            if base == 0:
                continue
            for c in connected_subsets(g, t - 1):
                for w in neighborhood(g, c):
                    gone = set(neighborhood(g, c, closed=True)) | set(
                        neighborhood(g, [w], closed=True)
                    )
                    keep = [v for v in g.vertices() if v not in gone]
                    if not keep:
                        continue
                    sub, _ = induced_subgraph(g, keep)
                    checked += 1
                    assert nu_t(sub, t).value <= base - 1, (seed, t, c, w)
    assert checked > 50


# -- hypergraph induced matching ------------------------------------------------------


def test_hypergraph_single_edge():
    assert hypergraph_induced_matching([(1, 2, 3)], 5)[0] == 1


def test_hypergraph_two_disjoint():
    assert hypergraph_induced_matching([(1, 2), (3, 4)], 4)[0] == 2


def test_hypergraph_fig1_t4():
    gens = gens_vertices(t_connected_ideal(fixture("fig1"), 4))
    value, witness = hypergraph_induced_matching(gens, 14)
    assert value == 2
    assert len(witness) == 2
    assert not set(witness[0]) & set(witness[1])


def test_hypergraph_rejects_duplicates():
    with pytest.raises(ValueError):
        hypergraph_induced_matching([(1, 2), (1, 2)], 3)


def test_hypergraph_rejects_nested():
    with pytest.raises(ValueError):
        hypergraph_induced_matching([(1, 2), (1, 2, 3)], 3)


def test_hypergraph_containment_is_global():
    # three pairwise-disjoint pairs whose union swallows a third edge
    edges = [(1, 2), (3, 4), (5, 6), (2, 3, 5)]
    assert hypergraph_induced_matching(edges, 6)[0] == 2


def test_hypergraph_matches_brute_force():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(3, 7)
        size = rng.randint(2, 3)
        pool = set()
        for _ in range(rng.randint(1, 6)):
            pool.add(tuple(sorted(rng.sample(range(1, n + 1), size))))
        edges = sorted(pool)
        got = hypergraph_induced_matching(edges, n)[0]
        assert got == brute_hypergraph_induced_matching(edges, n)


def test_two_definitions_agree():
    # the graph-side and hypergraph-side matching numbers must coincide
    # on the hypergraph of connected t-subsets; a discrepancy here is a
    # release blocker
    cases = 0
    graphs = [random_graph(7, 0.45, seed) if seed % 2 else random_chordal(8, seed, 4)
              for seed in range(18)]
    graphs += [random_chordal(20, k, 4) for k in range(7)]
    for g in graphs:
        for t in (2, 3):
            subsets = connected_subsets(g, t)
            if not subsets:
                continue
            cases += 1
            assert nu_t(g, t).value == hypergraph_induced_matching(subsets, g.n)[0]
    assert cases > 34
