import random
import time

import pytest

from tconnect.bitset import bit, vertices_of
from tconnect.decomposition import FIG1_X5_T4_WORKED_ORDER, ledger, verify_identities
from tconnect.graphs import (
    connected_subsets,
    fixture,
    induced_subgraph,
    random_chordal,
    simplicial_vertices,
)
from tconnect.harness import predict
from tconnect.ideals import (
    SquareFreeIdeal,
    minimal_transversals,
    minimalize_masks,
    t_clique_ideal,
    t_connected_ideal,
)
from util import (
    brute_minimal_transversals,
    brute_minimalize,
    disjoint_union,
    gens_vertices,
    neighborhood,
    random_antichain_ideal,
    random_graph,
    shift_ideal,
    variables_ideal,
)


def ideal(n, *gens):
    return SquareFreeIdeal.make(n, gens)


# -- canonical form ------------------------------------------------------------


def test_minimalize_divisibility():
    assert gens_vertices(SquareFreeIdeal.make(3, [[1, 2], [1, 2, 3]])) == ((1, 2),)


def test_minimalize_empty_is_zero():
    assert SquareFreeIdeal.make(4, []).is_zero


def test_minimalize_pair():
    assert gens_vertices(SquareFreeIdeal.make(2, [[1], [2], [1, 2]])) == ((1,), (2,))


def test_minimalize_idempotent_and_order_free():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 8)
        gens = [tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
                for _ in range(rng.randint(1, 6))]
        one = SquareFreeIdeal.make(n, gens)
        rng.shuffle(gens)
        two = SquareFreeIdeal.make(n, gens)
        assert one == two
        assert SquareFreeIdeal.make(n, one.gens) == one


def random_masks(rng, n, count):
    """Masks over 1..n with repeats, the 0 mask now and then, and nested chains."""
    p = rng.uniform(0.1, 0.6)
    masks = [sum(1 << v for v in range(n) if rng.random() < p) or 1 << rng.randrange(n)
             for _ in range(count)]
    for _ in range(rng.randint(0, 3)):  # a chain m1 < m2 < ... by one vertex at a time
        m = rng.getrandbits(n) & rng.getrandbits(n)
        for v in rng.sample(range(n), rng.randint(0, n)):
            m |= 1 << v
            masks.append(m)
    masks += rng.choices(masks, k=rng.randint(0, len(masks))) if masks else []
    if rng.random() < 0.1:
        masks.append(0)
    rng.shuffle(masks)
    return masks


def test_minimalize_masks_against_any_over_kept():
    rng = random.Random(17)
    families = [[], [0], [0, 0, 6, 1], [3, 3, 3], [7, 3, 1, 1, 3]]
    for _ in range(150):
        n = rng.randint(1, 20)
        families.append(random_masks(rng, n, rng.choice([1, 4, 20, 60, 300])))
    for masks in families:
        want = tuple(sorted(brute_minimalize(masks)))
        assert minimalize_masks(masks) == want


def test_add_merges_antichains():
    rng = random.Random(23)
    for trial in range(300):
        n = rng.randint(1, 12)
        a = SquareFreeIdeal.make(n, random_masks(rng, n, rng.randint(0, 12)))
        shared = rng.sample(a.gens, rng.randint(0, len(a.gens)))
        b = SquareFreeIdeal.make(n, random_masks(rng, n, rng.randint(0, 12)) + shared)
        for x, y in ((a, b), (b, a), (a, a), (a, SquareFreeIdeal.zero(n))):
            assert x.add(y).gens == tuple(sorted(brute_minimalize(x.gens + y.gens)))


def test_constructor_requires_ascending_distinct_gens():
    # out of order or repeated, two equal ideals would compare unequal
    with pytest.raises(ValueError, match="ascending"):
        SquareFreeIdeal(4, (6, 3))
    with pytest.raises(ValueError, match="ascending"):
        SquareFreeIdeal(4, (3, 3, 6))
    assert SquareFreeIdeal(4, (3, 6)).gens == (3, 6)
    assert SquareFreeIdeal(4, (0,)).gens == (0,)


def test_ledger_ideals_construct_in_ascending_order():
    # every ideal of the peeling, and every sum, product and colon that
    # its identities build, passes the constructor's order check
    g20 = random_chordal(20, 38, 4)
    for g, x, t in ((fixture("fig1"), 5, 4), (g20, simplicial_vertices(g20)[0], 5)):
        led = ledger(g, x, t)
        assert verify_identities(led).all_passed
        built = [led.base_ideal]
        for e in led.entries:
            built += [e.j_ideal, e.k_ideal, e.jk_ideal, e.l_ideal, *e.r_ideals.values()]
        for i in built:
            assert list(i.gens) == sorted(set(i.gens))


def test_make_range_check():
    with pytest.raises(ValueError):
        SquareFreeIdeal.make(3, [[1, 4]])


# -- arithmetic -----------------------------------------------------------------


def test_add_zero_identity():
    i = ideal(4, [1, 2], [3, 4])
    assert i.add(SquareFreeIdeal.zero(4)) == i


def test_add_simple():
    got = ideal(3, [1, 2]).add(ideal(3, [2, 3]))
    assert gens_vertices(got) == ((1, 2), (2, 3))


def test_add_ambient_mismatch():
    with pytest.raises(ValueError):
        ideal(3, [1]).add(ideal(4, [1]))


def test_add_peeling_top_identity():
    # first index of the fig1 peeling: J_1 + K_1 is the whole ideal
    g = fixture("fig1")
    led = ledger(g, 5, 4, FIG1_X5_T4_WORKED_ORDER)
    e = led.entries[0]
    assert e.j_ideal.add(e.k_ideal) == t_connected_ideal(g, 4)


def test_intersect_single_pair():
    assert gens_vertices(ideal(4, [1, 2, 3]).intersect(ideal(4, [2, 3, 4]))) == ((1, 2, 3, 4),)


def test_intersect_full_support():
    i = ideal(4, [1, 2], [2, 4])
    full = ideal(4, [1, 2, 3, 4])
    assert i.intersect(full) == full


def test_intersect_zero():
    assert ideal(4, [1, 2]).intersect(SquareFreeIdeal.zero(4)).is_zero


def test_intersect_variables_matches_the_pairwise_lcms():
    rng = random.Random(29)
    cases = [(SquareFreeIdeal.zero(4), 0b0110), (SquareFreeIdeal(4, (0,)), 0b0110),
             (SquareFreeIdeal(4, (0,)), 0), (SquareFreeIdeal(4, (0,)), 0b1111),
             (ideal(4, [1, 2], [3]), 0), (ideal(4, [1, 2], [3]), 0b1111)]
    for _ in range(400):
        n = rng.randint(1, 10)
        i = SquareFreeIdeal.make(n, random_masks(rng, n, rng.randint(0, 20)))
        cases.append((i, rng.choice([0, (1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n)])))
    for i, p in cases:
        assert i.intersect_variables(p) == i.intersect(variables_ideal(i.n, vertices_of(p))), (i, p)


def test_intersect_variables_builds_a_peeling_intersection():
    # x_C * ((K : x_C) ∩ <B>) == x_C * <B> ∩ K for disjoint C and B
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(1, 10)
        k = SquareFreeIdeal.make(n, random_masks(rng, n, rng.randint(0, 20)))
        c = rng.getrandbits(n)
        b = rng.getrandbits(n) & ~c
        j = variables_ideal(n, vertices_of(b)).scale(c)
        assert k.colon(c).intersect_variables(b).scale(c) == j.intersect(k), (k, c, b)


def test_colon_variable():
    got = ideal(4, [1, 2, 3], [2, 3, 4]).colon([2])
    assert gens_vertices(got) == ((1, 3), (3, 4))


def test_colon_by_one():
    i = ideal(4, [1, 2], [3, 4])
    assert i.colon([]) == i


def test_colon_by_square_free_monomial():
    i = ideal(5, [1, 2, 3], [2, 3, 4], [4, 5])
    assert gens_vertices(i.colon([2, 3])) == ((1,), (4,))
    # colon by a monomial that swallows a generator yields the unit ideal
    assert i.colon([4, 5]).gens == (0,)


def test_colon_comma_exchange_random():
    # (I + <x_1..x_{r-1}>) : x_r  ==  (I : x_r) + <x_1..x_{r-1}>
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 8)
        i = random_antichain_ideal(rng, n)
        r = rng.randint(1, n)
        vars_below = variables_ideal(n, range(1, r))
        lhs = i.add(vars_below).colon([r])
        rhs = i.colon([r]).add(vars_below)
        assert lhs == rhs


def test_absorption():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randint(1, 7)
        i = random_antichain_ideal(rng, n)
        j = random_antichain_ideal(rng, n)
        assert i.add(i.intersect(j)) == i


def test_intersection_distributes_over_sum():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 7)
        i, j, k = (random_antichain_ideal(rng, n) for _ in range(3))
        assert i.intersect(j.add(k)) == i.intersect(j).add(i.intersect(k))


def test_scale_requires_disjoint():
    with pytest.raises(ValueError):
        ideal(3, [1, 2]).scale([2])


# -- minimal primes / cover stats ----------------------------------------------


def test_minimal_primes_example():
    assert ideal(4, [1, 2, 3], [2, 3, 4]).minimal_primes() == ((1, 4), (2,), (3,))


def test_minimal_primes_single_variable():
    assert ideal(1, [1]).minimal_primes() == ((1,),)


def test_minimal_primes_edge():
    assert ideal(2, [1, 2]).minimal_primes() == ((1,), (2,))


def test_minimal_primes_zero_convention():
    assert SquareFreeIdeal.zero(3).minimal_primes() == ()
    assert minimal_transversals(()) == ([0], 1)  # the empty set meets every generator
    stats = SquareFreeIdeal.zero(3).cover_stats()
    assert (stats.height, stats.bight, stats.unmixed) == (0, 0, True)


def test_cover_stats_unit_ideal_rejected():
    unit = ideal(3, [1, 2]).colon([1, 2])
    assert unit.gens == (0,)
    assert unit.minimal_primes() == ()  # no prime contains the whole ring
    assert minimal_transversals(unit.gens) == ([], 1)
    with pytest.raises(ValueError, match="unit ideal"):
        unit.cover_stats()


def test_minimal_primes_against_brute_force():
    rng = random.Random(9)
    ideals = [
        ideal(5, [1, 2], [1, 3], [1, 4, 5], [1, 2, 5]),  # vertex 1 lies in every generator
        ideal(8, [1, 2], [2, 3], [3, 4], [5, 6, 7], [6, 8], [5, 8]),  # two disjoint parts
        ideal(3, []),  # the unit ideal: no cover
    ]
    for trial in range(66):
        if trial < 50:
            ideals.append(random_antichain_ideal(rng, rng.randint(1, 8), max_gens=6))
        elif trial < 60:
            ideals.append(random_antichain_ideal(rng, 10, max_gens=6))
        else:  # more generators of a few vertices each, for more covers
            n = 12 + trial % 3
            ideals.append(SquareFreeIdeal.make(n, [rng.sample(range(1, n + 1), rng.randint(2, 4))
                                                   for _ in range(rng.randint(6, 14))]))
    for i in ideals:
        n = i.n
        got = list(i.minimal_primes())
        assert got == brute_minimal_transversals(gens_vertices(i), n)
        masks, nodes = minimal_transversals(i.gens)
        assert len(set(masks)) == len(masks) == len(got)  # each cover is reached once
        assert nodes >= len(masks)
        # direct minimal-transversal property
        gens = [set(g) for g in gens_vertices(i)]
        for cover in got:
            cs = set(cover)
            assert all(cs & g for g in gens)
            for v in cover:
                assert not all((cs - {v}) & g for g in gens)


def test_minimal_transversals_of_disjoint_parts_are_products():
    left, right = ideal(8, [1, 2], [2, 3], [3, 4]), ideal(8, [5, 6, 7], [6, 8], [5, 8])
    covers, _ = minimal_transversals(left.add(right).gens)
    (ca, _), (cb, _) = minimal_transversals(left.gens), minimal_transversals(right.gens)
    assert sorted(covers) == sorted(a | b for a in ca for b in cb)


def test_cover_stats_fig1_t4():
    stats = t_connected_ideal(fixture("fig1"), 4).cover_stats()
    assert stats.bight == 8
    assert (4, 5, 6, 7, 8, 12, 13, 14) in stats.covers


def test_fig1_transversals_match_subset_scan():
    # cross-check the incremental expansion against a full 2^14 scan
    big = t_connected_ideal(fixture("fig1"), 4)
    gens = big.gens
    face = bytearray(1 << 14)
    for a in range(1 << 14):
        face[a] = not any(g & a == g for g in gens)
    maximal = [
        a for a in range(1 << 14)
        if face[a] and all(not face[a | (1 << v)] for v in range(14) if not a >> v & 1)
    ]
    full = (1 << 14) - 1
    from tconnect.bitset import vertices_of

    scanned = sorted(vertices_of(full & ~a) for a in maximal)
    assert sorted(big.minimal_primes()) == scanned


def test_cover_stats_slow_chordal20_t5():
    # random_chordal(20, 12, 4) is left out of the benchmark for being slow.
    # The pins were recorded with the earlier prune-every-step Berge
    # expansion, under which predict took 5.3 s (2 cores, Python 3.11).
    g = random_chordal(20, 12, 4)
    start = time.perf_counter()
    preds = predict(g, 5)
    elapsed = time.perf_counter() - start
    assert (preds.nu_t, preds.height, preds.bight, preds.unmixed) == (2, 7, 13, False)
    assert len(preds.ideal.gens) == 1691
    assert len(preds.ideal.cover_stats().covers) == 1044
    assert elapsed < 2.0


@pytest.mark.parametrize("k, pins", [
    # (nu_t, height, bight, unmixed), generators, minimal covers
    (13, ((2, 4, 14, False), 751, 2450)),
    (41, ((2, 5, 11, False), 261, 2945)),
    (47, ((1, 5, 14, False), 1232, 463)),
])
def test_cover_stats_left_out_chordal20_t5(k, pins):
    # The other graphs left out of the benchmark for being slow.  The pins
    # were recorded with the breadth-wise Berge expansion, under which
    # predict took 0.13-0.19 s; the depth-first search takes 0.05-0.08 s
    # (2 cores, Python 3.11).
    g = random_chordal(20, k, 4)
    start = time.perf_counter()
    preds = predict(g, 5)
    elapsed = time.perf_counter() - start
    stats = preds.ideal.cover_stats()
    assert ((preds.nu_t, preds.height, preds.bight, preds.unmixed),
            len(preds.ideal.gens), len(stats.covers)) == pins
    assert elapsed < 1.0


def test_cover_stats_c5_t3():
    assert t_connected_ideal(fixture("cycle", 5), 3).cover_stats().bight == 2


def test_cover_stats_mixed():
    stats = ideal(4, [1, 2, 3], [2, 3, 4]).cover_stats()
    assert (stats.height, stats.bight, stats.unmixed) == (1, 2, False)


# -- ideal builders ---------------------------------------------------------------


def test_t_connected_zero_for_small_components():
    g = disjoint_union(fixture("path", 3), fixture("path", 2))
    assert t_connected_ideal(g, 4).is_zero
    assert t_connected_ideal(fixture("path", 3), 4).is_zero


def test_t_connected_equal_on_complete_minus_edge():
    k6 = fixture("complete", 6)
    k6e = fixture("complete_minus_edge", 6)
    for t in (3, 4, 5, 6):
        assert t_connected_ideal(k6, t) == t_connected_ideal(k6e, t)
    assert t_connected_ideal(k6, 2) != t_connected_ideal(k6e, 2)


def test_t_connected_path4():
    assert gens_vertices(t_connected_ideal(fixture("path", 4), 3)) == ((1, 2, 3), (2, 3, 4))


def test_t_connected_requires_t2():
    with pytest.raises(ValueError):
        t_connected_ideal(fixture("path", 3), 1)


def test_t_clique_star():
    got = t_clique_ideal(fixture("clique_star", 3, 2), 3)
    assert gens_vertices(got) == ((1, 2, 3), (1, 4, 5), (1, 6, 7))


def test_t_clique_tree_is_zero():
    assert t_clique_ideal(fixture("path", 6), 3).is_zero
    assert t_clique_ideal(random_chordal(7, 3, 1), 3).is_zero  # max_clique 1: a forest


def test_t_clique_t2_is_edge_ideal():
    for seed in range(8):
        g = random_graph(7, 0.4, seed)
        assert t_clique_ideal(g, 2) == t_connected_ideal(g, 2)


# -- big-height propositions -------------------------------------------------------


def bight_of(g, t):
    return t_connected_ideal(g, t).cover_stats().bight


def test_bight_additive_on_disjoint_union():
    pairs = 0
    for seed in range(16):
        g1 = random_chordal(2 + seed % 5, seed, 3)
        g2 = random_graph(2 + (seed * 3) % 5, 0.6, seed + 100)
        for t in (2, 3):
            i1, i2 = t_connected_ideal(g1, t), t_connected_ideal(g2, t)
            if i1.is_zero or i2.is_zero:
                continue
            pairs += 1
            u = disjoint_union(g1, g2)
            assert bight_of(u, t) == bight_of(g1, t) + bight_of(g2, t)
    assert pairs > 8


def test_bight_monotone_under_induced_subgraphs():
    rng = random.Random(21)
    checked = 0
    for seed in range(14):
        g = random_graph(8, 0.5, seed)
        w = rng.sample(range(1, 9), rng.randint(2, 8))
        h, _ = induced_subgraph(g, w)
        for t in (2, 3):
            if t_connected_ideal(h, t).is_zero:
                continue
            checked += 1
            assert bight_of(h, t) <= bight_of(g, t)
    assert checked > 8


def test_bight_at_least_neighborhood_of_connected_sets():
    for seed in range(10):
        g = random_graph(3 + seed % 8, 0.45, seed + 50)
        for t in (2, 3):
            i = t_connected_ideal(g, t)
            if i.is_zero:
                continue
            b = i.cover_stats().bight
            for c in connected_subsets(g, t - 1):
                assert b >= len(neighborhood(g, c)), (seed, t, c)


def test_bight_simplicial_peeling_bound():
    # bight >= |N(C)| + |N(y) - N[C]| + bight after deleting N[C] + N[y],
    # for simplicial x in C, |C| = t-1, G[C] connected, y in N(C).
    checked = 0
    for seed in range(10):
        g = random_chordal(3 + seed % 6, seed * 13 + 2, 3)
        for t in (2, 3):
            big = t_connected_ideal(g, t)
            if big.is_zero:
                continue
            b = big.cover_stats().bight
            simp = set(simplicial_vertices(g))
            for c in connected_subsets(g, t - 1):
                if not simp & set(c):
                    continue
                for y in neighborhood(g, c):
                    closed_c = set(neighborhood(g, c, closed=True))
                    closed_y = set(neighborhood(g, [y], closed=True))
                    gone = closed_c | closed_y
                    keep = [v for v in g.vertices() if v not in gone]
                    rest_gens = [m for m in gens_vertices(big) if set(m) <= set(keep)]
                    rest = SquareFreeIdeal.make(g.n, rest_gens)
                    rest_bight = rest.cover_stats().bight
                    extra = len(closed_y - set(neighborhood(g, c, closed=True)) - {y})
                    checked += 1
                    assert b >= len(neighborhood(g, c)) + extra + rest_bight
    assert checked > 20

