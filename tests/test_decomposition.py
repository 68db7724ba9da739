import random

import pytest

from tconnect.bitset import bit
from tconnect.decomposition import (
    FIG1_X5_T4_WORKED_ORDER,
    a_x_list,
    b_sets,
    ledger,
    verify_dominating_intersections,
    verify_identities,
)
from tconnect.graphs import (
    fixture,
    induced_subgraph,
    neighborhood,
    random_chordal,
    simplicial_vertices,
)
from tconnect.ideals import SquareFreeIdeal, t_connected_ideal, variables_ideal

FIG1 = fixture("fig1")

WORKED_A5 = {
    (3, 4, 5), (3, 5, 6), (4, 5, 6), (2, 4, 5), (1, 4, 5),
    (2, 3, 5), (1, 3, 5), (5, 6, 7), (5, 6, 8),
}


# -- candidate lists and neighbor sets ------------------------------------------


def test_a_x_list_fig1():
    got = a_x_list(FIG1, 5, 4)
    assert set(got) == WORKED_A5
    assert got == sorted(got)  # default order is lexicographic


def test_a_x_list_explicit_order():
    got = a_x_list(FIG1, 5, 4, FIG1_X5_T4_WORKED_ORDER)
    assert got == list(FIG1_X5_T4_WORKED_ORDER)


def test_a_x_list_bad_order():
    with pytest.raises(ValueError, match="permutation"):
        a_x_list(FIG1, 5, 4, [(3, 4, 5)])


def test_a_x_list_path():
    assert a_x_list(fixture("path", 4), 1, 3) == [(1, 2)]


def test_a_x_list_t2_single():
    assert a_x_list(FIG1, 7, 2) == [(7,)]


def test_b_sets_paper_order():
    bs = b_sets(FIG1, 5, 4, FIG1_X5_T4_WORKED_ORDER)
    assert bs[0] == (1, 2, 6)
    assert bs[1] == (1, 2, 7, 8)  # 4 is excluded: C_2 + {4} equals C_1 + {6}
    assert 4 not in bs[1]


def test_b_sets_path():
    assert b_sets(fixture("path", 4), 1, 3, [(1, 2)]) == [(3,)]


# -- ledger ------------------------------------------------------------------------


def test_ledger_requires_simplicial():
    with pytest.raises(ValueError, match="simplicial"):
        ledger(FIG1, 9, 4)  # 9 has non-adjacent neighbors


def test_ledger_fig1_first_two_ideals():
    led = ledger(FIG1, 5, 4, FIG1_X5_T4_WORKED_ORDER)
    assert led.entries[0].j_ideal.gens_vertices() == (
        (1, 3, 4, 5), (2, 3, 4, 5), (3, 4, 5, 6),
    )
    assert led.entries[1].j_ideal.gens_vertices() == (
        (1, 3, 5, 6), (2, 3, 5, 6), (3, 5, 6, 7), (3, 5, 6, 8),
    )
    k1 = led.entries[0].k_ideal
    assert set(k1.gens) == set(led.base_ideal.gens) - set(led.entries[0].j_ideal.gens)


def test_ledger_last_k_drops_the_vertex():
    for g, x, t in ((FIG1, 5, 4), (random_chordal(8, 4, 3), None, 3)):
        if x is None:
            x = simplicial_vertices(g)[0]
        led = ledger(g, x, t)
        want = SquareFreeIdeal(
            g.n, tuple(m for m in t_connected_ideal(g, t).gens if not m & bit(x))
        )
        assert led.k_ideal(len(led.entries)) == want


def test_ledger_path4():
    led = ledger(fixture("path", 4), 1, 3)
    entry = led.entries[0]
    assert entry.b == (3,)
    assert entry.j_ideal.gens_vertices() == ((1, 2, 3),)
    assert entry.k_ideal.gens_vertices() == ((2, 3, 4),)
    assert entry.l_ideal.gens_vertices() == ((3, 4),)
    assert entry.l_ideal.colon([3]).gens_vertices() == ((4,),)


# -- identity verification -----------------------------------------------------------


def test_identities_fig1_paper_order():
    report = verify_identities(ledger(FIG1, 5, 4, FIG1_X5_T4_WORKED_ORDER))
    assert report.all_passed
    labels = {r.lemma for r in report.records}
    assert labels == {"3.5(1)", "3.5(2a)", "3.5(2b)"}


def test_identities_fig1_default_order():
    assert verify_identities(ledger(FIG1, 5, 4)).all_passed


def test_identities_path4():
    report = verify_identities(ledger(fixture("path", 4), 1, 3))
    assert report.all_passed
    assert report.b == ((3,),)


def test_identities_random_chordal():
    cases = 0
    for seed in range(12):
        g = random_chordal(2 + seed % 9, seed * 11 + 5, 4)
        for x in simplicial_vertices(g):
            for t in (2, 3, 4):
                report = verify_identities(ledger(g, x, t))
                cases += len(report.records)
                assert report.all_passed, (seed, x, t)
    assert cases > 100


def test_identity_order_independence_of_endpoints():
    # intermediate B sets depend on the ordering, the end identities do not
    led_a = ledger(FIG1, 5, 4, FIG1_X5_T4_WORKED_ORDER)
    led_b = ledger(FIG1, 5, 4)
    e_a, e_b = led_a.entries[0], led_b.entries[0]
    assert e_a.j_ideal.add(e_a.k_ideal) == e_b.j_ideal.add(e_b.k_ideal) == led_a.base_ideal


def test_colon_comma_exchange_on_ledger_ideals():
    rng = random.Random(53)
    led = ledger(FIG1, 5, 4, FIG1_X5_T4_WORKED_ORDER)
    for entry in led.entries[:4]:
        k = entry.k_ideal
        for _ in range(4):
            w = rng.randint(1, 14)
            below = variables_ideal(14, range(1, rng.randint(1, 5)))
            assert k.add(below).colon([w]) == k.colon([w]).add(below)


def test_colon_expansion_via_deleted_graph():
    # (L_i : w) agrees with variables on N(C_i)-w and N(w)-N[C_i] plus the
    # t-connected ideal of the graph with N[C_i]+N[w] deleted, rebuilt
    # independently through an induced subgraph and relabeled back
    for g, x, t in ((FIG1, 5, 4), (fixture("path", 6), 1, 3)):
        led = ledger(g, x, t)
        for entry in led.entries:
            cset = entry.c
            for w in entry.b:
                closed_c = set(neighborhood(g, cset, closed=True))
                closed_w = set(neighborhood(g, [w], closed=True))
                keep = [v for v in g.vertices() if v not in closed_c | closed_w]
                sub, old = induced_subgraph(g, keep)
                sub_ideal = t_connected_ideal(sub, t)
                lifted = SquareFreeIdeal.make(
                    g.n, [[old[v - 1] for v in gen] for gen in sub_ideal.gens_vertices()]
                )
                m_part = variables_ideal(g.n, set(neighborhood(g, cset)) - {w})
                n_part = variables_ideal(g.n, set(g.neighbors(w)) - closed_c)
                assert entry.l_ideal.colon([w]) == m_part.add(n_part).add(lifted)


# -- dominating-index intersections -----------------------------------------------


def test_dominating_complete5():
    report = verify_dominating_intersections(ledger(fixture("complete", 5), 1, 4))
    assert report.all_passed
    assert all(r.applicable for r in report.records)
    assert len(report.records) == 6  # all connected 3-sets through vertex 1


def test_dominating_fig1_not_applicable():
    report = verify_dominating_intersections(ledger(FIG1, 5, 4, FIG1_X5_T4_WORKED_ORDER))
    assert report.all_passed
    assert not any(r.applicable for r in report.records)


def test_dominating_clique_star_pair():
    report = verify_dominating_intersections(ledger(fixture("clique_star", 3, 1), 2, 3))
    assert report.all_passed
    assert report.records  # report generated either way


# -- report serialization --------------------------------------------------------------


def test_report_json_shape():
    report = verify_identities(ledger(fixture("path", 4), 1, 3))
    data = report.to_json_dict()
    assert data["all_pass"] is True
    assert data["order"] == [[1, 2]]
    assert data["b_sets"] == [[3]]
    row = data["identities"][0]
    assert set(row) == {"lemma", "i", "w", "pass", "detail"}
