import random
from dataclasses import replace

import pytest

from tconnect import decomposition
from tconnect.bitset import bit, mask_of, vertices_of
from tconnect.decomposition import (
    FIG1_X5_T4_WORKED_ORDER,
    a_x_list,
    b_sets,
    ledger,
    verify_dominating_intersections,
    verify_identities,
)
from tconnect.graphs import fixture, induced_subgraph, random_chordal, simplicial_vertices
from tconnect.ideals import SquareFreeIdeal, t_connected_ideal
from util import gens_vertices, lcm_l_ideal, neighborhood, neighbors, variables_ideal

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
    bs = b_sets(FIG1, FIG1_X5_T4_WORKED_ORDER)
    assert bs[0] == (1, 2, 6)
    assert bs[1] == (1, 2, 7, 8)  # 4 is excluded: C_2 + {4} equals C_1 + {6}
    assert 4 not in bs[1]


def test_b_sets_path():
    assert b_sets(fixture("path", 4), [(1, 2)]) == [(3,)]


# -- ledger ------------------------------------------------------------------------


def test_ledger_requires_simplicial():
    with pytest.raises(ValueError, match="simplicial"):
        ledger(FIG1, 9, 4)  # 9 has non-adjacent neighbors


def test_ledger_checks_the_vertex_range_first():
    with pytest.raises(ValueError, match="vertex 99 out of range 1..14"):
        ledger(FIG1, 99, 4)


def test_ledger_fig1_first_two_ideals():
    led = ledger(FIG1, 5, 4, FIG1_X5_T4_WORKED_ORDER)
    assert gens_vertices(led.entries[0].j_ideal) == (
        (1, 3, 4, 5), (2, 3, 4, 5), (3, 4, 5, 6),
    )
    assert gens_vertices(led.entries[1].j_ideal) == (
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
    assert gens_vertices(entry.j_ideal) == ((1, 2, 3),)
    assert gens_vertices(entry.k_ideal) == ((2, 3, 4),)
    assert gens_vertices(entry.jk_ideal) == ((1, 2, 3, 4),)
    assert gens_vertices(entry.l_ideal) == ((3, 4),)
    assert gens_vertices(entry.r_ideals[3]) == ((4,),)
    assert gens_vertices(entry.l_ideal.colon([3])) == ((4,),)


def assert_l_is_lcm_definition(led):
    # L_i is built from the graph; the paper's lcm definition must agree
    for e in led.entries:
        assert e.l_ideal == lcm_l_ideal(led.graph.n, e.c, e.j_ideal, e.k_ideal), e.c


# -- identity verification -----------------------------------------------------------


def test_identities_fig1_paper_order():
    led = ledger(FIG1, 5, 4, FIG1_X5_T4_WORKED_ORDER)
    assert_l_is_lcm_definition(led)
    report = verify_identities(led)
    assert report.all_passed
    labels = {r.lemma for r in report.records}
    assert labels == {"3.5(1)", "3.5(2a)", "3.5(2b)"}


def test_identities_fig1_default_order():
    led = ledger(FIG1, 5, 4)
    assert_l_is_lcm_definition(led)
    assert verify_identities(led).all_passed


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
                led = ledger(g, x, t)
                assert_l_is_lcm_definition(led)
                report = verify_identities(led)
                cases += len(report.records)
                assert report.all_passed, (seed, x, t)
    assert cases > 100


def test_identities_slow_chordal20_t5():
    # random_chordal(20, 12, 4) is left out of the benchmark for being slow:
    # K_i holds up to 1691 generators here, and the sums and intersections
    # of the identities are the antichain merges and prunes of ideals.py.
    g = random_chordal(20, 12, 4)
    led = ledger(g, simplicial_vertices(g)[0], 5)
    assert_l_is_lcm_definition(led)
    report = verify_identities(led)
    assert report.all_passed
    assert len(report.records) == 550


def test_ledger_intersections_match_the_pairwise_lcms():
    # the ledger builds J_i ∩ K_i as x_C * ((K_i : x_C) ∩ <B_i>); the
    # pairwise lcms of J_i and K_i are the reference
    cases = [(FIG1, x, t) for t in range(2, 6) for x in simplicial_vertices(FIG1)]
    for k in (0, 38):
        g = random_chordal(20, k, 4)
        cases += [(g, x, 5) for x in simplicial_vertices(g)]
    entries = 0
    for g, x, t in cases:
        for e in ledger(g, x, t).entries:
            assert e.jk_ideal == e.j_ideal.intersect(e.k_ideal), (g.n, x, t, e.c)
            entries += 1
    assert entries > 500


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
                    g.n, [[old[v - 1] for v in gen] for gen in gens_vertices(sub_ideal)]
                )
                m_part = variables_ideal(g.n, set(neighborhood(g, cset)) - {w})
                n_part = variables_ideal(g.n, set(neighbors(g, w)) - closed_c)
                assert entry.l_ideal.colon([w]) == m_part.add(n_part).add(lifted)


# -- fault injection: each identity rejects a corrupted ledger ideal ------------------


def _failed(report, lemma):
    return {(r.i, r.w) for r in report.records if r.lemma == lemma and not r.passed}


def _with_entry(led, i, **changes):
    entries = list(led.entries)
    entries[i - 1] = replace(entries[i - 1], **changes)
    return replace(led, entries=tuple(entries))


def _ledger_without(monkeypatch, g, x, t, m):
    """The ledger built from a base ideal K_0 that lost the generator m."""
    base = t_connected_ideal(g, t)
    with monkeypatch.context() as mp:
        mp.setattr(
            decomposition, "t_connected_ideal",
            lambda g, t: SquareFreeIdeal(g.n, tuple(k for k in base.gens if k != m)),
        )
        return ledger(g, x, t)


def test_fault_sum_identity_drops_j_generator():
    led = ledger(FIG1, 5, 4, FIG1_X5_T4_WORKED_ORDER)
    j = led.entries[0].j_ideal
    bad = _with_entry(led, 1, j_ideal=SquareFreeIdeal(j.n, j.gens[1:]))
    assert _failed(verify_identities(bad), "3.5(1)") == {(1, None)}


def test_fault_intersection_identity_drops_k_generator(monkeypatch):
    # A generator m of K_i that meets N[C_i] lies in no R_i(w), so L_i, built
    # from the graph, does not read it; where dropping m changes the
    # intersection of J_i and K_i, the one the ledger builds from K_i must
    # disagree with x_C * L_i.
    # (Had L_i been built from the lcms of J_i and K_i, it would follow the
    # wrong K_i and this check could not fail.)
    led = ledger(FIG1, 5, 4)
    cases = 0
    for m in led.base_ideal.gens:
        hit = set()
        for i, e in enumerate(led.entries, start=1):
            if m not in e.k_ideal.gens or not m & mask_of(neighborhood(FIG1, e.c, closed=True)):
                continue
            k_bad = SquareFreeIdeal(e.k_ideal.n, tuple(k for k in e.k_ideal.gens if k != m))
            if e.j_ideal.intersect(k_bad) != e.j_ideal.intersect(e.k_ideal):
                hit.add((i, None))
        if hit:
            report = verify_identities(_ledger_without(monkeypatch, FIG1, 5, 4, m))
            assert _failed(report, "3.5(2a)") >= hit, vertices_of(m)
            cases += len(hit)
    assert cases == 24


@pytest.mark.parametrize("fault", ["keep every g * x_w", "drop the generators meeting P"])
def test_fault_intersection_identity_on_the_prime_intersection(monkeypatch, fault):
    # J_i ∩ K_i comes from (K_i : x_C).intersect_variables(B_i): a wrong prime
    # intersection must show up as a 3.5(2a) failure at every index it changes
    real = SquareFreeIdeal.intersect_variables

    def faulty(self, p):
        got = set(real(self, p).gens)
        if fault == "keep every g * x_w":  # no test against the stripped S1
            got |= {g | bit(w) for g in self.gens if not g & p for w in vertices_of(p)}
        else:
            got -= set(self.gens)
        return SquareFreeIdeal(self.n, tuple(sorted(got)))

    monkeypatch.setattr(SquareFreeIdeal, "intersect_variables", faulty)
    led = ledger(FIG1, 5, 4)
    wrong = {(i, None) for i, e in enumerate(led.entries, start=1)
             if e.jk_ideal != e.j_ideal.intersect(e.k_ideal)}
    assert wrong
    assert _failed(verify_identities(led), "3.5(2a)") == wrong


def test_fault_colon_identity_drops_rhs_generator():
    led = ledger(FIG1, 5, 4, FIG1_X5_T4_WORKED_ORDER)
    entry = led.entries[0]
    w = entry.b[0]
    r = entry.r_ideals[w]
    bad = _with_entry(
        led, 1, r_ideals={**entry.r_ideals, w: SquareFreeIdeal(r.n, r.gens[1:])}
    )
    assert _failed(verify_identities(bad), "3.5(2b)") == {(1, w)}


def test_fault_dominating_formula_drops_k_generator(monkeypatch):
    # in complete(5), K_4 = <x2 x3 x4 x5> and B_4 = {5}: without that
    # generator the intersection of J_4 and K_4 is zero, not x_{1,3,4} * <x2 x5>
    g = fixture("complete", 5)
    bad = _ledger_without(monkeypatch, g, 1, 4, mask_of((2, 3, 4, 5)))
    assert _failed(verify_dominating_intersections(bad), "case2") == {(4, None)}
    assert (4, None) in _failed(verify_identities(bad), "3.5(2a)")


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
