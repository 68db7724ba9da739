import random

import pytest

import tconnect.homology

from tconnect.graphs import disjoint_union, fixture, random_chordal, random_graph
from tconnect.homology import (
    Field,
    FaceComplex,
    GF2,
    GF3,
    QQ,
    HomologyAuditError,
    ResourceLimitError,
    audit_stats,
    betti_table_ideal,
    homological_invariants,
    reduced_homology_dims,
    restricted_complex,
)
from tconnect.ideals import SquareFreeIdeal, t_connected_ideal
from tconnect.matching import hypergraph_induced_matching, nu_t
from util import random_antichain_ideal, shift_ideal


# -- fields -----------------------------------------------------------------


def test_field_parse():
    assert Field.parse("q").p is None
    assert Field.parse("gf2").p == 2
    assert Field.parse("GF(7)").p == 7
    assert Field.parse("q").label() == "Q"
    assert GF3.label() == "GF(3)"


def test_field_requires_prime():
    with pytest.raises(ValueError):
        Field.gf(6)
    with pytest.raises(ValueError):
        Field.parse("gf9")


# -- restricted complexes -----------------------------------------------------


def test_restricted_complex_path4():
    ideal = t_connected_ideal(fixture("path", 4), 3)
    cx = restricted_complex(ideal, [1, 2, 3])
    # every subset of {1,2,3} except the full set is a face
    assert cx.f_vector() == [1, 3, 3, 0]


def test_restricted_complex_zero_ideal():
    cx = restricted_complex(SquareFreeIdeal.zero(4), [1, 2, 4])
    assert cx.f_vector() == [1, 3, 3, 1]


def test_restricted_complex_empty_w():
    cx = restricted_complex(SquareFreeIdeal.make(3, [[1]]), [])
    assert cx.f_vector() == [1]


# -- reduced homology ----------------------------------------------------------


def hollow_triangle():
    return FaceComplex(0b111, ((0,), (0b001, 0b010, 0b100), (0b011, 0b101, 0b110), ()))


def test_homology_hollow_triangle():
    for fld in (GF2, GF3, QQ):
        assert reduced_homology_dims(hollow_triangle(), fld) == [0, 0, 1, 0]


def test_homology_full_simplex():
    cx = restricted_complex(SquareFreeIdeal.zero(4), [1, 2, 3, 4])
    assert all(d == 0 for d in reduced_homology_dims(cx, GF2))


def test_homology_two_points():
    cx = FaceComplex(0b11, ((0,), (0b01, 0b10)))
    assert reduced_homology_dims(cx, QQ) == [0, 1]


def test_homology_empty_complex():
    cx = FaceComplex(0, ((0,),))
    assert reduced_homology_dims(cx, GF2) == [1]


def test_homology_void_complex():
    cx = FaceComplex(0, ((),))
    assert cx.is_void
    assert reduced_homology_dims(cx, GF2) == []


def test_homology_collapse_agrees_with_direct():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(1, 7)
        ideal = random_antichain_ideal(rng, n, max_gens=6)
        for fld in (GF2, GF3, QQ):
            a = betti_table_ideal(ideal, fld, collapse=True)
            b = betti_table_ideal(ideal, fld, collapse=False)
            assert a.entries == b.entries


# -- Betti tables ------------------------------------------------------------------


def test_betti_principal_ideals():
    for t in (1, 2, 3, 4):
        ideal = SquareFreeIdeal.make(t, [range(1, t + 1)])
        table = betti_table_ideal(ideal, GF2)
        assert table.entries == {(0, 0): 1, (1, t): 1}
        assert table.reg() == t - 1 and table.pd() == 1


def test_betti_path4_resolution():
    table = betti_table_ideal(t_connected_ideal(fixture("path", 4), 3), GF2)
    assert table.entries == {(0, 0): 1, (1, 3): 2, (2, 4): 1}
    assert table.reg() == 2 and table.pd() == 2 and table.depth() == 2


def test_betti_c5_projective_dimension():
    ideal = t_connected_ideal(fixture("cycle", 5), 3)
    table = betti_table_ideal(ideal, GF2)
    assert table.pd() == 3
    assert ideal.cover_stats().bight == 2


def test_betti_zero_ideal():
    table = betti_table_ideal(SquareFreeIdeal.zero(5), GF2)
    assert table.entries == {(0, 0): 1}
    assert table.reg() == 0 and table.pd() == 0 and table.depth() == 5


def test_betti_unit_ideal_rejected():
    with pytest.raises(ValueError):
        betti_table_ideal(SquareFreeIdeal.make(2, [[]]), GF2)


def test_betti_degree_one_counts_generators():
    rng = random.Random(29)
    for _ in range(25):
        n = rng.randint(1, 7)
        ideal = random_antichain_ideal(rng, n, max_gens=6)
        table = betti_table_ideal(ideal, GF2)
        degrees = {}
        for g in ideal.gens_vertices():
            degrees[len(g)] = degrees.get(len(g), 0) + 1
        assert {j: b for (i, j), b in table.entries.items() if i == 1} == degrees


def test_betti_cap():
    ideal = t_connected_ideal(fixture("fig1"), 4)
    with pytest.raises(ResourceLimitError):
        betti_table_ideal(ideal, GF2)
    with pytest.raises(ResourceLimitError):
        betti_table_ideal(ideal, GF2, max_vars=13)


def test_betti_cap_env_override(monkeypatch):
    ideal = SquareFreeIdeal.make(13, [range(1, 14)])
    with pytest.raises(ResourceLimitError):
        betti_table_ideal(ideal, GF2)
    monkeypatch.setenv("SR_MAX_ORACLE_N", "13")
    table = betti_table_ideal(ideal, GF2)
    assert table.beta(1, 13) == 1


def test_betti_json_schema():
    table = betti_table_ideal(t_connected_ideal(fixture("path", 4), 3), GF2)
    data = table.to_json_dict()
    assert data["field"] == "GF(2)"
    assert data["entries"][0] == {"i": 0, "j": 0, "beta": 1}
    assert data["reg"] == 2 and data["pd"] == 2 and data["depth"] == 2


def test_audit_counter_advances():
    before = audit_stats()["checks"]
    betti_table_ideal(t_connected_ideal(fixture("path", 4), 3), GF2)
    after = audit_stats()
    assert after["checks"] > before
    assert after["failures"] == 0


def test_audit_rejects_a_wrong_rank(monkeypatch):
    # The Euler audit cannot see this fault: rank terms cancel in the
    # alternating sum.  Unchecked it yields beta_{1,3} = 8 for 4 generators.
    rank_gf2 = tconnect.homology.rank_gf2
    monkeypatch.setattr(tconnect.homology, "rank_gf2", lambda rows: max(rank_gf2(rows) - 1, 0))
    with pytest.raises(HomologyAuditError, match="beta_1"):
        betti_table_ideal(t_connected_ideal(fixture("path", 6), 3), GF2)


# -- derived invariants ----------------------------------------------------------


def test_invariants_principal():
    ideal = SquareFreeIdeal.make(4, [range(1, 5)])
    inv = homological_invariants(betti_table_ideal(ideal, GF2), ideal.cover_stats().height)
    assert inv.reg == 3 and inv.pd == 1 and inv.depth == 3
    assert inv.is_cm and inv.has_linear_resolution and inv.gen_degree == 4


def test_invariants_zero_ideal():
    inv = homological_invariants(betti_table_ideal(SquareFreeIdeal.zero(4), GF2), 0)
    assert inv.reg == 0 and inv.pd == 0 and inv.is_cm
    assert inv.has_linear_resolution is None and inv.gen_degree is None


def test_invariants_mixed_degrees_not_applicable():
    ideal = SquareFreeIdeal.make(4, [[1], [2, 3, 4]])
    inv = homological_invariants(betti_table_ideal(ideal, GF2), ideal.cover_stats().height)
    assert inv.has_linear_resolution is None and inv.gen_degree is None


def test_invariants_clique_star_gap():
    from tconnect.ideals import t_clique_ideal

    ideal = t_clique_ideal(fixture("clique_star", 3, 2), 3)
    inv = homological_invariants(betti_table_ideal(ideal, QQ), ideal.cover_stats().height)
    assert inv.reg == 4


# -- textbook inequalities, against the oracle --------------------------------------


def test_reg_pd_additive_on_variable_disjoint_ideals():
    rng = random.Random(37)
    for _ in range(12):
        n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
        i1 = random_antichain_ideal(rng, n1, max_gens=3)
        i2 = random_antichain_ideal(rng, n2, max_gens=3)
        combined = shift_ideal(i1, 0, n1 + n2).add(shift_ideal(i2, n1, n1 + n2))
        t_all = betti_table_ideal(combined, GF2)
        t1 = betti_table_ideal(i1, GF2)
        t2 = betti_table_ideal(i2, GF2)
        assert t_all.reg() == t1.reg() + t2.reg()
        assert t_all.pd() == t1.pd() + t2.pd()


def test_reg_membership_under_colon_and_sum():
    # reg(R/I) is reg(R/(I:x)) + 1 or reg(R/(I + <x>))
    rng = random.Random(41)
    checked = 0
    for _ in range(30):
        n = rng.randint(2, 6)
        ideal = random_antichain_ideal(rng, n, max_gens=4)
        variables = sorted({v for g in ideal.gens_vertices() for v in g})
        x = rng.choice(variables)
        colon = ideal.colon([x])
        plus = ideal.add(SquareFreeIdeal.make(n, [[x]]))
        reg = betti_table_ideal(ideal, GF2).reg()
        options = set()
        if not any(g == 0 for g in colon.gens):
            options.add(betti_table_ideal(colon, GF2).reg() + 1)
        options.add(betti_table_ideal(plus, GF2).reg())
        checked += 1
        assert reg in options
    assert checked == 30


def test_reg_pd_bounds_for_sums():
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(2, 6)
        j = random_antichain_ideal(rng, n, max_gens=3)
        k = random_antichain_ideal(rng, n, max_gens=3)
        tj = betti_table_ideal(j, GF2)
        tk = betti_table_ideal(k, GF2)
        tsum = betti_table_ideal(j.add(k), GF2)
        tint = betti_table_ideal(j.intersect(k), GF2)
        assert tsum.reg() <= max(tj.reg(), tk.reg(), tint.reg() - 1)
        assert tsum.pd() <= max(tj.pd(), tk.pd(), tint.pd() + 1)


def test_reg_at_least_induced_matching_weight():
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randint(2, 8)
        ideal = random_antichain_ideal(rng, n, max_gens=5)
        value, witness = hypergraph_induced_matching(ideal.gens_vertices(), n)
        reg = betti_table_ideal(ideal, GF2).reg()
        assert reg >= sum(len(e) - 1 for e in witness)


def test_pd_at_least_bight():
    for seed in range(12):
        g = random_graph(3 + seed % 6, 0.5, seed + 7)
        for t in (2, 3):
            ideal = t_connected_ideal(g, t)
            if ideal.is_zero:
                continue
            assert betti_table_ideal(ideal, GF2).pd() >= ideal.cover_stats().bight


def test_field_independence_on_chordal_graphs():
    for seed in range(8):
        g = random_chordal(2 + seed % 8, seed * 5 + 3, 4)
        for t in (2, 3):
            ideal = t_connected_ideal(g, t)
            if ideal.is_zero:
                continue
            pairs = {
                (betti_table_ideal(ideal, fld).reg(), betti_table_ideal(ideal, fld).pd())
                for fld in (GF2, GF3, QQ)
            }
            assert len(pairs) == 1


# -- published anchor values ----------------------------------------------------------


# minimal 6-vertex triangulation of the projective plane
RP2_FACETS = {
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
}


def rp2_ideal():
    from itertools import combinations

    nonfaces = [c for c in combinations(range(1, 7), 3) if c not in RP2_FACETS]
    return SquareFreeIdeal.make(6, nonfaces)


def test_projective_plane_homology_depends_on_characteristic():
    cx = restricted_complex(rp2_ideal(), range(1, 7))
    assert cx.f_vector() == [1, 6, 15, 10, 0, 0, 0]
    assert reduced_homology_dims(cx, GF2)[:4] == [0, 0, 1, 1]
    assert reduced_homology_dims(cx, QQ)[:4] == [0, 0, 0, 0]
    assert reduced_homology_dims(cx, GF3)[:4] == [0, 0, 0, 0]


def test_projective_plane_betti_tables():
    # the classical example of characteristic-dependent Betti numbers
    ideal = rp2_ideal()
    over_q = betti_table_ideal(ideal, QQ)
    assert over_q.entries == {(0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6}
    assert over_q.reg() == 2 and over_q.pd() == 3
    assert betti_table_ideal(ideal, GF3).entries == over_q.entries
    over_gf2 = betti_table_ideal(ideal, GF2)
    assert over_gf2.entries == {
        (0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6, (3, 6): 1, (4, 6): 1,
    }
    assert over_gf2.reg() == 3 and over_gf2.pd() == 4


def test_complete_graph_edge_ideal_linear_strand():
    from math import comb

    for n in (3, 4, 5):
        table = betti_table_ideal(t_connected_ideal(fixture("complete", n), 2), QQ)
        got = {(i, j): b for (i, j), b in table.entries.items() if i >= 1}
        assert got == {(i, i + 1): i * comb(n, i + 1) for i in range(1, n)}


def test_pentagon_edge_ideal_published_values():
    table = betti_table_ideal(t_connected_ideal(fixture("cycle", 5), 2), QQ)
    assert table.reg() == 2 and table.pd() == 3
