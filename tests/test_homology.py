import random
import re
from collections import Counter
from itertools import combinations

import pytest

import tconnect.homology

from tconnect.graphs import fixture, induced_subgraph, random_chordal
from tconnect.harness import verify_graph
from tconnect.homology import (
    Field,
    GF2,
    GF3,
    QQ,
    HomologyAuditError,
    ResourceLimitError,
    audit_stats,
    betti_table_ideal,
    homological_invariants,
)
from tconnect.ideals import SquareFreeIdeal, t_connected_ideal
from util import (
    brute_betti_table,
    brute_non_cone_count,
    gens_vertices,
    hypergraph_induced_matching,
    random_antichain_ideal,
    random_graph,
    shift_ideal,
)


# -- fields -----------------------------------------------------------------


def test_field_parse():
    assert Field.parse("q").p is None
    assert Field.parse("gf2").p == 2
    assert Field.parse("GF(7)").p == 7
    assert Field.parse("q").label() == "Q"
    assert GF3.label() == "GF(3)"
    for text in ("gfx", "gf", "gf()", "gf-3", "z"):
        message = f"unknown field '{text}'; use 'q' or 'gf<p>'"
        with pytest.raises(ValueError, match=re.escape(message)):
            Field.parse(text)


def test_field_requires_prime():
    with pytest.raises(ValueError):
        Field(6)
    for text in ("gf9", "gf1", "GF(15)"):
        with pytest.raises(ValueError, match="is not prime"):
            Field.parse(text)


# -- reduced homology ----------------------------------------------------------


def reduction_counts(table):
    return table.evaluations, table.derived, table.joined


def assert_matches_reference(ideal):
    """Equal tables to the brute Hochster sum over every field, both built
    over the field and ranked ``over`` it from another field's table, and
    every non-cone W evaluated, derived or joined, in the same way over
    every field.  Returns the derived and joined counts."""
    non_cones = brute_non_cone_count(gens_vertices(ideal), ideal.n)
    fields = (GF2, GF3, QQ)
    reference = {fld: brute_betti_table(gens_vertices(ideal), ideal.n, fld.p) for fld in fields}
    counts = set()
    for fld in fields:
        table = betti_table_ideal(ideal, fld)
        assert table.field == fld and table.entries == reference[fld]
        assert sum(reduction_counts(table)) == non_cones
        counts.add(reduction_counts(table))
        for other in fields:
            moved = table.over(other)
            assert moved.field == other and moved.entries == reference[other]
            assert reduction_counts(moved) == reduction_counts(table)
    assert len(counts) == 1  # the reduction does not depend on the field
    _, derived, joined = counts.pop()
    return derived, joined


def test_homology_collapse_agrees_with_direct():
    rng = random.Random(23)
    degree_one = derived = joined = 0
    for _ in range(40):
        n = rng.randint(1, 7)
        ideal = random_antichain_ideal(rng, n, max_gens=6)
        degree_one += any(g.bit_count() == 1 for g in ideal.gens)
        d, j = assert_matches_reference(ideal)
        derived, joined = derived + d, joined + j
    assert degree_one and derived and joined


def test_betti_tables_match_reference_on_chordal_graphs():
    fig1_prefix, _ = induced_subgraph(fixture("fig1"), range(1, 10))
    derived = joined = 0
    for t in (2, 3, 4, 5):
        d, j = assert_matches_reference(t_connected_ideal(fig1_prefix, t))
        derived, joined = derived + d, joined + j
    assert derived and joined
    for seed in range(6):
        g = random_chordal(5 + seed % 4, seed * 7 + 2, 4)
        for t in (2, 3):
            ideal = t_connected_ideal(g, t)
            if not ideal.is_zero:
                assert_matches_reference(ideal)


# -- Betti tables ------------------------------------------------------------------


def test_betti_principal_ideals():
    # W = all t variables restricts to the boundary of a (t-1)-simplex:
    # the empty complex at t = 1, two points at t = 2, a hollow triangle at t = 3
    for fld in (GF2, GF3, QQ):
        for t in (1, 2, 3, 4):
            ideal = SquareFreeIdeal.make(t, [range(1, t + 1)])
            table = betti_table_ideal(ideal, fld)
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
    over_q = table.over(QQ)
    assert over_q.field == QQ and over_q.n == 5 and over_q.entries == {(0, 0): 1}
    assert reduction_counts(over_q) == (0, 0, 0)


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
        for g in gens_vertices(ideal):
            degrees[len(g)] = degrees.get(len(g), 0) + 1
        assert {j: b for (i, j), b in table.entries.items() if i == 1} == degrees


def test_betti_cap(monkeypatch):
    ideal = t_connected_ideal(fixture("fig1"), 4)
    with pytest.raises(ResourceLimitError):
        betti_table_ideal(ideal, GF2)
    monkeypatch.setenv("SR_MAX_ORACLE_N", "13")
    with pytest.raises(ResourceLimitError):
        betti_table_ideal(ideal, GF2)


def test_betti_cap_env_override(monkeypatch):
    ideal = SquareFreeIdeal.make(13, [range(1, 14)])
    with pytest.raises(ResourceLimitError):
        betti_table_ideal(ideal, GF2)
    monkeypatch.setenv("SR_MAX_ORACLE_N", "13")
    table = betti_table_ideal(ideal, GF2)
    assert table.beta(1, 13) == 1
    for bad in ("abc", "-3"):
        monkeypatch.setenv("SR_MAX_ORACLE_N", bad)
        with pytest.raises(ValueError, match="SR_MAX_ORACLE_N"):
            betti_table_ideal(ideal, GF2)


def test_betti_table_memory_checked_before_allocation(monkeypatch):
    # 2^13 subsets of 113 bytes (covered and Euler tables 40 each, via 1,
    # half a colon table 20, fold slices 12) need 904 KiB; claim 896 KiB
    ideal = SquareFreeIdeal.make(13, [range(1, 14)])
    monkeypatch.setenv("SR_MAX_ORACLE_N", "13")
    monkeypatch.setattr(tconnect.homology, "_physical_memory", lambda: 896 << 10)
    with pytest.raises(ResourceLimitError, match="physical memory"):
        betti_table_ideal(ideal, GF2)
    monkeypatch.setattr(tconnect.homology, "_physical_memory", lambda: 1 << 20)
    assert betti_table_ideal(ideal, GF2).beta(1, 13) == 1
    monkeypatch.setattr(tconnect.homology, "_physical_memory", lambda: None)
    assert betti_table_ideal(ideal, GF2).beta(1, 13) == 1


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


@pytest.fixture
def private_audit(monkeypatch):
    """A fresh audit counter, so injected failures leave the session-wide one at 0."""
    audit = {"checks": 0, "failures": 0}
    monkeypatch.setattr(tconnect.homology, "_AUDIT", audit)
    return audit


def test_audit_rejects_a_wrong_rank(monkeypatch, private_audit):
    # The Euler audit cannot see this fault: rank terms cancel in the
    # alternating sum.  Unchecked it yields beta_{1,3} = 8 for 4 generators.
    rank_gf2 = tconnect.homology.rank_gf2
    monkeypatch.setattr(tconnect.homology, "rank_gf2", lambda rows: max(rank_gf2(rows) - 1, 0))
    with pytest.raises(HomologyAuditError, match="beta_1"):
        betti_table_ideal(t_connected_ideal(fixture("path", 6), 3), GF2)


def test_audit_rejects_a_lost_face_or_top_homology(monkeypatch, private_audit):
    ideal = t_connected_ideal(fixture("path", 6), 3)
    collapse = tconnect.homology._collapse

    def lossy(cards, wmask):
        out = collapse(cards, wmask)
        top = max((c for c, fs in enumerate(out) if fs), default=None)
        if top is not None:
            out[top].pop()
        return out

    # the Euler audit compares face counts before collapse with dimensions after it
    with monkeypatch.context() as m:
        m.setattr(tconnect.homology, "_collapse", lossy)
        with pytest.raises(HomologyAuditError, match="audit failed: faces"):
            betti_table_ideal(ideal, GF2)
    assert private_audit["failures"] == 1

    # homology in degree |W| - 1 would land in homological degree 0
    def top_only(cx, fld, red):
        return [0] * cx.w.bit_count() + [1]

    with monkeypatch.context() as m:
        m.setattr(tconnect.homology, "_homology_dims", top_only)
        with pytest.raises(HomologyAuditError, match="unexpected top homology"):
            betti_table_ideal(ideal, GF2)


def off_by_one(fn, delta=-1):
    """fn with every rank it returns moved by delta (None stays None)."""
    def wrong(*args):
        rank = fn(*args)
        return None if rank is None else max(rank + delta, 0)
    return wrong


def test_audit_rejects_a_wrong_rank_over_a_cross_field(monkeypatch, private_audit):
    # the GF(2) table is right; the ranks the +-1 pivots certify for GF(3)
    # are not, and the GF(2) ranks of the same matrices reject them
    with monkeypatch.context() as m:
        m.setattr(tconnect.homology, "rank_unimodular",
                  off_by_one(tconnect.homology.rank_unimodular))
        with pytest.raises(HomologyAuditError, match=r"W=\(.*\) has boundary rank \d+ over GF\(2\)"):
            verify_graph(fixture("path", 6), 3, GF2, cross_fields=(GF3,))
    assert private_audit["failures"] == 1

    # a matrix of the projective plane has a pivot -2, so GF(3) ranks it on
    # its own; a rank one too high there leaves a negative dimension
    table = betti_table_ideal(SquareFreeIdeal.make(6, RP2_NON_FACES), GF2)
    monkeypatch.setattr(tconnect.homology, "rank_mod_p",
                        off_by_one(tconnect.homology.rank_mod_p, +1))
    with pytest.raises(HomologyAuditError, match=r"W=\(1, 2, 3, 4, 5, 6\).*over GF\(3\)"):
        table.over(GF3)
    assert private_audit["failures"] == 2


def test_audit_rejects_a_wrong_certified_rank_over_one_field(monkeypatch, private_audit):
    # no GF(2) rank to compare with: the first syzygies reject it
    monkeypatch.setattr(tconnect.homology, "rank_unimodular",
                        off_by_one(tconnect.homology.rank_unimodular))
    with pytest.raises(HomologyAuditError, match="beta_1"):
        betti_table_ideal(t_connected_ideal(fixture("path", 6), 3), GF3)
    assert private_audit["failures"] == 1


def test_audit_rejects_a_wrong_gf2_rank_after_a_certified_one(monkeypatch, private_audit):
    # GF(3) ranks first, as under verify --field gf3 --cross-field
    table = betti_table_ideal(t_connected_ideal(fixture("path", 6), 3), GF3)
    monkeypatch.setattr(tconnect.homology, "rank_gf2", off_by_one(tconnect.homology.rank_gf2))
    with pytest.raises(HomologyAuditError, match="certify rank"):
        table.over(GF2)
    assert private_audit["failures"] == 1


def count_calls(monkeypatch, names):
    """Wrap the named tconnect.homology functions; returns their call counter."""
    calls = Counter()
    for name in names:
        def wrapper(*args, fn=getattr(tconnect.homology, name), name=name):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(tconnect.homology, name, wrapper)
    return calls


def nonempty_boundaries(table):
    """The boundary matrices of the reduction's collapsed complexes that have rows and columns."""
    return sum(bool(cx.counts[c] and cx.counts[c - 1])
               for cx in table.reduction.evaluated for c in range(2, len(cx.counts)))


RANKS = ("rank_gf2", "rank_unimodular", "rank_mod_p", "rank_rationals")


def test_cross_field_verify_collapses_once_and_ranks_per_field(monkeypatch):
    table = betti_table_ideal(t_connected_ideal(fixture("path", 6), 3), GF2)
    evaluations, boundaries = table.evaluations, nonempty_boundaries(table)
    calls = count_calls(monkeypatch, ("_collapse",) + RANKS)
    report = verify_graph(fixture("path", 6), 3, GF2, cross_fields=(GF3, QQ))
    assert {v.statement: v.status for v in report.verdicts}["field_independence"] == "pass"
    assert evaluations and calls["_collapse"] == evaluations
    assert calls["rank_gf2"] == boundaries
    # one +-1-pivot elimination per matrix serves GF(3) and Q together
    assert boundaries and calls["rank_unimodular"] == boundaries
    assert calls["rank_mod_p"] == calls["rank_rationals"] == 0
    assert report.oracle_counts["ranked_once"] == boundaries
    assert report.oracle_counts["ranked_per_field"] == 0


def test_cross_field_ranks_fall_back_per_field_on_the_projective_plane(monkeypatch):
    ideal = SquareFreeIdeal.make(6, RP2_NON_FACES)
    calls = count_calls(monkeypatch, RANKS)
    table = betti_table_ideal(ideal, GF2)
    over_gf3, over_q = table.over(GF3), table.over(QQ)
    # the one matrix whose elimination meets a pivot -2 is ranked by each field
    assert table.reduction.certificate_counts() == {"ranked_once": 17, "ranked_per_field": 1}
    assert calls["rank_unimodular"] == 18
    assert calls["rank_mod_p"] == calls["rank_rationals"] == 1
    assert over_gf3.entries == over_q.entries == brute_betti_table(gens_vertices(ideal), 6, None)
    assert table.entries == brute_betti_table(gens_vertices(ideal), 6, 2) != over_q.entries


def test_gf2_only_tables_run_no_certificate(monkeypatch):
    calls = count_calls(monkeypatch, RANKS)
    report = verify_graph(fixture("path", 6), 3, GF2)
    assert calls["rank_gf2"] and calls["rank_unimodular"] == 0
    assert report.oracle_counts["ranked_once"] == report.oracle_counts["ranked_per_field"] == 0


def test_audit_rejects_a_wrong_strong_collapse(monkeypatch, private_audit):
    # every link reported a cone: each non-cone W would copy the homology of
    # W minus its lowest vertex; a generator W = {1, 2, 3} has Euler
    # characteristic -1, but {2, 3} has no homology
    monkeypatch.setattr(tconnect.homology, "_colon_covered",
                        lambda ideal, b: [-1] * (1 << ideal.n - 1))
    with pytest.raises(HomologyAuditError, match="derived dimensions"):
        betti_table_ideal(t_connected_ideal(fixture("path", 6), 3), GF2)
    assert private_audit["failures"] == 1


def test_audit_rejects_a_wrong_join(monkeypatch, private_audit):
    # two disjoint edges: W = {1, 2, 3, 4} restricts to the join of two
    # 0-spheres, a circle; a product shifted up one degree gives a 2-sphere,
    # whose Euler characteristic has the other sign
    ideal = SquareFreeIdeal.make(4, [[1, 2], [3, 4]])
    assert betti_table_ideal(ideal, GF2).joined == 1
    join = tconnect.homology._join
    monkeypatch.setattr(tconnect.homology, "_join", lambda a, b: [0] + join(a, b))
    for fld in (GF2, GF3, QQ):
        with pytest.raises(HomologyAuditError, match=re.escape("W=(1, 2, 3, 4)") + ".*joined"):
            betti_table_ideal(ideal, fld)
    assert private_audit["failures"] == 3


# the minimal 6-vertex triangulation of the real projective plane:
# H_1 and H_2 are GF(2)^1 over GF(2), 0 over Q
RP2_FACETS = {
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
    (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
}
RP2_NON_FACES = [c for c in combinations(range(1, 7), 3) if c not in RP2_FACETS]


def test_joined_homology_is_taken_over_the_same_field():
    # its Stanley-Reisner ideal (the triangles that are not facets) plus a
    # generator on two new vertices: every W that meets both restricts to a
    # join, whose homology over GF(2) differs from that over Q
    ideal = SquareFreeIdeal.make(8, [*RP2_NON_FACES, (7, 8)])
    table = betti_table_ideal(ideal, GF2)
    assert table.joined
    over_q = table.over(QQ)
    assert table.entries == brute_betti_table(gens_vertices(ideal), 8, 2)
    assert over_q.entries == brute_betti_table(gens_vertices(ideal), 8, None)
    assert table.entries != over_q.entries


def test_derived_homology_is_taken_over_the_same_field():
    # plus {7, b} for b = 2..6: the link of 7 in [1..7] is the cone
    # {empty, {1}}, so [1..7] derives from [1..6], which restricts to the
    # projective plane; 56 W derive, and each must take its part's homology
    # over the table's own field
    ideal = SquareFreeIdeal.make(7, [*RP2_NON_FACES, *((b, 7) for b in range(2, 7))])
    table = betti_table_ideal(ideal, GF2)
    red = table.reduction
    assert table.derived == len(red.linked_w) == 56  # one part each, so parts line up with W
    assert red.linked_parts[red.linked_w.index(0b1111111)] == 0b111111
    for fld in (GF2, GF3, QQ):
        assert table.over(fld).entries == brute_betti_table(gens_vertices(ideal), 7, fld.p)
    assert (5, 7) in table.entries and (5, 7) not in table.over(QQ).entries


def test_fig1_reduction_counts():
    # (evaluations, derived, joined) of fig1 on vertices 1..12 at t = 2..5
    fig1_prefix, _ = induced_subgraph(fixture("fig1"), range(1, 13))
    want = {2: (44, 1275, 242), 3: (118, 469, 188), 4: (173, 253, 45), 5: (218, 146, 4)}
    got = {t: reduction_counts(betti_table_ideal(t_connected_ideal(fig1_prefix, t), GF2))
           for t in want}
    assert got == want


def test_fig1_boundaries_rank_once_for_every_field(monkeypatch):
    # every nonempty boundary matrix of fig1 on vertices 1..12 at t = 2..5
    # reduces with +-1 pivots, so no field ranks one on its own
    fig1_prefix, _ = induced_subgraph(fixture("fig1"), range(1, 13))
    calls = count_calls(monkeypatch, ("rank_mod_p", "rank_rationals"))
    once = {}
    for t in (2, 3, 4, 5):
        table = betti_table_ideal(t_connected_ideal(fig1_prefix, t), GF2)
        table.over(GF3)
        table.over(QQ)
        counts = table.reduction.certificate_counts()
        assert counts["ranked_per_field"] == 0
        once[t] = counts["ranked_once"]
    assert once == {2: 13, 3: 148, 4: 348, 5: 607} and not calls


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
        variables = sorted({v for g in gens_vertices(ideal) for v in g})
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
        value, witness = hypergraph_induced_matching(gens_vertices(ideal), n)
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


def test_projective_plane_betti_tables():
    # the classical example of characteristic-dependent Betti numbers
    ideal = SquareFreeIdeal.make(6, RP2_NON_FACES)
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
