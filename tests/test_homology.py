import random
import re
from collections import Counter
from itertools import combinations

import pytest

import tconnect.homology

from tconnect.bitset import submasks
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
    brute_betti_tables,
    brute_components,
    brute_cone_link,
    brute_covered,
    brute_euler_table,
    brute_non_cone_count,
    gens_vertices,
    hypergraph_induced_matching,
    intersect,
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
    # 2^13 subsets of 87 bytes (the non-cone list and their Euler
    # characteristics 40 each, three byte tables, 4 of strings) and 44 bit
    # sets of 2^13 bits (13 + 13 + 2 planes + 16) need 740 KiB; claim 739 KiB
    ideal = SquareFreeIdeal.make(13, [range(1, 14)])
    monkeypatch.setenv("SR_MAX_ORACLE_N", "13")
    monkeypatch.setattr(tconnect.homology, "_physical_memory", lambda: 739 << 10)
    with pytest.raises(ResourceLimitError, match="physical memory"):
        betti_table_ideal(ideal, GF2)
    monkeypatch.setattr(tconnect.homology, "_physical_memory", lambda: 740 << 10)
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


def fig1_prefix():
    """fig1 induced on vertices 1..12, the largest prefix under the default oracle cap."""
    return induced_subgraph(fixture("fig1"), range(1, 13))[0]


def test_audit_rejects_a_wrong_rank(monkeypatch, private_audit):
    # The Euler audit cannot see this fault: rank terms cancel in the
    # alternating sum.  Nor can the first syzygies: after the collapse the
    # top cell W - v meets no cell below it, so no top matrix is ranked.
    # Every matrix of fig1 on vertices 1..12 is certified by its +-1
    # pivots, which reject a low GF(2) rank of it.
    rank_gf2 = tconnect.homology.rank_gf2
    monkeypatch.setattr(tconnect.homology, "rank_gf2", lambda rows: max(rank_gf2(rows) - 1, 0))
    with pytest.raises(HomologyAuditError, match=r"over GF\(2\) .* certify rank"):
        betti_table_ideal(t_connected_ideal(fig1_prefix(), 2), GF2)
    assert private_audit["failures"] == 1
    # the projective plane's matrix has a pivot -2, so GF(2) ranks it on
    # its own; a dense elimination over GF(2) rejects a rank one too low
    with pytest.raises(HomologyAuditError,
                       match=r"over GF\(2\) .* a dense elimination gives 4"):
        betti_table_ideal(SquareFreeIdeal.make(6, RP2_NON_FACES), GF2)
    assert private_audit["failures"] == 2


def test_audit_rejects_first_syzygies_moved_two_degrees(monkeypatch, private_audit):
    # homology moved down two degrees keeps every Euler characteristic; a
    # generator W then has no homology in degree |W| - 2, and beta_1 misses it
    dims = tconnect.homology._homology_dims
    monkeypatch.setattr(tconnect.homology, "_homology_dims",
                        lambda cx, fld, red: dims(cx, fld, red)[2:] + [0, 0])
    with pytest.raises(HomologyAuditError, match="beta_1"):
        betti_table_ideal(t_connected_ideal(fixture("path", 6), 3), GF2)
    assert private_audit["failures"] == 1


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
    # the ranks the +-1 pivots certify while the GF(2) table is built are
    # wrong, and the GF(2) ranks of the same matrices reject them
    with monkeypatch.context() as m:
        m.setattr(tconnect.homology, "rank_unimodular",
                  off_by_one(tconnect.homology.rank_unimodular))
        with pytest.raises(HomologyAuditError, match=r"W=\(.*\) has boundary rank \d+ over GF\(2\)"):
            verify_graph(fig1_prefix(), 2, GF2, cross_fields=(GF3,))
    assert private_audit["failures"] == 1

    # a matrix of the projective plane has a pivot -2, so GF(3) ranks it on
    # its own; a dense elimination over GF(3) rejects a rank one too high
    table = betti_table_ideal(SquareFreeIdeal.make(6, RP2_NON_FACES), GF2)
    monkeypatch.setattr(tconnect.homology, "rank_mod_p",
                        off_by_one(tconnect.homology.rank_mod_p, +1))
    with pytest.raises(HomologyAuditError, match=r"W=\(1, 2, 3, 4, 5, 6\).*over GF\(3\)"):
        table.over(GF3)
    assert private_audit["failures"] == 2


def test_audit_rejects_a_wrong_certified_rank_over_one_field(monkeypatch, private_audit):
    # no GF(2) table came first: the GF(2) rank computed for the audit rejects it
    monkeypatch.setattr(tconnect.homology, "rank_unimodular",
                        off_by_one(tconnect.homology.rank_unimodular))
    with pytest.raises(HomologyAuditError, match="certify rank"):
        betti_table_ideal(t_connected_ideal(fig1_prefix(), 2), GF3)
    assert private_audit["failures"] == 1


def test_audit_rejects_a_wrong_gf2_rank_after_a_certified_one(monkeypatch, private_audit):
    # GF(3) ranks first, as under verify --field gf3 --cross-field: its
    # certificates are checked against the GF(2) ranks as they are made,
    # and GF(2) then reads them with no rank of its own
    monkeypatch.setattr(tconnect.homology, "rank_gf2", off_by_one(tconnect.homology.rank_gf2))
    with pytest.raises(HomologyAuditError, match=r"over GF\(2\) .* certify rank"):
        betti_table_ideal(t_connected_ideal(fig1_prefix(), 2), GF3)
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
    table = betti_table_ideal(t_connected_ideal(fig1_prefix(), 2), GF2)
    evaluations, boundaries = table.evaluations, nonempty_boundaries(table)
    calls = count_calls(monkeypatch, ("_collapse",) + RANKS)
    report = verify_graph(fig1_prefix(), 2, GF2, cross_fields=(GF3, QQ))
    assert {v.statement: v.status for v in report.verdicts}["field_independence"] == "pass"
    assert evaluations and calls["_collapse"] == evaluations
    assert (evaluations, boundaries) == (44, 13) and calls["rank_gf2"] == boundaries
    # one +-1-pivot elimination per matrix serves GF(3) and Q together
    assert calls["rank_unimodular"] == boundaries
    assert calls["rank_mod_p"] == calls["rank_rationals"] == 0
    assert report.oracle_counts["ranked_once"] == boundaries
    assert report.oracle_counts["ranked_per_field"] == 0


def test_audit_rejects_a_low_rank_on_a_fallback_matrix(monkeypatch, private_audit):
    # one less on the projective plane's -2-pivot matrix would give GF(3)
    # and Q the GF(2) table: the Euler audits cancel it and beta_1 cannot see it
    table = betti_table_ideal(SquareFreeIdeal.make(6, RP2_NON_FACES), GF2)
    for failures, (fld, rank) in enumerate([(GF3, "rank_mod_p"), (QQ, "rank_rationals")], 1):
        with monkeypatch.context() as m:
            m.setattr(tconnect.homology, rank, off_by_one(getattr(tconnect.homology, rank)))
            with pytest.raises(HomologyAuditError,
                               match=rf"W=\(1, 2, 3, 4, 5, 6\) has boundary rank 4 over "
                                     rf"{re.escape(fld.label())} in degree 2, "
                                     "but a dense elimination gives 5"):
                table.over(fld)
        assert private_audit["failures"] == failures


def test_cross_field_ranks_fall_back_per_field_on_the_projective_plane(monkeypatch):
    ideal = SquareFreeIdeal.make(6, RP2_NON_FACES)
    calls = count_calls(monkeypatch, RANKS)
    table = betti_table_ideal(ideal, GF2)
    over_gf3, over_q = table.over(GF3), table.over(QQ)
    # the one matrix left, from 3-cells to 2-cells of W = [1..6], meets a
    # pivot -2 and is ranked by each field
    assert table.reduction.certificate_counts() == {"ranked_once": 0, "ranked_per_field": 1}
    assert calls["rank_unimodular"] == 1
    assert calls["rank_mod_p"] == calls["rank_rationals"] == 1
    assert over_gf3.entries == over_q.entries == brute_betti_table(gens_vertices(ideal), 6, None)
    assert table.entries == brute_betti_table(gens_vertices(ideal), 6, 2) != over_q.entries


def test_gf2_only_tables_rank_each_matrix_once_by_its_certificate(monkeypatch):
    # GF(2) takes the +-1-pivot rank like every field, and the GF(2) rank
    # of each matrix is its one check: no dense elimination runs
    calls = count_calls(monkeypatch, RANKS + ("_dense_rank",))
    report = verify_graph(fig1_prefix(), 2, GF2)
    assert calls == {"rank_unimodular": 13, "rank_gf2": 13}
    assert report.oracle_counts["ranked_once"] == 13
    assert report.oracle_counts["ranked_per_field"] == 0


def test_audit_rejects_a_wrong_strong_collapse(monkeypatch, private_audit):
    # every link reported a cone: each non-cone W would copy the homology of
    # W minus its lowest vertex; a generator W = {1, 2, 3} has Euler
    # characteristic -1, but {2, 3} has no homology
    def lowest_vertex(colons, lacks):
        return bytes((w & -w).bit_length() for w in range(1 << len(lacks)))

    monkeypatch.setattr(tconnect.homology, "_link_table", lowest_vertex)
    with pytest.raises(HomologyAuditError, match="derived dimensions"):
        betti_table_ideal(t_connected_ideal(fixture("path", 6), 3), GF2)
    assert private_audit["failures"] == 1


def test_audit_rejects_a_wrong_face_table(monkeypatch, private_audit):
    # the first generator left out of the face up-closure only, so it is
    # taken for a face while the cones, links and components still see it:
    # on fig1[1..12] at t = 2 an edge goes missing from beta_1, and on
    # path(6) at t = 3 the Euler table counts {1, 2, 3} as a face of
    # W = {1, 2, 3, 4}, which derives from the hollow triangle {2, 3, 4}
    non_faces = tconnect.homology._non_faces
    monkeypatch.setattr(tconnect.homology, "_non_faces",
                        lambda gens, lacks: non_faces(gens[1:], lacks))
    with pytest.raises(HomologyAuditError, match="beta_1 by degree"):
        betti_table_ideal(t_connected_ideal(fig1_prefix(), 2), GF2)
    assert private_audit["failures"] == 1
    with pytest.raises(HomologyAuditError, match="give Euler characteristic"):
        betti_table_ideal(t_connected_ideal(fixture("path", 6), 3), GF2)
    assert private_audit["failures"] == 2


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


def first_cone_link(gens, w):
    """The lowest vertex bit v of W whose link in the restriction to W is a
    cone (some u of W - v joins every face of the link), by listing faces."""
    def face(f):
        return not any(g & f == g for g in gens)

    for v in (1 << i for i in range(w.bit_length()) if w >> i & 1):
        if face(v):
            link = [f for f in submasks(w ^ v) if face(f | v)]
            if any(all(face(f | u | v) for f in link)
                   for u in (1 << i for i in range(w.bit_length()) if (w ^ v) >> i & 1)):
                return v
    return None


def test_derived_w_take_the_lowest_vertex_with_a_cone_link():
    rng = random.Random(29)
    derived = 0
    for _ in range(40):
        ideal = random_antichain_ideal(rng, rng.randint(2, 6), max_gens=5)
        red = betti_table_ideal(ideal, GF2).reduction
        parts = iter(red.linked_parts)
        linked = {w: [next(parts) for _ in range(k)] for w, k in zip(red.linked_w, red.linked_k)}
        for w in [*linked, *(cx.w for cx in red.evaluated)]:
            v = first_cone_link(ideal.gens, w)
            assert (linked.get(w) == [w ^ v]) if v else len(linked.get(w, ())) != 1
            derived += v is not None
    assert derived


def assert_tables_match_scans(ideal):
    """The face bytes, the cone set and the link table of ``_subset_tables``
    against the per-W scans of the generators and of the colons, at every W.
    Returns whether some colon is None ({v} a generator)."""
    n = ideal.n
    tables = tconnect.homology._subset_tables(ideal)
    colons = [None if 1 << b in ideal.gens else ideal.colon(1 << b).gens for b in range(n)]
    assert len(tables.face) == len(tables.links) == 1 << n
    assert len(tables.chi) == len(tables.non_cones)
    non_cones = []
    for w in range(1 << n):
        covered = brute_covered(ideal.gens, w)
        assert tables.face[w] == (covered == 0), w
        if w and covered == w:
            non_cones.append(w)
        assert tables.links[w] == brute_cone_link(w, colons).bit_length(), w
    assert tables.non_cones == non_cones
    assert tables.cones == (1 << n) - 1 - len(non_cones)
    return None in colons


def test_subset_tables_match_the_per_w_scans():
    rng = random.Random(31)
    sizes, unit_colons = set(), 0
    for _ in range(100):
        ideal = random_antichain_ideal(rng, rng.randint(1, 8), max_gens=6)
        sizes.add(ideal.n)
        unit_colons += assert_tables_match_scans(ideal)
    assert sizes == set(range(1, 9)) and unit_colons  # tables under a byte, colons of None
    for t in (2, 3, 4, 5):
        assert_tables_match_scans(t_connected_ideal(fig1_prefix(), t))
    # _subset_tables is below the oracle cap's check, so n = 20 needs no raised cap
    assert_tables_match_scans(t_connected_ideal(random_chordal(20, 0, 4), 2))


def test_euler_planes_match_the_list_zeta():
    # chi at every non-cone W, read from the bit planes, against the list
    # zeta of the signed face indicator over all 2^n subsets
    rng = random.Random(37)
    ideals = [random_antichain_ideal(rng, rng.randint(1, 10), max_gens=7) for _ in range(80)]
    ideals += [t_connected_ideal(fig1_prefix(), t) for t in (2, 3, 4, 5)]
    ideals.append(t_connected_ideal(random_chordal(20, 0, 4), 2))
    sizes, extremes = set(), set()
    for ideal in ideals:
        tables = tconnect.homology._subset_tables(ideal)
        chi = brute_euler_table(tables.face)
        assert tables.chi == [chi[w] for w in tables.non_cones]
        sizes.add(ideal.n)
        extremes.update((min(tables.chi), max(tables.chi)))
    assert set(range(1, 11)) <= sizes and min(extremes) < 0 < max(extremes)


def test_audit_rejects_a_corrupt_sign_plane(monkeypatch, private_audit):
    # with the sign plane cleared, chi = -1 of the hollow triangle {1, 2, 3}
    # reads as a positive number, and its Euler audit rejects it
    planes = tconnect.homology._euler_planes
    monkeypatch.setattr(tconnect.homology, "_euler_planes",
                        lambda *args: planes(*args)[:-1] + [0])
    with pytest.raises(HomologyAuditError, match=re.escape("audit failed: faces of W=(1, 2, 3)")):
        betti_table_ideal(t_connected_ideal(fixture("path", 6), 3), GF2)
    assert private_audit["failures"] == 1


def assert_components_match_the_generator_scan(ideal):
    """``_components`` at every non-cone W with no cone link against the scan of
    every generator.  Returns the number of W that split."""
    tables = tconnect.homology._subset_tables(ideal)
    split = 0
    for w in tables.non_cones:
        if not tables.links[w]:
            comps = tconnect.homology._components(w, ideal)
            assert sorted(comps) == sorted(brute_components(w, ideal.gens)), w
            split += len(comps) > 1
    return split


def test_components_match_the_generator_scan():
    split = sum(assert_components_match_the_generator_scan(t_connected_ideal(fig1_prefix(), t))
                for t in (2, 3, 4, 5))
    rng = random.Random(43)
    for _ in range(60):
        ideal = random_antichain_ideal(rng, rng.randint(1, 9), max_gens=7)
        split += assert_components_match_the_generator_scan(ideal)
    assert split


def test_fig1_reduction_counts():
    # (evaluations, derived, joined) of fig1 on vertices 1..12 at t = 2..5,
    # and the relative cells of the evaluated W before and after the collapse
    want = {2: (44, 1275, 242), 3: (118, 469, 188), 4: (173, 253, 45), 5: (218, 146, 4)}
    cells = {2: (134, 122), 3: (618, 380), 4: (1093, 529), 5: (1608, 618)}
    tables = {t: betti_table_ideal(t_connected_ideal(fig1_prefix(), t), GF2) for t in want}
    assert {t: reduction_counts(table) for t, table in tables.items()} == want
    red = {t: table.reduction for t, table in tables.items()}
    assert {t: (r.cells_before_collapse, r.cells_after_collapse) for t, r in red.items()} == cells
    assert all(r.cells_after_collapse == sum(len(cx.faces) for cx in r.evaluated)
               for r in red.values())


def test_oracle_verifies_chordal_graphs_on_20_vertices(monkeypatch):
    # no other test runs the oracle above 14 vertices
    monkeypatch.setenv("SR_MAX_ORACLE_N", "20")
    want = {(2, 3): (55, 291, 12), (0, 2): (86, 10912, 453)}
    for (k, t), counts in want.items():
        report = verify_graph(random_chordal(20, k, 4), t)
        assert report.predictions.is_chordal and not report.oracle_skipped
        assert {v.status for v in report.verdicts} == {"pass"}, report.verdicts
        oracle = report.oracle_counts
        assert (oracle["evaluations"], oracle["derived"], oracle["joined"]) == counts


def test_fig1_boundaries_rank_once_for_every_field(monkeypatch):
    # every nonempty boundary matrix of fig1 on vertices 1..12 at t = 2..5
    # reduces with +-1 pivots, so no field ranks one on its own
    calls = count_calls(monkeypatch, ("rank_mod_p", "rank_rationals"))
    once = {}
    for t in (2, 3, 4, 5):
        table = betti_table_ideal(t_connected_ideal(fig1_prefix(), t), GF2)
        table.over(GF3)
        table.over(QQ)
        counts = table.reduction.certificate_counts()
        assert counts["ranked_per_field"] == 0
        once[t] = counts["ranked_once"]
    assert once == {2: 13, 3: 30, 4: 18, 5: 4} and not calls


def empty_cells(monkeypatch):
    """Record each evaluated W's count of empty cells (0 or 1) as the collapse receives them."""
    seen = []
    collapse = tconnect.homology._collapse

    def recording(cards, wbits):
        seen.append(len(cards[0]))
        return collapse(cards, wbits)

    monkeypatch.setattr(tconnect.homology, "_collapse", recording)
    return seen


def test_relative_complex_matches_reference(monkeypatch):
    # each evaluated W keeps only the faces outside the star of its lowest
    # vertex v; when {v} is a generator the star is void and the empty face
    # stays a cell (W = {v}, the only such W that is not joined)
    seen = empty_cells(monkeypatch)
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(2, 7)
        v = rng.randint(1, n)
        gens = gens_vertices(random_antichain_ideal(rng, n, max_gens=5))
        assert_matches_reference(SquareFreeIdeal.make(n, [g for g in gens if v not in g] + [(v,)]))
    assert 1 in seen and 0 in seen
    # torsion through the restricted signed rows: the projective plane, alone
    # and joined with a singleton
    assert_matches_reference(SquareFreeIdeal.make(6, RP2_NON_FACES))
    assert_matches_reference(SquareFreeIdeal.make(7, [*RP2_NON_FACES, (7,)]))


def test_fields_with_the_same_dimensions_share_one_fold(monkeypatch):
    # every boundary matrix of fig1 on vertices 1..12 at t = 2..5 is
    # certified, so the walk decides every W over every field and GF(3) and
    # Q copy the entries it summed: no rank, convolution or collapse
    tables = {t: betti_table_ideal(t_connected_ideal(fig1_prefix(), t), GF2) for t in (2, 3, 4, 5)}
    calls = count_calls(monkeypatch, RANKS + ("_join", "_homology_dims", "_collapse"))
    for table in tables.values():
        assert not table.reduction.field_dependent
        assert table.over(GF3).entries == table.over(QQ).entries == table.entries
    assert not calls and tables[2].joined
    # each table owns its entries: mutating one leaves the rest and the next over alone
    table = tables[2]
    moved = [table.over(GF3), table.over(QQ)]
    want = dict(table.entries)
    table.entries[(1, 2)] += 1
    moved[0].entries.clear()
    assert moved[1].entries == want and table.over(GF3).entries == want
    assert table.entries != want and not calls


def test_a_failed_certificate_sends_only_its_w_and_the_linked_w_above_it_per_field(monkeypatch):
    # the first matrix of fig1[1..12] at t = 2 is given no certificate: its W
    # and the linked W that read it, directly or through a part, are the
    # only ones each field folds, and every table still equals the brute sum
    # (at t = 3 no linked W reads a W with a matrix, so t = 2 is taken)
    ideal = t_connected_ideal(fig1_prefix(), 2)
    unimodular, calls = tconnect.homology.rank_unimodular, []

    def first_fails(rows):
        calls.append(rows)
        return None if len(calls) == 1 else unimodular(rows)

    monkeypatch.setattr(tconnect.homology, "rank_unimodular", first_fails)
    table = betti_table_ideal(ideal, GF2)
    red = table.reduction
    failed = [w for (w, c), rank in red.certified.items() if rank is None]
    assert len(failed) == 1 and red.certificate_counts()["ranked_per_field"] == 1
    above, parts = set(failed), iter(red.linked_parts)
    for w, k in zip(red.linked_w, red.linked_k):
        if above.intersection([next(parts) for _ in range(k)]):
            above.add(w)
    dependent = [w for w, _, _, _ in red.field_dependent]
    assert dependent == sorted(above) and len(dependent) > 1
    counted = count_calls(monkeypatch, ("_homology_dims", "rank_mod_p", "rank_rationals"))
    want = brute_betti_tables(gens_vertices(ideal), ideal.n, (2, 3, None))
    assert table.entries == want[2]
    assert table.over(GF3).entries == want[3] and table.over(QQ).entries == want[None]
    assert counted == {"_homology_dims": 2, "rank_mod_p": 1, "rank_rationals": 1}


def test_fresh_and_moved_tables_match_reference_over_every_field():
    # a table over each field, built afresh and moved there from GF(2),
    # against the brute Hochster sum; only the projective plane's ideals
    # keep W whose homology depends on the field
    rng = random.Random(71)
    ideals = [random_antichain_ideal(rng, rng.randint(1, 8), max_gens=6) for _ in range(100)]
    rp2 = [SquareFreeIdeal.make(6, RP2_NON_FACES),
           SquareFreeIdeal.make(7, [*RP2_NON_FACES, (7,)]),
           SquareFreeIdeal.make(8, [*RP2_NON_FACES, (7, 8)]),
           SquareFreeIdeal.make(7, [*RP2_NON_FACES, *((b, 7) for b in range(2, 7))])]
    dependent = []
    for ideal in ideals + rp2:
        gf2 = betti_table_ideal(ideal, GF2)
        for fld in (GF2, GF3, QQ):
            want = brute_betti_table(gens_vertices(ideal), ideal.n, fld.p)
            assert betti_table_ideal(ideal, fld).entries == gf2.over(fld).entries == want
        dependent.append(len(gf2.reduction.field_dependent))
    assert not any(dependent[:len(ideals)]) and all(dependent[len(ideals):])


def test_audit_rejects_a_star_face_kept_as_a_cell(monkeypatch, private_audit):
    # the empty face lies in the star of v whenever {v} is a face; kept as a
    # cell it moves the alternating count off the Euler characteristic
    collapse = tconnect.homology._collapse
    monkeypatch.setattr(tconnect.homology, "_collapse",
                        lambda cards, wbits: collapse([cards[0] or [0], *cards[1:]], wbits))
    with pytest.raises(HomologyAuditError, match="audit failed: faces"):
        betti_table_ideal(t_connected_ideal(fixture("path", 6), 3), GF2)
    assert private_audit["failures"] == 1


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
        tint = betti_table_ideal(intersect(j, k), GF2)
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
