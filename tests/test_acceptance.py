"""Acceptance suite: one test per release criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines; the random corpora are seeded so every run is identical.
"""

import random
import time

import pytest

from tconnect.decomposition import FIG1_X5_T4_WORKED_ORDER, ledger, verify_identities
from tconnect.graphs import fixture
from tconnect.harness import CorpusConfig, batch_verify, verify_graph
from tconnect.homology import (
    GF2,
    GF3,
    QQ,
    audit_stats,
    betti_table_ideal,
    homological_invariants,
)
from tconnect.ideals import t_clique_ideal, t_connected_ideal
from tconnect.matching import nu_t
from util import gens_vertices, hypergraph_induced_matching, random_graph


def report(label, elapsed, budget):
    print(f"\nACCEPTANCE {label}: PASS ({elapsed:.2f}s, budget {budget}s)")
    assert elapsed < budget


@pytest.fixture(scope="session")
def audit_baseline():
    return dict(audit_stats())


@pytest.fixture(scope="session")
def chordal_corpus(audit_baseline):
    """Criterion-4 corpus with GF(3) and rational cross-checks attached."""
    config = CorpusConfig(
        count=50, n_max=10, t_set=(2, 3, 4), seed=1, field=GF2,
        max_clique=4, cross_fields=(GF3, QQ),
    )
    start = time.perf_counter()
    result = batch_verify(config)
    return result, time.perf_counter() - start


def test_criterion_1_matching_table():
    start = time.perf_counter()
    g = fixture("fig1")
    expected = {2: 4, 3: 3, 4: 2, 5: 2, 6: 2}
    expected.update({t: 1 for t in range(7, 15)})
    expected[15] = 0
    for t, want in expected.items():
        assert nu_t(g, t).value == want, f"t={t}"
    report("1 (matching table t=2..15)", time.perf_counter() - start, 10)


def test_criterion_2_big_height():
    start = time.perf_counter()
    stats = t_connected_ideal(fixture("fig1"), 4).cover_stats()
    assert stats.bight == 8
    assert (4, 5, 6, 7, 8, 12, 13, 14) in stats.covers
    report("2 (big height at t=4 with witness cover)", time.perf_counter() - start, 60)


def test_criterion_3_peeling_replay():
    start = time.perf_counter()
    led = ledger(fixture("fig1"), 5, 4, FIG1_X5_T4_WORKED_ORDER)
    assert led.entries[0].b == (1, 2, 6)
    assert led.entries[1].b == (1, 2, 7, 8)
    assert gens_vertices(led.entries[0].j_ideal) == (
        (1, 3, 4, 5), (2, 3, 4, 5), (3, 4, 5, 6),
    )
    assert gens_vertices(led.entries[1].j_ideal) == (
        (1, 3, 5, 6), (2, 3, 5, 6), (3, 5, 6, 7), (3, 5, 6, 8),
    )
    rep = verify_identities(led)
    assert rep.all_passed
    assert {r.lemma for r in rep.records} == {"3.5(1)", "3.5(2a)", "3.5(2b)"}
    report("3 (worked peeling replay, all identities)", time.perf_counter() - start, 30)


def test_criterion_4_chordal_theorem_corpus(chordal_corpus):
    result, elapsed = chordal_corpus
    summary = result.summary()
    assert summary["fail"] == 0
    nonzero = [it for it in result.items if not it.skipped]
    assert nonzero, "corpus produced no nonzero instances"
    for item in nonzero:
        statuses = {v.statement: v.status for v in item.verdicts}
        for statement in ("reg_formula", "pd_formula", "linear_iff_gapfree", "cm_iff_unmixed"):
            assert statuses[statement] == "pass", (item.graph_desc, item.t, statement)
    report(f"4 (theorem corpus, {len(nonzero)} nonzero instances)", elapsed, 900)


def test_criterion_5_pentagon_counterexample():
    start = time.perf_counter()
    ideal = t_connected_ideal(fixture("cycle", 5), 3)
    table = betti_table_ideal(ideal, GF2)
    assert table.pd() == 3
    assert ideal.cover_stats().bight == 2
    report("5 (pentagon: pd 3 > bight 2)", time.perf_counter() - start, 5)


def test_criterion_6_clique_ideal_gap():
    start = time.perf_counter()
    g = fixture("clique_star", 3, 2)
    ideal = t_clique_ideal(g, 3)
    t, r = 3, 2
    reg = betti_table_ideal(ideal, GF2).reg()
    assert reg == (t - 2) * (r + 1) + 1 == 4
    nu, _ = hypergraph_induced_matching(gens_vertices(ideal), g.n)
    assert nu == 1
    assert reg - (t - 1) * nu == (t - 2) * r == 2
    report("6 (clique-ideal regularity gap)", time.perf_counter() - start, 30)


def test_criterion_7_field_independence(chordal_corpus):
    result, _ = chordal_corpus
    start = time.perf_counter()
    checked = 0
    for item in result.items:
        if item.skipped:
            continue
        statuses = {v.statement: v.status for v in item.verdicts}
        assert statuses["field_independence"] == "pass", (item.graph_desc, item.t)
        checked += 1
    assert checked > 0
    report(f"7 (reg/pd identical over GF(2)/GF(3)/Q, {checked} instances)",
           time.perf_counter() - start, 900)


def test_criterion_8_bounds_on_random_graphs():
    start = time.perf_counter()
    rng = random.Random(2)
    checked = 0
    for _ in range(30):
        n = rng.randint(1, 9)
        g = random_graph(n, 0.4, rng.randrange(2**32))
        for t in (2, 3):
            ideal = t_connected_ideal(g, t)
            if ideal.is_zero:
                continue
            stats = ideal.cover_stats()
            nu = nu_t(g, t).value
            table = betti_table_ideal(ideal, GF2)
            inv = homological_invariants(table, stats.height)
            assert inv.reg >= (t - 1) * nu, (g.edges(), t)
            assert inv.pd >= stats.bight, (g.edges(), t)
            checked += 1
    assert checked > 0
    report(f"8 (lower bounds on {checked} non-chordal-corpus instances)",
           time.perf_counter() - start, 900)


def test_criterion_9_ideal_equality_fixture():
    start = time.perf_counter()
    k6 = fixture("complete", 6)
    k6e = fixture("complete_minus_edge", 6)
    for t in (3, 4, 5, 6):
        assert t_connected_ideal(k6, t) == t_connected_ideal(k6e, t), t
    assert t_connected_ideal(k6, 2) != t_connected_ideal(k6e, 2)
    report("9 (complete graph vs edge-deleted: equal ideals for t>=3)",
           time.perf_counter() - start, 5)


def test_criterion_11_paper_example_oracle_verified(monkeypatch):
    # fig1 has n = 14, over the default oracle cap of 12: lift it explicitly
    monkeypatch.setenv("SR_MAX_ORACLE_N", "14")
    start = time.perf_counter()
    g = fixture("fig1")
    for t in (2, 3, 4, 5):
        report_t = verify_graph(g, t, GF2)
        assert not report_t.oracle_skipped, t
        statuses = {v.statement: v.status for v in report_t.verdicts}
        for statement in ("reg_formula", "pd_formula", "linear_iff_gapfree", "cm_iff_unmixed"):
            assert statuses[statement] == "pass", (t, statement, statuses)
    report("11 (fig1, n=14, oracle-verified at t=2..5)", time.perf_counter() - start, 120)


def test_criterion_10_oracle_self_consistency(chordal_corpus, audit_baseline):
    # chordal_corpus (criteria 4 and 7) plus criteria 5, 6, 8, 11 all route
    # through the homology evaluator, whose per-evaluation audit raises on
    # the first inconsistency; confirm evaluations happened and none failed
    stats = audit_stats()
    assert stats["checks"] > audit_baseline["checks"]
    assert stats["failures"] == 0
    print(f"\nACCEPTANCE 10: PASS ({stats['checks'] - audit_baseline['checks']}"
          " audited homology evaluations, 0 failures)")
