import json

import pytest

import tconnect.graphs
import tconnect.harness
from tconnect.graphs import SearchSpaceError, chordality, fixture, independence_extremes
from tconnect.harness import (
    CorpusConfig,
    batch_verify,
    corpus_graphs,
    predict,
    verify_graph,
)
from tconnect.homology import GF2, GF3, QQ
from tconnect.ideals import SquareFreeIdeal, t_connected_ideal


def verdict_map(report):
    return {v.statement: v.status for v in report.verdicts}


# -- predictions -----------------------------------------------------------------


def test_predict_fig1_t4():
    p = predict(fixture("fig1"), 4)
    assert p.is_chordal
    assert p.predicted_reg == 6
    assert p.predicted_pd == 8
    assert p.predicted_linear is False


def test_predict_fig1_linear_range():
    g = fixture("fig1")
    for t in range(7, 15):
        assert predict(g, t).predicted_linear is True, t


def test_predict_nonchordal_not_applicable():
    p = predict(fixture("cycle", 5), 3)
    assert not p.is_chordal
    assert p.predicted_reg is None and p.predicted_pd is None
    assert p.predicted_linear is None and p.predicted_cm is None
    assert p.bight == 2


def test_predict_checks_the_candidate_cap_before_the_covers(monkeypatch):
    def no_covers(*args):
        raise AssertionError("a cover search ran over the candidate cap")

    monkeypatch.setattr(tconnect.graphs, "CANDIDATE_CAP", 49)
    monkeypatch.setattr(SquareFreeIdeal, "cover_stats", no_covers)
    monkeypatch.setattr(tconnect.harness, "independence_extremes", no_covers)  # fig1 is chordal
    with pytest.raises(SearchSpaceError, match="^50 connected 4-subsets exceed the cap of 49$"):
        predict(fixture("fig1"), 4)


def test_predict_takes_the_elimination_tree_on_chordal_graphs_and_mmcs_elsewhere(monkeypatch):
    g = fixture("fig1")
    stats = t_connected_ideal(g, 4).cover_stats()
    p = predict(g, 4)
    assert p.cover_counts == {"method": "elimination-tree",
                              "states": independence_extremes(g, 4, chordality(g).peo)[2]}
    assert (p.height, p.bight, p.unmixed) == (stats.height, stats.bight, stats.unmixed) == (5, 8, False)
    monkeypatch.setattr(tconnect.graphs, "CANDIDATE_CAP", 50)  # the 50 t-sets, not the bag choices
    over = predict(g, 4)
    assert over.cover_counts == {"method": "mmcs", "minimal": len(stats.masks), "nodes": stats.nodes}
    assert over == p
    cycle = predict(fixture("cycle", 5), 3)
    assert cycle.cover_counts["method"] == "mmcs" and (cycle.height, cycle.bight) == (2, 2)


def test_predict_zero_ideal():
    p = predict(fixture("path", 3), 4)
    assert p.zero_ideal and p.nu_t == 0
    assert p.predicted_reg == 0 and p.predicted_pd == 0


# -- single-graph verification ------------------------------------------------------


def test_verify_path4():
    report = verify_graph(fixture("path", 4), 3)
    statuses = verdict_map(report)
    assert statuses["reg_formula"] == "pass"
    assert statuses["pd_formula"] == "pass"
    assert statuses["linear_iff_gapfree"] == "pass"
    assert statuses["cm_iff_unmixed"] == "pass"
    assert not report.failures
    assert report.oracle["reg"] == 2 and report.oracle["pd"] == 2


def test_verify_cycle5_records_strictness():
    report = verify_graph(fixture("cycle", 5), 3)
    statuses = verdict_map(report)
    assert statuses["reg_lower_bound"] == "pass"
    assert statuses["pd_lower_bound"] == "pass"
    assert statuses["reg_formula"] == "not-applicable"
    assert statuses["pd_strictness_note"] == "pass"
    assert report.oracle["pd"] == 3
    assert not report.failures


def test_verify_zero_ideal_skipped():
    report = verify_graph(fixture("path", 3), 4)
    assert report.skipped
    assert verdict_map(report) == {"zero_ideal": "not-applicable"}


def test_verify_oracle_cap_reports_combinatorial_half():
    report = verify_graph(fixture("fig1"), 4)
    assert report.oracle_skipped
    assert report.oracle is None
    assert report.predictions.predicted_pd == 8
    assert not report.failures


def test_verify_cross_fields():
    report = verify_graph(fixture("path", 5), 3, GF2, cross_fields=(GF3, QQ))
    statuses = verdict_map(report)
    assert statuses["field_independence"] == "pass"
    assert report.fields == ["GF(2)", "GF(3)", "Q"]


def test_verify_fixture_families():
    cases = [fixture("path", n) for n in range(2, 9)]
    cases += [fixture("complete", n) for n in range(2, 9)]
    cases += [fixture("clique_star", 3, 1), fixture("clique_star", 3, 2),
              fixture("clique_star", 4, 1)]
    checked = 0
    for g in cases:
        for t in (2, 3, 4):
            report = verify_graph(g, t)
            assert not report.failures, (g.edges(), t)
            if not report.skipped:
                checked += 1
                statuses = verdict_map(report)
                assert statuses["reg_formula"] == "pass"
                assert statuses["pd_formula"] == "pass"
    assert checked > 25


# -- corpus -----------------------------------------------------------------------


def test_corpus_graphs_deterministic():
    config = CorpusConfig(count=5, n_max=8, t_set=(2,), seed=9)
    a = corpus_graphs(config)
    b = corpus_graphs(config)
    assert [g for _, g in a] == [g for _, g in b]


def test_batch_empty():
    report = batch_verify(CorpusConfig(count=0, n_max=8, t_set=(2, 3), seed=1))
    assert report.items == []
    assert report.summary() == {"pass": 0, "fail": 0, "skipped": 0}


def test_batch_small_corpus_passes():
    config = CorpusConfig(count=12, n_max=8, t_set=(2, 3), seed=4)
    report = batch_verify(config)
    assert report.all_passed
    summary = report.summary()
    assert summary["fail"] == 0
    assert summary["pass"] > 0
    assert len(report.items) == 24


def test_batch_report_byte_identical():
    config = CorpusConfig(count=6, n_max=7, t_set=(2, 3), seed=2)
    one = json.dumps(batch_verify(config).to_json_dict(include_meta=False))
    two = json.dumps(batch_verify(config).to_json_dict(include_meta=False))
    assert one == two


def test_batch_cross_field_reg_pd_match():
    config = CorpusConfig(
        count=8, n_max=7, t_set=(2, 3), seed=3, cross_fields=(GF3, QQ)
    )
    report = batch_verify(config)
    assert report.all_passed
    for item in report.items:
        if item.skipped:
            continue
        assert {v.statement: v.status for v in item.verdicts}["field_independence"] == "pass"


def test_report_json_schema():
    config = CorpusConfig(count=2, n_max=6, t_set=(2,), seed=5)
    data = batch_verify(config).to_json_dict()
    assert set(data) == {"config", "items", "summary"}
    assert set(data["summary"]) == {"pass", "fail", "skipped"}
    item = data["items"][0]
    assert {"graph", "t", "fields", "predictions", "oracle", "verdicts",
            "oracle_skipped", "meta"} <= set(item)
    assert "timing_seconds" in item["meta"]
    nometa = batch_verify(config).to_json_dict(include_meta=False)
    assert "meta" not in nometa["items"][0]
