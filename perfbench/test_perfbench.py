"""Tests of the benchmark itself: inputs, metric names and the output gate.

They run on reduced inputs so that they take about a second:

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)


@pytest.fixture(scope="module")
def tc():
    return bench.import_program()


def _inputs(tc, name, seed):
    return [(item.id, item.input) for item in bench.build_items(bench.WORKLOADS[name], tc, seed)]


@pytest.mark.parametrize("name", sorted(bench.WORKLOADS))
def test_inputs_are_deterministic_for_a_seed(tc, name):
    assert _inputs(tc, name, 3) == _inputs(tc, name, 3)
    assert sorted(_inputs(tc, name, 3)) == sorted(_inputs(tc, name, 4))


def _benchmark_units(kind):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.fixture(scope="module")
def small_items(tc, tmp_path_factory):
    """``verify --cross-field`` on fig1 induced on vertices 1..7: the exact-fields path, in milliseconds."""
    h, _ = tc.graphs.induced_subgraph(tc.graphs.fixture("fig1"), range(1, 8))
    path = tmp_path_factory.mktemp("graph") / "fig1_prefix7.txt"
    path.write_text(tc.graphs.format_graph(h), encoding="utf-8")
    return [bench.cli_item(tc, f"fig1[1..7]:t={t}",
                           ["verify", "--path", str(path), "--t", str(t), "--cross-field", "--no-meta"])
            for t in (2, 3)]


@pytest.mark.parametrize("trace,kind", [(False, "end_to_end"), (True, "per_layer")])
def test_printed_metric_names_match_benchmark_json(tc, small_items, trace, kind):
    result = bench.measure(tc, small_items, 0.0, trace, [0.01])
    line = json.loads(result.line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    units = _benchmark_units(kind)
    assert list(line["metrics"]) == list(units)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units


def test_tracing_restores_the_program(tc, small_items):
    before = tc.homology.rank_gf2, tc.ideals.SquareFreeIdeal.__dict__["cover_stats"]
    result = bench.measure(tc, small_items, 0.0, True, [0.01])
    assert (tc.homology.rank_gf2, tc.ideals.SquareFreeIdeal.__dict__["cover_stats"]) == before
    assert result.spans and all(span[4] is not None for span in result.spans)


def test_wrong_rank_makes_the_gate_reject_the_run(tc, small_items, monkeypatch):
    rank_gf2 = tc.homology.rank_gf2
    monkeypatch.setattr(tc.homology, "rank_gf2", lambda rows: rank_gf2(rows) - 1)
    result = bench.measure(tc, small_items, 0.0, False, [0.01])
    assert result.failed > 0
    assert not result.correct
    assert not json.loads(result.line())["correct"]


def _wrong_nu_t(tc, monkeypatch):
    nu_t = tc.harness.nu_t

    def wrong(g, t):
        result = nu_t(g, t)
        return dataclasses.replace(result, value=result.value + 1)

    monkeypatch.setattr(tc.harness, "nu_t", wrong)


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_fig1_pins_hold_and_can_fail(tc, t, monkeypatch):
    check = bench.fig1_pin_check(tc, t)
    assert check() is None
    _wrong_nu_t(tc, monkeypatch)
    assert check() is not None


def _cheap_analyze_items(tc):
    # About 0.1 s together: random_chordal(20, 2, 4) at t = 3 and 4.
    return [item for item in bench.analyze_large(tc, 1)
            if item.id in ("chordal20[2]:t=3", "chordal20[2]:t=4")]


def test_analyze_large_passes_at_this_commit(tc):
    result = bench.measure(tc, _cheap_analyze_items(tc), 0.0, False, [0.01])
    assert result.attempted == 2 and result.failed == 0


def test_wrong_nu_t_makes_analyze_large_fail(tc, monkeypatch):
    _wrong_nu_t(tc, monkeypatch)
    result = bench.measure(tc, _cheap_analyze_items(tc), 0.0, False, [0.01])
    assert result.failed / result.attempted > 0
    assert all("nu_t" in p for p in result.passes[0].problems.values())


def test_gate_rejects_a_skipped_oracle_or_a_missing_field_check(tc):
    preds = tc.harness.predict(tc.graphs.fixture("fig1"), 4).to_json_dict()
    verdicts = [{"statement": s, "status": "pass", "reason": ""} for s in bench.CHORDAL_VERDICTS]
    doc = {"predictions": preds, "verdicts": verdicts, "oracle": {}, "oracle_skipped": False}
    assert bench.verify_doc_problem(doc, True) is not None
    doc["verdicts"].append({"statement": "field_independence", "status": "pass", "reason": ""})
    assert bench.verify_doc_problem(doc, True) is None
    doc["oracle_skipped"] = True
    assert bench.verify_doc_problem(doc, True) is not None
    doc["oracle_skipped"], doc["oracle"] = False, None
    assert bench.verify_doc_problem(doc, True) is not None


def test_tail_is_the_highest_percentile_with_ten_items_beyond():
    times = [float(i) for i in range(40)]
    assert bench.tail(times) == (29.0, 75.0)
    assert bench.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)
