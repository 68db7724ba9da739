import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tconnect
from tconnect.cli import main
from tconnect.graphs import chordality, fixture, parse_graph
from tconnect.homology import GF2, betti_table_ideal
from tconnect.ideals import t_connected_ideal


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- analyze -------------------------------------------------------------------


def test_analyze_fig1(capsys):
    code, data = run_json(capsys, ["analyze", "--fixture", "fig1", "--t", "4"])
    assert code == 0
    assert data["predicted_pd"] == 8
    assert data["predicted_reg"] == 6
    assert data["generators_count"] == 50


def test_analyze_cycle5(capsys):
    code, data = run_json(capsys, ["analyze", "--fixture", "cycle", "--param", "5", "--t", "3"])
    assert code == 0
    assert data["is_chordal"] is False
    assert data["bight"] == 2


def test_analyze_zero_ideal_notice(capsys):
    code, data = run_json(capsys, ["analyze", "--fixture", "path", "--param", "3", "--t", "4"])
    assert code == 0
    assert data["zero_ideal"] is True
    assert "notice" in data


def test_analyze_over_the_candidate_cap_exit2(monkeypatch, capsys):
    monkeypatch.setattr(tconnect.graphs, "CANDIDATE_CAP", 49)
    assert main(["analyze", "--fixture", "fig1", "--t", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "50 connected 4-subsets exceed the cap of 49" in captured.err


def test_analyze_from_file(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text("4\n1 2\n2 3\n3 4\n")
    code, data = run_json(capsys, ["analyze", "--path", str(p), "--t", "3"])
    assert code == 0
    assert data["generators_count"] == 2


# -- betti ----------------------------------------------------------------------


def test_betti_path4(capsys):
    code, data = run_json(
        capsys, ["betti", "--fixture", "path", "--param", "4", "--t", "3", "--field", "gf2"]
    )
    assert code == 0
    entries = {(e["i"], e["j"]): e["beta"] for e in data["entries"]}
    assert entries[(1, 3)] == 2 and entries[(2, 4)] == 1


def test_betti_clique_star_rationals(capsys):
    code, data = run_json(
        capsys,
        ["betti", "--fixture", "clique_star", "--param", "3,2", "--t", "3",
         "--ideal", "clique", "--field", "q"],
    )
    assert code == 0
    assert data["field"] == "Q"
    assert data["reg"] == 4


def test_betti_complete4_principal(capsys):
    code, data = run_json(
        capsys, ["betti", "--fixture", "complete", "--param", "4", "--t", "4"]
    )
    assert code == 0
    nonzero = [(e["i"], e["j"]) for e in data["entries"] if e["i"] >= 1]
    assert nonzero == [(1, 4)]


def test_betti_cap_exit2(capsys):
    assert main(["betti", "--fixture", "fig1", "--t", "4"]) == 2
    assert "cap" in capsys.readouterr().err


def test_betti_env_cap_override(monkeypatch, capsys):
    monkeypatch.setenv("SR_MAX_ORACLE_N", "13")
    code, data = run_json(
        capsys, ["betti", "--fixture", "path", "--param", "13", "--t", "13"]
    )
    assert code == 0
    assert data["pd"] == 1


def test_betti_bad_env_cap_exit2(monkeypatch, capsys):
    monkeypatch.setenv("SR_MAX_ORACLE_N", "abc")
    assert main(["betti", "--fixture", "path", "--param", "4", "--t", "3"]) == 2
    assert "SR_MAX_ORACLE_N" in capsys.readouterr().err


def test_betti_over_memory_exit2(monkeypatch, capsys):
    monkeypatch.setattr(tconnect.homology, "_physical_memory", lambda: 256 << 10)
    monkeypatch.setenv("SR_MAX_ORACLE_N", "13")
    assert main(["betti", "--fixture", "path", "--param", "13", "--t", "13"]) == 2
    assert "physical memory" in capsys.readouterr().err


# -- verify --------------------------------------------------------------------


def test_verify_random_corpus(capsys):
    code, data = run_json(
        capsys,
        ["verify", "--random", "--count", "10", "--n-max", "8", "--t", "2,3",
         "--seed", "1", "--no-meta"],
    )
    assert code == 0
    assert data["summary"]["fail"] == 0


def test_verify_fig1_decompose_paper(capsys):
    code, data = run_json(
        capsys,
        ["verify", "--fixture", "fig1", "--t", "4", "--decompose", "5",
         "--order", "paper", "--no-meta"],
    )
    assert code == 0
    assert data["decomposition"]["all_pass"] is True
    assert data["decomposition"]["b_sets"][0] == [1, 2, 6]
    labels = {row["lemma"] for row in data["decomposition"]["identities"]}
    assert labels == {"3.5(1)", "3.5(2a)", "3.5(2b)", "case2"}


def test_verify_cycle5_exits_zero(capsys):
    code, data = run_json(
        capsys, ["verify", "--fixture", "cycle", "--param", "5", "--t", "3", "--no-meta"]
    )
    assert code == 0
    notes = [v for v in data["verdicts"] if v["statement"] == "pd_strictness_note"]
    assert notes and "3" in notes[0]["reason"]


def test_verify_decompose_dominating_indices(capsys):
    code, data = run_json(
        capsys,
        ["verify", "--fixture", "complete", "--param", "5", "--t", "4",
         "--decompose", "1", "--no-meta"],
    )
    assert code == 0
    rows = data["decomposition"]["identities"]
    assert any(r["lemma"] == "case2" and r["pass"] for r in rows)


def test_verify_paper_order_guard(capsys):
    code = main(["verify", "--fixture", "path", "--param", "4", "--t", "3",
                 "--decompose", "1", "--order", "paper"])
    assert code == 2
    assert "order paper" in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    ("verify --fixture fig1 --t 4 --order paper", "--order paper"),
    ("verify --random --decompose 5", "--decompose"),
    ("verify --random --order paper", "--order"),
    ("verify --random --fixture fig1", "--fixture"),
    ("verify --random --param 5", "--param"),
    ("verify --random --path graph.txt", "--path"),
    ("verify --fixture fig1 --t 4 --count 5", "--count has no effect without --random"),
    ("verify --fixture fig1 --t 4 --n-max 5", "--n-max has no effect without --random"),
    ("verify --fixture fig1 --t 4 --seed 2", "--seed has no effect without --random"),
    ("verify --fixture fig1 --t 4 --clique-cap 3", "--clique-cap has no effect without --random"),
])
def test_verify_rejects_a_flag_it_would_ignore(capsys, argv, flag):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and flag in captured.err


@pytest.mark.parametrize("field,cross", [
    ("gf2", ["GF(3)", "Q"]),
    ("gf3", ["GF(2)", "Q"]),
    ("q", ["GF(2)", "GF(3)"]),
])
def test_verify_cross_field_checks_every_other_field(capsys, field, cross):
    code, data = run_json(capsys, ["verify", "--fixture", "path", "--param", "5", "--t", "2",
                                   "--field", field, "--cross-field", "--no-meta"])
    assert code == 0
    primary = "Q" if field == "q" else f"GF({field[2:]})"
    assert data["fields"] == [primary] + cross
    verdict = next(v for v in data["verdicts"] if v["statement"] == "field_independence")
    assert verdict["status"] == "pass"
    for label in [primary] + cross:
        assert f"'{label}'" in verdict["reason"]


def test_verify_meta_reports_the_oracle_reduction(capsys):
    argv = ["verify", "--fixture", "path", "--param", "7", "--t", "3", "--cross-field"]
    code, data = run_json(capsys, argv)
    assert code == 0
    table = betti_table_ideal(t_connected_ideal(fixture("path", 7), 3), GF2)
    # GF(3) and Q share one +-1-pivot rank of each nonempty boundary matrix
    boundaries = sum(bool(cx.counts[c] and cx.counts[c - 1])
                     for cx in table.reduction.evaluated for c in range(2, len(cx.counts)))
    assert data["meta"]["oracle"] == {"evaluations": table.evaluations, "derived": table.derived,
                                      "joined": table.joined, "ranked_once": boundaries,
                                      "ranked_per_field": 0}
    assert table.evaluations and table.derived and table.joined and boundaries
    code, data = run_json(capsys, argv + ["--no-meta"])
    assert code == 0 and "meta" not in data


def test_verify_meta_reports_the_cover_search(monkeypatch, capsys):
    monkeypatch.delenv("SR_MAX_ORACLE_N", raising=False)
    stats = t_connected_ideal(fixture("fig1"), 4).cover_stats()
    argv = ["verify", "--fixture", "fig1", "--t", "4"]  # n = 14: over the oracle cap
    code, data = run_json(capsys, argv)
    assert code == 0 and data["oracle_skipped"] and "oracle" not in data["meta"]
    assert data["meta"]["covers"] == {"minimal": len(stats.covers), "nodes": stats.nodes}
    assert stats.nodes > len(stats.covers) > 0
    code, data = run_json(capsys, ["verify", "--fixture", "path", "--param", "2", "--t", "3"])
    assert code == 0 and data["meta"]["covers"] == {"minimal": 0, "nodes": 0}  # zero ideal


def test_verify_meta_reports_the_matching_search(monkeypatch, capsys):
    monkeypatch.delenv("SR_MAX_ORACLE_N", raising=False)
    code, data = run_json(capsys, ["verify", "--fixture", "fig1", "--t", "4"])
    assert code == 0
    assert data["meta"]["nu_t"] == {"method": "chordal-greedy", "candidates": 50}
    code, data = run_json(capsys, ["verify", "--fixture", "cycle", "--param", "6", "--t", "3"])
    assert code == 0
    assert data["meta"]["nu_t"] == {"method": "branch-and-bound", "candidates": 6}
    code, data = run_json(capsys, ["verify", "--fixture", "cycle", "--param", "6", "--t", "3",
                                   "--no-meta"])
    assert code == 0 and "meta" not in data


def test_verify_byte_identical(capsys):
    argv = ["verify", "--fixture", "path", "--param", "5", "--t", "3", "--no-meta"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_verify_corpus_byte_identical(capsys):
    argv = ["verify", "--random", "--count", "6", "--n-max", "7", "--t", "2,3",
            "--seed", "5", "--no-meta"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_verify_random_corpus_defaults(capsys):
    # the corpus flags default to 50 / 10 / 1 / 4 under --random
    main(["verify", "--random", "--no-meta"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3a26ca8cf2c27f8bd2760df4a249a51b8de3d3c2108fbe6592ee2458dd473e64")
    main(["verify", "--random", "--count", "50", "--n-max", "10", "--seed", "1",
          "--clique-cap", "4", "--no-meta"])
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("argv,digest", [
    ("verify --fixture fig1 --t 4 --decompose 5 --order paper --no-meta",
     "eddb74143618fb7dec396f23721b0fa2018b599f2f989f8eb1f3e829a9f169ab"),
    ("verify --fixture complete --param 5 --t 4 --decompose 1 --no-meta",
     "6a5c625f03f12c7a00b5e63f9e0cf0f7dd6f7a629f58f246828332c85c140599"),
    ("analyze --fixture fig1 --t 4",
     "68f909f50c16e6bb712d5c4b387efdd41816dfb81a66bee56c8d8145f1060577"),
    ("verify --fixture path --param 10 --t 3 --cross-field --no-meta",
     "03b71818ecf7ef65c25c97d11cef2746cbdb346f01423fd22e2582f0716dc20a"),
    ("verify --random --count 20 --n-max 11 --t 2,3,4 --cross-field --no-meta",
     "0a290e0b49adb0955462cb340fe7673f4a3598fa1ee11914327524eaf9b0b6b0"),
])
def test_golden_output(capsys, argv, digest):
    assert main(argv.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# -- gen ------------------------------------------------------------------------


def test_gen_round_trip(tmp_path, capsys):
    out = tmp_path / "g.txt"
    code = main(["gen", "--n", "8", "--seed", "7", "--max-clique", "3", "--out", str(out)])
    assert code == 0
    g = parse_graph(out.read_text())
    assert g.n == 8
    assert chordality(g).is_chordal


def test_gen_single_vertex_stdout(capsys):
    code = main(["gen", "--n", "1", "--seed", "0"])
    assert code == 0
    assert capsys.readouterr().out == "1\n"


def test_gen_deterministic(capsys):
    main(["gen", "--n", "9", "--seed", "3"])
    first = capsys.readouterr().out
    main(["gen", "--n", "9", "--seed", "3"])
    assert capsys.readouterr().out == first


def test_gen_refuses_a_graph_that_is_not_chordal(tmp_path, monkeypatch, capsys):
    # a generator fault: the check must hold under python -O too, and write nothing
    monkeypatch.setattr(tconnect.cli, "random_chordal", lambda n, seed, max_clique: fixture("cycle", 5))
    out = tmp_path / "g.txt"
    assert main(["gen", "--n", "5", "--out", str(out)]) == 1
    assert main(["gen", "--n", "5"]) == 1
    captured = capsys.readouterr()
    assert not out.exists() and captured.out == ""
    assert "not chordal" in captured.err


# -- errors and plumbing -----------------------------------------------------------


def test_unknown_fixture_exit2(capsys):
    assert main(["analyze", "--fixture", "moebius", "--t", "3"]) == 2


def test_bad_field_exit2(capsys):
    assert main(["betti", "--fixture", "path", "--param", "4", "--t", "3",
                 "--field", "gf15"]) == 2


def test_missing_source_exit2(capsys):
    assert main(["analyze", "--t", "3"]) == 2


def test_both_sources_exit2(tmp_path, capsys):
    p = tmp_path / "g.txt"
    p.write_text("2\n")
    assert main(["analyze", "--fixture", "fig1", "--path", str(p), "--t", "3"]) == 2


def test_verify_single_graph_needs_integer_t(capsys):
    assert main(["verify", "--fixture", "fig1"]) == 2
    assert "integer --t" in capsys.readouterr().err


def test_console_entry_point():
    # The child imports the package this test imported, also when pytest
    # put src on sys.path itself (pyproject's pythonpath) and not in the environment.
    src = str(Path(tconnect.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "tconnect", "analyze", "--fixture", "path",
         "--param", "4", "--t", "3"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["generators_count"] == 2
