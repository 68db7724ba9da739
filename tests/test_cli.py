import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tconnect
from tconnect.cli import main
from tconnect.graphs import chordality, parse_graph


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


def test_betti_cap_flag_lifts_limit(capsys):
    args = ["betti", "--fixture", "path", "--param", "13", "--t", "13"]
    assert main(args) == 2
    capsys.readouterr()
    code, data = run_json(capsys, args + ["--cap", "13"])
    assert code == 0
    assert {(e["i"], e["j"]): e["beta"] for e in data["entries"]}[(1, 13)] == 1


def test_betti_env_cap_override(monkeypatch, capsys):
    monkeypatch.setenv("SR_MAX_ORACLE_N", "13")
    code, data = run_json(
        capsys, ["betti", "--fixture", "path", "--param", "13", "--t", "13"]
    )
    assert code == 0
    assert data["pd"] == 1


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


@pytest.mark.parametrize("argv,digest", [
    ("verify --fixture fig1 --t 4 --decompose 5 --order paper --no-meta",
     "7809a3e5cc129fb31edd39823715a7e25000bd03080f3daec65c6072368793b3"),
    ("verify --fixture complete --param 5 --t 4 --decompose 1 --no-meta",
     "6a5c625f03f12c7a00b5e63f9e0cf0f7dd6f7a629f58f246828332c85c140599"),
    ("analyze --fixture fig1 --t 4",
     "68f909f50c16e6bb712d5c4b387efdd41816dfb81a66bee56c8d8145f1060577"),
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
