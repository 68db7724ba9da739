"""Benchmark for tconnect: two workloads, end-to-end metrics, per-layer trace.

Run from anywhere; the program under test is imported from ``src/`` of
the checkout that holds this file:

    python3 perfbench/run.py --workload exact-fields --seed 1 --seconds 60 --trace 0

Workloads (one item is one (graph, t) pair; README.md says why each
exists and which layer each metric should move):

  exact-fields   ``tconnect verify --path <file> --t T --cross-field --no-meta``
                 for T = 2..5 on fig1 induced on vertices 1..12.
  analyze-large  ``harness.predict``, ``decomposition.ledger`` and
                 ``verify_identities`` for t = 2..5 on random_chordal(20, k, 4)
                 for the ten k of ANALYZE_PINS, at each graph's first
                 simplicial vertex.

The inputs are fixed; the seed shuffles the order in which a workload
runs its items.  A pass runs every item once; a run repeats whole passes
while the next one is expected to end within ``--seconds`` and always
makes at least one.  Every output is checked against the seed commit's
answers, and the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A traced run first makes untraced passes for half the time, then traced
passes, and reports the difference of their wall times as the tracing
overhead.  Spans and per-item output digests are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MODULES = ("graphs", "ideals", "matching", "homology", "decomposition", "harness", "cli")
FIELDS = ("gf2", "gf3", "q")
SETUP_REPS = 7
# item_tail_s is the highest percentile with at least this many items of a pass beyond it.
TAIL_BEYOND = 10
# fig1 predictions at the seed commit: t -> (nu_t, bight, generator count).
FIG1_PINS = {2: (4, 11, 24), 3: (3, 10, 36), 4: (2, 8, 50), 5: (2, 6, 68)}
CHORDAL_VERDICTS = ("reg_lower_bound", "pd_lower_bound", "reg_formula", "pd_formula",
                    "linear_iff_gapfree", "cm_iff_unmixed")


def import_program() -> SimpleNamespace:
    """Import the tconnect modules from this checkout's ``src``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"tconnect.{name}") for name in MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC not in origin.parents:
        raise ImportError(f"tconnect was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


# ---------------------------------------------------------------------------
# Items and workloads


@dataclass
class Item:
    """One (graph, t) pair.

    ``call`` is the timed work.  ``check`` turns its output into the
    no-meta JSON text whose digest is emitted and a problem string, or
    None when the output is correct.
    """

    id: str
    input: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, str | None]]


def verify_doc_problem(doc: dict, cross_field: bool) -> str | None:
    """Gate for one ``verify`` JSON document of a chordal graph."""
    preds = doc["predictions"]
    statuses = {v["statement"]: v["status"] for v in doc["verdicts"]}
    failed = sorted(s for s, st in statuses.items() if st == "fail")
    if failed:
        return f"failed verdicts {failed}"
    if doc["oracle_skipped"] or doc["oracle"] is None:
        return "oracle skipped"
    if not preds["is_chordal"]:
        return "chordal input not recognised as chordal"
    for s in CHORDAL_VERDICTS + (("field_independence",) if cross_field else ()):
        if statuses.get(s) != "pass":
            return f"verdict {s} is {statuses.get(s)}"
    return None


def cli_item(tc, item_id: str, argv: list[str],
             extra_check: Callable[[], str | None] | None = None) -> Item:
    """One ``tconnect`` command run in process; ``extra_check`` adds a problem of its own."""
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tc.cli.main(argv)
        return code, buf.getvalue()

    def check(out):
        code, text = out
        try:
            doc = json.loads(text)
        except ValueError:
            return text, f"exit code {code}, output is not JSON"
        problem = verify_doc_problem(doc, "--cross-field" in argv)
        if problem is None and extra_check is not None:
            problem = extra_check()
        if problem is None and code != 0:
            problem = f"exit code {code}"
        return text, problem

    return Item(item_id, " ".join(["tconnect"] + argv), call, check)


def fig1_pin_check(tc, t: int) -> Callable[[], str | None]:
    """Compare fig1's predictions at ``t`` with FIG1_PINS."""
    def check():
        g = tc.graphs.fixture("fig1")
        preds = tc.harness.predict(g, t)
        got = (preds.nu_t, preds.bight, len(tc.ideals.t_connected_ideal(g, t).gens))
        return None if got == FIG1_PINS[t] else f"fig1 t={t}: (nu_t, bight, gens) {got} != {FIG1_PINS[t]}"
    return check


EXACT_GRAPH = OUT_DIR / "fig1_prefix12.txt"


def exact_fields(tc, seed: int) -> list[Item]:
    """Each item's check also holds fig1's predictions at the same t to FIG1_PINS."""
    h, _ = tc.graphs.induced_subgraph(tc.graphs.fixture("fig1"), range(1, 13))
    OUT_DIR.mkdir(exist_ok=True)
    EXACT_GRAPH.write_text(tc.graphs.format_graph(h), encoding="utf-8")
    path = str(EXACT_GRAPH.relative_to(ROOT))
    return [
        cli_item(tc, f"fig1[1..12]:t={t}",
                 ["verify", "--path", path, "--t", str(t), "--cross-field", "--no-meta"],
                 fig1_pin_check(tc, t))
        for t in (2, 3, 4, 5)
    ]


# random_chordal(20, k, 4) -> for t = 2..5, the seed commit's
# (nu_t, height, bight, unmixed, generators, ledger identities).
# k = 33, 35 and 38 are slow graphs (4 to 7 s a pass against about 1 s,
# mostly at t = 4 and 5); README.md says how they were chosen.
ANALYZE_PINS = {
    0: [(4, 8, 13, False, 26, 4), (3, 5, 11, False, 70, 15), (1, 3, 11, False, 180, 63), (1, 2, 10, False, 367, 194)],
    1: [(4, 8, 12, False, 22, 3), (4, 6, 10, False, 38, 4), (2, 3, 10, False, 72, 4), (1, 2, 9, False, 131, 1)],
    2: [(7, 9, 10, False, 15, 3), (2, 3, 6, False, 17, 1), (2, 2, 6, False, 28, 0), (1, 2, 6, False, 42, 0)],
    3: [(5, 9, 12, False, 25, 3), (3, 5, 9, False, 52, 1), (1, 4, 7, False, 99, 0), (1, 3, 6, False, 142, 0)],
    4: [(6, 9, 12, False, 19, 3), (3, 4, 9, False, 27, 3), (2, 2, 8, False, 45, 1), (2, 2, 8, False, 73, 0)],
    5: [(6, 10, 14, False, 27, 6), (4, 7, 10, False, 50, 19), (2, 3, 9, False, 100, 53), (1, 2, 9, False, 178, 122)],
    6: [(4, 8, 12, False, 25, 1), (2, 6, 11, False, 45, 0), (2, 5, 9, False, 64, 0), (2, 3, 7, False, 67, 0)],
    33: [(4, 10, 14, False, 32, 1), (3, 8, 13, False, 63, 0), (3, 6, 11, False, 112, 0), (3, 4, 10, False, 179, 0)],
    35: [(5, 10, 14, False, 38, 4), (3, 6, 15, False, 118, 12), (2, 5, 15, False, 353, 49), (2, 5, 15, False, 939, 207)],
    38: [(4, 10, 13, False, 38, 3), (2, 6, 14, False, 134, 8), (2, 6, 14, False, 457, 38), (2, 5, 14, False, 1329, 161)],
}


def analyze_large(tc, seed: int) -> list[Item]:
    n = 20
    items = []
    for k, pins in ANALYZE_PINS.items():
        g = tc.graphs.random_chordal(n, k, 4)
        x = tc.graphs.simplicial_vertices(g)[0]
        for t, pin in zip((2, 3, 4, 5), pins):
            def call(g=g, x=x, t=t):
                preds = tc.harness.predict(g, t)
                report = tc.decomposition.verify_identities(tc.decomposition.ledger(g, x, t))
                return preds, report

            def check(out, g=g, k=k, t=t, pin=pin):
                preds, report = out
                text = json.dumps({"graph": f"random_chordal({n}, {k}, 4)", "t": t,
                                   "predictions": preds.to_json_dict(),
                                   "decomposition": report.to_json_dict()}, indent=2)
                got = (preds.nu_t, preds.height, preds.bight, preds.unmixed,
                       len(tc.ideals.t_connected_ideal(g, t).gens), len(report.records))
                if got != pin:
                    return text, f"(nu_t, height, bight, unmixed, gens, identities) {got} != {pin}"
                if not preds.is_chordal:
                    return text, "chordal input not recognised as chordal"
                if preds.predicted_reg != (t - 1) * preds.nu_t or preds.predicted_pd != preds.bight:
                    return text, "inconsistent predictions"
                if not report.all_passed:
                    return text, "ledger identity failed"
                return text, None

            items.append(Item(f"chordal20[{k}]:t={t}", f"random_chordal({n}, {k}, 4) x={x} t={t}",
                              call, check))
    return items


WORKLOADS = {"exact-fields": exact_fields, "analyze-large": analyze_large}


def build_items(build, tc, seed: int) -> list[Item]:
    items = build(tc, seed)
    random.Random(seed).shuffle(items)
    return items


def timed_setup(build, seed: int, reps: int = SETUP_REPS):
    """Import the program and make the inputs ``reps`` times.

    Returns the program, its items and the set-up times.  Each
    repetition drops the tconnect modules first, so the import is
    timed every time.
    """
    times = []
    for _ in range(reps):
        for name in [m for m in sys.modules if m == "tconnect" or m.startswith("tconnect.")]:
            del sys.modules[name]
        start = time.perf_counter()
        tc = import_program()
        items = build_items(build, tc, seed)
        times.append(time.perf_counter() - start)
    return tc, items, times


# ---------------------------------------------------------------------------
# Tracing


class Tracer:
    """In-memory spans recorded by wrappers around calls into each layer.

    A span is ``[name, start, end, parent index or -1, item id, attrs]``.
    Calls made while no item runs (the output checks) are not recorded.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.item: str | None = None

    def wrap(self, name: str, fn, attrs=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, result)
            return result

        return traced


def _gf2_width(rows) -> int:
    return max((r.bit_length() for r in rows), default=0)


def _list_width(rows) -> int:
    return len(rows[0]) if rows else 0


def _rank_attrs(fkey: Callable[[tuple], str], width: Callable[[list], int]):
    return lambda args, rank: {"field": fkey(args), "rows": len(args[0]),
                               "cells": len(args[0]) * width(args[0]), "rank": rank}


def trace_points(tc) -> list[tuple[object, str, str, Callable | None]]:
    """(owner, attribute, span name, attrs) for every traced call site.

    Each function is wrapped where its caller looks it up, so the spans
    nest as the calls do.
    """
    def betti_attrs(args, table):
        ideal, fld = args[0], args[1] if len(args) > 1 else tc.homology.GF2
        return {"field": "q" if fld.p is None else f"gf{fld.p}", "evaluations": table.evaluations,
                "scanned": 0 if ideal.is_zero else (1 << ideal.n) - 1}

    gens = lambda args, ideal: {"generators": len(ideal.gens)}
    count = lambda args, result: {"count": len(result)}
    return [
        (tc.cli, "main", "cli.main", None),
        (tc.cli, "verify_graph", "harness.verify_graph", None),
        (tc.harness, "verify_graph", "harness.verify_graph", None),
        (tc.harness, "predict", "harness.predict", None),
        (tc.harness, "t_connected_ideal", "ideals.t_connected_ideal", gens),
        (tc.decomposition, "t_connected_ideal", "ideals.t_connected_ideal", gens),
        (tc.ideals.SquareFreeIdeal, "cover_stats", "ideals.cover_stats",
         lambda args, stats: {"covers": len(stats.covers)}),
        (tc.harness, "nu_t", "matching.nu_t", None),
        (tc.matching, "connected_subsets", "graphs.connected_subsets", count),
        (tc.decomposition, "connected_subsets", "graphs.connected_subsets", count),
        (tc.harness, "chordality", "graphs.chordality", None),
        (tc.harness, "betti_table_ideal", "homology.betti_table_ideal", betti_attrs),
        (tc.homology, "rank_gf2", "linalg.rank_gf2", _rank_attrs(lambda a: "gf2", _gf2_width)),
        (tc.homology, "rank_mod_p", "linalg.rank_mod_p",
         _rank_attrs(lambda a: f"gf{a[1]}", _list_width)),
        (tc.homology, "rank_rationals", "linalg.rank_rationals",
         _rank_attrs(lambda a: "q", _list_width)),
        (tc.decomposition, "ledger", "decomposition.ledger", None),
        (tc.decomposition, "verify_identities", "decomposition.verify_identities",
         lambda args, report: {"count": len(report.records)}),
    ]


@contextlib.contextmanager
def traced(tc, tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, attrs in trace_points(tc):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, attrs))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Measurement


@dataclass
class PassResult:
    wall_s: float
    item_s: dict[str, float]
    problems: dict[str, str]
    digests: dict[str, str]


def run_pass(items: list[Item], tracer: Tracer | None = None) -> PassResult:
    outputs = []
    start = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        t0 = time.perf_counter()
        try:
            out, err = item.call(), None
        except Exception as exc:  # a raising item is a counted failure; the run goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        outputs.append((item, out, err, time.perf_counter() - t0))
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.item = None
    result = PassResult(wall, {}, {}, {})
    for item, out, err, dt in outputs:
        result.item_s[item.id] = dt
        if err is None:
            try:
                text, err = item.check(out)
            except (KeyError, TypeError, ValueError) as exc:
                text, err = repr(out), f"unreadable output: {exc!r}"
            result.digests[item.id] = hashlib.sha256(text.encode()).hexdigest()
        if err is not None:
            result.problems[item.id] = err
    return result


def run_passes(items: list[Item], budget_s: float, tracer: Tracer | None = None) -> list[PassResult]:
    """Whole passes while the next is expected to end within the budget; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(items, tracer))
        if time.perf_counter() - start + passes[-1].wall_s > budget_s:
            return passes


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile of the item times with TAIL_BEYOND items beyond it, and that percentile.

    Too few items give their maximum (percentile 100).
    """
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(passes: list[PassResult], setup_times: list[float], rss_kb: int) -> dict[str, dict]:
    # Pass and item times are averaged over the passes: the machine's speed
    # drifts over tens of seconds, and a mean over the whole run follows
    # that drift less than any one pass does.
    per_item = [statistics.fmean(p.item_s[k] for p in passes) for k in passes[0].item_s]
    tail_s, percentile = tail(per_item)
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "wall_s": {"value": statistics.fmean(p.wall_s for p in passes), "unit": "s"},
        "item_p50_s": {"value": statistics.median(per_item), "unit": "s"},
        "item_tail_s": {"value": tail_s, "unit": "s",
                        "percentile": percentile, "samples": len(per_item)},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }


def per_layer(spans: list[list], passes: int, items: int, audit_checks: int,
              wall_s: float, overhead_s: float) -> dict[str, dict]:
    """Per-pass layer totals derived from the spans of the traced passes."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    acc: dict[str, float] = {}

    def add(key, value):
        acc[key] = acc.get(key, 0.0) + value

    for idx, (name, start, end, parent, _, attrs) in enumerate(spans):
        dur = end - start
        own = dur - child[idx]
        layer = name.split(".")[0]
        add(name + ":s", dur)
        add(name + ":n", 1)
        if layer in ("harness", "cli"):
            add(layer + ".self", own)
        if name == "homology.betti_table_ideal":
            add("betti:" + attrs["field"], dur)
            add("homology.self", own)
            add("evaluations", attrs["evaluations"])
            add("scanned", attrs["scanned"])
        elif name.startswith("linalg.rank"):
            f = attrs["field"]
            add("rank_s:" + f, dur)
            add("rank_calls:" + f, 1)
            add("rows:" + f, attrs["rows"])
            add("cells:" + f, attrs["cells"])
            add("rank", attrs["rank"])
        elif name == "graphs.connected_subsets" and parent >= 0 and spans[parent][0] == "matching.nu_t":
            add("candidates", attrs["count"])
        elif attrs is not None:
            for key, value in attrs.items():
                add(f"{name}:{key}", value)
    get = lambda key: acc.get(key, 0.0) / passes
    rows = sum(acc.get("rows:" + f, 0.0) for f in FIELDS)
    scanned = acc.get("scanned", 0.0)
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for f in FIELDS:
        put(f"homology.betti_s.{f}", get("betti:" + f), "s")
    put("homology.self_s", get("homology.self"), "s")
    put("homology.evaluations", get("evaluations"), "count")
    put("homology.subsets_scanned", get("scanned"), "count")
    put("homology.eval_ratio", acc.get("evaluations", 0.0) / scanned if scanned else 0.0, "ratio")
    put("homology.audit_checks", audit_checks / passes, "count")
    for f in FIELDS:
        put(f"linalg.rank_s.{f}", get("rank_s:" + f), "s")
    for f in FIELDS:
        put(f"linalg.rank_calls.{f}", get("rank_calls:" + f), "count")
    for f in FIELDS:
        put(f"linalg.rows.{f}", get("rows:" + f), "count")
    for f in FIELDS:
        put(f"linalg.cells.{f}", get("cells:" + f), "count")
    put("linalg.pivot_ratio", acc.get("rank", 0.0) / rows if rows else 0.0, "ratio")
    put("ideals.build_s", get("ideals.t_connected_ideal:s"), "s")
    put("ideals.build_calls_per_item", acc.get("ideals.t_connected_ideal:n", 0.0) / (passes * items),
        "count")
    put("ideals.generators", get("ideals.t_connected_ideal:generators"), "count")
    put("ideals.cover_stats_s", get("ideals.cover_stats:s"), "s")
    put("ideals.minimal_covers", get("ideals.cover_stats:covers"), "count")
    put("matching.nu_t_s", get("matching.nu_t:s"), "s")
    put("matching.candidates", get("candidates"), "count")
    put("graphs.connected_subsets_s", get("graphs.connected_subsets:s"), "s")
    put("graphs.chordality_s", get("graphs.chordality:s"), "s")
    put("decomposition.ledger_s", get("decomposition.ledger:s"), "s")
    put("decomposition.verify_s", get("decomposition.verify_identities:s"), "s")
    put("decomposition.identities", get("decomposition.verify_identities:count"), "count")
    put("harness.predict_s", get("harness.predict:s"), "s")
    put("harness.self_s", get("harness.self"), "s")
    put("cli.self_s", get("cli.self"), "s")
    put("trace.wall_s", wall_s, "s")
    put("trace.overhead_s", overhead_s, "s")
    return m


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict[str, dict]
    passes: list[PassResult]
    spans: list[list] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def line(self) -> str:
        """The result object: every metric reduced to its value and unit."""
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in self.metrics.items()}
        return json.dumps({"correct": self.correct, "attempted": self.attempted,
                           "failed": self.failed, "metrics": metrics})


def measure(tc, items: list[Item], seconds: float, trace: bool, setup_times: list[float],
            resetup: Callable[[], list[float]] = lambda: []) -> RunResult:
    """Run the passes and derive the metrics.

    ``resetup`` sets up again after untraced passes and returns its
    times, so that ``setup_s`` samples both ends of the run.
    """
    if not trace:
        passes = run_passes(items, seconds)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(passes, setup_times + resetup(), rss_kb)
        spans = []
    else:
        plain = run_passes(items, seconds / 2)
        tracer = Tracer()
        before = tc.homology.audit_stats()["checks"]
        with traced(tc, tracer):
            traced_passes = run_passes(items, seconds / 2, tracer)
        checks = tc.homology.audit_stats()["checks"] - before
        wall = statistics.fmean(p.wall_s for p in traced_passes)
        overhead = wall - statistics.fmean(p.wall_s for p in plain)
        metrics = per_layer(tracer.spans, len(traced_passes), len(items), checks, wall, overhead)
        passes, spans = plain + traced_passes, tracer.spans
    attempted = sum(len(p.item_s) for p in passes)
    failed = sum(len(p.problems) for p in passes)
    return RunResult(attempted, failed, metrics, passes, spans)


def combined_digest(result: RunResult) -> str:
    """Digest of the first pass's per-item digests, in item-id order."""
    digests = result.passes[0].digests
    joined = "\n".join(f"{k} {digests.get(k, '-')}" for k in sorted(result.passes[0].item_s))
    return hashlib.sha256(joined.encode()).hexdigest()


def write_outputs(name: str, seed: int, trace: bool, result: RunResult) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (OUT_DIR / f"digests-{stem}.json").write_text(
        json.dumps(result.passes[0].digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if result.spans:
        with open(OUT_DIR / f"spans-{stem}.jsonl", "w", encoding="utf-8") as fh:
            for span in result.spans:
                fh.write(json.dumps(span) + "\n")


def report(name: str, seed: int, result: RunResult) -> None:
    print(f"workload {name} seed {seed}: {len(result.passes)} passes, "
          f"{len(result.passes[0].item_s)} items a pass")
    for key, m in result.metrics.items():
        extra = ""
        if "percentile" in m:
            extra = f"  (p{m['percentile']:.2f} of {m['samples']} items a pass)"
        print(f"  {key:32s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  error_rate {result.failed / result.attempted:.6g} ({result.failed}/{result.attempted})")
    for item_id, problem in sorted({k: v for p in result.passes for k, v in p.problems.items()}.items()):
        print(f"  FAIL {item_id}: {problem}")
    print(f"  digest {combined_digest(result)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tconnect" / "__init__.py").is_file():
        print(f"error: no tconnect sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    build = WORKLOADS[args.workload]
    try:
        tc, items, setup_times = timed_setup(build, args.seed)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = measure(tc, items, args.seconds, bool(args.trace), setup_times,
                     lambda: timed_setup(build, args.seed)[2])
    write_outputs(args.workload, args.seed, bool(args.trace), result)
    report(args.workload, args.seed, result)
    print(result.line())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
