"""Compare combinatorial predictions against the homological oracle.

For chordal graphs the predictions are equalities (regularity equals
(t-1) times the t-induced matching number, projective dimension equals
big height, linearity means matching number one, Cohen-Macaulay means
unmixed); for arbitrary graphs only the two lower bounds are claimed.
``verify_graph`` runs both sides on one graph, ``batch_verify`` sweeps a
seeded random chordal corpus and aggregates verdicts.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field

from .graphs import Graph, chordality, independence_extremes, random_chordal
from .homology import (
    Field,
    GF2,
    ResourceLimitError,
    betti_table_ideal,
    homological_invariants,
)
from .ideals import SquareFreeIdeal, t_connected_ideal
from .matching import nu_t


@dataclass(frozen=True)
class Predictions:
    t: int
    is_chordal: bool
    nu_t: int
    height: int
    bight: int
    unmixed: bool
    zero_ideal: bool
    predicted_reg: int | None
    predicted_pd: int | None
    predicted_linear: bool | None
    predicted_cm: bool | None
    ideal: SquareFreeIdeal = dc_field(compare=False, repr=False)
    cover_counts: dict = dc_field(compare=False, repr=False)  # the search for height and bight, and its size
    nu_counts: dict = dc_field(compare=False, repr=False)  # nu_t's method and candidates

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "is_chordal": self.is_chordal,
            "nu_t": self.nu_t,
            "height": self.height,
            "bight": self.bight,
            "unmixed": self.unmixed,
            "zero_ideal": self.zero_ideal,
            "predicted_reg": self.predicted_reg,
            "predicted_pd": self.predicted_pd,
            "predicted_linear": self.predicted_linear,
            "predicted_CM": self.predicted_cm,
        }


def predict(g: Graph, t: int) -> Predictions:
    """Combinatorial side only: no homology is computed.

    Height, big height and unmixedness come, on a chordal graph, from the
    smallest and largest facet of Ind_t(G) (``independence_extremes``,
    one pass over the elimination tree of the perfect elimination
    ordering), and otherwise, or over its bag-choice cap, from the
    minimal covers (``SquareFreeIdeal.cover_stats``).  The ideal, and so
    the cap on its connected t-sets, comes first.  The equality
    predictions apply to chordal graphs; on other graphs they are
    reported as not-applicable (None).
    """
    ideal = t_connected_ideal(g, t)
    cert = chordality(g)
    chordal = cert.is_chordal
    extremes = independence_extremes(g, t, cert.peo) if chordal else None
    if extremes is None:
        stats = ideal.cover_stats()
        height, bight = stats.height, stats.bight
        covers = {"method": "mmcs", "minimal": len(stats.masks), "nodes": stats.nodes}
    else:
        smallest, largest, states = extremes
        height, bight = g.n - largest, g.n - smallest
        covers = {"method": "elimination-tree", "states": states}
    unmixed = height == bight
    matching = nu_t(g, t)
    nu = matching.value
    if chordal:
        pred = ((t - 1) * nu, bight, nu == 1 if not ideal.is_zero else None, unmixed)
    else:
        pred = (None, None, None, None)
    return Predictions(
        t, chordal, nu, height, bight, unmixed,
        ideal.is_zero, *pred, ideal, covers,
        {"method": matching.method, "candidates": matching.candidates},
    )


@dataclass(frozen=True)
class Verdict:
    statement: str
    status: str  # "pass" | "fail" | "not-applicable"
    reason: str

    def to_json_dict(self) -> dict:
        return {"statement": self.statement, "status": self.status, "reason": self.reason}


@dataclass
class VerificationReport:
    graph_desc: dict
    t: int
    fields: list[str]
    predictions: Predictions
    oracle: dict | None
    verdicts: list[Verdict]
    oracle_skipped: bool
    timing_seconds: float
    oracle_counts: dict | None = None  # the oracle's W by kind and boundary ranks by certificate

    @property
    def failures(self) -> list[Verdict]:
        return [v for v in self.verdicts if v.status == "fail"]

    @property
    def skipped(self) -> bool:
        return self.predictions.zero_ideal or self.oracle_skipped

    def to_json_dict(self, include_meta: bool = True) -> dict:
        out = {
            "graph": self.graph_desc,
            "t": self.t,
            "fields": self.fields,
            "predictions": self.predictions.to_json_dict(),
            "oracle": self.oracle,
            "verdicts": [v.to_json_dict() for v in self.verdicts],
            "oracle_skipped": self.oracle_skipped,
        }
        if include_meta:
            out["meta"] = {"timing_seconds": round(self.timing_seconds, 6),
                           "covers": self.predictions.cover_counts,
                           "nu_t": self.predictions.nu_counts}
            if self.oracle_counts is not None:
                out["meta"]["oracle"] = self.oracle_counts
        return out


def _graph_desc(g: Graph, source: str) -> dict:
    return {
        "source": source,
        "n": g.n,
        "edges": [list(e) for e in g.edges()],
    }


def verify_graph(
    g: Graph,
    t: int,
    fld: Field = GF2,
    cross_fields: tuple[Field, ...] = (),
    source: str = "graph",
) -> VerificationReport:
    """Run oracle and predictions on one graph, record per-statement verdicts."""
    start = time.perf_counter()
    preds = predict(g, t)
    verdicts: list[Verdict] = []

    if preds.zero_ideal:
        verdicts.append(Verdict("zero_ideal", "not-applicable",
                                "no component has t vertices; theorem checks skipped"))
        return VerificationReport(
            _graph_desc(g, source), t, [fld.label()], preds, None, verdicts, False,
            time.perf_counter() - start,
        )

    try:
        table = betti_table_ideal(preds.ideal, fld)
    except ResourceLimitError as exc:
        verdicts.append(Verdict("oracle", "not-applicable", str(exc)))
        return VerificationReport(
            _graph_desc(g, source), t, [fld.label()], preds, None, verdicts, True,
            time.perf_counter() - start,
        )

    inv = homological_invariants(table, preds.height)

    lower = (t - 1) * preds.nu_t
    verdicts.append(_bound_verdict("reg_lower_bound", inv.reg, lower))
    verdicts.append(_bound_verdict("pd_lower_bound", inv.pd, preds.bight))
    if not preds.is_chordal and inv.pd > preds.bight:
        verdicts.append(Verdict(
            "pd_strictness_note", "pass",
            f"non-chordal graph with pd {inv.pd} > bight {preds.bight} (informational)",
        ))

    if preds.is_chordal:
        verdicts.append(_eq_verdict("reg_formula", inv.reg, lower))
        verdicts.append(_eq_verdict("pd_formula", inv.pd, preds.bight))
        linear = bool(inv.has_linear_resolution)
        verdicts.append(_eq_verdict("linear_iff_gapfree", linear, preds.nu_t == 1))
        verdicts.append(_eq_verdict("cm_iff_unmixed", inv.is_cm, preds.unmixed))
    else:
        for name in ("reg_formula", "pd_formula", "linear_iff_gapfree", "cm_iff_unmixed"):
            verdicts.append(Verdict(name, "not-applicable", "graph is not chordal"))

    fields = [fld.label()]
    if cross_fields:
        pairs = {fld.label(): (inv.reg, inv.pd)}
        for extra in cross_fields:
            # the same collapsed complexes, ranked over the other field
            xinv = homological_invariants(table.over(extra), preds.height)
            pairs[extra.label()] = (xinv.reg, xinv.pd)
            fields.append(extra.label())
        agree = len(set(pairs.values())) == 1
        verdicts.append(Verdict(
            "field_independence", "pass" if agree else "fail",
            f"(reg, pd) by field: {pairs}",
        ))

    return VerificationReport(
        _graph_desc(g, source), t, fields, preds, inv.to_json_dict(), verdicts, False,
        time.perf_counter() - start,
        {"cones": table.cones, "evaluations": table.evaluations, "derived": table.derived,
         "joined": table.joined,
         "cells_before_collapse": table.reduction.cells_before_collapse,
         "cells_after_collapse": table.reduction.cells_after_collapse,
         **table.reduction.certificate_counts()},
    )


def _bound_verdict(name: str, value: int, bound: int) -> Verdict:
    ok = value >= bound
    return Verdict(name, "pass" if ok else "fail", f"{value} >= {bound}" if ok else f"{value} < {bound}")


def _eq_verdict(name: str, lhs, rhs) -> Verdict:
    ok = lhs == rhs
    return Verdict(name, "pass" if ok else "fail", f"{lhs} == {rhs}" if ok else f"{lhs} != {rhs}")


@dataclass(frozen=True)
class CorpusConfig:
    count: int
    n_max: int
    t_set: tuple[int, ...]
    seed: int
    field: Field = GF2
    max_clique: int = 4
    cross_fields: tuple[Field, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "n_max": self.n_max,
            "t_set": list(self.t_set),
            "seed": self.seed,
            "field": self.field.label(),
            "max_clique": self.max_clique,
            "cross_fields": [f.label() for f in self.cross_fields],
        }


@dataclass
class CorpusReport:
    config: CorpusConfig
    items: list[VerificationReport] = dc_field(default_factory=list)

    def summary(self) -> dict:
        passed = failed = skipped = 0
        for item in self.items:
            if item.skipped:
                skipped += 1
            elif item.failures:
                failed += 1
            else:
                passed += 1
        return {"pass": passed, "fail": failed, "skipped": skipped}

    @property
    def all_passed(self) -> bool:
        return self.summary()["fail"] == 0

    def to_json_dict(self, include_meta: bool = True) -> dict:
        return {
            "config": self.config.to_json_dict(),
            "items": [it.to_json_dict(include_meta) for it in self.items],
            "summary": self.summary(),
        }


def corpus_graphs(config: CorpusConfig) -> list[tuple[int, Graph]]:
    """The seeded random chordal graphs of a corpus, with their item seeds."""
    rng = random.Random(config.seed)
    out = []
    for _ in range(config.count):
        n = rng.randint(1, config.n_max)
        gseed = rng.randrange(2**32)
        out.append((gseed, random_chordal(n, gseed, config.max_clique)))
    return out


def batch_verify(config: CorpusConfig) -> CorpusReport:
    """Verify every (graph, t) item of the seeded corpus."""
    report = CorpusReport(config)
    for idx, (gseed, g) in enumerate(corpus_graphs(config)):
        for t in sorted(config.t_set):
            item = verify_graph(
                g, t, config.field, cross_fields=config.cross_fields,
                source=f"random_chordal(index={idx}, seed={gseed})",
            )
            report.items.append(item)
    return report
