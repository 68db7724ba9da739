"""Command-line interface.

Subcommands:
  analyze   combinatorial invariants and predictions for one graph
  betti     full Betti table of the t-connected (or t-clique) ideal
  verify    theorem verdicts for one graph or a random corpus
  gen       write a seeded random chordal graph in edge-list format

All results are JSON on stdout; diagnostics go to stderr.  Exit codes:
0 success, 1 verification failure, 2 input or resource error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .decomposition import (
    FIG1_X5_T4_WORKED_ORDER,
    ledger,
    verify_dominating_intersections,
    verify_identities,
)
from .graphs import (
    Graph,
    GraphParseError,
    chordality,
    fixture,
    format_graph,
    parse_graph,
    random_chordal,
)
from .harness import CorpusConfig, batch_verify, predict, verify_graph
from .homology import (
    Field,
    GF2,
    GF3,
    QQ,
    ResourceLimitError,
    betti_table_ideal,
    homological_invariants,
)
from .ideals import t_clique_ideal, t_connected_ideal
from .matching import SearchSpaceError


class CliError(Exception):
    """Input or resource error; maps to exit code 2."""


def _parse_params(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise CliError(f"bad --param value {text!r}; expected comma-separated integers")


def _load_graph(args) -> tuple[Graph, str]:
    if args.fixture and args.path:
        raise CliError("give exactly one of --fixture or --path")
    if args.fixture:
        try:
            g = fixture(args.fixture, *_parse_params(args.param))
        except ValueError as exc:
            raise CliError(str(exc))
        desc = f"fixture:{args.fixture}" + (f"({args.param})" if args.param else "")
        return g, desc
    if args.path:
        try:
            with open(args.path, encoding="utf-8") as fh:
                return parse_graph(fh.read()), args.path
        except (OSError, GraphParseError) as exc:
            raise CliError(str(exc))
    raise CliError("give exactly one of --fixture or --path")


def _parse_field(text: str) -> Field:
    try:
        return Field.parse(text)
    except ValueError as exc:
        raise CliError(str(exc))


def _emit(data: dict) -> None:
    json.dump(data, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_analyze(args) -> int:
    g, desc = _load_graph(args)
    preds = predict(g, args.t)
    out = {
        "graph": {"source": desc, "n": g.n, "edge_count": g.edge_count()},
        "t": args.t,
        "is_chordal": preds.is_chordal,
        "nu_t": preds.nu_t,
        "height": preds.height,
        "bight": preds.bight,
        "unmixed": preds.unmixed,
        "generators_count": len(preds.ideal.gens),
        "zero_ideal": preds.zero_ideal,
        "predicted_reg": preds.predicted_reg,
        "predicted_pd": preds.predicted_pd,
        "predicted_linear": preds.predicted_linear,
        "predicted_CM": preds.predicted_cm,
    }
    if preds.zero_ideal:
        out["notice"] = "the t-connected ideal is zero: no component has t vertices"
    _emit(out)
    return 0


def cmd_betti(args) -> int:
    g, desc = _load_graph(args)
    fld = _parse_field(args.field)
    builder = t_clique_ideal if args.ideal == "clique" else t_connected_ideal
    ideal = builder(g, args.t)
    max_vars = g.n if args.force else args.cap
    try:
        table = betti_table_ideal(ideal, fld, max_vars=max_vars)
    except ResourceLimitError as exc:
        raise CliError(str(exc))
    stats = ideal.cover_stats()
    inv = homological_invariants(table, stats.height)
    out = table.to_json_dict()
    out["graph"] = {"source": desc, "n": g.n}
    out["t"] = args.t
    out["ideal"] = args.ideal
    out["invariants"] = inv.to_json_dict()
    if ideal.is_zero:
        out["notice"] = "zero ideal"
    _emit(out)
    return 0


def cmd_verify(args) -> int:
    fld = _parse_field(args.field)
    cross = (GF3, QQ) if args.cross_field else ()
    if args.random:
        t_set = tuple(int(t) for t in args.t.split(","))
        config = CorpusConfig(
            count=args.count, n_max=args.n_max, t_set=t_set, seed=args.seed,
            field=fld, max_clique=args.clique_cap, cross_fields=cross,
        )
        report = batch_verify(config)
        _emit(report.to_json_dict(include_meta=not args.no_meta))
        return 0 if report.all_passed else 1
    g, desc = _load_graph(args)
    try:
        t = int(args.t)
    except ValueError:
        raise CliError(f"single-graph verify needs one integer --t, got {args.t!r}")
    report = verify_graph(g, t, fld, cross_fields=cross, source=desc)
    out = report.to_json_dict(include_meta=not args.no_meta)
    failed = bool(report.failures)
    if args.decompose is not None:
        order = None
        if args.order == "paper":
            if not (args.fixture == "fig1" and t == 4 and args.decompose == 5):
                raise CliError("--order paper is only valid with --fixture fig1 --t 4 --decompose 5")
            order = FIG1_X5_T4_WORKED_ORDER
        ledg = ledger(g, args.decompose, t, order)
        main_rep = verify_identities(ledg)
        dom_rep = verify_dominating_intersections(ledg)
        dec = main_rep.to_json_dict()
        dec["identities"].extend(r.to_json_dict() for r in dom_rep.records)
        dec["all_pass"] = main_rep.all_passed and dom_rep.all_passed
        out["decomposition"] = dec
        failed = failed or not dec["all_pass"]
    _emit(out)
    return 1 if failed else 0


def cmd_gen(args) -> int:
    g = random_chordal(args.n, args.seed, args.max_clique)
    assert chordality(g).is_chordal
    text = format_graph(g)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(str(exc))
    else:
        sys.stdout.write(text)
    return 0


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fixture", help="fixture name (fig1, cycle, path, complete, complete_minus_edge, clique_star)")
    parser.add_argument("--param", help="comma-separated fixture parameters")
    parser.add_argument("--path", help="edge-list file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tconnect", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="combinatorial invariants and predictions")
    _add_graph_source(p)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("betti", help="Betti table from the homological oracle")
    _add_graph_source(p)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--field", default="gf2", help="gf<p> or q (default gf2)")
    p.add_argument("--cap", type=int, default=None, help="oracle variable cap override")
    p.add_argument("--force", action="store_true", help="lift the cap to the graph size")
    p.add_argument("--ideal", choices=("connected", "clique"), default="connected")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("verify", help="theorem verdicts on a graph or random corpus")
    _add_graph_source(p)
    p.add_argument("--random", action="store_true", help="verify a random chordal corpus")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--clique-cap", type=int, default=4)
    p.add_argument("--t", default="2,3,4", help="t value (single graph) or comma list (corpus)")
    p.add_argument("--field", default="gf2")
    p.add_argument("--cross-field", action="store_true",
                   help="also check reg/pd over GF(3) and the rationals")
    p.add_argument("--decompose", type=int, default=None,
                   help="also verify the peeling identities at this simplicial vertex")
    p.add_argument("--order", choices=("default", "paper"), default="default",
                   help="ordering of the peeling; 'paper' replays the fig1 worked order")
    p.add_argument("--no-meta", action="store_true", help="omit timing metadata")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="write a seeded random chordal graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-clique", type=int, default=3)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError, SearchSpaceError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
