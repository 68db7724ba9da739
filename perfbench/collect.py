"""Run the benchmark several times per workload and summarise the spread.

    python3 perfbench/collect.py --runs 10 --out perfbench/out/collect.json
    python3 perfbench/collect.py --runs 5 --workload analyze-large --trace-runs 1

Each run is the command of BENCHMARK.json with its own seed (1, 2, ...),
started one at a time from the checkout root.  For every end-to-end
metric the summary gives the median and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, beside the metric's bound.  ``--trace-runs`` adds traced runs
and each per-layer time as a share of the traced ``wall_s``.  Results for
the workloads run are merged into ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    result["digest"] = next((ln.split()[-1] for ln in lines if ln.strip().startswith("digest ")), None)
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def summarise(spec: dict, workload: str, runs: int, trace_runs: int) -> dict:
    results = [run_once(spec, workload, seed, 0) for seed in range(1, runs + 1)]
    out = {
        "seeds": list(range(1, runs + 1)),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "digests": [r["digest"] for r in results],
        "end_to_end": {m["name"]: dict(spread([r["metrics"][m["name"]]["value"] for r in results]),
                                       bound=m["bound"], unit=m["unit"])
                       for m in spec["end_to_end"]},
    }
    if trace_runs:
        traced = [run_once(spec, workload, seed, 1) for seed in range(1, trace_runs + 1)]
        layers = {m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in traced)
                  for m in spec["per_layer"]}
        out["per_layer"] = layers
        out["share_of_traced_wall"] = {
            m["name"]: layers[m["name"]] / layers["trace.wall_s"] for m in spec["per_layer"]
            if m["unit"] == "s" and not m["name"].startswith("trace.")}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "out" / "collect.json")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    data = json.loads(args.out.read_text()) if args.out.exists() else {}
    data["environment"] = {"python": platform.python_version(), "nproc": os.cpu_count(),
                           "machine": platform.machine(), "run_seconds": spec["run_seconds"],
                           "SR_MAX_ORACLE_N": os.environ.get("SR_MAX_ORACLE_N")}
    data.setdefault("workloads", {})
    for name in workloads:
        summary = summarise(spec, name, args.runs, args.trace_runs)
        data["workloads"][name] = summary
        print(f"{name}: {summary['failed']} failed of {summary['attempted']}")
        for metric, s in summary["end_to_end"].items():
            print(f"  {metric:12s} median {s['median']:.6g} {s['unit']:5s} "
                  f"spread {s['spread']:.4f} (bound {s['bound']})")
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
