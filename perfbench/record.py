"""Run the benchmark over several seeds and summarize its spread.

For each workload: one untraced run per seed, then one traced run on the
default seed. Each end-to-end metric gets its median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, the distance between
the quartiles as a share of the median, next to the metric's bound. Run
from the root of a checkout:

    python3 perfbench/record.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/results/x.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-400:]}")
    lines = proc.stdout.splitlines()
    return {"seed": seed, "info": json.loads(lines[-2])["info"],
            "result": json.loads(lines[-1])}


def summarize(runs: list[dict], spec: dict) -> dict:
    summary = {}
    for metric in spec["end_to_end"]:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
        summary[metric["name"]] = {
            "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": metric["bound"], "values": values}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=list(workloads.WORKLOADS))
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", required=True,
                        help="JSON file to write; other workloads already in it are kept")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    out = Path(args.out)
    # workloads recorded earlier into the same file are kept
    report = json.loads(out.read_text(encoding="utf-8")) if out.is_file() else {"workloads": {}}
    report.update(run_seconds=seconds, seeds=args.seeds)
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(bench_run(workload, seed, seconds, 0))
            metrics = runs[-1]["result"]["metrics"]
            print(f"{workload} seed {seed}: correct={runs[-1]['result']['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in metrics.items()),
                  file=sys.stderr)
        entry = {"summary": summarize(runs, spec),
                 "runs": [{"seed": r["seed"], **r["result"]} for r in runs],
                 "env": runs[0]["info"]["env"],
                 "ops": {r["seed"]: r["info"]["ops"] for r in runs}}
        for name, s in entry["summary"].items():
            print(f"{workload} {name}: median={s['median']:.4g} spread={s['spread']} "
                  f"bound={s['bound']}", file=sys.stderr)
        if not args.no_trace:
            traced = bench_run(workload, workloads.DEFAULT_SEED, seconds, 1)
            entry["traced"] = {"seed": traced["seed"], **traced["result"],
                               "ops": traced["info"]["ops"]}
        report["workloads"][workload] = entry
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
