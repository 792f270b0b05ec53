"""Smoke self-test of the benchmark itself.

Runs every workload at minimal size, untraced and traced, and checks that
each run is correct, that its result line carries exactly the metric names
and units ``BENCHMARK.json`` declares, and that every trace hook resolves.
Also checks that a directory holding only the benchmark (no ``src/``) makes
``run.py`` fail without printing a result. Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / BENCH.name / "run.py"), "--workload", workload,
           "--seed", str(workloads.DEFAULT_SEED), "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-400:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        info = json.loads(proc.stdout.splitlines()[-2])["info"]
        problems.append(f"not correct: {info['failures'][:2]}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != declared:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(emitted.items()) ^ set(declared.items()))}")
    if trace and result["metrics"].get("trace.hooks_missing", {}).get("value") != 0:
        info = json.loads(proc.stdout.splitlines()[-2])["info"]
        problems.append(f"hooks missing: {info['hooks_missing']}")
    return problems


def check_without_sources() -> list[str]:
    """Only BENCHMARK.json and the benchmark: the run must fail and print no result."""
    (BENCH / ".work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / ".work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / BENCH.name,
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = _run(bare, next(iter(workloads.WORKLOADS)), 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            problems = check_run(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not problems else problems}")
            failures += problems
    problems = check_without_sources()
    print(f"without sources: {'ok' if not problems else problems}")
    failures += problems
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
