"""Outside-in benchmark of the ``fcmi`` package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload discrete --seed 0 --seconds 55 --trace 0

Each run starts fresh worker processes (``worker.py``) with one BLAS thread,
which import ``fcmi`` from ``src/`` and call ``fcmi.cli.main`` on configs
generated from ``--seed``. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it carries the environment and per-operation
details. Exits non-zero, printing no result, when the run itself cannot be
made (for example when ``src/fcmi`` is not there).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = BENCH / ".work"

# extra worker starts that only set up, half before and half after the
# measuring worker, so setup_s is a median of samples spread over the run
SETUP_PROBES = 8
# every run, its set-up probes included, must end well within this
RUN_BUDGET_S = 170.0


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, work: Path, tag: str, setup_only: bool,
           deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; returns (its set-up time, its result)."""
    result_path = work / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work / tag),
           "--result", str(result_path)]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    t_spawn = _monotonic()
    proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                          timeout=max(1.0, deadline - _monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    return result["t_ready"] - t_spawn, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every operation at minimal size (self-test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fcmi" / "__init__.py").is_file():
        print(f"error: no fcmi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = _monotonic() + RUN_BUDGET_S
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [_spawn(args, work, f"setup{k}", True, deadline)[0]
                  for k in range(probes // 2)]
        setup_s, result = _spawn(args, work, "main", False, deadline)
        setups.append(setup_s)
        setups += [_spawn(args, work, f"setup{k}", True, deadline)[0]
                   for k in range(probes // 2, probes)]
    except (RuntimeError, OSError, subprocess.TimeoutExpired, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            WORK_ROOT.rmdir()

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    info = {key: result[key] for key in ("env", "ops", "failures")}
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                trace=args.trace, setup_samples_s=setups,
                hooks_missing=result.get("hooks_missing", []))
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
