"""One benchmark run in a fresh process: set up, loop over operations, check.

Started by ``run.py``; not meant to be run by hand. Set-up ends once ``fcmi``
is imported and every generated config is written, parsed and validated; the
moment is reported on the system-wide monotonic clock, so the parent can
measure from process start. Then the workload's operations run one after
another, round robin, until ``--seconds`` would be exceeded (the first round
always runs whole). Each operation is a call to ``fcmi.cli.main`` whose
output files are checked afterwards, outside the timed region.

With ``--trace 1`` every operation runs twice in a row, untraced and then
traced, so the tracing overhead is measured on the same work.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class Runner:
    """The operations of one run, their argv, records and output checks."""

    def __init__(self, cli, ops, argvs, references):
        self.cli = cli
        self.ops = ops
        self.argvs = argvs  # op name -> (fcmi argv, output file)
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.records = {op.name: {"times": [], "traced_times": [], "sha256": None,
                                  "byte_identical": None, "reference_checked": False,
                                  # traced counters summed over repetitions
                                  "calls": [0] * len(tracing.HOOKS),
                                  "self_s": [0.0] * len(tracing.HOOKS),
                                  "stability_fits": 0, "stability_distinct": 0}
                        for op in ops}

    def run(self, op, tracer=None) -> None:
        """One timed repetition of an operation, then its checks."""
        self.attempted += 1
        argv, out = self.argvs[op.name]
        out = Path(out)
        out.unlink(missing_ok=True)
        captured = io.StringIO()
        if tracer is not None:
            tracer.reset_scope()
            tracer.install()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                code = self.cli.main(argv)
        except Exception as e:  # a crash is a failed operation, not a failed run
            code = f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        rec = self.records[op.name]
        rec["traced_times" if tracer is not None else "times"].append(elapsed)
        if code != 0:
            problems = [f"exit {code}: {captured.getvalue()[-400:]}"]
        else:
            problems = self.check(op, out, rec)
        if problems:
            self.failed += 1
            self.failures.append({"op": op.name, "problems": problems[:5]})

    def check(self, op, out: Path, rec: dict) -> list[str]:
        try:
            data = out.read_bytes()
        except OSError as e:
            return [f"no output: {e}"]
        digest = hashlib.sha256(data).hexdigest()
        if rec["sha256"] is not None:
            # the program is deterministic: a repetition must write the same bytes
            return [] if digest == rec["sha256"] else ["output differs between repetitions"]
        rec["sha256"] = digest
        try:
            problems, summary = checks.examine(op, json.loads(data))
        except (ValueError, KeyError, TypeError) as e:
            return [f"malformed output: {type(e).__name__}: {e}"]
        ref = self.references.get(op.name)
        if ref is not None:
            rec["reference_checked"] = True
            rec["byte_identical"] = digest == ref["sha256"]
            problems += checks.reference_problems(ref["summary"], summary)
        return problems


def _references(workload: str, seed: int, smoke: bool) -> dict:
    """Stored outputs for this seed by operation name; empty when there are none."""
    refs = {}
    for group in () if smoke else workloads.WORKLOADS[workload]:
        path = BENCH / "reference" / f"{group}.json"
        if path.is_file():
            for name, entry in _read_json(path).get(str(seed), {}).items():
                refs[f"{group}.{name}"] = entry
    return refs


def environment() -> dict:
    """Interpreter, numpy/BLAS, CPU and source identity of this run."""
    import numpy as np

    blas = {}
    with contextlib.suppress(Exception):  # show_config's layout varies by version
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads_env": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _layer_metrics(tracer, runner: Runner) -> dict:
    """Per-layer metrics of one pass over the operations (mean over repetitions)."""
    names = tracer.names
    calls = [0.0] * len(names)
    self_s = [0.0] * len(names)
    traced_wall = untraced_wall = 0.0
    for op in runner.ops:
        rec = runner.records[op.name]
        reps = len(rec["traced_times"])
        for i in range(len(names)):
            calls[i] += rec["calls"][i] / reps
            self_s[i] += rec["self_s"][i] / reps
        # per-pass means, like the counters; the overhead below uses medians
        traced_wall += statistics.fmean(rec["traced_times"])
        untraced_wall += statistics.median(rec["times"])
    metrics: dict[str, tuple[float, str]] = {}
    for i, name in enumerate(names):
        metrics[f"{name}.calls"] = (calls[i], "count")
        metrics[f"{name}.self_s"] = (self_s[i], "s")
    for layer in tracing.LAYERS:
        layer_self = sum(self_s[i] for i, name in enumerate(names)
                         if name.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = (layer_self, "s")
        metrics[f"{layer}.share"] = (layer_self / traced_wall, "ratio")
    fits = calls[names.index("learners.train_predict")]
    examples = calls[names.index("core.example")]
    metrics["core.examples_per_fit"] = (examples / fits if fits else 0.0, "count/fit")
    durations = tracer.fit_durations
    if len(durations) >= 2:
        cuts = statistics.quantiles(durations, n=100)
        p50, p99 = cuts[49], cuts[98]
    else:
        p50 = p99 = durations[0] if durations else 0.0
    metrics["learners.train_predict.p50_us"] = (p50 * 1e6, "us")
    metrics["learners.train_predict.p99_us"] = (p99 * 1e6, "us")
    stab_fits = sum(runner.records[op.name]["stability_fits"] for op in runner.ops)
    stab_distinct = sum(runner.records[op.name]["stability_distinct"] for op in runner.ops)
    metrics["learners.stability_fit_reuse"] = (
        stab_distinct / stab_fits if stab_fits else 0.0, "ratio")
    traced_median = sum(statistics.median(runner.records[op.name]["traced_times"])
                        for op in runner.ops)
    metrics["trace.overhead_frac"] = (traced_median / untraced_wall - 1.0, "ratio")
    metrics["trace.hooks_missing"] = (len(tracer.missing), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _run_traced(runner: Runner, op, tracer) -> None:
    """Run an operation under the tracer and add its counter deltas to the record."""
    rec = runner.records[op.name]
    calls0, self0, fits0, _ = tracer.snapshot()
    runner.run(op, tracer)
    calls1, self1, fits1, distinct = tracer.snapshot()
    for i in range(len(calls0)):
        rec["calls"][i] += calls1[i] - calls0[i]
        rec["self_s"][i] += self1[i] - self0[i]
    rec["stability_fits"] += fits1 - fits0
    rec["stability_distinct"] += distinct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work", required=True, help="scratch directory for this run")
    parser.add_argument("--result", required=True, help="where to write the result JSON")
    args = parser.parse_args(argv)

    # --- set-up: import the package under test, write and validate configs
    sys.path.insert(0, str(ROOT / "src"))
    import fcmi.cli as cli
    from fcmi.harness import ExperimentConfig

    ops = workloads.build(args.workload, args.seed, args.smoke)
    work_dir = Path(args.work)
    argvs = {}
    for op in ops:
        op_dir = work_dir / op.name
        op_dir.mkdir(parents=True, exist_ok=True)
        argvs[op.name] = workloads.cli_argv(op, op_dir)
        if op.config is not None:
            cfg_path = op_dir / "config.json"
            cfg_path.write_text(json.dumps(op.config), encoding="utf-8")
            ExperimentConfig.from_json_dict(_read_json(cfg_path))
    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    result_path = Path(args.result)
    if args.setup_only:
        result_path.write_text(json.dumps({"t_ready": t_ready}), encoding="utf-8")
        return 0

    # --- measurement: closed loop over the operations until the time is up
    runner = Runner(cli, ops, argvs, _references(args.workload, args.seed, args.smoke))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
    start = time.perf_counter()
    for i in itertools.count():
        op = ops[i % len(ops)]
        rec = runner.records[op.name]
        if i >= len(ops):
            # the slowest repetition so far, so that a run rarely overshoots
            expected = max(rec["times"]) + max(rec["traced_times"], default=0.0)
            if time.perf_counter() - start + expected > args.seconds:
                break
        runner.run(op)
        if tracer is not None:
            _run_traced(runner, op, tracer)

    ops_info = {}
    for op in ops:
        rec = runner.records[op.name]
        ops_info[op.name] = {
            "repetitions": len(rec["times"]),
            "median_s": statistics.median(rec["times"]),
            "times_s": rec["times"],
            "traced_times_s": rec["traced_times"],
            "nominal_fits": workloads.nominal_fits(op),
            "reference_checked": rec["reference_checked"],
            "byte_identical_to_reference": rec["byte_identical"],
        }
        if tracer is not None:
            fit_idx = tracer.names.index("learners.train_predict")
            ops_info[op.name]["traced_fits_per_repetition"] = \
                rec["calls"][fit_idx] / len(rec["traced_times"])
    result = {
        "t_ready": t_ready,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "ops": ops_info,
        "env": environment(),
    }
    if tracer is None:
        wall = sum(statistics.median(runner.records[op.name]["times"]) for op in ops)
        result["metrics"] = {
            "wall_s": {"value": wall, "unit": "s"},
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MiB"},
            "ok_frac": {"value": (runner.attempted - runner.failed) / runner.attempted,
                        "unit": "ratio"},
        }
    else:
        result["metrics"] = _layer_metrics(tracer, runner)
        result["hooks_missing"] = tracer.missing
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
