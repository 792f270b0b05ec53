"""Record the reference outputs that ``worker.py`` checks runs against.

Runs every operation of every group once, in this process, on the sources
under ``src/``, and writes ``reference/<group>.json`` holding, per workload
seed and operation, the gated summary of the output and the SHA-256 of its
bytes. Run from the root of a checkout, on the commit whose outputs
are the reference:

    python3 perfbench/make_reference.py --seeds 0 1 2 3 4 5 6 7 8 9 10
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def record(group: str, seed: int, cli, scratch: Path) -> dict:
    entries = {}
    for op in workloads.build_group(group, seed):
        op_dir = scratch / f"{group}-{seed}-{op.name}"
        op_dir.mkdir(parents=True)
        if op.config is not None:
            (op_dir / "config.json").write_text(json.dumps(op.config), encoding="utf-8")
        argv, out = workloads.cli_argv(op, op_dir)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"{group}/{op.name} seed {seed}: exit {code}\n"
                             f"{captured.getvalue()}")
        data = Path(out).read_bytes()
        problems, summary = checks.examine(op, json.loads(data))
        if problems:
            raise SystemExit(f"{group}/{op.name} seed {seed}: {problems}")
        entries[op.name] = {"summary": summary,
                            "sha256": hashlib.sha256(data).hexdigest()}
    return entries


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[workloads.DEFAULT_SEED])
    parser.add_argument("--groups", nargs="+", default=list(workloads.GROUPS),
                        choices=workloads.GROUPS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import fcmi.cli as cli

    (BENCH / ".work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=BENCH / ".work"))
    try:
        for group in args.groups:
            path = BENCH / "reference" / f"{group}.json"
            stored = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
            for seed in args.seeds:
                stored[str(seed)] = record(group, seed, cli, scratch)
                print(f"{group} seed {seed}: recorded", file=sys.stderr)
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(stored, sort_keys=True) + "\n",
                            encoding="utf-8")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
