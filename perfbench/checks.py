"""Correctness checks on the files an operation wrote.

Every output gets structural checks. When the workload seed has stored
reference outputs, the gated fields must also match them within
``REL_TOL``/``ABS_TOL``. Bound values and report keys that the reference does
not have are not gated; whether ``report.json`` is byte-identical to the
reference is reported as information only.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9
ABS_TOL = 1e-12

# per-supersample estimate fields of report.json
ESTIMATE_FIELDS = ("mi_per_index", "fcmi_full", "mi_testslots", "weight_mi_full",
                   "weight_mi_per_index", "cmi_per_index", "cmi_allpairs_per_index",
                   "subset_mi", "member_fcmi")
STABILITY_FIELDS = ("beta", "beta1", "beta2")


def summarize_run(report: dict) -> dict:
    """The gated fields of a ``report.json``."""
    supersamples = []
    for s in report["supersamples"]:
        entry = {"supersample_id": s["supersample_id"], "gap_mean": s["gap_mean"],
                 "gap_std": s["gap_std"]}
        entry.update({f: s[f] for f in ESTIMATE_FIELDS if s.get(f) is not None})
        supersamples.append(entry)
    summary = {"gap_mean": report["gap_mean"], "gap_std": report["gap_std"],
               "supersamples": supersamples}
    stability = report["estimator_meta"].get("stability")
    if stability is not None:
        summary["stability"] = {f: stability[f] for f in STABILITY_FIELDS}
    return summary


def summarize_verify(payload: dict) -> dict:
    """The gated fields of a ``verify-lemmas`` summary."""
    return {v["lemma"]: {"instances": v["instances"], "violations": v["violations"]}
            for v in payload["verifiers"]}


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _compare(path: str, ref, got, problems: list[str]) -> None:
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            problems.append(f"{path}: expected an object")
            return
        for key, value in ref.items():
            if key not in got:
                problems.append(f"{path}.{key}: missing")
            else:
                _compare(f"{path}.{key}", value, got[key], problems)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{path}: expected a list of {len(ref)}")
            return
        for i, (r, g) in enumerate(zip(ref, got)):
            _compare(f"{path}[{i}]", r, g, problems)
    elif isinstance(ref, float) or isinstance(got, float):
        if not _close(ref, got):
            problems.append(f"{path}: {got!r} != reference {ref!r}")
    elif ref != got:
        problems.append(f"{path}: {got!r} != reference {ref!r}")


def reference_problems(reference: dict, summary: dict) -> list[str]:
    """Differences between a summary and its stored reference summary."""
    problems: list[str] = []
    _compare("", reference, summary, problems)
    return problems


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and math.isfinite(v)


def run_problems(config: dict, report: dict) -> list[str]:
    """Structural checks on a ``report.json`` that hold for every seed."""
    problems = []
    names = [b["name"] for b in report["bounds"]]
    for name in config["bounds"]:
        if name not in names:
            problems.append(f"bound {name} missing")
    for b in report["bounds"]:
        if not _finite(b["value"]):
            problems.append(f"bound {b['name']} = {b['value']!r} is not finite")
    if len(report["supersamples"]) != config["k1"]:
        problems.append(f"{len(report['supersamples'])} supersamples, expected {config['k1']}")
    gaps = [report["gap_mean"]] + [s["gap_mean"] for s in report["supersamples"]]
    if not all(_finite(g) and -1.0 <= g <= 1.0 for g in gaps):
        problems.append(f"gap outside [-1, 1]: {gaps}")
    for s in report["supersamples"]:
        for f in ESTIMATE_FIELDS:
            value = s.get(f)
            values = value if isinstance(value, list) else [value]
            if value is not None and not all(_finite(v) and v >= 0 for v in values):
                problems.append(f"{s['supersample_id']}.{f} has a negative or "
                                f"non-finite estimate")
    stability = report["estimator_meta"].get("stability")
    if stability is not None:
        for f in STABILITY_FIELDS:
            if not (_finite(stability[f]) and stability[f] >= 0):
                problems.append(f"stability.{f} = {stability[f]!r}")
    return problems


def examine(op, payload: dict) -> tuple[list[str], dict]:
    """Structural problems and gated summary of an operation's output."""
    if op.config is not None:
        return run_problems(op.config, payload), summarize_run(payload)
    return verify_problems(op.instances, payload), summarize_verify(payload)


def verify_problems(instances: int, payload: dict) -> list[str]:
    """Every verifier ran ``instances`` instances and found no violation."""
    problems = [] if payload["verifiers"] else ["no verifier ran"]
    for v in payload["verifiers"]:
        if v["instances"] != instances:
            problems.append(f"{v['lemma']}: {v['instances']} instances, expected {instances}")
        if v["violations"] != 0:
            problems.append(f"{v['lemma']}: {v['violations']} violations")
    return problems
