"""The benchmark's fixed workloads, generated from a workload seed.

Each workload is a short list of operations run in one process, one after
another (a closed loop). An operation is one ``fcmi run`` of a generated
config, or one ``fcmi verify-lemmas`` sweep. The program only ever sees the
generated configs; every ``master_seed`` is derived from the workload seed.

The operations come in four groups, each isolating one path:

- ``exact_enum`` is the 2^n split-enumeration path: learner fits per split,
  ``SplitEnumeration`` plumbing and the exact MI/CMI passes.
- ``mc_discrete`` runs no enumeration. Its time is per-trial Python
  plumbing in the harness and the plug-in estimator over sampled trials.
- ``mc_real_stability`` is real-output fitting plus the stability refits;
  neither enumeration nor the discrete estimator runs.
- ``verify_lemmas`` is the only group that reaches ``lemma_lab``, and it
  calls ``mutual_information`` on many tiny dense grids, so per-call
  overhead in the estimator shows here and nowhere else.

Two workloads carry the groups. ``discrete`` (label learners: exact and
monte_carlo) is where a faster split enumeration or trial-table estimator
acts; ``real_and_lemmas`` bypasses both and is where faster real-output
fitting and stability refits act. Two workloads rather than four give each
run twice the measuring time, which the host's noise needs (see README.md).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

WORKLOADS = {
    "discrete": ("exact_enum", "mc_discrete"),
    "real_and_lemmas": ("mc_real_stability", "verify_lemmas"),
}
GROUPS = tuple(g for groups in WORKLOADS.values() for g in groups)

# The seed run.py uses by default; reference/ holds outputs for seeds 0-10,
# and other seeds get structural checks only.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Operation:
    """One timed call into ``fcmi.cli.main``."""

    name: str  # "<group>.<operation>"
    config: dict | None = None  # ``fcmi run`` config; None for verify-lemmas
    instances: int = 0  # verify-lemmas instances per verifier
    seed: int = 0  # verify-lemmas seed


def derive_seed(seed: int, group: str, index: int) -> int:
    """32-bit master seed of one operation, a pure function of its inputs."""
    key = f"{seed}:{group}:{index}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=4).digest(), "big")


def _config(data: dict, learner: dict, n: int, k1: int, k2: int, mode: str,
            bounds: list[str], master_seed: int, **extra) -> dict:
    return {"data": data, "learner": learner, "n": n, "k1": k1, "k2": k2,
            "mode": mode, "bounds": bounds, "master_seed": master_seed,
            "jobs": 1, **extra}


_THRESHOLD_DATA = {"kind": "threshold_realizable",
                   "params": {"threshold": 0.5, "noise": 0.1}}
_GAUSS_DATA = {"kind": "two_gaussians", "params": {"dim": 2, "sep": 2.0}}
_KNN3 = {"kind": "knn", "params": {"k": 3}}
_THRESHOLD_ERM = {"kind": "threshold_erm", "params": {}}


def build(workload: str, seed: int, smoke: bool = False) -> list[Operation]:
    """Operations of a workload; ``smoke`` shrinks every size to a minimum."""
    return [Operation(f"{group}.{op.name}", op.config, op.instances, op.seed)
            for group in WORKLOADS[workload] for op in build_group(group, seed, smoke)]


def build_group(group: str, seed: int, smoke: bool = False) -> list[Operation]:
    """Operations of one group, named within the group."""
    def ms(i: int) -> int:
        return derive_seed(seed, group, i)

    if group == "exact_enum":
        n, k1 = (4, 1) if smoke else (12, 2)
        return [
            Operation("threshold_erm", _config(
                _THRESHOLD_DATA, _THRESHOLD_ERM, n, k1, 1, "exact_enumeration",
                ["fcmi_m1", "fcmi_mn", "cmi_weights", "fcmi_stability"], ms(0))),
            Operation("knn", _config(
                _GAUSS_DATA, _KNN3, n, k1, 1, "exact_enumeration",
                ["fcmi_m1", "fcmi_mn", "fcmi_stability",
                 "fcmi_stability_squared"], ms(1))),
        ]
    if group == "mc_discrete":
        knn_n, knn_k1, knn_k2 = (4, 1, 10) if smoke else (50, 4, 200)
        thr_k1, thr_k2 = (1, 10) if smoke else (5, 1000)
        # enumerate_limit covers C(50, 2) = 1225, so no subset is sampled
        return [
            Operation("knn", _config(
                _GAUSS_DATA, _KNN3, knn_n, knn_k1, knn_k2, "monte_carlo",
                ["fcmi_m1", "fcmi_subset_m"], ms(0),
                subset_policy={"m": 2, "enumerate_limit": 1225})),
            Operation("threshold_erm", _config(
                _THRESHOLD_DATA, _THRESHOLD_ERM, 5, thr_k1, thr_k2, "monte_carlo",
                ["fcmi_m1", "fcmi_mn", "cmi_weights"], ms(1))),
        ]
    if group == "mc_real_stability":
        big_n, big_k2 = (10, 5) if smoke else (1000, 100)
        stab_n, stab_k2, trials = (5, 5, 2) if smoke else (50, 50, 10)
        label = {"kind": "logistic_gd", "params": {"output": "label"}}
        prob = {"kind": "logistic_gd", "params": {"output": "prob"}}
        return [
            Operation("logistic_label", _config(
                _GAUSS_DATA, label, big_n, 1, big_k2, "monte_carlo",
                ["fcmi_m1"], ms(0))),
            Operation("logistic_stability", _config(
                _GAUSS_DATA, prob, stab_n, 2, stab_k2, "monte_carlo",
                ["det_stability", "det_stability_squared"], ms(1),
                loss="absolute", stability={"trials": trials, "gamma": 1.0})),
        ]
    if group == "verify_lemmas":
        return [Operation("verify_lemmas", instances=10 if smoke else 1000,
                          seed=ms(0))]
    raise ValueError(f"unknown group {group!r} (known: {', '.join(GROUPS)})")


def cli_argv(op: Operation, op_dir) -> tuple[list[str], str]:
    """``fcmi`` arguments of an operation and the output file they write.

    A ``run`` operation's config is read from ``op_dir/config.json``.
    """
    if op.config is None:
        out = f"{op_dir}/verify.json"
        return ["verify-lemmas", "--instances", str(op.instances), "--seed", str(op.seed),
                "-o", out], out
    return ["run", f"{op_dir}/config.json", "-o", f"{op_dir}/out"], f"{op_dir}/out/report.json"


def nominal_fits(op: Operation) -> int:
    """Learner fits one operation makes at the protocol's nominal cost."""
    cfg = op.config
    if cfg is None:
        return 0
    if cfg["mode"] == "exact_enumeration":
        return cfg["k1"] * 2 ** cfg["n"] * cfg.get("exact_seeds", 1)
    fits = cfg["k1"] * cfg["k2"]
    if "det_stability" in cfg["bounds"] or "det_stability_squared" in cfg["bounds"]:
        clauses = 3 if "det_stability_squared" in cfg["bounds"] else 1
        fits += clauses * cfg["stability"]["trials"] * (cfg["n"] + 1)
    return fits
