"""Per-layer tracing installed from outside the package.

Every hook wraps one public function or method of a ``fcmi`` module. The
wrapper replaces the defining attribute and every other binding of the same
object in a loaded ``fcmi`` module, including names bound by ``from ...
import`` (``fcmi.harness.train_predict``) and values of module-level dicts
(``fcmi.core.LOSSES``). Self time comes from nesting: a span's duration
minus the durations of the spans it directly encloses. Counters accumulate
in memory; nothing is written until the run ends.

A target that no longer exists is skipped and counted in ``hooks_missing``.
"""

from __future__ import annotations

import importlib
import sys
import time

_QUERIES = ("mi_index", "mi_subset", "mi_all", "mi_testslots", "weight_mi_index",
            "weight_mi_subset", "weight_mi_all", "cmi_index")
_BOUNDS = ("fcmi_bound_m1", "fcmi_bound_mn", "fcmi_bound_general_m",
           "fcmi_squared_bound", "cmi_weight_bound", "stability_fcmi_bound",
           "stability_fcmi_squared_bound", "vc_fcmi_bound", "ensemble_fcmi_bound",
           "stability_kl_decomposition", "gaussian_shift_kl",
           "deterministic_stability_bound", "deterministic_stability_squared_bound",
           "optimal_noise_variance")
VERIFIERS = ("verify_dv_inequality", "verify_squared_inequality",
             "verify_subgaussian_square", "verify_erasure_lemma",
             "verify_hans_subset_inequality", "verify_kl_decomposition",
             "verify_monotonicity_in_m")

# metric prefix -> hook targets "module:qualname"; the layer is the first
# dotted component of the prefix
HOOKS: dict[str, tuple[str, ...]] = {
    "learners.train_predict": ("fcmi.learners:train_predict",),
    "learners.estimate_stability": ("fcmi.learners:estimate_stability",),
    "core.example": ("fcmi.core:Supersample.example",),
    "core.loss": ("fcmi.core:zero_one_loss", "fcmi.core:absolute_loss"),
    "core.aggregate_gap": ("fcmi.core:aggregate_gap",),
    "infotheory.split_enumeration_init": ("fcmi.infotheory:SplitEnumeration.__init__",),
    "infotheory.split_enumeration_query": tuple(
        f"fcmi.infotheory:SplitEnumeration.{q}" for q in _QUERIES),
    "infotheory.plugin_mi_from_samples": ("fcmi.infotheory:plugin_mi_from_samples",),
    "infotheory.mutual_information": ("fcmi.infotheory:mutual_information",),
    "datagen.sample_supersample": ("fcmi.datagen:sample_supersample",),
    "datagen.sample_examples": ("fcmi.datagen:sample_examples",),
    "bounds": tuple(f"fcmi.bounds:{b}" for b in _BOUNDS),
    "harness.run_experiment": ("fcmi.harness:run_experiment",),
    "harness.serialize": ("fcmi.harness:persist", "fcmi.harness:canonical_json",
                          "fcmi.harness:curve_rows", "fcmi.harness:curve_table_csv"),
    "cli.main": ("fcmi.cli:main",),
    "lemma_lab.run_all_verifiers": ("fcmi.lemma_lab:run_all_verifiers",),
    **{f"lemma_lab.{v}": (f"fcmi.lemma_lab:{v}",) for v in VERIFIERS},
}
LAYERS = ("datagen", "learners", "core", "infotheory", "bounds", "harness", "cli",
          "lemma_lab")
_FIT = "learners.train_predict"
_STABILITY = "learners.estimate_stability"


def _resolve(target: str):
    """(owner, attribute, function) of a target, or None when it is gone."""
    module_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


def _fingerprint(obj):
    """Hashable identity of a training set, whatever container carries it."""
    if hasattr(obj, "tobytes"):
        return obj.tobytes()
    if hasattr(obj, "x") and hasattr(obj, "y"):
        return (tuple(obj.x), obj.y)
    if isinstance(obj, (list, tuple)):
        return tuple(_fingerprint(o) for o in obj)
    return obj


class Tracer:
    """Installs the hooks, accumulates calls and self time, and removes them."""

    def __init__(self):
        self.names = list(HOOKS)
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.fit_durations: list[float] = []
        self.stability_depth = 0
        self.stability_fits = 0
        self.stability_seen: set = set()
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._patches: list[tuple[object, object, object]] = []

    def reset_scope(self) -> None:
        """Start a new operation: distinct training sets are counted per operation."""
        self.stability_seen = set()

    def _wrap(self, idx: int, fn):
        stack, calls, self_s, clock = self._stack, self.calls, self.self_s, time.perf_counter
        name = self.names[idx]

        def plain(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_s[idx] += dt - stack.pop()
                calls[idx] += 1
                if stack:
                    stack[-1] += dt

        if name == _STABILITY:
            def stability(*args, **kwargs):
                self.stability_depth += 1
                try:
                    return plain(*args, **kwargs)
                finally:
                    self.stability_depth -= 1
            return stability
        if name == _FIT:
            def fit(*args, **kwargs):
                if self.stability_depth:
                    train = args[1] if len(args) > 1 else kwargs.get("train")
                    self.stability_fits += 1
                    self.stability_seen.add(_fingerprint(train))
                t0 = clock()
                try:
                    return plain(*args, **kwargs)
                finally:
                    self.fit_durations.append(clock() - t0)
            return fit
        return plain

    def install(self) -> None:
        self.missing = []
        for idx, name in enumerate(self.names):
            for target in HOOKS[name]:
                found = _resolve(target)
                if found is None:
                    self.missing.append(target)
                    continue
                owner, attr, fn = found
                wrapper = self._wrap(idx, fn)
                self._replace(owner, attr, wrapper)
                if isinstance(owner, type):
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "fcmi" and not mod_name.startswith("fcmi."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._replace(mod, key, wrapper)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is fn:
                                    self._replace(value, k, wrapper)

    def _replace(self, owner, key, wrapper) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = wrapper
        else:
            original = owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)
            self._patches.append((owner, key, original))
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches = []

    def snapshot(self) -> tuple[list[int], list[float], int, int]:
        distinct = len(self.stability_seen)
        return list(self.calls), list(self.self_s), self.stability_fits, distinct
