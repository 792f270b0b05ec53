"""Experiment harness: k1 supersamples, k2 (split, seed) trials each.

Samples supersamples, runs the learner across train/test splits, estimates
the information quantities each requested bound needs, and assembles a
deterministic, canonically serialized report. ``BOUNDS`` declares each bound
whole, its closed-form arithmetic included. All per-trial seeds derive from
the master seed by counter, so scheduling cannot perturb results.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import MISSING, dataclass, field, fields
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    ENUMERATION_LIMIT,
    LOSS_SPACE,
    LOSSES,
    ConfigError,
    ContractViolation,
    JsonFields,
    KindSpec,
    Supersample,
    TrialTable,
    admit,
    aggregate_gap,
    exact_rows,
    json_data,
)
from .datagen import GeneratorSpec, sample_supersample
from .infotheory import (
    PLUGIN_ALPHABET_LIMIT,
    all_subsets,
    product_alphabet_size,
    split_cmi,
    subset_mi,
    mi_testslots,
    weight_mi,
)
from .learners import (
    LearnerSpec,
    estimate_stability,
    fill_table,
    label_classes,
    needs_binary_labels,
    prediction_space,
    uses_kind,
)
from .seeding import derive_seeds, split_masks

# spawn-key channels for counter-based seed derivation
_DATA, _SPLIT, _TRIAL, _STABILITY, _SUBSET = 0, 1, 2, 3, 4

# split-mask cells (k2 * n a supersample) of one block of supersamples, whose
# seeds are derived and masks drawn together; bounds the masks and seed
# scratch held at once, whatever k1
_BLOCK_CELLS = 2 ** 16


class _DataSource(KindSpec):
    """The config's data object: a generator, or a csv pool of examples."""

    NOUN = "data"
    KINDS = {**GeneratorSpec.KINDS, "csv": {"path": MISSING}}


def _field(default=MISSING, key=None, least=None, **kwargs):
    """A config field: its default, its JSON key when that is not its name
    (a dotted path for a nested key) and, for an integer, its least value."""
    return field(default=default, metadata={"key": key, "least": least}, **kwargs)


def _key(f) -> str:
    return f.metadata.get("key") or f.name


def _admit(f, value):
    """A config field's value by its annotation's type rule and its least value."""
    value = admit(f.type, value, _key(f))
    least = f.metadata.get("least")
    if least is not None and value < least:
        raise ConfigError(f"{_key(f)} must be >= {least}, got {value}")
    return value


@dataclass
class ExperimentConfig:
    """One experiment, checked whole when it is built: a config that exists
    can run. Each field states its JSON key, default, type and bounds once;
    parsing, the checks and the report echo read them from here, and a key
    no field states is refused.
    """

    data: dict
    n: int = _field(least=1)
    k1: int = _field(least=1)
    k2: int = _field(least=1)
    learner: LearnerSpec
    mode: str = "monte_carlo"
    bounds: tuple[str, ...] = ("fcmi_m1",)
    master_seed: int = _field(0, least=0)
    loss: str = "zero_one"
    subset_m: int | None = _field(None, "subset_policy.m")
    subset_enumerate_limit: int = _field(1000, "subset_policy.enumerate_limit", least=0)
    subset_sample_count: int = _field(200, "subset_policy.sample_count", least=1)
    exact_seeds: int = _field(1, least=1)
    stability_trials: int = _field(25, "stability.trials", least=1)
    gamma: float = _field(1.0, "stability.gamma")
    clip_bounds: bool = False
    # schedules supersamples but changes no result, so equality and the
    # report echo leave it out
    jobs: int = _field(1, least=1, compare=False)
    # a csv source's (N, d) inputs and (N,) labels, read when the config is
    # built (None for a generator); no JSON key, not echoed, not compared
    pool: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for f in fields(self):  # f.type is the annotation's text
            setattr(self, f.name, _admit(f, getattr(self, f.name)))
        if self.mode not in ("monte_carlo", "exact_enumeration"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.loss not in LOSSES:
            raise ConfigError(f"unknown loss {self.loss!r}")
        if not isinstance(self.bounds, (list, tuple)) or not all(
                isinstance(b, str) for b in self.bounds):
            raise ConfigError(f"bounds must be a list of bound names, got {self.bounds!r}")
        self.bounds = tuple(self.bounds)
        for b in self.bounds:
            if b not in BOUNDS:
                raise ConfigError(f"unknown bound {b!r} (known: {', '.join(BOUNDS)})")
        if len(set(self.bounds)) != len(self.bounds):
            raise ConfigError("duplicate bound requested")
        if not self.gamma > 0:
            raise ConfigError("stability.gamma must be > 0")
        source = _DataSource.from_json_dict(self.data)
        gen = None if source.kind == "csv" else GeneratorSpec(source.kind, source.params)
        prediction_space(self.learner)
        if gen is None and not isinstance(source.params["path"], str):
            # open() would take an integer as a file descriptor
            raise ConfigError(f"csv params.path must be a string, got {source.params['path']!r}")
        if uses_kind(self.learner, ("threshold_erm",)) and gen is not None and not (
                gen.kind == "threshold_realizable"
                or (gen.kind == "uniform_labels" and gen.param("dim") == 1)):
            raise ConfigError(
                "threshold_erm needs 1-D features in [0, 1]: threshold_realizable, "
                f"uniform_labels with dim 1 or a one-column csv, not {gen.kind!r}")
        self.pool = _load_pool(self)
        _check_bounds_supported(self, 2 if self.pool is None else label_classes(self.pool[1]))

    @classmethod
    def from_json_dict(cls, d) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"an experiment config must be a JSON object, got {d!r}")
        declared = {_key(f): f for f in fields(cls) if f.init}
        groups = {key.split(".")[0] for key in declared if "." in key}
        flat = {}
        for key, value in d.items():
            if key not in groups:
                flat[key] = value
            elif isinstance(value, dict):
                flat.update((f"{key}.{sub}", v) for sub, v in value.items())
            else:
                raise ConfigError(f"{key} must be an object, got {value!r}")
        unknown = sorted(set(flat) - set(declared))
        if unknown:
            raise ConfigError(f"unknown config key(s) {', '.join(unknown)}")
        missing = sorted(key for key, f in declared.items()
                         if f.default is MISSING and key not in flat)
        if missing:
            raise ConfigError(f"missing config key(s) {', '.join(missing)}")
        kwargs = {declared[key].name: value for key, value in flat.items()}
        try:
            if "learner" in kwargs:
                kwargs["learner"] = LearnerSpec.from_json_dict(kwargs["learner"])
            return cls(**kwargs)
        except (TypeError, ValueError) as e:  # an unforeseen bad value, refused all the same
            raise ConfigError(f"bad experiment config: {e}") from e

    def to_json_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            if f.compare:
                *groups, key = _key(f).split(".")
                node = out
                for group in groups:
                    node = node.setdefault(group, {})
                node[key] = json_data(getattr(self, f.name))
        return out


@dataclass
class SupersampleResult(JsonFields):
    """Per-supersample gap statistics and information estimates."""

    supersample_id: str
    gap_mean: float
    gap_std: float | None
    mi_per_index: list[float] | None = None
    fcmi_full: float | None = None
    mi_testslots: float | None = None
    weight_mi_full: float | None = None
    weight_mi_per_index: list[float] | None = None
    cmi_per_index: list[float] | None = None
    cmi_allpairs_per_index: list[float] | None = None
    subset_mi: list[float] | None = None
    member_fcmi: list[float] | None = None


@dataclass(frozen=True)
class BoundReport(JsonFields):
    """A named bound value with its Monte Carlo spread across supersamples."""

    name: str
    value: float
    spread: float | None
    inputs_digest: dict
    tag: str

    def __post_init__(self) -> None:
        if self.value < 0 or math.isnan(self.value):
            raise ContractViolation(f"bound value must be >= 0, got {self.value}")


@dataclass
class ExperimentReport(JsonFields):
    config: dict
    gap_mean: float
    gap_std: float | None
    supersamples: list[SupersampleResult]
    bounds: list[BoundReport]
    estimator_meta: dict
    # volatile / bulky companions, excluded from serialization and equality
    wall_clock_sec: float | None = field(default=None, compare=False)
    tables: list[TrialTable] | None = field(default=None, compare=False)

    PARSE = {
        "supersamples": lambda ss: [SupersampleResult.from_json_dict(s) for s in ss],
        "bounds": lambda bs: [BoundReport.from_json_dict(b) for b in bs],
    }


def _write_json(value, indent: str, out: list) -> None:
    """Append the text of plain JSON data to ``out``: sorted keys, two-space
    indent, a list of floats joined in one pass."""
    if isinstance(value, dict):  # string keys, as ``json_data`` makes them
        items, opener, closer = sorted(value.items()), "{", "}"
    elif isinstance(value, (list, tuple)):
        items, opener, closer = value, "[", "]"
    else:
        out.append(json.dumps(value, ensure_ascii=False, allow_nan=False))
        return
    if not items:
        out.append(opener + closer)
        return
    inner = indent + "  "
    sep = ",\n" + inner
    out.append(opener + "\n" + inner)
    if opener == "[":
        try:
            texts = list(map(float.__repr__, items))
        except TypeError:  # an item that is not a float
            pass
        else:
            for bad in ("nan", "inf", "-inf"):
                if bad in texts:
                    raise ValueError(f"Out of range float values are not JSON compliant: {bad}")
            out.append(sep.join(texts) + "\n" + indent + closer)
            return
    for j, item in enumerate(items):
        if j:
            out.append(sep)
        if opener == "{":
            key, item = item
            out.append(encode_basestring(key) + ": ")
        _write_json(item, inner, out)
    out.append("\n" + indent + closer)


def canonical_json(payload) -> str:
    """Stable bytes for a JSON payload, or an object with ``to_json_dict``:
    sorted keys, two-space indent; the bytes of ``json.dumps(...,
    sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)``."""
    out: list = []
    _write_json(json_data(payload), "", out)
    out.append("\n")
    return "".join(out)


def persist(content, path) -> None:
    """Write ``content`` to the file ``path``, creating the directories it
    lacks: a ``str`` as it is, anything else (a report, a table, a plain
    payload) as ``canonical_json``. Every file the commands write comes here."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content if isinstance(content, str) else canonical_json(content),
                    encoding="utf-8")


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def load_report(path) -> ExperimentReport:
    """A persisted report; ConfigError unless it holds every field and every
    config key its curve rows read, each of its declared type, and names only
    bounds of ``BOUNDS`` (a name also names the bound's SVG file)."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"),
                          parse_constant=_refuse_constant)
        if not isinstance(data, dict):
            raise TypeError("a report must be a JSON object")
        report = ExperimentReport.from_json_dict(data)
        for b in report.bounds:
            if b.name not in BOUNDS:
                raise ConfigError(f"unknown bound {b.name!r} (known: {', '.join(BOUNDS)})")
        curve_rows(report)
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror}") from e
    except KeyError as e:
        raise ConfigError(f"{path}: missing key {e}") from e
    except (ConfigError, TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from e
    return report


# --- data plumbing -----------------------------------------------------------


def _load_pool(config: ExperimentConfig) -> tuple[np.ndarray, np.ndarray] | None:
    """A csv source's (N, d) inputs and (N,) labels, read and validated when
    the config is built; None for synthetic generators."""
    if config.data["kind"] != "csv":
        return None
    path = config.data["params"]["path"]
    try:
        # utf-8-sig drops the byte-order mark a spreadsheet may write
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: {e}") from e
    if not rows:
        raise ConfigError(f"{path}: empty dataset")
    dim = 0
    while f"x_{dim}" in rows[0]:
        dim += 1
    if dim == 0 or "y" not in rows[0]:
        raise ConfigError(f"{path}: expected columns x_0..x_{{p-1}} and y")
    # only the declared columns, each once, and each row as long as the header
    header, declared = reader.fieldnames, {"y", *(f"x_{j}" for j in range(dim))}
    extra = sorted({c for c in header if c not in declared or header.count(c) > 1})
    if extra:
        raise ConfigError(f"{path}: unknown or repeated column(s) {', '.join(map(repr, extra))}")
    # (DictReader files a longer row's excess under the key None and fills a
    # shorter row's missing fields with None)
    for j, r in enumerate(rows):
        if None in r or None in r.values():
            raise ConfigError(f"{path}: row {j + 1} has "
                              f"{'more' if None in r else 'fewer'} fields than the header")
    try:
        xs = np.array([[float(r[f"x_{j}"]) for j in range(dim)] for r in rows])
        ys = np.array([int(r["y"]) for r in rows], dtype=np.int64)
    except (OverflowError, TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from e
    if not np.all(np.isfinite(xs)):
        raise ConfigError(f"{path}: features must be finite")
    if np.any(ys < 0):
        raise ConfigError(f"{path}: labels must be >= 0")
    if needs_binary_labels(config.learner) and np.any(ys > 1):
        raise ConfigError(f"{path}: learner {config.learner.kind!r} needs labels in {{0, 1}}")
    if uses_kind(config.learner, ("threshold_erm",)) and (
            dim != 1 or np.any(xs < 0) or np.any(xs > 1)):
        raise ConfigError(f"{path}: threshold_erm needs one feature column x_0 in [0, 1]")
    if len(ys) < 2 * config.n:
        raise ConfigError(
            f"csv pool of {len(ys)} rows cannot supply 2n={2 * config.n} examples")
    return xs, ys


def _draw_supersample(config: ExperimentConfig, seed: int) -> Supersample:
    """The supersample drawn with data seed ``seed``."""
    if config.pool is None:
        return sample_supersample(GeneratorSpec.from_json_dict(config.data), config.n, seed)
    xs, ys = config.pool
    picks = np.random.default_rng(seed).choice(len(ys), size=2 * config.n, replace=False)
    return Supersample(xs[picks], ys[picks])


# --- bound declarations ------------------------------------------------------


class Bound(NamedTuple):
    """One bound, declared whole. ``form(config, values, meta)`` is each
    supersample's bound as a (k1,) array, or the run's one value; ``values``
    is the ``reads`` field of every supersample result as a float array
    (None without one), ``meta`` the run's ``estimator_meta``, whose subset
    policy and count and stability record a form may read. ``inputs`` gives
    its digest keys past mode, k2 and loss. ``cells(config, k)`` is its
    monte_carlo joint alphabet over ``k`` prediction symbols."""

    space: str  # the prediction space it needs: "finite" or "real"
    form: Callable
    reads: str | None = None  # the SupersampleResult field it reads
    inputs: Callable = lambda c, v, meta: {"k1": len(v), "n": c.n}
    tag: str | None = None  # default: the name with "-" for "_"
    learner: str | None = None  # the one learner kind it is implemented for
    exact_only: bool = False
    needs_m: bool = False  # needs subset_policy.m
    cells: Callable | None = None


def _per_pair_roots(c, v, meta):
    return np.mean(np.sqrt(2.0 * v), axis=1)


def _full_tuple_roots(c, v, meta):
    return np.sqrt(2.0 * v / c.n)


def _vc_cap(n):
    """The growth-function cap on f-CMI (nats) of a class of VC dimension
    d = 1: max((d + 1) log 2, d log(2 e n / d))."""
    return max(2 * math.log(2.0), math.log(2.0 * math.e * n))


def _det_stability(c, v, meta):
    """2^(3/2) d^(1/4) sqrt(gamma beta) for a self-stable learner."""
    s = meta["stability"]
    return 2.0 ** 1.5 * s["d_out"] ** 0.25 * math.sqrt(s["gamma"] * s["beta"])


def _det_stability_squared(c, v, meta):
    """32/n + 12^(3/2) sqrt(d) gamma sqrt(2 b^2 + n b1^2 + n b2^2), on the
    squared gap."""
    s = meta["stability"]
    inner = 2.0 * s["beta"] ** 2 + c.n * s["beta1"] ** 2 + c.n * s["beta2"] ** 2
    return 32.0 / c.n + 12.0 ** 1.5 * math.sqrt(s["d_out"]) * s["gamma"] * math.sqrt(inner)


BOUNDS: dict[str, Bound] = {
    "fcmi_m1": Bound("finite", _per_pair_roots, reads="mi_per_index"),
    "fcmi_mn": Bound("finite", _full_tuple_roots, reads="fcmi_full",
                     cells=lambda c, k: product_alphabet_size(k, c.n)),
    "fcmi_subset_m": Bound(
        "finite", lambda c, v, meta: np.mean(np.sqrt(2.0 * v / c.subset_m), axis=1),
        reads="subset_mi", needs_m=True,
        inputs=lambda c, v, meta: {"k1": len(v), "m": c.subset_m, "subsets": v.shape[1],
                                   "subset_policy": meta["subset_policy"],
                                   "subset_count": meta["subset_count"]},
        cells=lambda c, k: product_alphabet_size(k, c.subset_m)),
    "fcmi_squared": Bound(
        "finite", lambda c, v, meta: (8.0 / c.n) * (float(np.mean(v)) + 2.0),
        reads="fcmi_full", cells=lambda c, k: product_alphabet_size(k, c.n),
        inputs=lambda c, v, meta: {"n": c.n, "fcmi_mean": float(np.mean(v))}),
    "cmi_weights": Bound(
        "finite", _full_tuple_roots, reads="weight_mi_full", learner="threshold_erm",
        # achievable thresholds: midpoints of any two pool values + edges
        cells=lambda c, k: (2 * c.n * c.n + c.n + 2) * 2 ** c.n),
    "fcmi_stability": Bound("finite", _per_pair_roots, reads="cmi_per_index",
                            exact_only=True),
    "fcmi_stability_squared": Bound(
        "finite", lambda c, v, meta: (8.0 / c.n) * (np.sum(v, axis=1) + 2.0),
        reads="cmi_allpairs_per_index", exact_only=True),
    # the growth-function cap on f-CMI (nats) in the fcmi_mn form
    "vc": Bound(
        "finite", lambda c, v, meta: math.sqrt(2.0 * _vc_cap(c.n) / c.n),
        inputs=lambda c, v, meta: {"d_vc": 1, "n": c.n, "fcmi_cap": _vc_cap(c.n)},
        tag="vc-sauer-shelah", learner="threshold_erm"),
    # the members draw independent seeds, so the sum of their MIs caps the
    # combined predictor's; a left-to-right sum per supersample
    "ensemble_mn": Bound(
        "finite", lambda c, v, meta: np.sqrt(2.0 * np.array([sum(r) for r in v]) / c.n),
        reads="member_fcmi", inputs=lambda c, v, meta: {"members": v.shape[1], "n": c.n},
        tag="ensemble-sum", learner="ensemble", exact_only=True),
    "det_stability": Bound("real", _det_stability,
                           inputs=lambda c, v, meta: meta["stability"]),
    "det_stability_squared": Bound("real", _det_stability_squared,
                                   inputs=lambda c, v, meta: meta["stability"]),
}


# --- compatibility checks ----------------------------------------------------

_SPACE_NOUN = {"finite": "a finite prediction alphabet", "real": "real-vector predictions"}


def _check_bounds_supported(config: ExperimentConfig, num_classes: int) -> None:
    """Refuse a bound the learner, mode or data cannot give; ``num_classes``
    sizes the prediction alphabet of class-label learners."""
    spec = config.learner
    space = prediction_space(spec, num_classes)
    if LOSS_SPACE[config.loss] != space.kind:
        raise ConfigError(
            f"loss {config.loss!r} does not match the {space.kind!r} prediction "
            f"space of learner {spec.kind!r}")
    for b in config.bounds:
        bound = BOUNDS[b]
        if bound.space != space.kind:
            raise ConfigError(
                f"bound {b!r} needs {_SPACE_NOUN[bound.space]}; learner "
                f"{spec.kind!r} has {_SPACE_NOUN[space.kind]}")
        if bound.space == "real" and config.data["kind"] == "csv":
            raise ConfigError(
                f"bound {b!r} estimates stability by resampling a synthetic "
                f"generator; csv data sources are not resamplable")
        if bound.learner not in (None, spec.kind):
            raise ConfigError(
                f"bound {b!r} is implemented for learner {bound.learner!r} only, "
                f"not {spec.kind!r}")
        if bound.exact_only and config.mode != "exact_enumeration":
            raise ConfigError(f"bound {b!r} is computed in exact_enumeration mode only")
    if config.mode == "exact_enumeration" and config.n > ENUMERATION_LIMIT:
        raise ConfigError(f"exact_enumeration refuses n={config.n} (limit {ENUMERATION_LIMIT})")
    m = config.subset_m
    for b in config.bounds:
        if BOUNDS[b].needs_m and (m is None or not 1 <= m <= config.n):
            raise ConfigError(f"{b} needs subset_policy.m in [1, n]")
    if config.mode != "monte_carlo":
        return
    for b in config.bounds:
        cells = BOUNDS[b].cells(config, space.size) if BOUNDS[b].cells else 0
        if cells > PLUGIN_ALPHABET_LIMIT:
            raise ConfigError(
                f"bound {b!r} in monte_carlo mode needs a joint alphabet of "
                f"{cells} cells (> {PLUGIN_ALPHABET_LIMIT}); use exact mode "
                f"or a smaller m/n")


def _subset_family(config: ExperimentConfig) -> tuple[list[tuple[int, ...]], str]:
    n, m = config.n, config.subset_m
    if math.comb(n, m) <= config.subset_enumerate_limit:
        return all_subsets(n, m), "enumerated"
    rng = np.random.default_rng(int(derive_seeds(config.master_seed, _SUBSET, m)))
    fam = [tuple(sorted(rng.choice(n, size=m, replace=False).tolist()))
           for _ in range(config.subset_sample_count)]
    return fam, "sampled"


# --- per-supersample execution -----------------------------------------------


def _run_block(config: ExperimentConfig, lo: int, hi: int,
               subsets: list[tuple[int, ...]] | None, keep_tables: bool = False) -> list:
    """The runs of supersamples lo..hi-1. Their data, split and trial seeds
    come from one ``derive_seeds`` call per channel, and their monte_carlo
    split masks from one ``split_masks`` call; each seed is the one a
    supersample's own call would give."""
    n, index = config.n, np.arange(lo, hi)
    exact = config.mode == "exact_enumeration"
    data = derive_seeds(config.master_seed, _DATA, index)
    if exact:
        trial = derive_seeds(config.master_seed, _TRIAL, index[:, None],
                             np.arange(config.exact_seeds))
    else:
        trials = np.arange(config.k2)
        split = derive_seeds(config.master_seed, _SPLIT, index[:, None], trials)
        trial = derive_seeds(config.master_seed, _TRIAL, index[:, None], trials)
        masks = split_masks(split.ravel(), n).reshape(len(index), config.k2, n)
    runs = []
    for j, a in enumerate(index.tolist()):
        rows = exact_rows(n, trial[j]) if exact else (masks[j], trial[j])
        runs.append(_run_supersample(config, a, int(data[j]), *rows, subsets, keep_tables))
    return runs


def _run_supersample(config: ExperimentConfig, a: int, data_seed: int, masks: np.ndarray,
                     row_seeds: np.ndarray, subsets: list[tuple[int, ...]] | None,
                     keep_table: bool = False):
    """Every estimate the requested bounds read from one supersample's trial
    table, and the table itself when it is kept (None otherwise, so it is
    freed, or never sent back from a worker, once its estimates are made)."""
    supersample = _draw_supersample(config, data_seed)
    n = config.n
    exact = config.mode == "exact_enumeration"
    reads = {BOUNDS[b].reads for b in config.bounds}
    table = fill_table(supersample, config.learner, masks, row_seeds, config.loss,
                       supersample_id=f"ss{a:03d}", members="member_fcmi" in reads)
    kept = table if keep_table else None
    gap_mean, gap_std = aggregate_gap(table)
    result = SupersampleResult(supersample_id=table.supersample_id,
                               gap_mean=gap_mean, gap_std=gap_std)
    if table.prediction_space.kind != "finite":
        return result, kept

    every_pair = [tuple(range(n))]
    result.mi_per_index = subset_mi(table, [(i,) for i in range(n)]).tolist()
    result.mi_testslots = mi_testslots(table)
    if exact or "fcmi_full" in reads:
        result.fcmi_full = float(subset_mi(table, every_pair)[0])
    if "weight_mi_full" in reads:
        result.weight_mi_full = float(weight_mi(table, every_pair)[0])
        if exact:
            result.weight_mi_per_index = weight_mi(table, [(i,) for i in range(n)]).tolist()
    if "cmi_per_index" in reads:
        result.cmi_per_index = split_cmi(table).tolist()
    if "cmi_allpairs_per_index" in reads:
        result.cmi_allpairs_per_index = split_cmi(table, all_pairs=True).tolist()
    if "subset_mi" in reads:
        result.subset_mi = subset_mi(table, subsets).tolist()
    if "member_fcmi" in reads:
        result.member_fcmi = [float(subset_mi(m, every_pair)[0]) for m in table.members]
    return result, kept


# --- bound assembly ----------------------------------------------------------


def _collect(results: list[SupersampleResult], attr: str) -> np.ndarray:
    """The ``attr`` estimate of every supersample, one row each; refused when
    one is missing, when there is none, or when one is negative or NaN."""
    vals = [getattr(r, attr) for r in results]
    if any(v is None for v in vals):
        raise ContractViolation(f"missing estimate {attr!r} in a supersample result")
    arr = np.asarray(vals, dtype=float)
    if arr.size == 0:
        raise ContractViolation("empty estimate collection")
    if np.any(arr < 0) or np.any(np.isnan(arr)):
        raise ContractViolation("information estimates must be finite and >= 0")
    return arr


def _assemble_bounds(config: ExperimentConfig, results: list[SupersampleResult],
                     meta: dict) -> list[BoundReport]:
    """Each requested bound's report, formed from what a report records: the
    mean of the bound's form over supersamples, and their standard deviation
    when there are two or more."""
    digest = {"mode": config.mode, "k2": config.k2, "loss": config.loss}
    reports = []
    for name in config.bounds:
        bound = BOUNDS[name]
        values = None if bound.reads is None else _collect(results, bound.reads)
        per_ss = np.atleast_1d(bound.form(config, values, meta))
        reports.append(BoundReport(
            name=name, value=float(np.mean(per_ss)),
            spread=float(np.std(per_ss, ddof=1)) if per_ss.size >= 2 else None,
            inputs_digest={**digest, **bound.inputs(config, values, meta)},
            tag=bound.tag or name.replace("_", "-")))
    return reports


# --- top-level runs ----------------------------------------------------------


def run_experiment(config: ExperimentConfig, keep_tables: bool = False) -> ExperimentReport:
    """Run the full protocol for one configuration.

    Deterministic given ``master_seed``: per-(supersample, trial) seeds derive
    by counter, and results assemble in index order regardless of scheduling.
    """
    t0 = time.perf_counter()
    exact = config.mode == "exact_enumeration"
    meta = {
        "k1": config.k1,
        "k2": config.k2,
        "mode": config.mode,
        "loss": config.loss,
        "bias_correction": False,
        "exact_seeds": config.exact_seeds if exact else None,
        "trials_per_supersample": 2 ** config.n * config.exact_seeds if exact else config.k2,
        "plugin_alphabet_limit": PLUGIN_ALPHABET_LIMIT,
    }
    subsets = None
    if any(BOUNDS[b].needs_m for b in config.bounds):
        subsets, meta["subset_policy"] = _subset_family(config)
        meta["subset_count"] = len(subsets)
    if any(BOUNDS[b].space == "real" for b in config.bounds):
        beta, beta1, beta2 = estimate_stability(
            config.learner, GeneratorSpec.from_json_dict(config.data), config.n,
            config.stability_trials, int(derive_seeds(config.master_seed, _STABILITY)))
        d_out = prediction_space(config.learner).dim or 1
        meta["stability"] = {
            "beta": beta, "beta1": beta1, "beta2": beta2, "gamma": config.gamma,
            "d_out": d_out, "trials": config.stability_trials,
            # the variance of the Gaussian smoothing the paper's proof adds
            "sigma_sq": beta / (2.0 * math.sqrt(d_out) * config.gamma)}

    k1 = config.k1
    if config.jobs > 1 and k1 > 1:
        # loaded here, so a run without a pool holds none of its code
        from concurrent.futures import ProcessPoolExecutor

        # a block of one supersample per task
        with ProcessPoolExecutor(max_workers=min(config.jobs, k1)) as workers:
            blocks = list(workers.map(_run_block, [config] * k1, range(k1), range(1, k1 + 1),
                                      [subsets] * k1, [keep_tables] * k1))
    else:
        step = max(1, _BLOCK_CELLS // (config.k2 * config.n))
        blocks = [_run_block(config, lo, min(lo + step, k1), subsets, keep_tables)
                  for lo in range(0, k1, step)]
    runs = [run for block in blocks for run in block]
    results = [r for r, _ in runs]
    gap_means = np.array([r.gap_mean for r in results])
    return ExperimentReport(
        config=config.to_json_dict(),
        gap_mean=float(gap_means.mean()),
        gap_std=float(np.std(gap_means, ddof=1)) if config.k1 > 1 else None,
        supersamples=results,
        bounds=_assemble_bounds(config, results, meta),
        estimator_meta=meta,
        wall_clock_sec=time.perf_counter() - t0,
        tables=[t for _, t in runs] if keep_tables else None,
    )


CURVE_HEADER = ("n", "learner", "bound_name", "gap_mean", "gap_std",
                "bound_value", "bound_spread", "k1", "k2", "mode")


def curve_rows(report: ExperimentReport) -> list[dict]:
    """One curve-table row per bound in the report; each config key a row
    reads takes its field's rule (``_admit``), else ConfigError."""
    cfg = report.config
    echoed = {f.name: f for f in fields(ExperimentConfig)}

    def read(name):
        return _admit(echoed[name], cfg[name])

    clip = read("clip_bounds")
    rows = []
    for b in report.bounds:
        rows.append({
            "n": read("n"),
            "learner": admit("str", cfg["learner"]["kind"], "learner.kind"),
            "bound_name": b.name,
            "gap_mean": report.gap_mean,
            "gap_std": report.gap_std,
            "bound_value": min(1.0, b.value) if clip else b.value,
            "bound_spread": b.spread,
            "k1": read("k1"),
            "k2": read("k2"),
            "mode": read("mode"),
        })
    return rows


def curve_table_csv(rows) -> str:
    """Deterministic CSV text of curve rows under ``CURVE_HEADER``: floats by
    ``repr``, None as an empty field, and a field holding a comma, quote or
    newline quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CURVE_HEADER)
    writer.writerows([row[k] for k in CURVE_HEADER] for row in rows)
    return out.getvalue()
