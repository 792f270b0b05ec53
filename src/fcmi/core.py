"""Supersample data model: paired examples, split masks, trial tables, and gaps,
and the package's two exceptions: ``ConfigError`` refuses outside input (a
config, kind spec, csv pool or report), ``ContractViolation`` a broken contract."""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, ClassVar

import numpy as np

# 2**20 splits is the largest enumeration exact mode will attempt.
ENUMERATION_LIMIT = 20


class ConfigError(Exception):
    """Outside input is refused; no ValueError, so no runtime handler takes it."""


class ContractViolation(ValueError):
    """An operation received inputs that violate its contract."""


def json_data(obj):
    """Plain JSON data of ``obj``: numpy scalars and arrays become Python
    values, tuples lists, and an object with ``to_json_dict`` the JSON data
    that method returns. A list of plain floats is returned as it is."""
    if hasattr(obj, "to_json_dict"):
        return obj.to_json_dict()
    if isinstance(obj, dict):
        return {str(k): json_data(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        if isinstance(obj, list) and set(map(type, obj)) == {float}:
            return obj  # plain floats, most of a report's bytes
        return [json_data(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return json_data(obj.tolist())
    return obj


class JsonFields:
    """A dataclass serialized from its fields, each under its own name. A
    ``compare=False`` field is a volatile or bulky companion (a wall clock,
    trial tables) and stays out, as does a field whose default and value are
    None (its missing key reads back as None). ``PARSE`` maps a field to the
    conversion of its JSON value; any other takes its annotation's ``admit``."""

    PARSE: ClassVar[dict[str, Callable]] = {}

    def to_json_dict(self) -> dict:
        pairs = ((f, getattr(self, f.name)) for f in fields(self) if f.compare)
        return {f.name: json_data(v) for f, v in pairs if v is not None or f.default is not None}

    @classmethod
    def from_json_dict(cls, d: dict):
        given = [f for f in fields(cls) if f.compare and (f.name in d or f.default is not None)]
        return cls(**{f.name: cls.PARSE[f.name](d[f.name]) if f.name in cls.PARSE
                      else admit(f.type, d[f.name], f.name) for f in given})


# what each declared type, by name, admits in a kind parameter, a config field
# or a report field (a boolean is no number): 0, 1 or a boolean for a boolean,
# an integer for an integer, a finite number in the float range for a float
# (not JSON's Infinity or NaN), a list of those for a list of floats, a string for a string
_ADMITS = {"bool": (bool, lambda v: isinstance(v, (int, np.integer)) and v in (0, 1),
                    "a boolean"),
           "int": (int, lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool),
                   "an integer"),
           "float": (float, lambda v: isinstance(v, (int, float, np.integer, np.floating))
                     and not isinstance(v, bool) and abs(v) <= sys.float_info.max,
                     "a finite number"),
           "list[float]": (lambda v: list(map(float, v)),
                           lambda v: isinstance(v, list) and all(map(_ADMITS["float"][1], v)),
                           "a list of finite numbers"),
           "str": (str, lambda v: isinstance(v, str), "a string")}


def admit(annotation: str, value, key: str):
    """``value`` as the type its annotation text names in ``_ADMITS`` (None passes
    an optional type, anything an unnamed one); ConfigError naming ``key`` if not."""
    rule = _ADMITS.get(annotation.removesuffix(" | None"))
    if rule is None or value is None and annotation.endswith(" | None"):
        return value
    kind, ok, noun = rule
    if not ok(value):
        raise ConfigError(f"{key} must be {noun}, got {value!r}")
    return kind(value)


@dataclass(frozen=True)
class KindSpec(JsonFields):
    """A ``{"kind": ..., "params": {...}}`` object of a config.

    ``KINDS`` maps each kind to its parameters and their defaults (MISSING
    for a required one) and is the only statement of either. A parameter the
    kind does not declare is refused, and a value must be of its default's
    type. ``params`` keeps exactly what was given; ``param`` fills in the
    default. A subclass sets ``NOUN`` and ``KINDS`` and adds no field.
    """

    kind: str
    params: dict = field(default_factory=dict)

    NOUN: ClassVar[str]
    KINDS: ClassVar[dict[str, dict]]

    def __post_init__(self) -> None:
        declared = self.KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if declared is None:
            raise ConfigError(
                f"unknown {self.NOUN} kind {self.kind!r} (known: {', '.join(self.KINDS)})")
        if not isinstance(self.params, dict):
            raise ConfigError(f"{self.NOUN} params must be an object, got {self.params!r}")
        for name, value in self.params.items():
            if name not in declared:
                raise ConfigError(
                    f"{self.kind} has no parameter {name!r} "
                    f"(declared: {', '.join(declared) or 'none'})")
            # a default of another type (a required one, say) admits any value
            admit(type(declared[name]).__name__, value, f"{self.kind} parameter {name!r}")
        for name, default in declared.items():
            if default is MISSING and name not in self.params:
                raise ConfigError(f"{self.kind} needs params.{name}")

    def param(self, name: str):
        """The value given for ``name``, else its declared default."""
        return self.params.get(name, self.KINDS[self.kind][name])

    @classmethod
    def from_json_dict(cls, d) -> "KindSpec":
        if not isinstance(d, dict) or "kind" not in d or set(d) - {"kind", "params"}:
            raise ConfigError(
                f"{cls.NOUN} must be an object with a kind and optional params, got {d!r}")
        return cls(d["kind"], d.get("params", {}))


class Supersample:
    """n pairs of examples as stacked read-only arrays: inputs ``xs`` (2n, d)
    and labels ``ys`` (2n,); pair i is rows 2i and 2i + 1, so slot (i, j)
    is row 2i + j."""

    def __init__(self, xs, ys):
        xs = np.array(xs, dtype=float)
        ys = np.array(ys, dtype=np.int64)
        if xs.ndim != 2:
            raise ContractViolation(f"inputs must be a (2n, d) array, got shape {xs.shape}")
        if ys.shape != (len(xs),):
            raise ContractViolation(
                f"expected one label per input row ({len(xs)}), got shape {ys.shape}")
        if len(xs) < 2 or len(xs) % 2:
            raise ContractViolation(
                f"a supersample needs an even number (>= 2) of examples, got {len(xs)}")
        if np.any(ys < 0):
            raise ContractViolation(f"class labels must be >= 0, got {ys.min()}")
        self.n = len(xs) // 2
        xs.setflags(write=False)
        ys.setflags(write=False)
        self.xs = xs
        self.ys = ys


def split_slots(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat slot indices of the training and test halves, in pair order.

    Pair i contributes slot 2i + bit to the training half and slot
    2i + 1 - bit to the test half; ``masks`` is (n,) or (T, n).
    """
    masks = np.asarray(masks, dtype=np.int64)
    base = 2 * np.arange(masks.shape[-1])
    return base + masks, base + 1 - masks


def enumerate_splits(n: int) -> np.ndarray:
    """All 2**n split masks as a (2**n, n) uint8 array, pair 0 most significant."""
    if n < 1:
        raise ContractViolation("n must be >= 1")
    if n > ENUMERATION_LIMIT:
        raise ContractViolation(
            f"refusing to enumerate 2**{n} splits (limit n <= {ENUMERATION_LIMIT})")
    codes = np.arange(2 ** n)
    masks = np.empty((2 ** n, n), dtype=np.uint8)
    for i in range(n):  # a column at a time: no (2**n, n) int64 array
        np.bitwise_and(codes >> (n - 1 - i), 1, out=masks[:, i], casting="unsafe")
    return masks


def exact_rows(n: int, seeds) -> tuple[np.ndarray, np.ndarray]:
    """Exact mode's (mask, seed) rows: every split crossed with every seed,
    mask-major and seed-minor."""
    masks = enumerate_splits(n)
    seeds = np.asarray(seeds, dtype=np.uint64)
    return np.repeat(masks, len(seeds), axis=0), np.tile(seeds, len(masks))


# --- losses ----------------------------------------------------------------
#
# Every implemented bound assumes a [0, 1]-bounded loss. ``zero_one`` consumes
# class-label predictions and gives booleans (a mistake is 1), so a half's
# loss is a count; ``absolute`` consumes one-dimensional probability vectors
# for binary labels and is 1-Lipschitz in the prediction. Both score arrays
# of predictions against broadcastable label arrays, slot by slot.

def zero_one_loss(predictions, labels) -> np.ndarray:
    return np.asarray(predictions) != np.asarray(labels)


def absolute_loss(predictions, labels) -> np.ndarray:
    p = np.asarray(predictions, dtype=float)[..., 0]
    labels = np.asarray(labels)
    if not np.all((p >= 0.0) & (p <= 1.0)) or np.any((labels != 0) & (labels != 1)):
        raise ContractViolation("absolute loss needs p in [0,1] and a binary label")
    return np.abs(p - labels)


LOSSES: dict[str, Callable] = {
    "zero_one": zero_one_loss,
    "absolute": absolute_loss,
}

# Which prediction-space kind each loss consumes.
LOSS_SPACE = {"zero_one": "finite", "absolute": "real"}


@dataclass(frozen=True)
class PredictionSpace(JsonFields):
    """Descriptor of the learner's output space: a finite alphabet or real vectors."""

    kind: str  # "finite" | "real"
    size: int | None = None  # |K| when finite
    dim: int | None = None  # d_out when real

    def __post_init__(self) -> None:
        if self.kind == "finite":
            if not self.size or self.size < 1:
                raise ContractViolation("finite prediction space needs size >= 1")
        elif self.kind == "real":
            if not self.dim or self.dim < 1:
                raise ContractViolation("real prediction space needs dim >= 1")
        else:
            raise ContractViolation(f"unknown prediction space kind {self.kind!r}")


def _unsigned(size: int):
    """The narrowest integer dtype that holds every code below ``size``."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if size <= np.iinfo(dtype).max + 1:
            return dtype
    return np.int64


@dataclass(frozen=True, eq=False)
class TrialTable:
    """All (split, seed) trials of one learner on one supersample, one row each.

    ``masks`` is (T, n) uint8 and ``seeds`` (T,) uint64. ``preds`` holds the
    predictions on all 2n slots, pair-major (slot (i, j) at column 2i + j):
    (T, 2n) nonnegative ints for a finite prediction space, (T, 2n, d) floats
    for a real one. ``weight_code`` is (T,) when the learner exposes one.
    ``members`` holds an ensemble's member tables when they are kept.
    ``split_code`` is the row code of each row's whole split and its range,
    made by ``infotheory`` on first use and kept for the table's other
    estimates.
    """

    supersample_id: str
    prediction_space: PredictionSpace
    masks: np.ndarray
    seeds: np.ndarray
    preds: np.ndarray
    train_loss: np.ndarray
    test_loss: np.ndarray
    weight_code: np.ndarray | None = None
    members: tuple[TrialTable, ...] | None = None
    split_code: tuple[np.ndarray, int] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        masks = np.asarray(self.masks)
        if masks.ndim != 2 or masks.shape[0] < 1 or masks.shape[1] < 1:
            raise ContractViolation("a trial table needs a (T, n) mask array, T, n >= 1")
        if masks.dtype.kind in "biu":  # integers: two reductions, no (T, n) temporaries
            bad_bits = masks.min() < 0 or masks.max() > 1
        else:
            bad_bits = np.any((masks != 0) & (masks != 1))
        if bad_bits:
            raise ContractViolation("split bits must be 0/1")
        rows, n = masks.shape
        seeds = np.asarray(self.seeds, dtype=np.uint64)
        preds = np.asarray(self.preds)
        if seeds.shape != (rows,) or preds.shape[:2] != (rows, 2 * n):
            raise ContractViolation(
                f"expected {rows} seeds and ({rows}, {2 * n}) predictions, got "
                f"{seeds.shape} and {preds.shape}")
        if self.prediction_space.kind == "finite" and preds.min() < 0:
            raise ContractViolation(f"finite predictions must be >= 0, got {preds.min()}")
        for name in ("train_loss", "test_loss"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (rows,) or not np.all((v >= 0.0) & (v <= 1.0)):
                raise ContractViolation(f"{name} must hold {rows} values in [0, 1]")
            object.__setattr__(self, name, v)
        if self.weight_code is not None:
            codes = np.asarray(self.weight_code)
            if codes.shape != (rows,):
                raise ContractViolation(f"expected {rows} weight codes, got {codes.shape}")
            object.__setattr__(self, "weight_code", codes)
        object.__setattr__(self, "masks", masks.astype(np.uint8, copy=False))
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "preds", preds)

    @property
    def n(self) -> int:
        return self.masks.shape[1]

    def to_json_dict(self) -> dict:
        rows = zip(self.masks.tolist(), self.seeds.tolist(), self.preds.tolist(),
                   self.train_loss.tolist(), self.test_loss.tolist())
        return {
            "supersample_id": self.supersample_id,
            "n": self.n,
            "prediction_space": self.prediction_space.to_json_dict(),
            "trials": [
                {
                    "split": "".join(map(str, bits)),
                    "seed": seed,
                    "predictions": preds,
                    "train_loss": train_loss,
                    "test_loss": test_loss,
                }
                for bits, seed, preds, train_loss, test_loss in rows
            ],
        }


def aggregate_gap(table: TrialTable) -> tuple[float, float | None]:
    """Mean and sample std (ddof=1) of the per-trial gap, test-half loss minus
    train-half loss; std is None for one trial."""
    gaps = table.test_loss - table.train_loss
    mean = float(np.mean(gaps))
    if gaps.size < 2:
        return mean, None
    return mean, float(np.std(gaps, ddof=1))
