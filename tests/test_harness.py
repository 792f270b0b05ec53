import csv
import dataclasses
import json
import math
import re
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fcmi.learners
from fcmi import cli, harness
from fcmi.cli import main
from fcmi.core import ENUMERATION_LIMIT, LOSS_SPACE, exact_rows
from fcmi.harness import (
    BOUNDS,
    ConfigError,
    ExperimentConfig,
    SupersampleResult,
    _draw_supersample,
    canonical_json,
    curve_rows,
    curve_table_csv,
    load_report,
    persist,
    run_experiment,
)
from fcmi.infotheory import PLUGIN_ALPHABET_LIMIT, product_alphabet_size, subset_mi
from fcmi.learners import LearnerSpec, fill_table, needs_binary_labels, prediction_space
from fcmi.seeding import derive_seeds, split_masks
from oracles import seed_sequence_seed


def base_dict(**overrides) -> dict:
    return {
        "data": {"kind": "uniform_labels", "params": {"dim": 1}},
        "n": 4,
        "k1": 2,
        "k2": 20,
        "learner": {"kind": "memorizer", "params": {}},
        "mode": "monte_carlo",
        "bounds": ["fcmi_m1"],
        "master_seed": 11,
        **overrides,
    }


def base_config(**overrides):
    return ExperimentConfig.from_json_dict(base_dict(**overrides))


def draw_supersample(config, a: int):
    """Supersample ``a`` of a run, drawn with its counter data seed."""
    return _draw_supersample(config, seed_sequence_seed(config.master_seed, harness._DATA, a))


@pytest.fixture(scope="module")
def pools(tmp_path_factory):
    """A directory of two csv pools, pool2.csv and pool3.csv, of 2 and 3 label
    classes: 60 rows of one feature in [0, 1], enough for every n up to 30."""
    root = tmp_path_factory.mktemp("pools")
    for classes in (2, 3):
        (root / f"pool{classes}.csv").write_text("x_0,y\n" + "".join(
            f"{i / 59},{i % classes}\n" for i in range(60)), encoding="utf-8")
    return root


def _placed(d: dict, pools) -> dict:
    """``d`` with a csv source's pool name made a path into ``pools``."""
    if d["data"]["kind"] != "csv":
        return d
    path = str(pools / d["data"]["params"]["path"])
    return {**d, "data": {"kind": "csv", "params": {"path": path}}}


def _optional(**keys):
    return st.fixed_dictionaries({}, optional=keys)


_DATA = st.one_of(
    st.fixed_dictionaries({"kind": st.just("two_gaussians")}, optional={"params": _optional(
        dim=st.integers(1, 4), sep=st.floats(0, 5) | st.integers(0, 5),
        noise=st.floats(0, 0.5))}),
    st.fixed_dictionaries({"kind": st.just("threshold_realizable")}, optional={
        "params": _optional(threshold=st.floats(0, 1), noise=st.floats(0, 0.5))}),
    st.fixed_dictionaries({"kind": st.just("uniform_labels")},
                          optional={"params": _optional(dim=st.integers(1, 3))}),
    # a pool name that _placed turns into a path into the pools fixture
    st.fixed_dictionaries({"kind": st.just("csv"), "params": st.fixed_dictionaries(
        {"path": st.sampled_from(["pool2.csv", "pool3.csv"])})}),
)
_LEARNERS = st.one_of(
    st.sampled_from([{"kind": "memorizer"}, {"kind": "threshold_erm", "params": {}}]),
    st.fixed_dictionaries({"kind": st.just("knn"), "params": _optional(k=st.integers(1, 9))}),
    st.fixed_dictionaries({
        "kind": st.sampled_from(["logistic_gd", "sgld_linear"]),
        "params": _optional(output=st.sampled_from(["label", "prob"]),
                            steps=st.integers(1, 300), init_scale=st.floats(0, 1))}),
    st.just({"kind": "ensemble", "params": {"members": [
        {"kind": "knn", "params": {"k": 3}}, {"kind": "memorizer"}]}}),
)
# every key a config may hold, with values its field and parameter checks
# accept; the bound support check refuses some of them
_CONFIGS = st.fixed_dictionaries(
    {"data": _DATA, "n": st.integers(1, 30), "k1": st.integers(1, 9),
     "k2": st.integers(1, 500), "learner": _LEARNERS},
    optional={
        "mode": st.sampled_from(["monte_carlo", "exact_enumeration"]),
        "bounds": st.lists(st.sampled_from(tuple(BOUNDS)), unique=True),
        "master_seed": st.integers(0, 2 ** 70),
        "loss": st.sampled_from(["zero_one", "absolute"]),
        "subset_policy": _optional(m=st.none() | st.integers(1, 30),
                                   enumerate_limit=st.integers(0, 5000),
                                   sample_count=st.integers(1, 500)),
        "exact_seeds": st.integers(1, 4),
        "stability": _optional(trials=st.integers(1, 50),
                               gamma=st.floats(1e-6, 1e6) | st.integers(1, 9)),
        "clip_bounds": st.booleans() | st.integers(0, 1),
        "jobs": st.integers(1, 4),
    })


# --- the support check before bounds were declared in one table, kept as a
# test oracle: the table-driven check must raise the same exception class on
# every config, checking in the same order

_EXACT_ONLY = {"fcmi_stability", "fcmi_stability_squared", "ensemble_mn"}
_REAL_SPACE = {"det_stability", "det_stability_squared"}


def has_weight_code(spec: LearnerSpec) -> bool:
    return spec.kind == "threshold_erm"


def _parent_check(config, num_classes: int) -> None:
    """Refuse, before any fit, a bound the learner, mode or data cannot give;
    ``num_classes`` sizes the prediction alphabet of class-label learners."""
    spec = config.learner
    space = prediction_space(spec, num_classes)
    if LOSS_SPACE[config.loss] != space.kind:
        raise ConfigError(
            f"loss {config.loss!r} does not match the {space.kind!r} prediction "
            f"space of learner {spec.kind!r}")
    for b in config.bounds:
        if b in _REAL_SPACE:
            if space.kind != "real":
                raise ConfigError(
                    f"bound {b!r} needs a real-vector learner; {spec.kind!r} is not")
            if config.data["kind"] == "csv":
                raise ConfigError(
                    f"bound {b!r} estimates stability by resampling a synthetic "
                    f"generator; csv data sources are not resamplable")
            continue
        if space.kind != "finite":
            raise ConfigError(
                f"bound {b!r} needs a finite prediction alphabet; learner "
                f"{spec.kind!r} emits real vectors")
        if b == "cmi_weights" and not has_weight_code(spec):
            raise ConfigError(
                f"bound 'cmi_weights' needs a discrete weight code; learner "
                f"{spec.kind!r} exposes none")
        if b == "vc" and spec.kind != "threshold_erm":
            raise ConfigError(
                f"bound 'vc' is implemented for the threshold family only, "
                f"not {spec.kind!r}")
        if b == "ensemble_mn" and spec.kind != "ensemble":
            raise ConfigError(
                f"bound 'ensemble_mn' needs an ensemble learner, not {spec.kind!r}")
        if b in _EXACT_ONLY and config.mode != "exact_enumeration":
            raise ConfigError(
                f"bound {b!r} is computed in exact_enumeration mode only")
    if config.mode == "exact_enumeration" and config.n > ENUMERATION_LIMIT:
        raise ConfigError(
            f"exact_enumeration refuses n={config.n} (limit {ENUMERATION_LIMIT})")
    if "fcmi_subset_m" in config.bounds:
        m = config.subset_m
        if m is None or not 1 <= m <= config.n:
            raise ConfigError("fcmi_subset_m needs subset_policy.m in [1, n]")
    if config.mode == "monte_carlo":
        space_size = space.size or 2
        for b in config.bounds:
            if b in ("fcmi_mn", "fcmi_squared"):
                cells = product_alphabet_size(space_size, config.n)
            elif b == "fcmi_subset_m":
                cells = product_alphabet_size(space_size, config.subset_m)
            elif b == "cmi_weights":
                # achievable thresholds: midpoints of any two pool values + edges
                cells = (2 * config.n * config.n + config.n + 2) * 2 ** config.n
            else:
                continue
            if cells > PLUGIN_ALPHABET_LIMIT:
                raise ConfigError(
                    f"bound {b!r} in monte_carlo mode needs a joint alphabet of "
                    f"{cells} cells (> {PLUGIN_ALPHABET_LIMIT}); use exact mode "
                    f"or a smaller m/n")


class TestConfig:
    def test_round_trip(self):
        config = base_config()
        again = ExperimentConfig.from_json_dict(config.to_json_dict())
        assert again.to_json_dict() == config.to_json_dict()

    @settings(max_examples=200, deadline=None)
    @given(_CONFIGS)
    def test_declared_keys_round_trip(self, pools, d):
        """Any config built from declared keys that the bound support check
        admits parses, round-trips, and echoes its data and learner as given,
        ``gamma`` as a float, ``clip_bounds`` as a boolean and no ``jobs``
        and no pool."""
        assume(d["learner"]["kind"] != "threshold_erm"
               or d["data"]["kind"] in ("threshold_realizable", "csv"))
        d = _placed(d, pools)
        try:
            config = ExperimentConfig.from_json_dict(d)
        except ConfigError:
            assume(False)
        echo = config.to_json_dict()
        again = ExperimentConfig.from_json_dict(echo)
        assert again == config
        assert canonical_json(again.to_json_dict()) == canonical_json(echo)
        assert echo["data"] == d["data"]
        assert echo["learner"] == {"params": {}, **d["learner"]}
        assert "jobs" not in echo and "pool" not in echo
        assert type(echo["stability"]["gamma"]) is float and type(echo["clip_bounds"]) is bool

    @pytest.mark.parametrize("d, named", [
        ({"bound": ["fcmi_m1"]}, "bound"),
        ({"stability": {"trails": 3}}, "stability.trails"),
        ({"subset_policy": {"M": 2}}, "subset_policy.M"),
        ({"stability": 5}, "stability"),
        ({"subset_policy": [2]}, "subset_policy"),
        # a declared key of the wrong type, checked by the kind parameters' rule
        ({"clip_bounds": "false"}, "clip_bounds"),
        ({"clip_bounds": 2}, "clip_bounds"),
        ({"stability": {"gamma": True}}, "stability.gamma"),
        ({"stability": {"gamma": "2"}}, "stability.gamma"),
        ({"loss": []}, "loss must be a string"),
        ({"mode": []}, "mode must be a string"),
        ({"bounds": [["fcmi_m1"]]}, "bounds must be a list of bound names"),
    ], ids=["top_level", "stability", "subset_policy", "stability_number", "subset_list",
            "clip_bounds_string", "clip_bounds_two", "gamma_boolean", "gamma_string",
            "loss_list", "mode_list", "bound_list"])
    def test_refuses_undeclared_keys_naming_them(self, d, named):
        with pytest.raises(ConfigError, match=re.escape(named)):
            base_config(**d)

    @pytest.mark.parametrize("name, key", [
        ("k1", "k1"), ("k2", "k2"), ("exact_seeds", "exact_seeds"),
        ("stability_trials", "stability.trials")])
    def test_counts_stop_at_the_seed_counters(self, name, key):
        """Each count numbers a 32-bit seed counter, so 2**32 is the most. The
        configs are built only: a run of one would not fit in memory."""
        def at(count):
            group, _, sub = key.rpartition(".")
            return {group: {sub: count}} if group else {key: count}
        assert getattr(base_config(**at(2 ** 32)), name) == 2 ** 32
        with pytest.raises(ConfigError, match=re.escape(
                f"{key} must be <= 4294967296, got 4294967297")):
            base_config(**at(2 ** 32 + 1))

    def test_refuses_a_config_that_is_no_object(self):
        with pytest.raises(ConfigError,
                           match=re.escape("an experiment config must be a JSON object, got [1]")):
            ExperimentConfig.from_json_dict([1])

    def test_rejects_unknown_bound(self):
        with pytest.raises(ConfigError):
            base_config(bounds=["nope"])

    def test_rejects_duplicate_bound(self):
        with pytest.raises(ConfigError):
            base_config(bounds=["fcmi_m1", "fcmi_m1"])

    def test_rejects_bad_mode(self):
        with pytest.raises(ConfigError):
            base_config(mode="approximate")

    def test_rejects_bad_counts(self):
        with pytest.raises(ConfigError):
            base_config(k1=0)

    def test_rejects_unknown_data_kind(self):
        with pytest.raises(ConfigError):
            base_config(data={"kind": "imagenet", "params": {}})

    def test_subset_bound_needs_m(self):
        with pytest.raises(ConfigError):
            base_config(bounds=["fcmi_subset_m"])

    @pytest.mark.parametrize("d, named", [
        ({"pool": [[0.5], [1]]}, "pool"),
        ({"stability": {"gamma": float("inf")}}, "stability.gamma"),
        ({"stability": {"gamma": float("nan")}}, "stability.gamma"),
        ({"stability": {"gamma": 10 ** 400}}, "stability.gamma"),
        ({"data": {"kind": "two_gaussians", "params": {"sep": float("inf")}}}, "sep"),
        ({"bounds": "fcmi_m1"}, "bounds must be a list"),
    ], ids=["pool_key", "gamma_infinite", "gamma_nan", "gamma_past_float", "sep_infinite",
            "bounds_string"])
    def test_refuses_at_build(self, d, named):
        """A pool is no JSON key, a number must be one a float holds finitely,
        and ``bounds`` is a list, not a string of names."""
        with pytest.raises(ConfigError, match=re.escape(named)):
            base_config(**d)


class TestBoundDeclarations:
    def test_every_read_is_a_supersample_field(self):
        """Each bound reads an estimate field, one that declares its computation."""
        names = {f.name for f in dataclasses.fields(SupersampleResult) if "compute" in f.metadata}
        for name, bound in BOUNDS.items():
            assert bound.reads is None or bound.reads in names, name
            assert bound.space in ("finite", "real"), name

    @settings(max_examples=400, deadline=None)
    @given(_CONFIGS, st.lists(st.sampled_from(tuple(BOUNDS)), min_size=1, max_size=3,
                              unique=True))
    def test_check_matches_parent_oracle(self, pools, d, bounds):
        """Whatever a config asks, building it raises the exception class the
        name-by-name check raised, or none when it raised none. A few bounds
        are always requested; a csv pool holds 2 or 3 label classes, and a
        binary-label learner refuses the 3-class pool before any bound is
        checked."""
        assume(d["learner"]["kind"] != "threshold_erm"
               or d["data"]["kind"] in ("threshold_realizable", "csv"))
        classes = 3 if d["data"] == {"kind": "csv", "params": {"path": "pool3.csv"}} else 2
        d = _placed({**d, "bounds": bounds}, pools)
        learner = LearnerSpec.from_json_dict(d["learner"])
        # the fields the parent check read, at their config defaults
        config = SimpleNamespace(
            learner=learner, loss=d.get("loss", "zero_one"), bounds=bounds, data=d["data"],
            mode=d.get("mode", "monte_carlo"), n=d["n"],
            subset_m=d.get("subset_policy", {}).get("m"))
        outcomes = []
        try:
            if classes == 3 and needs_binary_labels(learner):
                raise ConfigError("needs labels in {0, 1}")
            _parent_check(config, classes)
            outcomes.append(None)
        except ConfigError as e:
            outcomes.append(type(e))
        try:
            ExperimentConfig.from_json_dict(d)
            outcomes.append(None)
        except ConfigError as e:
            outcomes.append(type(e))
        assert outcomes[0] is outcomes[1], (bounds, outcomes)


class TestUnsupportedCombinations:
    def test_weight_bound_needs_weight_code(self):
        with pytest.raises(ConfigError, match="knn"):
            base_config(learner={"kind": "knn", "params": {"k": 3}}, bounds=["cmi_weights"])

    def test_vc_needs_threshold_family(self):
        with pytest.raises(ConfigError, match="vc"):
            base_config(learner={"kind": "knn", "params": {"k": 3}}, bounds=["vc"])

    def test_fcmi_needs_finite_alphabet(self):
        with pytest.raises(ConfigError, match="finite"):
            base_config(learner={"kind": "logistic_gd", "params": {"output": "prob"}},
                        loss="absolute")

    def test_loss_space_mismatch(self):
        with pytest.raises(ConfigError, match="loss"):
            base_config(learner={"kind": "logistic_gd", "params": {"output": "prob"}})

    def test_stability_bound_needs_real_output(self):
        with pytest.raises(ConfigError, match="real-vector"):
            base_config(bounds=["det_stability"])

    def test_mc_alphabet_guard(self):
        with pytest.raises(ConfigError, match="alphabet"):
            base_config(n=12, bounds=["fcmi_mn"])

    def test_exact_mode_size_limit(self):
        with pytest.raises(ConfigError):
            base_config(n=24, mode="exact_enumeration")

    def test_conditional_bound_is_exact_only(self):
        with pytest.raises(ConfigError, match="exact"):
            base_config(bounds=["fcmi_stability"])


class TestRunExperiment:
    def test_memorizer_gap_matches_constant_predictor_oracle(self):
        # oracle: memorized train slots have zero loss; the constant class 0
        # scores the complement, so the expected gap is the one-label fraction
        config = base_config(n=10, k1=2, k2=100, master_seed=3)
        report = run_experiment(config)
        ones = []
        for a in range(config.k1):
            ss = draw_supersample(config, a)
            ones.append(float(np.mean(ss.ys)))
        assert report.gap_mean == pytest.approx(np.mean(ones), abs=0.06)
        for res in report.supersamples:
            assert res.mi_testslots == 0.0

    def test_constant_learner_zero_gap_zero_information(self):
        # threshold_erm on one-class data predicts a constant everywhere
        config = base_config(
            learner={"kind": "threshold_erm", "params": {}},
            data={"kind": "threshold_realizable",
                  "params": {"threshold": 1.0, "noise": 0.0}},
            bounds=["fcmi_m1", "fcmi_mn"], n=4, k1=2, k2=50)
        report = run_experiment(config)
        assert report.gap_mean == 0.0
        for res in report.supersamples:
            assert res.mi_per_index == [0.0] * 4
            assert res.fcmi_full == 0.0
        assert all(b.value == 0.0 for b in report.bounds)

    def test_every_requested_bound_appears_once(self):
        config = base_config(mode="exact_enumeration",
                             bounds=["fcmi_m1", "fcmi_mn", "fcmi_squared",
                                     "fcmi_stability"])
        report = run_experiment(config)
        assert [b.name for b in report.bounds] == [
            "fcmi_m1", "fcmi_mn", "fcmi_squared", "fcmi_stability"]

    def test_exact_mode_matches_direct_enumeration(self):
        config = base_config(mode="exact_enumeration", k1=1,
                             learner={"kind": "threshold_erm", "params": {}},
                             data={"kind": "threshold_realizable",
                                   "params": {"threshold": 0.5, "noise": 0.1}})
        report = run_experiment(config)
        ss = draw_supersample(config, 0)
        # threshold_erm ignores the seed, so any seed reproduces the enumeration
        table = fill_table(ss, LearnerSpec("threshold_erm"), *exact_rows(config.n, (0,)))
        expected = subset_mi(table, [(i,) for i in range(config.n)]).tolist()
        assert report.supersamples[0].mi_per_index == pytest.approx(expected,
                                                                    abs=1e-12)
        full = subset_mi(table, [tuple(range(config.n))])[0]
        assert report.supersamples[0].fcmi_full == pytest.approx(full, abs=1e-12)

    def test_exact_mode_gap_is_average_over_all_splits(self):
        config = base_config(mode="exact_enumeration", k1=1)
        report = run_experiment(config)
        ss = draw_supersample(config, 0)
        table = fill_table(ss, LearnerSpec("memorizer"), *exact_rows(config.n, (0,)))
        assert report.supersamples[0].gap_mean == pytest.approx(
            float((table.test_loss - table.train_loss).mean()), abs=1e-12)

    def test_monte_carlo_converges_to_exact(self):
        shared = dict(
            learner={"kind": "threshold_erm", "params": {}},
            data={"kind": "threshold_realizable",
                  "params": {"threshold": 0.5, "noise": 0.2}},
            n=4, k1=1, master_seed=21)
        exact = run_experiment(base_config(mode="exact_enumeration", **shared))
        mc = run_experiment(base_config(k2=4096, **shared))
        gap_diff = abs(exact.gap_mean - mc.gap_mean)
        assert gap_diff <= 0.05
        mi_diff = np.max(np.abs(
            np.array(exact.supersamples[0].mi_per_index)
            - np.array(mc.supersamples[0].mi_per_index)))
        assert mi_diff <= 0.05

    def test_subset_bound_exact(self):
        config = base_config(mode="exact_enumeration",
                             bounds=["fcmi_subset_m"],
                             subset_policy={"m": 2})
        report = run_experiment(config)
        ss = draw_supersample(config, 0)
        table = fill_table(ss, LearnerSpec("memorizer"), *exact_rows(config.n, (0,)))
        subsets = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        bound = report.bounds[0]
        assert bound.inputs_digest["subset_policy"] == "enumerated"
        assert report.supersamples[0].subset_mi == pytest.approx(
            subset_mi(table, subsets).tolist(), abs=1e-12)
        per_ss = [
            np.mean([math.sqrt(2 * v / 2) for v in r.subset_mi])
            for r in report.supersamples
        ]
        assert bound.value == pytest.approx(np.mean(per_ss), abs=1e-12)

    def test_det_stability_echoes_sigma(self):
        config = base_config(
            learner={"kind": "logistic_gd",
                     "params": {"output": "prob", "steps": 20}},
            data={"kind": "two_gaussians", "params": {"dim": 2, "sep": 2.0}},
            loss="absolute", bounds=["det_stability"], n=6, k1=1, k2=10,
            stability={"trials": 5, "gamma": 1.0})
        report = run_experiment(config)
        bound = report.bounds[0]
        info = report.estimator_meta["stability"]
        assert info["sigma_sq"] == pytest.approx(
            info["beta"] / (2 * math.sqrt(info["d_out"]) * info["gamma"]),
            abs=1e-15)
        assert bound.value == pytest.approx(
            2 ** 1.5 * info["d_out"] ** 0.25 * math.sqrt(info["gamma"] * info["beta"]),
            abs=1e-12)

    def test_det_stability_reports_all_three_constants(self):
        config = base_config(
            learner={"kind": "logistic_gd",
                     "params": {"output": "prob", "steps": 20}},
            data={"kind": "two_gaussians", "params": {"dim": 2, "sep": 2.0}},
            loss="absolute", bounds=["det_stability", "det_stability_squared"],
            n=4, k1=1, k2=5, stability={"trials": 3, "gamma": 1.0}, master_seed=3)
        info = run_experiment(config).estimator_meta["stability"]
        alone = run_experiment(base_config(**{
            **config.to_json_dict(), "bounds": ["det_stability"]}))
        assert alone.estimator_meta["stability"] == info
        assert min(info["beta"], info["beta1"], info["beta2"]) > 0.0

    def test_cmi_weights_is_mean_of_per_supersample_roots(self):
        config = base_config(
            data={"kind": "threshold_realizable",
                  "params": {"threshold": 0.5, "noise": 0.1}},
            learner={"kind": "threshold_erm", "params": {}},
            mode="exact_enumeration", bounds=["cmi_weights"], n=6, k1=4, k2=1,
            master_seed=3)
        report = run_experiment(config)
        roots = [math.sqrt(2 * r.weight_mi_full / 6) for r in report.supersamples]
        (bound,) = report.bounds
        assert bound.value == pytest.approx(np.mean(roots), rel=1e-12)
        assert bound.spread == pytest.approx(np.std(roots, ddof=1), rel=1e-12)

    def test_vc_is_in_gap_units(self):
        config = base_config(
            data={"kind": "threshold_realizable", "params": {"threshold": 0.5}},
            learner={"kind": "threshold_erm", "params": {}},
            bounds=["vc"], n=6, k1=1, k2=10)
        (bound,) = run_experiment(config).bounds
        # the cap at d = 1, in nats: max(2 log 2, log(2 e n))
        cap = bound.inputs_digest["fcmi_cap"]
        assert bound.inputs_digest["d_vc"] == 1
        assert cap == pytest.approx(math.log(12 * math.e), abs=1e-12)
        assert bound.value == math.sqrt(2 * cap / 6)

    def test_csv_read_once_per_run(self, tmp_path, monkeypatch):
        import csv

        rows = ["x_0,y"] + [f"{i / 40},{int(i % 3 == 0)}" for i in range(40)]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows), encoding="utf-8")
        reads = []
        real = csv.DictReader
        monkeypatch.setattr(csv, "DictReader", lambda fh: reads.append(1) or real(fh))
        run_experiment(base_config(data={"kind": "csv", "params": {"path": str(path)}},
                                   n=5, k1=3, k2=5))
        assert len(reads) == 1

    def test_csv_data_source(self, tmp_path):
        rows = ["x_0,y"] + [f"{i / 40},{int(i % 3 == 0)}" for i in range(40)]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows), encoding="utf-8")
        config = base_config(data={"kind": "csv", "params": {"path": str(path)}},
                             n=5, k1=2, k2=10)
        report = run_experiment(config)
        assert report.gap_mean is not None

    def test_csv_pool_too_small(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x_0,y\n0.1,0\n0.2,1\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            base_config(data={"kind": "csv", "params": {"path": str(path)}}, n=5)


class TestReproducibility:
    def test_same_seed_byte_identical(self):
        a = run_experiment(base_config())
        b = run_experiment(base_config())
        assert canonical_json(a.to_json_dict()) == canonical_json(b.to_json_dict())

    def test_csv_parallel_matches_serial(self, tmp_path):
        rows = ["x_0,y"] + [f"{i / 40},{int(i % 3 == 0)}" for i in range(40)]
        path = tmp_path / "data.csv"
        path.write_text("\n".join(rows), encoding="utf-8")
        data = {"kind": "csv", "params": {"path": str(path)}}
        serial = run_experiment(base_config(data=data, n=5, k1=2, jobs=1))
        parallel = run_experiment(base_config(data=data, n=5, k1=2, jobs=2))
        assert canonical_json(serial) == canonical_json(parallel)

    def test_different_seed_differs(self):
        a = run_experiment(base_config())
        b = run_experiment(base_config(master_seed=12))
        assert canonical_json(a.to_json_dict()) != canonical_json(b.to_json_dict())

    @pytest.mark.parametrize("overrides", [
        {"mode": "monte_carlo"},
        {"mode": "exact_enumeration"},
        {"data": {"kind": "two_gaussians", "params": {"dim": 2, "sep": 2.0}},
         "learner": {"kind": "logistic_gd", "params": {"output": "prob", "steps": 20}},
         "loss": "absolute", "bounds": ["det_stability"],
         "stability": {"trials": 2, "gamma": 1.0}},
    ], ids=["monte_carlo", "exact_enumeration", "logistic_gd_prob"])
    def test_parallel_matches_serial(self, overrides):
        serial = run_experiment(base_config(k1=3, jobs=1, **overrides))
        parallel = run_experiment(base_config(k1=3, jobs=2, **overrides))
        # the pool size is not echoed, so the whole report matches byte for byte
        assert canonical_json(serial) == canonical_json(parallel)

    def test_pool_asks_for_no_more_workers_than_supersamples(self, monkeypatch):
        """``jobs`` past k1 sizes the pool at k1. The stand-in pool records its
        size and maps in this process, so the test starts no process."""
        import concurrent.futures

        asked = []

        class InProcessPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        serial = run_experiment(base_config(k1=2, jobs=1))
        pooled = run_experiment(base_config(k1=2, jobs=64))
        assert asked == [2]
        assert canonical_json(pooled) == canonical_json(serial)

    @pytest.mark.parametrize("mode", ["monte_carlo", "exact_enumeration"])
    def test_parallel_keeps_the_serial_tables(self, mode):
        serial = run_experiment(base_config(k1=3, jobs=1, mode=mode), keep_tables=True)
        parallel = run_experiment(base_config(k1=3, jobs=2, mode=mode), keep_tables=True)
        assert [canonical_json(t) for t in serial.tables] == [
            canonical_json(t) for t in parallel.tables]
        assert run_experiment(base_config(k1=3, jobs=2, mode=mode)).tables is None
        trials = serial.estimator_meta["trials_per_supersample"]
        assert [len(t.masks) for t in serial.tables] == [trials] * 3

    def test_persist_round_trip_and_bytes(self, tmp_path):
        report = run_experiment(base_config())
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        persist(report, p1)
        persist(report, p2)
        assert p1.read_bytes() == p2.read_bytes()
        again = load_report(p1)
        assert again == report  # wall clock and tables excluded from equality

    def test_load_truncated_file(self, tmp_path):
        report = run_experiment(base_config())
        path = tmp_path / "r.json"
        persist(report, path)
        path.write_text(path.read_text()[:50], encoding="utf-8")
        with pytest.raises(ConfigError):
            load_report(path)


_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e16, -1e16, 1e300]))
_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\x00\x1f\x7f\n\t\u2028é漢')),
                max_size=8)
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT,
              st.lists(_FLOATS, max_size=6)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=25)


class TestCanonicalJson:
    @given(_JSON)
    @settings(max_examples=300, deadline=None)
    def test_bytes_of_json_dumps(self, value):
        """Nested dicts and lists of strings (non-ASCII and control
        characters), integers, booleans, null, finite floats and empty
        containers, floats-only lists among them."""
        assert canonical_json(value) == json.dumps(
            value, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False) + "\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["float_list", "mixed_list", "dict"])
    def test_non_finite_float_refused(self, bad, where):
        value = {"float_list": [0.5, bad], "mixed_list": [1, bad], "dict": {"a": bad}}[where]
        with pytest.raises(ValueError, match="not JSON compliant"):
            canonical_json(value)


class TestSeedBlocks:
    @pytest.mark.parametrize("k1", [1, 2, 7])
    @pytest.mark.parametrize("mode", ["monte_carlo", "exact_enumeration"])
    def test_batched_streams_equal_per_supersample_derivation(self, monkeypatch, k1, mode):
        """Blocks of three supersamples (k2 * n = 80 cells each) derive their
        seeds and draw their masks together; every supersample still gets
        the data seed, split masks and trial seeds of its own derivation,
        and the report its bytes at the default block size."""
        config = base_config(k1=k1, mode=mode, exact_seeds=2)
        seen, mask_calls = [], []
        real_run, real_masks = harness._run_supersample, harness.split_masks

        def run(config, a, data_seed, masks, row_seeds, *args):
            seen.append((a, data_seed, masks.copy(), row_seeds.copy()))
            return real_run(config, a, data_seed, masks, row_seeds, *args)

        def draw(seeds, n):
            mask_calls.append(len(seeds))
            return real_masks(seeds, n)

        default = canonical_json(run_experiment(config))
        monkeypatch.setattr(harness, "_BLOCK_CELLS", 240)
        monkeypatch.setattr(harness, "_run_supersample", run)
        monkeypatch.setattr(harness, "split_masks", draw)
        assert canonical_json(run_experiment(config)) == default
        assert [a for a, *_ in seen] == list(range(k1))
        ms, n = config.master_seed, config.n
        for a, data_seed, masks, row_seeds in seen:
            assert data_seed == seed_sequence_seed(ms, harness._DATA, a)
            if mode == "exact_enumeration":
                want = exact_rows(n, derive_seeds(ms, harness._TRIAL, a, np.arange(2)))
            else:
                trials = np.arange(config.k2)
                want = (split_masks(derive_seeds(ms, harness._SPLIT, a, trials), n),
                        derive_seeds(ms, harness._TRIAL, a, trials))
            assert np.array_equal(masks, want[0]) and np.array_equal(row_seeds, want[1])
        if mode == "monte_carlo":
            assert mask_calls == [config.k2 * min(3, k1 - lo) for lo in range(0, k1, 3)]


class TestTableLifetime:
    @pytest.mark.parametrize("mode", ["monte_carlo", "exact_enumeration"])
    def test_unkept_table_freed_before_the_next_supersample_ends(self, monkeypatch, mode):
        """Without keep_tables, no supersample's trial table outlives it: the
        tables filled for supersample a are collected before a + 1 returns."""
        filled: dict[int, list] = {}
        real_fill, real_run = harness.fill_table, harness._run_supersample

        def fill(*args, **kwargs):
            table = real_fill(*args, **kwargs)
            filled[max(filled)].append(weakref.ref(table))
            return table

        def run(config, a, *args):
            filled[a] = []
            out = real_run(config, a, *args)
            if a > 0:
                assert all(ref() is None for ref in filled[a - 1]), a - 1
            return out

        monkeypatch.setattr(harness, "fill_table", fill)
        monkeypatch.setattr(harness, "_run_supersample", run)
        report = run_experiment(base_config(k1=3, mode=mode))
        assert report.tables is None and sorted(filled) == [0, 1, 2]
        assert all(filled[a] for a in filled)


class TestEnsembleMembers:
    @pytest.mark.parametrize("bounds", [["fcmi_m1"], ["fcmi_m1", "ensemble_mn"]])
    def test_member_estimates_reuse_the_vote_fits(self, monkeypatch, bounds):
        """ensemble_mn reads the member predictions the vote is taken over:
        exact n=8 with three knn members fits 3 * 2^8 member rows whether or
        not it is requested, and each member estimate is that of the
        member's own table."""
        rows = []
        real = fcmi.learners._fit_predict_rows

        def counting(spec, xs, ys, train_idx, *args):
            if spec.kind == "knn":
                rows.append(len(train_idx))
            return real(spec, xs, ys, train_idx, *args)

        monkeypatch.setattr(fcmi.learners, "_fit_predict_rows", counting)
        members = [{"kind": "knn", "params": {"k": k}} for k in (1, 3, 5)]
        config = base_config(n=8, k1=1, k2=1, mode="exact_enumeration", bounds=bounds,
                             learner={"kind": "ensemble", "params": {"members": members}})
        report = run_experiment(config)
        assert sum(rows) == 768
        if "ensemble_mn" not in bounds:
            return
        monkeypatch.undo()
        ss = draw_supersample(config, 0)
        seeds = derive_seeds(config.master_seed, harness._TRIAL, 0, np.arange(1))
        want = [float(subset_mi(fill_table(ss, LearnerSpec.from_json_dict(m),
                                           *exact_rows(8, derive_seeds(seeds, j))),
                                [tuple(range(8))])[0])
                for j, m in enumerate(members)]
        assert report.supersamples[0].member_fcmi == want


class TestSweep:
    """``fcmi sweep`` over members written as a {"configs": [...]} file."""

    @staticmethod
    def _sweep(tmp_path, members) -> int:
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"configs": members}), encoding="utf-8")
        return main(["sweep", str(path), "-o", str(tmp_path / "out")])

    def test_single_config_matches_run(self, tmp_path):
        assert self._sweep(tmp_path, [base_dict()]) == 0
        solo = run_experiment(base_config())
        assert (tmp_path / "out" / "report_000.json").read_text() == canonical_json(solo)
        rows = list(csv.DictReader(open(tmp_path / "out" / "curves.csv")))
        assert [r["bound_name"] for r in rows] == ["fcmi_m1"]

    def test_empty_sweep_rejected(self, tmp_path, capsys):
        assert self._sweep(tmp_path, []) == 2
        assert "lists no members" in capsys.readouterr().err

    def test_failure_carries_completed(self, tmp_path, monkeypatch, capsys):
        real = harness._run_supersample

        def failing(config, *args):
            if config.n == 6:
                raise RuntimeError("fit failed")
            return real(config, *args)

        monkeypatch.setattr(harness, "_run_supersample", failing)
        assert self._sweep(tmp_path, [base_dict(), base_dict(n=6)]) == 3
        assert "error: sweep member 1 failed: fit failed" in capsys.readouterr().err
        out = tmp_path / "out"
        assert sorted(p.name for p in out.iterdir()) == ["errors.json", "report_000.json"]
        assert json.loads((out / "errors.json").read_text()) == {
            "error": "fit failed", "failed_index": 1}

    @pytest.mark.parametrize("bad, message", [
        (dict(n=24, mode="exact_enumeration"), "exact_enumeration refuses n=24"),
        (dict(bounds=["fcmi_stability"]), "bound 'fcmi_stability' is computed in exact"),
        (dict(data={"kind": "csv", "params": {"path": "absent.csv"}}), "absent.csv"),
    ], ids=["size", "unsupported_bound", "missing_pool"])
    def test_every_member_checked_before_any_runs(self, tmp_path, monkeypatch, capsys,
                                                  bad, message):
        runs = []
        monkeypatch.setattr(cli, "run_experiment", lambda *a: runs.append(a))
        assert self._sweep(tmp_path, [base_dict(), base_dict(**bad)]) == 2
        assert f"error: sweep member 1: {message}" in capsys.readouterr().err
        assert runs == [] and not (tmp_path / "out").exists()

    def test_curve_table_csv(self, tmp_path):
        assert self._sweep(tmp_path, [base_dict(), base_dict(n=6)]) == 0
        text = (tmp_path / "out" / "curves.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == ("n,learner,bound_name,gap_mean,gap_std,bound_value,"
                            "bound_spread,k1,k2,mode")
        assert len(lines) == 3
        rows = [row for idx in range(2) for row in curve_rows(
            load_report(tmp_path / "out" / f"report_{idx:03d}.json"))]
        assert curve_table_csv(rows) == text  # deterministic bytes

    def test_clip_bounds_applies_to_curves_only(self):
        config = base_config(mode="exact_enumeration", clip_bounds=True,
                             bounds=["fcmi_squared"])
        report = run_experiment(config)
        raw = report.bounds[0].value
        assert raw > 1.0  # (8/n)(fcmi + 2) is far above 1 at n=4
        row = curve_rows(report)[0]
        assert row["bound_value"] == 1.0
