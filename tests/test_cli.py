import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import fcmi.cli
import fcmi.harness
import fcmi.learners
from fcmi.cli import main, render_curves_svg
from fcmi.harness import load_report


def write_config(tmp_path, name="config.json", **overrides):
    config = {
        "data": {"kind": "uniform_labels", "params": {"dim": 1}},
        "n": 4,
        "k1": 2,
        "k2": 15,
        "learner": {"kind": "memorizer", "params": {}},
        "mode": "monte_carlo",
        "bounds": ["fcmi_m1"],
        "master_seed": 5,
    }
    config.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def count_fits(monkeypatch) -> list:
    """Record the size of every training set the learners fit from now on."""
    fits = []
    real = fcmi.learners._fit_predict_rows

    def counting(spec, xs, ys, train_idx, *args):
        fits.extend(len(row) for row in train_idx)
        return real(spec, xs, ys, train_idx, *args)

    monkeypatch.setattr(fcmi.learners, "_fit_predict_rows", counting)
    return fits


class TestRun:
    def test_valid_config_writes_outputs(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(config), "-o", str(out)]) == 0
        assert (out / "report.json").is_file()
        assert (out / "curves.csv").is_file()

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2

    def test_malformed_config_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["run", str(path)]) == 2

    def test_exact_past_enumeration_limit_is_config_error(self, tmp_path, monkeypatch,
                                                           capsys):
        fits = count_fits(monkeypatch)
        config = write_config(tmp_path, n=24, mode="exact_enumeration")
        assert main(["run", str(config), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: exact_enumeration refuses n=24 (limit 20)\n"
        assert fits == []

    def test_any_other_failure_is_runtime_error(self, tmp_path, monkeypatch, capsys):
        """A failure of no class the program names still leaves ``main`` as
        exit 3 and one ``error:`` line, not as a traceback."""
        def overflowing(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(fcmi.cli, "run_experiment", overflowing)
        assert main(["run", str(write_config(tmp_path)), "-o", str(tmp_path / "out")]) == 3
        assert capsys.readouterr().err == "error: math range error\n"

    def test_sgld_temperature_past_the_float_range_runs(self, tmp_path):
        config = write_config(tmp_path, learner={"kind": "sgld_linear", "params": {
            "steps": 5, "temp_scale": 1e-300}})
        assert main(["run", str(config), "-o", str(tmp_path / "out")]) == 0

    def test_unsupported_combination_is_config_error(self, tmp_path):
        config = write_config(tmp_path,
                              learner={"kind": "knn", "params": {"k": 3}},
                              bounds=["cmi_weights"])
        assert main(["run", str(config)]) == 2

    def test_noisy_wrapper_with_absolute_loss_is_config_error(self, tmp_path, monkeypatch,
                                                               capsys):
        """``noisy_wrapper`` is no learner kind: its noise left [0, 1], so no
        loss could score it. Its config is refused as an unknown learner
        when the config is checked, before any fit."""
        fits = count_fits(monkeypatch)
        inner = {"kind": "logistic_gd", "params": {"output": "prob", "steps": 20}}
        config = write_config(
            tmp_path, data={"kind": "two_gaussians", "params": {"dim": 2, "sep": 2.0}},
            n=5, learner={"kind": "noisy_wrapper",
                          "params": {"inner": inner, "sigma_sq": 0.1}},
            loss="absolute", bounds=["det_stability"])
        assert main(["run", str(config), "-o", str(tmp_path / "out")]) == 2
        assert "unknown learner kind 'noisy_wrapper'" in capsys.readouterr().err
        assert fits == []

    def test_seed_override_echoed(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(config), "-o", str(out), "--seed", "99"]) == 0
        report = load_report(out / "report.json")
        assert report.config["master_seed"] == 99

    def test_negative_seed_override_is_config_error(self, tmp_path, monkeypatch):
        fits = count_fits(monkeypatch)
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(config), "-o", str(out), "--seed", "-1"]) == 2
        assert fits == [] and not (out / "report.json").exists()

    def test_negative_enumerate_limit_is_config_error(self, tmp_path, monkeypatch, capsys):
        """A negative limit would silently mean "always sample"; 0 still does."""
        fits = count_fits(monkeypatch)
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(config), "-o", str(out),
                     "--set", "subset_policy.enumerate_limit=-1"]) == 2
        assert fits == [] and not (out / "report.json").exists()
        assert "enumerate_limit" in capsys.readouterr().err
        assert main(["run", str(config), "-o", str(out),
                     "--set", "subset_policy.enumerate_limit=0"]) == 0

    @pytest.mark.parametrize("mode, bounds, learner, labels", [
        ("exact_enumeration", ["fcmi_m1", "fcmi_mn", "fcmi_stability",
                               "fcmi_stability_squared", "fcmi_subset_m"],
         {"kind": "memorizer"}, ((1, 1, 3), (2 ** 40, 1, 3))),
        ("monte_carlo", ["fcmi_m1"], {"kind": "memorizer"}, ((1, 1, 3), (2 ** 40, 1, 3))),
        # two labels make a 2^10 * 2^5-cell fcmi_mn joint, whatever their values
        ("monte_carlo", ["fcmi_mn"], {"kind": "knn", "params": {"k": 3}},
         ((0, 1, 2), (0, 2 ** 40, 2))),
    ], ids=["exact_enumeration-bounds0", "monte_carlo-bounds1", "monte_carlo_knn_two_labels"])
    def test_labels_near_2_40(self, tmp_path, monkeypatch, mode, bounds, learner, labels):
        """Labels 2^40 + c give the report of labels c + 1, and labels
        {0, 2^40} that of {0, 1}: the predictions (a label, or the
        memorizer's 0 when the query is unseen) keep their order, the
        estimates rank wide predictions, and the alphabet counts distinct
        labels. Label i of the pool is base + step * (7i mod classes)."""
        reports = []
        for base, step, classes in labels:
            run_dir = tmp_path / f"{base}_{step}"
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            (run_dir / "pool.csv").write_text("x_0,y\n" + "".join(
                f"{i / 20},{base + step * (i * 7 % classes)}\n" for i in range(20)),
                encoding="utf-8")
            config = write_config(run_dir, data={"kind": "csv", "params": {"path": "pool.csv"}},
                                  n=5, k1=1, mode=mode, bounds=bounds, learner=learner,
                                  subset_policy={"m": 2})
            assert main(["run", str(config), "-o", "out"]) == 0
            reports.append((run_dir / "out" / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_dotted_override_echoed(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(config), "-o", str(out),
                     "--set", "data.params.dim=3", "--set", "k2=5"]) == 0
        report = load_report(out / "report.json")
        assert report.config["data"]["params"]["dim"] == 3
        assert report.config["k2"] == 5

    @pytest.mark.parametrize("learner, extra, mean_mi", [
        ({"kind": "knn", "params": {"k": 3}}, {}, True),
        ({"kind": "logistic_gd", "params": {"output": "prob", "steps": 5}},
         dict(loss="absolute", bounds=["det_stability"], stability={"trials": 2}), False),
    ], ids=["label", "prob"])
    def test_verbose_line_per_supersample(self, tmp_path, capsys, learner, extra, mean_mi):
        """``-v`` prints each supersample's gap, and its mean per-index
        information when the learner's predictions have one."""
        config = write_config(tmp_path, data=GAUSS, n=5, k1=3, learner=learner, **extra)
        out = tmp_path / "out"
        assert main(["run", str(config), "-o", str(out), "-v"]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        expected = []
        for res in report["supersamples"]:
            mi = res["mi_per_index"]
            expected.append(f"{res['supersample_id']}: gap={res['gap_mean']:+.4f}"
                            + (f" mean_mi={sum(mi) / len(mi):.5f}" if mean_mi else ""))
        *lines, summary = capsys.readouterr().err.splitlines()
        assert lines == expected and summary.startswith("gap_mean=")
        assert [line.split(":")[0] for line in lines] == ["ss000", "ss001", "ss002"]

    def test_dump_tables(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(config), "-o", str(out), "--dump-tables"]) == 0
        tables = sorted((out / "tables").glob("*.json"))
        assert [t.name for t in tables] == ["ss000.json", "ss001.json"]

    def test_jobs_two_writes_the_bytes_of_jobs_one(self, tmp_path):
        """Scheduling supersamples on two workers changes no report byte, in
        either mode."""
        examples = [write_config(tmp_path, name=f"{name}.json", **EXAMPLE_RUNS[name][0])
                    for name in ("readme_quickstart", "exact_knn3_n14")]
        for config in (write_config(tmp_path), *examples):
            reports = []
            for jobs in ("1", "2"):
                out = tmp_path / f"{config.stem}_jobs{jobs}"
                assert main(["run", str(config), "-o", str(out), "--jobs", jobs]) == 0
                reports.append((out / "report.json").read_bytes())
            assert reports[0] == reports[1]

    def test_clip_bounds_echoed_and_applied(self, tmp_path):
        """The memorizer's fcmi_m1 bound here is above 1: ``--clip-bounds``
        echoes the flag and writes 1 as its curve value, and the report keeps
        the bound itself."""
        config = write_config(tmp_path)
        values = []
        for flags in ([], ["--clip-bounds"]):
            out = tmp_path / f"out{len(flags)}"
            assert main(["run", str(config), "-o", str(out), *flags]) == 0
            report = load_report(out / "report.json")
            assert report.config["clip_bounds"] is bool(flags)
            with open(out / "curves.csv", newline="", encoding="utf-8") as fh:
                values.append([float(r["bound_value"]) for r in csv.DictReader(fh)])
            assert report.bounds[0].value == values[0][0] > 1
        assert values[1] == [1.0]

    def test_override_value_not_json_is_a_string(self, tmp_path):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(config), "-o", str(out), "--set", "mode=exact_enumeration"]) == 0
        assert load_report(out / "report.json").config["mode"] == "exact_enumeration"

    @pytest.mark.parametrize("assignment, message", [
        ("n", "override 'n' is not of the form key=value"),
        ("n.x=1", "override path 'n.x' crosses a non-object value"),
    ], ids=["no_equals", "crosses_number"])
    def test_bad_override_is_config_error(self, tmp_path, monkeypatch, capsys,
                                          assignment, message):
        fits = count_fits(monkeypatch)
        config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(config), "-o", str(out), "--set", assignment]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert fits == [] and not out.exists()

    def test_output_under_a_file_is_runtime_error(self, tmp_path, capsys):
        """An output directory that cannot be made is a runtime failure, exit 3."""
        config = write_config(tmp_path)
        (tmp_path / "file").write_text("", encoding="utf-8")
        assert main(["run", str(config), "-o", str(tmp_path / "file" / "out")]) == 3
        assert "Not a directory" in capsys.readouterr().err


class TestCsvValidation:
    """A bad csv pool is a configuration error, found before any fit."""

    def _run(self, tmp_path, rows, learner, **overrides):
        data = tmp_path / "data.csv"
        data.write_text("x_0,y\n" + "".join(f"{x},{y}\n" for x, y in rows),
                        encoding="utf-8")
        config = write_config(tmp_path, data={"kind": "csv", "params": {"path": str(data)}},
                              learner=learner, **overrides)
        return main(["run", str(config), "-o", str(tmp_path / "out")])

    GOOD = [(i / 10, i % 2) for i in range(10)]
    KNN = {"kind": "knn", "params": {"k": 1}}
    LOGISTIC = {"kind": "logistic_gd", "params": {"steps": 5}}

    def test_valid_pool_runs(self, tmp_path):
        assert self._run(tmp_path, self.GOOD, self.LOGISTIC) == 0

    def test_nan_feature_is_config_error(self, tmp_path):
        rows = self.GOOD[:-1] + [("nan", 1)]
        assert self._run(tmp_path, rows, self.KNN) == 2
        assert self._run(tmp_path, rows, self.LOGISTIC) == 2
        assert not (tmp_path / "out" / "report.json").exists()

    def test_infinite_feature_is_config_error(self, tmp_path):
        assert self._run(tmp_path, self.GOOD[:-1] + [("inf", 1)], self.KNN) == 2

    def test_nonbinary_label_for_linear_learner_is_config_error(self, tmp_path):
        rows = self.GOOD[:-1] + [(0.95, 2)]
        assert self._run(tmp_path, rows, self.LOGISTIC) == 2
        sgld = {"kind": "sgld_linear", "params": {"steps": 5}}
        assert self._run(tmp_path, rows, sgld) == 2
        assert self._run(tmp_path, rows, self.KNN) == 0  # multi-class is fine here

    @pytest.mark.parametrize("learner", [
        {"kind": "threshold_erm", "params": {}},
        {"kind": "ensemble", "params": {"members": [
            {"kind": "knn", "params": {"k": 1}}, {"kind": "threshold_erm", "params": {}}]}},
    ], ids=["alone", "ensemble_member"])
    def test_nonbinary_label_for_threshold_erm_is_config_error(self, tmp_path, monkeypatch,
                                                               capsys, learner):
        """threshold_erm fits and predicts labels 0 and 1 only: on labels
        {0, 2} it would predict 0 everywhere, so the pool is refused."""
        fits = count_fits(monkeypatch)
        rows = [(i / 12, 2 * (i % 2)) for i in range(12)]
        assert self._run(tmp_path, rows, learner, n=6) == 2
        assert "needs labels in {0, 1}" in capsys.readouterr().err
        assert fits == []

    def test_multiclass_alphabet_sized_from_pool(self, tmp_path, monkeypatch):
        """3 classes at n=5 give a 3^10 * 2^5 = 1,889,568-cell fcmi_mn joint, over
        the plug-in limit; at 2 classes it is 32,768 cells and runs."""
        fits = count_fits(monkeypatch)
        three = [(i / 30, i % 3) for i in range(30)]
        assert self._run(tmp_path, three, self.KNN, n=5, bounds=["fcmi_mn"]) == 2
        assert fits == []
        two = [(i / 30, i % 2) for i in range(30)]
        assert self._run(tmp_path, two, self.KNN, n=5, bounds=["fcmi_mn"]) == 0
        assert fits

    def test_missing_file_is_config_error(self, tmp_path):
        config = write_config(tmp_path, data={"kind": "csv", "params": {
            "path": str(tmp_path / "absent.csv")}})
        assert main(["run", str(config)]) == 2

    @pytest.mark.parametrize("text, overrides, message", [
        ("", {}, "empty dataset"),
        ("x_0,y\n", {}, "empty dataset"),
        ("x_0,label\n" + "".join(f"{i / 10},{i % 2}\n" for i in range(10)), {},
         "expected columns x_0..x_{p-1} and y"),
        ("x_0,y\n" + "".join(f"{i / 10},{i % 2 - (i == 2)}\n" for i in range(10)), {},
         "labels must be >= 0"),
        ("x_0,y\n" + "".join(f"{i / 10},{i % 2}\n" for i in range(10)),
         dict(learner={"kind": "logistic_gd", "params": {"output": "prob", "steps": 5}},
              loss="absolute", bounds=["det_stability"]), "not resamplable"),
        (b"x_0,y\n0.1,\xff\n", {}, "data.csv: 'utf-8' codec can't decode byte 0xff"),
        ("x_0,x_2,y\n" + "".join(f"{i / 10},{i / 5},{i % 2}\n" for i in range(10)), {},
         "data.csv: unknown or repeated column(s) 'x_2'"),
        ("x_0,x_0,y\n" + "".join(f"{i / 10},{i / 5},{i % 2}\n" for i in range(10)), {},
         "data.csv: unknown or repeated column(s) 'x_0'"),
        ("x_0,y\n" + "".join(f"{i / 10},{i % 2}{',7' * (i == 2)}\n" for i in range(10)), {},
         "data.csv: row 3 has more fields than the header"),
        ("x_0,y\n" + "".join(f"{i / 10}" + f",{i % 2}" * (i != 3) + "\n" for i in range(10)),
         {}, "data.csv: row 4 has fewer fields than the header"),
    ], ids=["empty_file", "header_only", "no_y_column", "negative_label", "det_stability",
            "not_utf8", "undeclared_column", "repeated_column", "row_longer_than_header",
            "row_shorter_than_header"])
    def test_refused_pool_names_the_fault(self, tmp_path, monkeypatch, capsys, text,
                                          overrides, message):
        fits = count_fits(monkeypatch)
        data = tmp_path / "data.csv"
        data.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        config = write_config(tmp_path, data={"kind": "csv", "params": {"path": str(data)}},
                              **overrides)
        assert main(["run", str(config), "-o", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert fits == [] and not (tmp_path / "out").exists()

    def test_byte_order_mark_is_read_past(self, tmp_path):
        """A pool saved with a byte-order mark (a spreadsheet's "CSV UTF-8")
        gives the report of the same pool without one."""
        data = tmp_path / "data.csv"
        config = write_config(tmp_path, data={"kind": "csv", "params": {"path": str(data)}})
        reports = []
        for encoding in ("utf-8", "utf-8-sig"):
            data.write_text("x_0,y\n" + "".join(f"{i / 10},{i % 2}\n" for i in range(10)),
                            encoding=encoding)
            assert main(["run", str(config), "-o", str(tmp_path / encoding)]) == 0
            reports.append((tmp_path / encoding / "report.json").read_bytes())
        assert data.read_bytes().startswith(b"\xef\xbb\xbf")
        assert reports[0] == reports[1]

    def test_pool_read_once_per_sweep_member(self, tmp_path, monkeypatch):
        """Building a member's config reads its pool, and running the member
        reads it no more."""
        reads = []
        real = csv.DictReader
        monkeypatch.setattr(csv, "DictReader", lambda fh: reads.append(1) or real(fh))
        data = tmp_path / "data.csv"
        data.write_text("x_0,y\n" + "".join(f"{i / 20},{i % 2}\n" for i in range(20)),
                        encoding="utf-8")
        member = json.loads(write_config(tmp_path, data={
            "kind": "csv", "params": {"path": str(data)}}).read_text())
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": member, "vary": [{"n": 4}, {"n": 6}]}),
                        encoding="utf-8")
        assert main(["sweep", str(path), "-o", str(tmp_path / "out")]) == 0
        assert len(reads) == 2


GAUSS = {"kind": "two_gaussians", "params": {"dim": 2, "sep": 2.0}}
LOGISTIC_PROB = {"kind": "logistic_gd", "params": {"output": "prob", "steps": 5}}
STABILITY_RUN = dict(data=GAUSS, n=5, learner=LOGISTIC_PROB, loss="absolute",
                     bounds=["det_stability"])
THRESHOLD_ERM = {"kind": "threshold_erm", "params": {}}


class TestConfigCheck:
    """Bad values are refused when the config is checked (exit 2), before any
    fit, instead of failing partway through a run or passing silently."""

    BAD = {
        "stability_trials_zero": dict(STABILITY_RUN, stability={"trials": 0}),
        "stability_gamma_negative": dict(STABILITY_RUN,
                                         stability={"trials": 2, "gamma": -1.0}),
        "subset_sample_count_zero": dict(
            n=6, learner={"kind": "knn", "params": {"k": 1}}, bounds=["fcmi_subset_m"],
            subset_policy={"m": 2, "enumerate_limit": 1, "sample_count": 0}),
        "threshold_erm_two_gaussians": dict(data=GAUSS, learner=THRESHOLD_ERM),
        "threshold_erm_uniform_labels_dim2": dict(
            data={"kind": "uniform_labels", "params": {"dim": 2}}, learner=THRESHOLD_ERM),
        "threshold_erm_ensemble_member_two_gaussians": dict(
            data=GAUSS, learner={"kind": "ensemble", "params": {"members": [
                {"kind": "knn", "params": {"k": 1}}, THRESHOLD_ERM]}}),
        "ensemble_unknown_member": dict(learner={"kind": "ensemble", "params": {
            "members": [{"kind": "knn", "params": {"k": 1}}, {"kind": "bogus"}]}}),
        "ensemble_prob_member": dict(learner={"kind": "ensemble", "params": {
            "members": [{"kind": "knn", "params": {"k": 1}}, LOGISTIC_PROB]}}),
        "noisy_wrapper_label_inner": dict(learner={"kind": "noisy_wrapper", "params": {
            "inner": {"kind": "knn", "params": {"k": 1}}, "sigma_sq": 0.1}}),
        "jobs_zero": dict(jobs=0),
        "jobs_negative": dict(jobs=-1),
        # integer fields are JSON integers: no float truncation, no booleans
        "n_float": dict(n=5.5),
        "k1_bool": dict(k1=True),
        "k2_float": dict(k2=50.9),
        "master_seed_negative": dict(master_seed=-1),
        "master_seed_bool": dict(master_seed=True),
        "master_seed_float": dict(master_seed=3.0),
        "exact_seeds_float": dict(mode="exact_enumeration", exact_seeds=2.5),
        "stability_trials_float": dict(STABILITY_RUN, stability={"trials": 2.5}),
        "jobs_float": dict(jobs=1.5),
        "subset_m_float": dict(n=6, bounds=["fcmi_subset_m"], subset_policy={"m": 2.0}),
        "subset_enumerate_limit_bool": dict(
            n=6, bounds=["fcmi_subset_m"], subset_policy={"m": 2, "enumerate_limit": True}),
        "subset_sample_count_float": dict(
            n=6, bounds=["fcmi_subset_m"],
            subset_policy={"m": 2, "enumerate_limit": 1, "sample_count": 3.5}),
        # a key no field or parameter declares is refused, not ignored
        "top_level_misspelled": dict(bound=["fcmi_m1"]),
        "stability_misspelled": dict(STABILITY_RUN, stabilty={"trials": 2}),
        "stability_trails": dict(STABILITY_RUN, stability={"trails": 4}),
        "subset_policy_capital_m": dict(n=6, subset_policy={"M": 2}),
        "learner_param": dict(learner={"kind": "knn", "param": {"k": 3}}),
        "knn_capital_k": dict(learner={"kind": "knn", "params": {"K": 3}}),
        "two_gaussians_sepp": dict(data={"kind": "two_gaussians", "params": {"sepp": 4}},
                                   learner={"kind": "knn", "params": {"k": 1}}),
        "csv_delimiter": dict(data={"kind": "csv", "params": {"path": "pool.csv",
                                                              "delimiter": ";"}}),
        "csv_path_file_descriptor": dict(data={"kind": "csv", "params": {"path": 0}}),
        # a group, data or learner value that is not an object
        "stability_not_object": dict(STABILITY_RUN, stability=5),
        "data_not_object": dict(data=5),
        # linear tuning values have their fit defaults' types
        "steps_float": dict(learner={"kind": "logistic_gd", "params": {"steps": 30.0}}),
        "lr_string": dict(learner={"kind": "logistic_gd",
                                   "params": {"steps": 5, "lr": "0.5"}}),
        # the linear learners' float tuning values: rates and temperatures
        # > 0, scales and decays >= 0
        "sgld_temp_scale_zero": dict(learner={"kind": "sgld_linear",
                                              "params": {"steps": 5, "temp_scale": 0}}),
        "sgld_temp_max_zero": dict(learner={"kind": "sgld_linear",
                                            "params": {"steps": 5, "temp_max": 0}}),
        "sgld_temp_min_zero": dict(learner={"kind": "sgld_linear",
                                            "params": {"steps": 5, "temp_min": 0.0}}),
        "sgld_init_scale_negative": dict(learner={"kind": "sgld_linear",
                                                  "params": {"steps": 5, "init_scale": -1}}),
        "sgld_lr0_negative": dict(learner={"kind": "sgld_linear",
                                           "params": {"steps": 5, "lr0": -1}}),
        "sgld_lr_decay_negative": dict(learner={"kind": "sgld_linear",
                                                "params": {"steps": 5, "lr_decay": -0.5}}),
        "logistic_lr_zero": dict(learner={"kind": "logistic_gd",
                                          "params": {"steps": 5, "lr": 0}}),
        "logistic_init_scale_negative": dict(learner={
            "kind": "logistic_gd", "params": {"steps": 5, "init_scale": -0.01}}),
        # numbers are finite: json writes these as Infinity and NaN
        "stability_gamma_infinite": dict(STABILITY_RUN,
                                         stability={"trials": 2, "gamma": float("inf")}),
        "lr_infinite": dict(learner={"kind": "logistic_gd",
                                     "params": {"steps": 5, "lr": float("inf")}}),
        "sep_nan": dict(data={"kind": "two_gaussians", "params": {"sep": float("nan")}},
                        learner={"kind": "knn", "params": {"k": 1}}),
        "loss_unknown": dict(loss="hinge"),
        # a declared key of the wrong type is refused, not coerced
        "clip_bounds_string": dict(clip_bounds="false"),
        # an option with one value is no option: ensemble takes no combiner
        "ensemble_combiner": dict(learner={"kind": "ensemble", "params": {
            "members": [{"kind": "knn", "params": {"k": 1}}], "combiner": "majority"}}),
    }

    @pytest.mark.parametrize("case", sorted(BAD))
    def test_bad_config_is_config_error(self, tmp_path, monkeypatch, case):
        fits = count_fits(monkeypatch)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pool.csv").write_text(
            "x_0,y\n" + "".join(f"{i / 10},{i % 2}\n" for i in range(10)), encoding="utf-8")
        config = write_config(tmp_path, **self.BAD[case])
        assert main(["run", str(config), "-o", str(tmp_path / "out")]) == 2
        assert fits == []
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("assignment, message", [
        ("stability.gamma=Infinity", "stability.gamma must be a finite number, got inf"),
        ("stability.gamma=NaN", "stability.gamma must be a finite number, got nan"),
        ("stability.gamma=1e400", "stability.gamma must be a finite number, got inf"),
        ("learner.params.lr=-Infinity", "'lr' must be a finite number, got -inf"),
        ("data.params.sep=Infinity", "'sep' must be a finite number, got inf"),
    ], ids=["gamma_infinity", "gamma_nan", "gamma_overflow", "lr_minus_infinity",
            "sep_infinity"])
    def test_non_finite_override_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                  assignment, message):
        """JSON's Infinity and NaN parse, but no number field takes them: a
        report holds only JSON numbers."""
        fits = count_fits(monkeypatch)
        config = write_config(tmp_path, **STABILITY_RUN)
        out = tmp_path / "out"
        assert main(["run", str(config), "-o", str(out), "--set", assignment]) == 2
        assert message in capsys.readouterr().err
        assert fits == [] and not (out / "report.json").exists()

    @pytest.mark.parametrize("assignment, message", [
        ("learner.params.k=0", "knn needs k >= 1"),
        ("learner.params.kk=3", "knn has no parameter 'kk'"),
        ('learner={"kind": "bogus"}', "unknown learner kind 'bogus'"),
        ("data.params.sep=Infinity",
         "two_gaussians parameter 'sep' must be a finite number, got inf"),
        ('data={"kind": [1]}', "unknown data kind [1]"),
        ('learner={"kind": {}}', "unknown learner kind {}"),
    ], ids=["knn_k_zero", "undeclared_param", "unknown_kind", "sep_infinity",
            "data_kind_list", "learner_kind_object"])
    def test_kind_refusal_is_the_whole_message(self, tmp_path, monkeypatch, capsys,
                                               assignment, message):
        """A learner's refusal is worded as a data source's: the error line is
        the kind spec's own message, with no prefix."""
        fits = count_fits(monkeypatch)
        config = write_config(tmp_path, data=GAUSS, learner={"kind": "knn", "params": {"k": 3}})
        out = tmp_path / "out"
        assert main(["run", str(config), "-o", str(out), "--set", assignment]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert fits == [] and not (out / "report.json").exists()

    @pytest.mark.parametrize("keys", [("n",), ("k1", "learner")], ids=["n", "k1_learner"])
    def test_missing_key_named(self, tmp_path, monkeypatch, capsys, keys):
        fits = count_fits(monkeypatch)
        config = json.loads(write_config(tmp_path).read_text())
        for key in keys:
            del config[key]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: missing config key(s) {', '.join(keys)}\n"
        assert fits == []

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_csv_label_past_int64_is_config_error(self, tmp_path, monkeypatch, capsys, command):
        """A csv label of 2^63 or more fits no int64 label: the pool is
        refused at config check, for a run and for a sweep's second member."""
        fits = count_fits(monkeypatch)
        pool = tmp_path / "pool.csv"
        pool.write_text("x_0,y\n" + "".join(f"{i / 10},{2 ** 70 if i == 3 else i % 2}\n"
                                            for i in range(6)), encoding="utf-8")
        bad = json.loads(write_config(tmp_path, n=3, learner={"kind": "knn", "params": {"k": 1}},
                                      data={"kind": "csv", "params": {"path": str(pool)}},
                                      ).read_text())
        path = tmp_path / "config.json"
        if command == "sweep":
            good = json.loads(write_config(tmp_path, name="good.json").read_text())
            path.write_text(json.dumps({"configs": [good, bad]}), encoding="utf-8")
        assert main([command, str(path), "-o", str(tmp_path / "out")]) == 2
        assert "pool.csv" in capsys.readouterr().err
        assert fits == []
        assert not list(tmp_path.glob("out/report*.json"))

    @pytest.mark.parametrize("flags", [[], ["--seed", "3"], ["--jobs", "2"], ["--set", "n=4"],
                                       ["--clip-bounds"]],
                             ids=["none", "seed", "jobs", "set", "clip_bounds"])
    def test_top_level_not_object_is_config_error(self, tmp_path, monkeypatch, capsys, flags):
        fits = count_fits(monkeypatch)
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        assert main(["run", str(path), "-o", str(tmp_path / "out"), *flags]) == 2
        assert fits == [] and "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        {"kind": "threshold_realizable", "params": {"threshold": 0.3}},
        {"kind": "uniform_labels", "params": {"dim": 1}},
    ], ids=["threshold_realizable", "uniform_labels_dim1"])
    def test_threshold_erm_on_unit_interval_data_runs(self, tmp_path, data):
        config = write_config(tmp_path, data=data, learner=THRESHOLD_ERM)
        assert main(["run", str(config), "-o", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("header, rows, code", [
        ("x_0,y", [(f"{i / 10}", i % 2) for i in range(10)], 0),
        ("x_0,y", [(f"{i / 10 + 0.5}", i % 2) for i in range(10)], 2),
        ("x_0,x_1,y", [(f"{i / 10},0.5", i % 2) for i in range(10)], 2),
    ], ids=["one_column_in_range", "out_of_range", "two_columns"])
    def test_threshold_erm_csv_pool(self, tmp_path, monkeypatch, header, rows, code):
        fits = count_fits(monkeypatch)
        data = tmp_path / "data.csv"
        data.write_text(header + "\n" + "".join(f"{x},{y}\n" for x, y in rows),
                        encoding="utf-8")
        config = write_config(tmp_path, data={"kind": "csv", "params": {"path": str(data)}},
                              learner=THRESHOLD_ERM)
        assert main(["run", str(config), "-o", str(tmp_path / "out")]) == code
        assert bool(fits) == (code == 0)


class TestSweep:
    def test_base_vary(self, tmp_path):
        base = {
            "data": {"kind": "uniform_labels", "params": {"dim": 1}},
            "n": 4, "k1": 1, "k2": 10,
            "learner": {"kind": "memorizer", "params": {}},
            "bounds": ["fcmi_m1"], "master_seed": 1,
        }
        sweep_config = {"base": base, "vary": [{"n": 4}, {"n": 6}]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep_config), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", str(path), "-o", str(out)]) == 0
        assert (out / "report_000.json").is_file()
        assert (out / "report_001.json").is_file()
        csv_lines = (out / "curves.csv").read_text().strip().split("\n")
        assert len(csv_lines) == 3

    BASE = {
        "data": {"kind": "uniform_labels", "params": {"dim": 1}},
        "n": 4, "k1": 1, "k2": 10,
        "learner": {"kind": "memorizer", "params": {}},
        "bounds": ["fcmi_m1"], "master_seed": 1,
    }

    def test_member_failure_persists_partial(self, tmp_path, monkeypatch):
        """A member that passes the check but fails while running leaves the
        reports before it and errors.json, exit 3."""
        real = fcmi.harness._run_supersample

        def failing(config, *args):
            if config.n == 6:
                raise RuntimeError("fit failed")
            return real(config, *args)

        monkeypatch.setattr(fcmi.harness, "_run_supersample", failing)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": self.BASE, "vary": [{"n": 4}, {"n": 6}]}),
                        encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", str(path), "-o", str(out)]) == 3
        assert (out / "report_000.json").is_file()
        errors = json.loads((out / "errors.json").read_text())
        assert errors["failed_index"] == 1

    @pytest.mark.parametrize("sweep_config", [
        {"configs": 5}, {"base": {"n": 4}, "vary": [5]}, {"base": [], "vary": [{}]},
        {"configs": [], "vary": [{}]}, [1, 2],
    ], ids=["configs_number", "vary_number", "base_list", "extra_key", "top_level_list"])
    def test_malformed_sweep_file_is_config_error(self, tmp_path, sweep_config):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep_config), encoding="utf-8")
        assert main(["sweep", str(path), "-o", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("bad", [
        {"n": 22, "mode": "exact_enumeration"},
        {"bounds": ["fcmi_stability"]},
        {"stability": {"trails": 3}},
        {"n": 0},
    ], ids=["size", "monte_carlo_stability", "undeclared_key", "bad_count"])
    def test_bad_member_refused_before_any_fit(self, tmp_path, monkeypatch, capsys, bad):
        """Every member is checked before the first runs: a bad second member
        exits 2, named by its index, with no fit and no file written."""
        fits = count_fits(monkeypatch)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"base": self.BASE, "vary": [{"n": 4}, bad]}),
                        encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sweep", str(path), "-o", str(out)]) == 2
        assert "error: sweep member 1: " in capsys.readouterr().err
        assert fits == []
        assert not (out / "report_000.json").exists() and not (out / "errors.json").exists()


class TestVerifyLemmas:
    def test_small_run(self, tmp_path, capsys):
        for instances in (20, 50):
            out_file = tmp_path / f"lemmas_{instances}.json"
            assert main(["verify-lemmas", "--instances", str(instances),
                         "-o", str(out_file)]) == 0
            payload = json.loads(out_file.read_text())
            assert len(payload["verifiers"]) == 6
            assert all(v["instances"] == instances and v["violations"] == 0
                       for v in payload["verifiers"])

    def test_output_into_missing_directory(self, tmp_path, capsys):
        out_file = tmp_path / "missing" / "deep" / "lemmas.json"
        assert main(["verify-lemmas", "--instances", "5", "-o", str(out_file)]) == 0
        assert len(json.loads(out_file.read_text())["verifiers"]) == 6

    def test_stdout_json(self, capsys):
        assert main(["verify-lemmas", "--instances", "5"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "verifiers" in data

    @pytest.mark.parametrize("flags", [["--instances", "0"], ["--instances", "-3"],
                                       ["--seed", "-1"]],
                             ids=["zero_instances", "negative_instances", "negative_seed"])
    def test_bad_input_is_config_error(self, tmp_path, monkeypatch, capsys, flags):
        calls = []
        monkeypatch.setattr(fcmi.cli, "run_all_verifiers",
                            lambda **kwargs: calls.append(kwargs))
        out_file = tmp_path / "lemmas.json"
        assert main(["verify-lemmas", *flags, "-o", str(out_file)]) == 2
        assert calls == [] and not out_file.exists()
        assert "must be >= " in capsys.readouterr().err


class TestReport:
    def _make_reports(self, tmp_path):
        paths = []
        for idx, n in enumerate((4, 6)):
            config = write_config(tmp_path, name=f"c{idx}.json", n=n)
            out = tmp_path / f"out{idx}"
            assert main(["run", str(config), "-o", str(out)]) == 0
            paths.append(out / "report.json")
        return paths

    def test_merged_csv_on_stdout(self, tmp_path, capsys):
        paths = self._make_reports(tmp_path)
        assert main(["report"] + [str(p) for p in paths]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0].startswith("n,learner,bound_name")
        assert len(lines) == 3

    def test_csv_into_missing_directory(self, tmp_path, capsys):
        paths = self._make_reports(tmp_path)
        assert main(["report"] + [str(p) for p in paths]) == 0
        on_stdout = capsys.readouterr().out
        out_file = tmp_path / "missing" / "deep" / "curves.csv"
        assert main(["report"] + [str(p) for p in paths] + ["--csv", str(out_file)]) == 0
        assert out_file.read_text() == on_stdout

    @pytest.mark.parametrize("name, reason", [("missing.json", "No such file or directory"),
                                              ("a_directory", "Is a directory")],
                             ids=["missing", "directory"])
    def test_unreadable_path_is_parse_error(self, tmp_path, capsys, name, reason):
        """A path that cannot be read is a usage error, exit 2, as for ``run``."""
        (tmp_path / "a_directory").mkdir()
        path = tmp_path / name
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"

    @pytest.mark.parametrize("text", ["[1]", '"x"', "3", "null"])
    def test_report_that_is_no_object(self, tmp_path, capsys, text):
        path = tmp_path / "l.json"
        path.write_text(text, encoding="utf-8")
        assert main(["report", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: a report must be a JSON object\n"

    def test_corrupt_report_named(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["report", str(bad)]) == 2
        assert "broken.json" in capsys.readouterr().err

    @pytest.mark.parametrize("path", [("config", "n"), ("config", "clip_bounds"),
                                      ("config", "learner", "kind"), ("gap_mean",)],
                             ids=["n", "clip_bounds", "learner_kind", "gap_mean"])
    def test_missing_key_is_parse_error(self, tmp_path, capsys, path):
        """A report lacking a key that its curve rows or fields read exits 2
        and names the key."""
        report = self._make_reports(tmp_path)[0]
        payload = json.loads(report.read_text())
        node = payload
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        report.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["report", str(report)]) == 2
        assert f"missing key '{path[-1]}'" in capsys.readouterr().err

    @pytest.mark.parametrize("path, bad, text", [
        (("gap_mean",), float("nan"), "NaN"),
        (("bounds", 0, "value"), float("inf"), "Infinity")],
        ids=["gap_mean_nan", "bound_value_infinity"])
    def test_non_finite_number_is_parse_error(self, tmp_path, capsys, path, bad, text):
        """``NaN`` and ``Infinity``, which the report writer never emits, are
        refused with exit 2 before any curve or SVG is written."""
        report = self._make_reports(tmp_path)[0]
        capsys.readouterr()
        payload = json.loads(report.read_text())
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        report.write_text(json.dumps(payload), encoding="utf-8")
        out_csv, out_svg = tmp_path / "curves.csv", tmp_path / "svg"
        assert main(["report", str(report), "--csv", str(out_csv), "--svg", str(out_svg)]) == 2
        assert capsys.readouterr().err == f"error: {report}: {text} is not a JSON number\n"
        assert not out_csv.exists() and not out_svg.exists()

    @pytest.mark.parametrize("path, bad, message", [
        (("bounds", 0, "value"), 10 ** 400, "value must be a finite number, got 1000"),
        (("config", "n"), "five", "n must be an integer, got 'five'"),
        (("gap_mean",), "0.1", "gap_mean must be a finite number, got '0.1'"),
        (("bounds", 0, "value"), True, "value must be a finite number, got True")],
        ids=["bound_value_past_float_range", "n_string", "gap_mean_string", "bound_value_bool"])
    def test_malformed_number_is_parse_error(self, tmp_path, capsys, path, bad, message):
        """A number the curve rows read takes the config's number rule: exit
        2 before any curve or SVG is written, not a crash or a coerced value."""
        report = self._make_reports(tmp_path)[0]
        capsys.readouterr()
        payload = json.loads(report.read_text())
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        report.write_text(json.dumps(payload), encoding="utf-8")
        out_csv, out_svg = tmp_path / "curves.csv", tmp_path / "svg"
        assert main(["report", str(report), "--csv", str(out_csv), "--svg", str(out_svg)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {report}: {message}")
        assert not out_csv.exists() and not out_svg.exists()

    def test_unknown_bound_name_is_parse_error(self, tmp_path, monkeypatch, capsys):
        """A bound name outside ``BOUNDS`` would also name an SVG file outside
        the SVG directory: it exits 2 and no SVG is written anywhere."""
        payload = json.loads(self._make_reports(tmp_path)[0].read_text())
        capsys.readouterr()
        payload["bounds"][0]["name"] = "../../escaped"
        (tmp_path / "evil.json").write_text(json.dumps(payload), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["report", "evil.json", "--svg", "svgdir/sub"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: evil.json: unknown bound '../../escaped' (known: ")
        assert list(tmp_path.rglob("*.svg")) == [] and not (tmp_path / "svgdir").exists()

    def test_field_holding_a_comma_is_quoted(self, tmp_path):
        """A learner kind with a comma is one quoted field of the curve table,
        which reads back as ten fields a row."""
        report = self._make_reports(tmp_path)[0]
        payload = json.loads(report.read_text())
        payload["config"]["learner"]["kind"] = "a,b"
        report.write_text(json.dumps(payload), encoding="utf-8")
        out_csv = tmp_path / "curves.csv"
        assert main(["report", str(report), "--csv", str(out_csv)]) == 0
        with open(out_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(r) for r in rows] == [10, 10] and rows[1][1] == "a,b"

    @pytest.mark.parametrize("argv, files, empty_dirs", [
        (["run", "config.json", "-o", "x/y", "--dump-tables"],
         ["x/y/report.json", "x/y/curves.csv", "x/y/tables/ss000.json"], []),
        (["report", "given/report.json", "--csv", "a/b.csv", "--svg", "c/d"],
         ["a/b.csv", "c/d/fcmi_m1.svg"], []),
        (["verify-lemmas", "--instances", "5", "-o", "e/f.json"], ["e/f.json"], []),
        (["report", "unbounded.json", "--svg", "g/h"], [], ["g/h"]),
    ], ids=["run_dump_tables", "report_csv_svg", "verify_lemmas", "svg_of_no_bound"])
    def test_missing_directories_are_created(self, tmp_path, monkeypatch, argv, files,
                                             empty_dirs):
        """Each output path's missing directories are made; ``--svg DIR`` makes
        ``DIR`` even when the reports hold no bound to draw."""
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(write_config(tmp_path)), "-o", "given"]) == 0
        payload = json.loads(Path("given/report.json").read_text(encoding="utf-8"))
        Path("unbounded.json").write_text(json.dumps({**payload, "bounds": []}),
                                          encoding="utf-8")
        assert main(argv) == 0
        assert all(Path(f).is_file() for f in files)
        assert all(Path(d).is_dir() and not any(Path(d).iterdir()) for d in empty_dirs)

    def test_svg_rendering_deterministic(self, tmp_path):
        paths = self._make_reports(tmp_path)
        svg1 = tmp_path / "svg1"
        svg2 = tmp_path / "svg2"
        argv = ["report"] + [str(p) for p in paths]
        assert main(argv + ["--svg", str(svg1), "--csv", str(tmp_path / "a.csv")]) == 0
        assert main(argv + ["--svg", str(svg2), "--csv", str(tmp_path / "b.csv")]) == 0
        f1 = svg1 / "fcmi_m1.svg"
        f2 = svg2 / "fcmi_m1.svg"
        assert f1.is_file()
        assert f1.read_bytes() == f2.read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_svg_smoke_contents(self):
        rows = [
            {"n": 10, "learner": "knn", "bound_name": "fcmi_m1", "gap_mean": 0.1,
             "gap_std": 0.02, "bound_value": 0.4, "bound_spread": 0.05,
             "k1": 2, "k2": 10, "mode": "monte_carlo"},
            {"n": 20, "learner": "knn", "bound_name": "fcmi_m1", "gap_mean": 0.05,
             "gap_std": 0.01, "bound_value": 0.3, "bound_spread": 0.04,
             "k1": 2, "k2": 10, "mode": "monte_carlo"},
        ]
        svg = render_curves_svg("fcmi_m1", rows)
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_svg_one_series_per_learner_and_mode(self):
        """Two learners at one n, and one learner in two modes, give three
        series: one gap and one bound polyline each, each named in the
        legend, in the same bytes whatever the row order."""
        def row(learner, mode, n, bound):
            return {"n": n, "learner": learner, "bound_name": "fcmi_m1", "gap_mean": 0.1,
                    "gap_std": 0.02, "bound_value": bound, "bound_spread": 0.05,
                    "k1": 2, "k2": 10, "mode": mode}

        rows = [row("knn", "monte_carlo", 20, 0.3), row("memorizer", "monte_carlo", 10, 0.9),
                row("knn", "monte_carlo", 10, 0.4), row("knn", "exact_enumeration", 10, 0.5)]
        svg = render_curves_svg("fcmi_m1", rows)
        root = ElementTree.fromstring(svg)
        polylines = root.findall("{http://www.w3.org/2000/svg}polyline")
        bounds = [p for p in polylines if p.get("class") == "bound"]
        assert len(bounds) == 3 and len(polylines) == 6
        assert len({p.get("stroke") for p in bounds}) == 3
        # each series joins its points in order of n; knn monte_carlo has two
        xs = [[float(pt.split(",")[0]) for pt in p.get("points").split()] for p in bounds]
        assert sorted(map(len, xs)) == [1, 1, 2] and all(x == sorted(x) for x in xs)
        for label in ("knn (monte_carlo)", "knn (exact_enumeration)",
                      "memorizer (monte_carlo)"):
            assert f">{label}</text>" in svg
        assert render_curves_svg("fcmi_m1", rows[::-1]) == svg


class TestUsage:
    def test_import_loads_no_process_pool(self):
        """Only a run with jobs > 1 loads concurrent.futures."""
        code = "import sys, fcmi.cli; assert 'concurrent.futures' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(fcmi.cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 2


THRESHOLD_DATA = {"kind": "threshold_realizable", "params": {"threshold": 0.5, "noise": 0.1}}
KNN3 = {"kind": "knn", "params": {"k": 3}}

# name: (config, extra ``fcmi run`` flags). One config per learner family and
# mode; together they request every bound. The csv pool is written by
# ``example_runs``.
EXAMPLE_RUNS = {
    "readme_quickstart": (
        dict(data=GAUSS, n=25, k1=5, k2=200, learner=KNN3, mode="monte_carlo",
             bounds=["fcmi_m1"], master_seed=1), []),
    "exact_knn3_n14": (
        dict(data=GAUSS, n=14, k1=2, k2=1, learner=KNN3, mode="exact_enumeration",
             bounds=["fcmi_m1", "fcmi_mn", "fcmi_stability"], master_seed=9), []),
    "csv_knn3_n8_jobs2": (
        dict(data={"kind": "csv", "params": {"path": "pool.csv"}}, n=8, k1=3, k2=30,
             learner=KNN3, bounds=["fcmi_m1"], master_seed=2, jobs=2), []),
    "logistic_prob_det_stability": (
        dict(data=GAUSS, n=10, k1=2, k2=20,
             learner={"kind": "logistic_gd", "params": {"output": "prob", "steps": 30}},
             loss="absolute", bounds=["det_stability"], stability={"trials": 3, "gamma": 1.0},
             master_seed=3), []),
    "sgld_prob_det_stability_squared": (
        dict(data=GAUSS, n=10, k1=2, k2=20,
             learner={"kind": "sgld_linear", "params": {"output": "prob", "steps": 50}},
             loss="absolute", bounds=["det_stability_squared"],
             stability={"trials": 3, "gamma": 1.0}, master_seed=4), []),
    # 100 trials of 200 training rows: more than one batch of linear fits
    "logistic_label_n200": (
        dict(data=GAUSS, n=200, k1=2, k2=100,
             learner={"kind": "logistic_gd", "params": {"output": "label"}},
             mode="monte_carlo", bounds=["fcmi_m1"], master_seed=5), []),
    "exact_threshold_erm_n10": (
        dict(data=THRESHOLD_DATA, n=10, k1=2, k2=1, learner=THRESHOLD_ERM,
             mode="exact_enumeration",
             bounds=["fcmi_m1", "fcmi_mn", "cmi_weights", "fcmi_stability"], master_seed=6),
        ["--dump-tables"]),
    "exact_knn3_n10": (
        dict(data=GAUSS, n=10, k1=2, k2=1, learner=KNN3, mode="exact_enumeration",
             bounds=["fcmi_m1", "fcmi_stability_squared"], master_seed=7), []),
    "exact_ensemble_n8_seeds2": (
        dict(data=THRESHOLD_DATA, n=8, k1=2, k2=1,
             learner={"kind": "ensemble", "params": {"members": [
                 THRESHOLD_ERM, {"kind": "knn", "params": {"k": 1}}, KNN3]}},
             mode="exact_enumeration", bounds=["fcmi_m1", "ensemble_mn"], exact_seeds=2,
             master_seed=8), []),
    # C(4, 2) = 6 subsets over an enumerate_limit of 5: a sampled family of 4
    "mc_threshold_erm_n4_squared_vc_sampled_subsets": (
        dict(data=THRESHOLD_DATA, n=4, k1=2, k2=50, learner=THRESHOLD_ERM,
             mode="monte_carlo", bounds=["fcmi_squared", "vc", "fcmi_subset_m"],
             subset_policy={"m": 2, "enumerate_limit": 5, "sample_count": 4},
             master_seed=21), []),
}


@pytest.fixture(scope="module")
def example_runs(tmp_path_factory):
    """Each ``EXAMPLE_RUNS`` config run once through ``main``: its exit code
    and output directory."""
    root = tmp_path_factory.mktemp("examples")
    pool = root / "pool.csv"
    xs = np.random.default_rng(0).standard_normal((40, 2))
    pool.write_text("x_0,x_1,y\n" + "".join(f"{a:.6f},{b:.6f},{int(a > 0)}\n" for a, b in xs),
                    encoding="utf-8")
    runs = {}
    for name, (config, flags) in EXAMPLE_RUNS.items():
        if config["data"]["kind"] == "csv":
            config = dict(config, data={"kind": "csv", "params": {"path": str(pool)}})
        path = root / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        runs[name] = main(["run", str(path), "-o", str(root / name), *flags]), root / name
    return runs


class TestExampleRuns:
    @pytest.mark.parametrize("name", sorted(EXAMPLE_RUNS))
    def test_runs(self, example_runs, name):
        code, out = example_runs[name]
        assert code == 0
        assert (out / "report.json").is_file() and (out / "curves.csv").is_file()

    def test_one_svg_per_bound(self, example_runs, tmp_path):
        """The example reports together request every bound: ``fcmi report
        --svg`` draws one SVG for each."""
        reports = [str(out / "report.json") for _, out in example_runs.values()]
        svg = tmp_path / "svg"
        assert main(["report", *reports, "--csv", str(tmp_path / "curves.csv"),
                     "--svg", str(svg)]) == 0
        assert sorted(p.stem for p in svg.glob("*.svg")) == sorted(fcmi.harness.BOUNDS)

    def test_sampled_subset_family(self, example_runs):
        _, out = example_runs["mc_threshold_erm_n4_squared_vc_sampled_subsets"]
        meta = json.loads((out / "report.json").read_text(encoding="utf-8"))["estimator_meta"]
        assert (meta["subset_policy"], meta["subset_count"]) == ("sampled", 4)
