import numpy as np
import pytest

from fcmi.core import ConfigError
from fcmi.datagen import GeneratorSpec, sample_examples, sample_supersample
from oracles import threshold_erm_fit


class TestThresholdRealizable:
    def test_noise_free_labels_match_rule(self):
        gen = GeneratorSpec("threshold_realizable", {"threshold": 0.5, "noise": 0.0})
        xs, ys = sample_examples(gen, 500, seed=0)
        assert np.array_equal(ys, (xs[:, 0] > 0.5).astype(int))

    def test_erm_realizability(self):
        gen = GeneratorSpec("threshold_realizable", {"threshold": 0.3})
        for seed in range(20):
            xs, ys = sample_examples(gen, 12, seed=seed)
            w = threshold_erm_fit(xs, ys)
            assert np.array_equal((xs[:, 0] > w).astype(int), ys)

    def test_noise_rate_respected(self):
        gen = GeneratorSpec("threshold_realizable", {"threshold": 0.5, "noise": 0.2})
        xs, ys = sample_examples(gen, 20000, seed=1)
        flipped = np.mean(ys != (xs[:, 0] > 0.5).astype(int))
        assert flipped == pytest.approx(0.2, abs=0.02)


class TestUniformLabels:
    def test_label_marginal_near_half(self):
        gen = GeneratorSpec("uniform_labels", {"dim": 1})
        _, ys = sample_examples(gen, 10 ** 4, seed=2)
        marginal = np.mean(ys)
        # binomial concentration: 5 sigma at 1e4 draws is 0.025
        assert abs(marginal - 0.5) <= 0.05

    def test_labels_independent_of_features(self):
        gen = GeneratorSpec("uniform_labels", {"dim": 2})
        xs, ys = sample_examples(gen, 5000, seed=3)
        assert abs(np.corrcoef(xs[:, 0], ys.astype(float))[0, 1]) < 0.05


class TestTwoGaussians:
    def test_class_means_at_plus_minus_half_sep(self):
        gen = GeneratorSpec("two_gaussians", {"dim": 3, "sep": 4.0, "noise": 0.0})
        xs, ys = sample_examples(gen, 8000, seed=4)
        m1 = np.mean(xs[ys == 1, 0])
        m0 = np.mean(xs[ys == 0, 0])
        assert m1 == pytest.approx(2.0, abs=0.1)
        assert m0 == pytest.approx(-2.0, abs=0.1)
        off_axis = np.mean(xs[:, 1])
        assert off_axis == pytest.approx(0.0, abs=0.1)


class TestDeterminism:
    @pytest.mark.parametrize("kind,params", [
        ("two_gaussians", {"dim": 2, "sep": 1.0}),
        ("threshold_realizable", {"threshold": 0.4, "noise": 0.1}),
        ("uniform_labels", {"dim": 1}),
    ])
    def test_same_seed_same_supersample(self, kind, params):
        gen = GeneratorSpec(kind, params)
        a = sample_supersample(gen, 6, seed=7)
        b = sample_supersample(gen, 6, seed=7)
        assert np.array_equal(a.xs, b.xs)
        assert np.array_equal(a.ys, b.ys)

    def test_different_seeds_differ(self):
        gen = GeneratorSpec("uniform_labels", {"dim": 1})
        a = sample_supersample(gen, 6, seed=7)
        b = sample_supersample(gen, 6, seed=8)
        assert not np.array_equal(a.xs, b.xs)

    def test_pair_layout(self):
        gen = GeneratorSpec("uniform_labels", {"dim": 1})
        ss = sample_supersample(gen, 5, seed=9)
        assert ss.n == 5
        assert ss.xs.shape == (10, 1)
        # pair i is draws 2i and 2i + 1 of the same seed
        xs, ys = sample_examples(gen, 10, seed=9)
        assert np.array_equal(ss.xs, xs)
        assert np.array_equal(ss.ys, ys)

    @pytest.mark.parametrize("kind,params", [
        ("two_gaussians", {"dim": 3, "sep": 1.0}),
        ("threshold_realizable", {"threshold": 0.4}),
        ("uniform_labels", {"dim": 2}),
    ])
    def test_examples_are_arrays(self, kind, params):
        xs, ys = sample_examples(GeneratorSpec(kind, params), 7, seed=1)
        assert xs.dtype == np.float64 and xs.shape == (7, params.get("dim", 1))
        assert ys.dtype == np.int64 and ys.shape == (7,)

    def test_slot_exchangeability(self):
        # draws are i.i.d., so per-slot summary statistics agree across the
        # 2n slots up to sampling noise (10^4 draws per slot)
        gen = GeneratorSpec("two_gaussians", {"dim": 1, "sep": 1.0})
        n = 4
        draws = 10 ** 4
        slot_x = np.zeros((draws, 2 * n))
        slot_y = np.zeros((draws, 2 * n))
        for t in range(draws // 100):
            for a in range(100):
                ss = sample_supersample(gen, n, seed=t * 100 + a)
                slot_x[t * 100 + a] = ss.xs[:, 0]
                slot_y[t * 100 + a] = ss.ys
        x_means = slot_x.mean(axis=0)
        y_means = slot_y.mean(axis=0)
        assert np.ptp(x_means) < 0.1
        assert np.ptp(y_means) < 0.05


class TestValidation:
    def test_noise_range(self):
        for kind in ("two_gaussians", "threshold_realizable"):
            GeneratorSpec(kind, {"noise": 0.5})
            with pytest.raises(ConfigError, match="noise"):
                GeneratorSpec(kind, {"noise": 0.7})

    @pytest.mark.parametrize("kind, params", [
        ("uniform_labels", {"noise": 0.1}),
        ("two_gaussians", {"sepp": 4}),
        ("two_gaussians", {"dim": 2.0}),
        ("threshold_realizable", {"dim": 1}),
        ("threshold_realizable", {"threshold": "0.5"}),
    ])
    def test_refuses_undeclared_or_mistyped_params(self, kind, params):
        with pytest.raises(ConfigError):
            GeneratorSpec(kind, params)

    def test_defaults_fill_in_but_stay_out_of_the_echo(self):
        gen = GeneratorSpec("two_gaussians", {"sep": 3})
        assert (gen.param("dim"), gen.param("sep")) == (2, 3)
        assert gen.to_json_dict() == {"kind": "two_gaussians", "params": {"sep": 3}}

    def test_threshold_range(self):
        with pytest.raises(ConfigError):
            GeneratorSpec("threshold_realizable", {"threshold": 1.5})

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            GeneratorSpec("mnist", {})
