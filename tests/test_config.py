"""Config parsing, canonical serialization and hashing."""

import math

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from mixboot.augment import MAX_SCALE_JITTER
from mixboot.config import (
    ESTIMATOR_KINDS,
    REPORT_FORMATS,
    AnalysisConfig,
    EstimatorConfig,
    ExperimentConfig,
    canonical_text,
    config_hash,
    config_to_pairs,
    load_config,
    parse_config,
)
from mixboot.data import GENERATORS
from mixboot.errors import ConfigError
from mixboot.trainer import METHODS, TrainConfig

MINIMAL = "method = ce\n"


def floats(lo=None, hi=None, **kwargs):
    # NaN is left out: a NaN field makes a config unequal to itself
    return st.floats(lo, hi, allow_nan=False, **kwargs)


@st.composite
def experiment_configs(draw):
    """Any config the section constructors accept.

    Each field draws from its whole valid range (infinities included where
    the checks allow them); output.dir is any text, and the few draws that
    ExperimentConfig rejects are discarded.
    """
    positive, nonneg = floats(0.0, exclude_min=True), floats(0.0)
    sigma, jitter = floats(0.0, allow_infinity=False), floats(0.0, MAX_SCALE_JITTER)
    method = draw(st.sampled_from(METHODS))
    n_train = draw(st.integers(10 if method == "bsm" else 2))
    train = TrainConfig(
        method=method,
        alpha=draw(positive),
        noise_rate=draw(floats(0.0, 1.0)),
        learning_rate=draw(positive),
        lr_decay=draw(floats(0.0, 1.0, exclude_min=True)),
        weight_decay=draw(nonneg),
        batch_size=draw(st.integers(1)),
        max_epochs=draw(st.integers(1)),
        patience=draw(st.integers(1)),
        warmup_epochs=draw(st.integers(0)),
        seed=draw(st.integers(0)),
        generator=draw(st.sampled_from(GENERATORS)),
        n_train=n_train,
        n_val=2 * draw(st.integers(1)) + n_train % 2,  # an even total
        generator_noise=draw(nonneg),
        hidden_1=draw(st.integers(1)),
        hidden_2=draw(st.integers(1)),
        dropout=draw(floats(0.0, 1.0, exclude_max=True)),
        soft_bootstrap=draw(st.booleans()),
        aug_noise_sigma=draw(sigma),
        aug_scale_jitter=draw(jitter),
    )
    estimator = EstimatorConfig(
        kind=draw(st.sampled_from(ESTIMATOR_KINDS)),
        ensemble_size=draw(st.integers(1)),
        passes=draw(st.integers(1)),
        repeats=draw(st.integers(0)),
        tau_inv=draw(nonneg),
        policy_noise_sigma=draw(sigma),
        policy_scale_jitter=draw(jitter),
    )
    analysis = AnalysisConfig(
        bin_width=draw(floats(0.0, 1.0, exclude_min=True)),
        fractions=tuple(draw(st.lists(floats(0.0, 1.0, exclude_max=True), min_size=1))),
        thresholds=tuple(draw(st.lists(floats(), min_size=1))),
    )
    formats = tuple(draw(st.lists(st.sampled_from(REPORT_FORMATS), min_size=1)))
    try:
        return ExperimentConfig(train, estimator, analysis, draw(st.text()), formats)
    except ConfigError:
        reject()


class TestParsePairs:
    """The `key = value` line syntax, read through parse_config."""

    def test_comments_and_blanks_skipped(self):
        config = parse_config("# header\n\nmethod = bsm\n  # trailing\nseed = 3\n")
        assert config.train.method == "bsm"
        assert config.train.seed == 3

    def test_later_duplicate_wins(self):
        config = parse_config(MINIMAL + "seed = 1\nseed = 2\n")
        assert config.train.seed == 2

    def test_value_may_contain_equals(self):
        config = parse_config(MINIMAL + "output.dir = a=b\n")
        assert config.output_dir == "a=b"

    def test_malformed_line_named(self):
        with pytest.raises(ConfigError, match="^line 2: expected `key = value`"):
            parse_config("method = ce\nbogus line\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="^line 2: empty key$"):
            parse_config(MINIMAL + "= 3\n")


class TestParseConfig:
    def test_minimal_uses_defaults(self):
        config = parse_config(MINIMAL)
        assert config.train.method == "ce"
        assert config.train.seed == 0
        assert config.estimator.kind == "single"
        assert config.analysis.bin_width == 0.1
        assert config.output_dir == "run"
        assert config.formats == ("csv", "json")

    def test_missing_method_named(self):
        with pytest.raises(ConfigError, match="method"):
            parse_config("seed = 1\n")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="momentum"):
            parse_config(MINIMAL + "momentum = 0.9\n")

    def test_unknown_key_names_its_line(self):
        with pytest.raises(ConfigError, match="line 3: unknown config key 'momentum'"):
            parse_config(MINIMAL + "seed = 1\nmomentum = 0.9\n")

    def test_unknown_key_in_override_named_as_override(self):
        with pytest.raises(ConfigError, match="override 'momentum = 0.9'") as exc:
            parse_config(MINIMAL, overrides=["momentum = 0.9"])
        assert "line" not in str(exc.value)

    def test_malformed_override_named_as_override(self):
        with pytest.raises(
            ConfigError, match="^override 'seed 3': expected `key = value`, got 'seed 3'$"
        ):
            parse_config(MINIMAL, overrides=["seed 3"])

    def test_typed_fields(self):
        config = parse_config(
            MINIMAL
            + "alpha = 0.35\nseed = 7\nsoft_bootstrap = true\n"
            + "estimator.kind = tta\nestimator.repeats = 3\n"
            + "estimator.policy.noise_sigma = 0.05\n"
            + "analysis.fractions = 0.0, 0.25\n"
            + "output.formats = json\noutput.dir = out/here\n"
        )
        assert config.train.alpha == 0.35
        assert config.train.seed == 7
        assert config.train.soft_bootstrap is True
        assert config.estimator.kind == "tta"
        assert config.estimator.repeats == 3
        assert config.estimator.policy_noise_sigma == 0.05
        assert config.analysis.fractions == (0.0, 0.25)
        assert config.formats == ("json",)
        assert config.output_dir == "out/here"

    def test_type_errors_name_the_key(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config(MINIMAL + "seed = many\n")
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(MINIMAL + "alpha = fast\n")
        with pytest.raises(ConfigError, match="soft_bootstrap"):
            parse_config(MINIMAL + "soft_bootstrap = maybe\n")

    def test_overrides_win(self):
        config = parse_config(MINIMAL + "seed = 1\n", overrides=["seed = 9"])
        assert config.train.seed == 9

    def test_override_cannot_drop_method(self):
        config = parse_config(MINIMAL, overrides=["method = bsm"])
        assert config.train.method == "bsm"

    def test_domain_validation_propagates(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "estimator.kind = oracle\n")
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "analysis.bin_width = 0\n")
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "output.formats = yaml\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text(MINIMAL + "noise_rate = 0.2\n")
        config = load_config(path)
        assert config.train.noise_rate == 0.2


class TestSerialization:
    def test_round_trip_identity(self):
        config = parse_config(
            MINIMAL + "alpha = 0.35\nestimator.kind = ensemble\n"
            "analysis.thresholds = 0.1,0.5\noutput.formats = csv\n"
        )
        assert parse_config(canonical_text(config)) == config

    def test_all_keys_materialized(self):
        pairs = config_to_pairs(parse_config(MINIMAL))
        assert "learning_rate" in pairs
        assert "estimator.policy.noise_sigma" in pairs
        assert "output.dir" in pairs
        assert pairs["soft_bootstrap"] == "false"

    def test_canonical_text_sorted(self):
        lines = canonical_text(parse_config(MINIMAL)).splitlines()
        keys = [line.split(" = ")[0] for line in lines]
        assert keys == sorted(keys)

    @settings(deadline=None)
    @given(experiment_configs())
    def test_canonical_text_round_trips(self, config):
        assert parse_config(canonical_text(config)) == config

    def test_float_repr_survives(self):
        config = parse_config(MINIMAL + "alpha = 0.30000000000000004\n")
        again = parse_config(canonical_text(config))
        assert again.train.alpha == config.train.alpha


class TestConfigHash:
    def test_stable_across_formatting(self):
        a = parse_config("method = ce\nseed = 5\n")
        b = parse_config("# comment\nseed = 5\n\nmethod = ce\n")
        assert config_hash(a) == config_hash(b)

    def test_sensitive_to_values(self):
        a = parse_config(MINIMAL + "seed = 5\n")
        b = parse_config(MINIMAL + "seed = 6\n")
        assert config_hash(a) != config_hash(b)

    def test_shape(self):
        h = config_hash(parse_config(MINIMAL))
        assert len(h) == 12
        int(h, 16)  # hex digest prefix


class TestSectionValidation:
    def test_estimator_bounds(self):
        with pytest.raises(ConfigError):
            EstimatorConfig(ensemble_size=0)
        with pytest.raises(ConfigError):
            EstimatorConfig(passes=0)
        with pytest.raises(ConfigError):
            EstimatorConfig(repeats=-1)
        with pytest.raises(ConfigError):
            EstimatorConfig(tau_inv=-0.1)

    def test_scale_jitter_bound_is_the_largest_drawable(self):
        # rng.uniform(-j, j) draws up to MAX_SCALE_JITTER and overflows past it
        EstimatorConfig(policy_scale_jitter=MAX_SCALE_JITTER)
        TrainConfig(aug_scale_jitter=MAX_SCALE_JITTER)
        past = math.nextafter(MAX_SCALE_JITTER, math.inf)
        with pytest.raises(ConfigError, match="estimator.policy.scale_jitter must"):
            EstimatorConfig(policy_scale_jitter=past)
        with pytest.raises(ConfigError, match="aug_scale_jitter must"):
            TrainConfig(aug_scale_jitter=past)

    def test_analysis_bounds(self):
        with pytest.raises(ConfigError):
            AnalysisConfig(fractions=())

    @pytest.mark.filterwarnings("error")
    def test_nan_threshold_rejected(self):
        # a NaN threshold would add a nan,nan,0 row to threshold_curve.csv
        with pytest.raises(ConfigError, match="analysis.thresholds"):
            parse_config(MINIMAL + "analysis.thresholds = nan,0.2\n")

    def test_formats_bounds(self):
        base = parse_config(MINIMAL)
        with pytest.raises(ConfigError):
            ExperimentConfig(base.train, base.estimator, base.analysis, formats=())

    @pytest.mark.parametrize("out", [" run", "run\t", "a\nb", "a\rb", "a\x1cb"])
    def test_output_dir_must_fit_one_config_line(self, out):
        # config.txt could not give such a directory back
        base = parse_config(MINIMAL)
        with pytest.raises(ConfigError, match="output.dir"):
            ExperimentConfig(base.train, base.estimator, base.analysis, output_dir=out)
