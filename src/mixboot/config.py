"""Flat key=value experiment configuration with dotted section names.

The format is line-oriented and diff-friendly: one `key = value` per
line, `#` comment lines, later duplicates win.  Canonical serialization
(sorted keys, repr floats) backs the config hash used for provenance.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

from .augment import MAX_SCALE_JITTER
from .errors import ConfigError
from .prob_metrics import MAX_BINS
from .trainer import TrainConfig

ESTIMATOR_KINDS = ("single", "ensemble", "mc_dropout", "tta")
REPORT_FORMATS = ("csv", "json")


@dataclass(frozen=True)
class EstimatorConfig:
    """Which uncertainty estimator to run and its knobs."""

    kind: str = "single"
    ensemble_size: int = 5
    passes: int = 20
    repeats: int = 8
    tau_inv: float = 0.0  # in config.txt and the config hash; nothing reads it
    policy_noise_sigma: float = 0.1
    policy_scale_jitter: float = 0.0

    def __post_init__(self):
        checks = [
            (self.kind in ESTIMATOR_KINDS,
             f"estimator.kind must be one of {ESTIMATOR_KINDS}"),
            (self.ensemble_size >= 1, "estimator.ensemble_size must be >= 1"),
            (self.passes >= 1, "estimator.passes must be >= 1"),
            (self.repeats >= 0, "estimator.repeats must be nonnegative"),
            (self.tau_inv >= 0.0, "estimator.tau_inv must be nonnegative"),
            (math.isfinite(self.policy_noise_sigma) and self.policy_noise_sigma >= 0.0,
             "estimator.policy.noise_sigma must be finite and nonnegative"),
            (0.0 <= self.policy_scale_jitter <= MAX_SCALE_JITTER,
             f"estimator.policy.scale_jitter must lie in [0, {MAX_SCALE_JITTER!r}]"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)


@dataclass(frozen=True)
class AnalysisConfig:
    bin_width: float = 0.1
    fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)
    thresholds: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)

    def __post_init__(self):
        if not 1.0 / MAX_BINS <= self.bin_width <= 1.0:
            raise ConfigError(f"analysis.bin_width must lie in [1/{MAX_BINS}, 1] "
                              f"(at most {MAX_BINS} reliability bins)")
        if len(self.fractions) == 0 or len(self.thresholds) == 0:
            raise ConfigError("analysis.fractions and analysis.thresholds must be nonempty")
        if not all(0.0 <= f < 1.0 for f in self.fractions):
            raise ConfigError("analysis.fractions must lie in [0, 1)")
        if any(t != t for t in self.thresholds):  # NaN is unequal to itself
            raise ConfigError("analysis.thresholds must not be nan")


@dataclass(frozen=True)
class ExperimentConfig:
    train: TrainConfig
    estimator: EstimatorConfig
    analysis: AnalysisConfig
    output_dir: str = "run"
    formats: tuple[str, ...] = ("csv", "json")

    def __post_init__(self):
        # config.txt stores output.dir as one stripped `key = value` line
        out = self.output_dir
        if out.strip() != out or len(out.splitlines()) > 1:
            raise ConfigError("output.dir must be one line without surrounding whitespace")
        if len(self.formats) == 0:
            raise ConfigError("output.formats must be nonempty")
        for f in self.formats:
            if f not in REPORT_FORMATS:
                raise ConfigError(f"output.formats entry {f!r} not in {REPORT_FORMATS}")


# (ExperimentConfig attribute, key prefix, dataclass) of each nested section;
# the "output" section's keys are fields of ExperimentConfig itself
_SECTIONS = (
    ("train", "", TrainConfig),
    ("estimator", "estimator.", EstimatorConfig),
    ("analysis", "analysis.", AnalysisConfig),
)


def _registry() -> dict[str, tuple[str, str, str]]:
    """Maps dotted config key -> (section, dataclass field, the field's
    annotation text, such as "float" or "tuple[str, ...]")."""
    reg = {}
    for section, prefix, cls in _SECTIONS:
        for f in fields(cls):
            name = f.name
            if name.startswith("policy_"):
                name = "policy." + name[len("policy_"):]
            reg[prefix + name] = (section, f.name, f.type)
    output = {f.name: f.type for f in fields(ExperimentConfig)}
    reg["output.dir"] = ("output", "output_dir", output["output_dir"])
    reg["output.formats"] = ("output", "formats", output["formats"])
    return reg


_REGISTRY = _registry()
_TRUE_WORDS = ("true", "1", "yes", "on")
_FALSE_WORDS = ("false", "0", "no", "off")


def _convert(key: str, raw: str, typ: str):
    if typ == "str":
        return raw
    if typ == "bool":
        low = raw.lower()
        if low in _TRUE_WORDS:
            return True
        if low in _FALSE_WORDS:
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if typ == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if typ == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if typ.startswith("tuple["):
        item = typ.removeprefix("tuple[").removesuffix(", ...]")
        parts = [p.strip() for p in raw.split(",") if p.strip() != ""]
        if not parts:
            raise ConfigError(f"{key}: expected a comma-separated list, got {raw!r}")
        return tuple(_convert(key, p, item) for p in parts)
    raise ConfigError(f"{key}: unsupported value type")


def parse_values(key: str, raw: str) -> tuple:
    """A comma-separated list of values, each typed as config key ``key``."""
    return _convert(key, raw, f"tuple[{_REGISTRY[key][2]}, ...]")


def _split_pair(line: str, origin: str) -> tuple[str, str] | None:
    """(key, raw value) of one `key = value` line, None for a blank or
    comment line; errors name ``origin``."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    if "=" not in stripped:
        raise ConfigError(f"{origin}: expected `key = value`, got {line!r}")
    key, _, value = stripped.partition("=")
    key, value = key.strip(), value.strip()
    if not key:
        raise ConfigError(f"{origin}: empty key")
    return key, value


def config_from_pairs(pairs: dict[str, str], origins: dict[str, str]) -> ExperimentConfig:
    """Typed config from raw pairs; ``origins[key]`` says where key was set."""
    if "method" not in pairs:
        raise ConfigError("missing required key 'method'")
    sections: dict[str, dict] = {section: {} for section, _, _ in _SECTIONS}
    sections["output"] = {}
    for key, raw in pairs.items():
        if key not in _REGISTRY:
            raise ConfigError(f"{origins[key]}: unknown config key {key!r}")
        section, field_name, typ = _REGISTRY[key]
        sections[section][field_name] = _convert(key, raw, typ)
    return ExperimentConfig(
        **{section: cls(**sections[section]) for section, _, cls in _SECTIONS},
        **sections["output"],
    )


def parse_config(text: str, overrides: list[str] | None = None) -> ExperimentConfig:
    """Parse config text plus optional `key=value` override strings.

    Each override is one `key = value` item.  Errors name where the bad
    text came from: a line of ``text`` (for an unknown key, the line of its
    last occurrence) or the override item.
    """
    items = [(line, f"line {lineno}")
             for lineno, line in enumerate(text.splitlines(), start=1)]
    items += [(item, f"override {item!r}") for item in overrides or []]
    pairs, origins = {}, {}
    for line, origin in items:
        pair = _split_pair(line, origin)
        if pair is not None:
            key, value = pair
            pairs[key], origins[key] = value, origin
    return config_from_pairs(pairs, origins)


def load_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    """Parse the UTF-8 config file at ``path`` plus ``overrides``.  Without
    overrides every error comes from the file, and names ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config(fh.read(), overrides)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except ConfigError as exc:
        raise exc if overrides else ConfigError(f"{path}: {exc}") from None


def _serialize_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_serialize_value(v) for v in value)
    return str(value)


def config_to_pairs(config: ExperimentConfig) -> dict[str, str]:
    """Every key materialized (defaults included), canonical value strings."""
    out = {}
    for key, (section, field_name, _) in _REGISTRY.items():
        owner = config if section == "output" else getattr(config, section)
        out[key] = _serialize_value(getattr(owner, field_name))
    return out


def canonical_text(config: ExperimentConfig) -> str:
    pairs = config_to_pairs(config)
    return "".join(f"{k} = {pairs[k]}\n" for k in sorted(pairs))


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_text(config).encode()).hexdigest()[:12]
