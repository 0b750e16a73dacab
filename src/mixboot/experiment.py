"""Experiment orchestration: train, estimate, analyze, write reports.

All emitted files are deterministic functions of the config: floats are
serialized with repr, JSON keys are sorted, and no timestamps or absolute
paths appear, so re-running a config reproduces every file byte for byte.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import (
    ReferralPoint,
    ThresholdPoint,
    distance_perception_summary,
    distance_records,
    referral_curve,
    threshold_curve,
)
from .augment import PerturbationPolicy
from .config import (REPORT_FORMATS, ExperimentConfig, canonical_text, config_hash,
                     parse_config)
from .data import Dataset
from .errors import InvalidInputError, MixbootError, UndefinedMetricError
from .estimators import (
    EstimatorOutput,
    ensemble_predict,
    mc_dropout_predict,
    tta_predict,
)
from .jobs import run_jobs
from .prob_metrics import (
    PredictionBatch,
    ReliabilityBins,
    accuracy,
    brier_score,
    expected_calibration_error,
    negative_log_likelihood_binary,
    roc_auc,
)
from .mlp import MlpModel, save_model
from .trainer import TrainConfig, TrainLog, dataset_from_config, train
from .version import __version__

OUTPUT_ROOT_ENV = "MIXBOOT_OUTPUT_ROOT"
_MC_RNG_KEY = 201
_TTA_RNG_KEY = 202

# axis -> (the config key it varies, then any override every member gets)
SWEEP_AXES = {
    "alphas": ("alpha",),
    "noise_rates": ("noise_rate",),
    "methods": ("method",),
    "tta_repeats": ("estimator.repeats", "estimator.kind = tta"),
    "ensemble_sizes": ("estimator.ensemble_size", "estimator.kind = ensemble"),
}
METRICS_CSV_COLUMNS = (
    "method", "noise_rate", "estimator", "roc_auc", "ece", "brier",
    "nll", "accuracy", "seed",
)


@dataclass(frozen=True)
class MetricsReport:
    """One experiment's headline metrics plus provenance."""

    method: str
    noise_rate: float
    estimator: str
    roc_auc: float | None  # None when the split holds one class
    ece: float
    brier: float
    nll: float
    accuracy: float
    seed: int
    config_hash: str
    version: str

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "brier": self.brier,
            "ece": self.ece,
            "nll": self.nll,
            "roc_auc": self.roc_auc,
            "provenance": {
                "config_hash": self.config_hash,
                "estimator": self.estimator,
                "method": self.method,
                "noise_rate": self.noise_rate,
                "seed": self.seed,
                "version": self.version,
            },
        }

    def row(self) -> tuple:
        """The metrics.csv data row, in METRICS_CSV_COLUMNS order."""
        return tuple(getattr(self, c) for c in METRICS_CSV_COLUMNS)


def resolve_output_dir(config: ExperimentConfig) -> Path:
    """Relative output dirs are rooted at $MIXBOOT_OUTPUT_ROOT (default cwd)."""
    out = Path(config.output_dir)
    if out.is_absolute():
        return out
    return Path(os.environ.get(OUTPUT_ROOT_ENV, ".")) / out


def _training_jobs(config: ExperimentConfig) -> tuple[Dataset, list[tuple[TrainConfig, Dataset]]]:
    """The dataset and one training job per model: a single model, or
    ensemble_size members differing only by seed."""
    dataset = dataset_from_config(config.train)
    n_models = config.estimator.ensemble_size if config.estimator.kind == "ensemble" else 1
    return dataset, [(replace(config.train, seed=config.train.seed + m), dataset)
                     for m in range(n_models)]


def _train_all(jobs: list[tuple[TrainConfig, Dataset]]) -> list:
    """Train every ``(TrainConfig, Dataset)`` job through ``run_jobs``; in
    job order, its ``(model, log)`` or the exception it raised.  Training
    is a pure function of the job, so forked workers return a serial
    run's models bit for bit."""
    return list(run_jobs(lambda job: train(*job), jobs))


def _models_and_logs(results: list) -> tuple[list[MlpModel], list[TrainLog]]:
    """Split one run's ``_train_all`` results; the first exception is raised."""
    for result in results:
        if isinstance(result, Exception):
            raise result
    return [model for model, _ in results], [log for _, log in results]


def train_models(config: ExperimentConfig) -> tuple[Dataset, list[MlpModel], list[TrainLog]]:
    """Train one model, or ensemble_size members differing only by seed."""
    dataset, jobs = _training_jobs(config)
    return (dataset, *_models_and_logs(_train_all(jobs)))


def estimate(config: ExperimentConfig, models: list[MlpModel],
             inputs: np.ndarray) -> EstimatorOutput:
    kind = config.estimator.kind
    seed = config.train.seed
    if kind in ("single", "ensemble"):
        return ensemble_predict(models, inputs)
    if kind == "mc_dropout":
        return mc_dropout_predict(models[0], inputs, config.estimator.passes,
                                  [seed, _MC_RNG_KEY], config.estimator.tau_inv)
    if kind == "tta":
        policy = PerturbationPolicy(config.estimator.policy_noise_sigma,
                                    config.estimator.policy_scale_jitter)
        return tta_predict(models[0], inputs, policy, config.estimator.repeats,
                           [seed, _TTA_RNG_KEY])
    raise InvalidInputError(f"unknown estimator kind {kind!r}")


def compute_report(config: ExperimentConfig, batch: PredictionBatch
                   ) -> tuple[MetricsReport, ReliabilityBins]:
    ece, bins = expected_calibration_error(batch, config.analysis.bin_width)
    # a one-class split leaves the AUC undefined, not the run (as in referral_curve)
    has_both = len(np.unique(batch.labels)) > 1
    report = MetricsReport(
        method=config.train.method,
        noise_rate=config.train.noise_rate,
        estimator=config.estimator.kind,
        roc_auc=roc_auc(batch.probs[:, 1], batch.labels) if has_both else None,
        ece=ece,
        brier=brier_score(batch),
        nll=negative_log_likelihood_binary(batch),
        accuracy=accuracy(batch),
        seed=config.train.seed,
        config_hash=config_hash(config),
        version=__version__,
    )
    return report, bins


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _cell(value) -> str:
    """One table cell: floats as repr, None (an undefined value) as nan,
    bools and integers as digits, strings unchanged."""
    if value is None:
        return "nan"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return value


def _table(header, rows, provenance: tuple[str, int, str] | None = None) -> str:
    """Text of one artifact table: ``# config_hash=``, ``# seed=`` and
    ``# version=`` lines from ``provenance`` when given, the CSV header,
    then one line of ``_cell`` values per row."""
    lines = [] if provenance is None else [
        f"# {key}={value}"
        for key, value in zip(("config_hash", "seed", "version"), provenance)
    ]
    lines.append(",".join(header))
    lines.extend(",".join(map(_cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


def metrics_json(report: MetricsReport) -> str:
    """Text of metrics.json for ``report``."""
    return _json_text(report.to_dict())


def metrics_csv(report: MetricsReport) -> str:
    """Text of metrics.csv for ``report``."""
    return _table(METRICS_CSV_COLUMNS, [report.row()],
                  (report.config_hash, report.seed, report.version))


def read_predictions(path) -> PredictionBatch:
    """Rebuild the exact PredictionBatch persisted by run_experiment; a
    malformed file raises ``InvalidInputError`` naming it."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None
    if data.shape[1] < 3 or (data[:, 1] != np.round(data[:, 1])).any():
        raise InvalidInputError(f"{path}: rows must hold a sample index, an "
                                "integer label and class probabilities")
    return PredictionBatch(data[:, 2:], data[:, 1])


def _safe_distance_summary(distances: np.ndarray, uncertainties: np.ndarray) -> dict:
    # degenerate geometry (constant distances) leaves the correlation undefined
    try:
        return distance_perception_summary(distances, uncertainties)
    except UndefinedMetricError as exc:
        return {"n": len(distances), "degenerate": str(exc)}


def _remove_stale_artifacts(out: Path, config: ExperimentConfig, n_models: int) -> None:
    """Delete what an earlier run left in ``out`` that this run won't rewrite."""
    for fmt in REPORT_FORMATS:
        if fmt not in config.formats:
            (out / f"metrics.{fmt}").unlink(missing_ok=True)
    for path in (out / "models").glob("model_*.txt"):
        index = path.stem[len("model_"):]
        if index.isdigit() and int(index) >= n_models:
            path.unlink()


def run_experiment(config: ExperimentConfig) -> tuple[MetricsReport, Path]:
    """Train, evaluate on the validation split, and write all artifacts."""
    return _evaluate_and_write(config, *train_models(config))


def _evaluate_and_write(config: ExperimentConfig, dataset: Dataset, models: list[MlpModel],
                        logs: list[TrainLog]) -> tuple[MetricsReport, Path]:
    """Everything a run does after training: estimate, analyse, write."""
    out = resolve_output_dir(config)
    output = estimate(config, models, dataset.val_inputs)
    batch = PredictionBatch(output.mean_probs, dataset.val_labels)
    report, bins = compute_report(config, batch)

    correctness = batch.correctness()
    scores = batch.probs[:, 1]
    curve = referral_curve(output.uncertainty, correctness, scores,
                           config.analysis.fractions, labels=batch.labels)
    thresholds = threshold_curve(output.uncertainty, correctness,
                                 config.analysis.thresholds)
    bank = models[0].features(dataset.train_inputs)
    queries = models[0].features(dataset.val_inputs)
    distances = distance_records(queries, bank, output.uncertainty, correctness)
    summary = _safe_distance_summary(distances, output.uncertainty)
    provenance = (report.config_hash, report.seed, report.version)

    _remove_stale_artifacts(out, config, len(models))
    _write(out / "config.txt", canonical_text(config))
    if "json" in config.formats:
        _write(out / "metrics.json", metrics_json(report))
    if "csv" in config.formats:
        _write(out / "metrics.csv", metrics_csv(report))
    _write(out / "reliability_bins.csv", _table(
        ("bin_lo", "bin_hi", "count", "conf_mean", "acc", "gap"),
        zip(bins.edges[:-1], bins.edges[1:], bins.counts, bins.conf_mean,
            bins.acc, bins.gaps()),
        provenance))
    _write(out / "referral_curve.csv", _table(ReferralPoint._fields, curve, provenance))
    _write(out / "threshold_curve.csv",
           _table(ThresholdPoint._fields, thresholds, provenance))
    _write(out / "distance_records.csv", _table(
        ("sample_index", "min_cosine_distance", "uncertainty", "correct"),
        zip(range(batch.n), distances.tolist(), output.uncertainty.tolist(),
            correctness.astype(bool).tolist()),
        provenance))
    _write(out / "distance_summary.json", _json_text(summary))
    _write(out / "train_log.json",
           _json_text({"models": [log.to_dict() for log in logs]}))
    _write(out / "predictions.csv", _table(
        ("sample_index", "label", *(f"prob_{j}" for j in range(batch.k))),
        zip(range(batch.n), batch.labels.tolist(), *batch.probs.T.tolist())))
    models_dir = out / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    for m, model in enumerate(models):
        save_model(model, models_dir / f"model_{m}.txt")
    return report, out


def _sweep_member_config(base: ExperimentConfig, axis: str, value,
                         ordinal: int) -> ExperimentConfig:
    """``base`` overridden like ``--set``: the axis key set to ``value``, the
    seed offset by ``ordinal`` and the output in ``member_<ordinal>/``."""
    key, *forced = SWEEP_AXES[axis]
    member_dir = Path(base.output_dir) / f"member_{ordinal}"
    return parse_config(canonical_text(base), [
        *forced,
        f"{key} = {value}",
        f"seed = {base.train.seed + ordinal}",
        f"output.dir = {member_dir}",
    ])


def run_sweep(base: ExperimentConfig, axis: str, values: list) -> tuple[str, Path]:
    """One experiment per axis value; consolidated CSV ordered as given.

    Every member's trainings go to one ``_train_all`` call, so they share
    the workers; each member is then estimated and written in order.  A
    member failing with a mixboot error or an OSError (its first, in
    config, training, then evaluation order) becomes a status=error row,
    whose status field is ``error: <Type>: <message>``, instead of
    aborting; any other exception propagates.  Member directories an
    earlier, longer sweep left behind are deleted.
    """
    if axis not in SWEEP_AXES:
        raise InvalidInputError(f"unknown sweep axis {axis!r}; "
                                f"expected one of {tuple(SWEEP_AXES)}")
    if not values:
        raise InvalidInputError("sweep needs at least one value")
    out = resolve_output_dir(base)
    members, jobs = [], []  # per member: its config error, or what it trains
    for ordinal, value in enumerate(values):
        try:
            member = _sweep_member_config(base, axis, value, ordinal)
            dataset, member_jobs = _training_jobs(member)
        except (MixbootError, OSError) as exc:
            members.append(exc)
            continue
        members.append((member, dataset, slice(len(jobs), len(jobs) + len(member_jobs))))
        jobs.extend(member_jobs)
    results = _train_all(jobs)
    rows = []
    for value, member in zip(values, members):
        try:
            if isinstance(member, Exception):
                raise member
            config, dataset, span = member
            report, _ = _evaluate_and_write(config, dataset,
                                            *_models_and_logs(results[span]))
            rows.append((axis, value, "ok", *report.row()))
        except (MixbootError, OSError) as exc:  # member failure must not kill the sweep
            # one quoted field on one line: the message may hold commas
            message = " ".join(str(exc).split()).replace('"', '""')
            rows.append((axis, value, f'"error: {type(exc).__name__}: {message}"',
                         *[""] * len(METRICS_CSV_COLUMNS)))
    for path in out.glob("member_*"):
        index = path.name[len("member_"):]
        if index.isdigit() and int(index) >= len(values) and path.is_dir():
            shutil.rmtree(path)
    text = _table(("axis", "value", "status", *METRICS_CSV_COLUMNS), rows,
                  (config_hash(base), base.train.seed, __version__))
    _write(out / "sweep.csv", text)
    return text, out
