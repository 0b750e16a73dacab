"""Experiment orchestration: train, estimate, analyze, write reports.

All emitted files are deterministic functions of the config: floats are
serialized with repr, JSON keys are sorted, and no timestamps or absolute
paths appear, so re-running a config reproduces every file byte for byte.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
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
from .config import ExperimentConfig, canonical_text, config_hash, parse_config
from .data import Dataset
from .errors import InvalidInputError, MixbootError, UndefinedMetricError
from .estimators import (
    EstimatorOutput,
    ensemble_predict,
    mc_dropout_predict,
    tta_predict,
)
from .jobs import one_blas_thread, run_jobs
from .prob_metrics import (
    PredictionBatch,
    ReliabilityBins,
    accuracy,
    brier_score,
    expected_calibration_error,
    negative_log_likelihood_binary,
    predictive_entropy,
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

    @property
    def provenance(self) -> tuple[str, int, str]:
        """The ``# config_hash``, ``# seed`` and ``# version`` of its run's tables."""
        return self.config_hash, self.seed, self.version


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
    try:
        auc = roc_auc(batch.probs[:, 1], batch.labels)
    except UndefinedMetricError:  # a one-class split: no AUC, still a run
        auc = None
    report = MetricsReport(
        method=config.train.method,
        noise_rate=config.train.noise_rate,
        estimator=config.estimator.kind,
        roc_auc=auc,
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


def _column_cells(column) -> map:
    """The ``_cell`` text of every value in one column (an array's values
    are taken as Python scalars).  A column of Python floats only, or of
    ints and bools only, takes its type's repr directly: the same text."""
    values = column.tolist() if isinstance(column, np.ndarray) else list(column)
    types = set(map(type, values))
    if types <= {float}:
        return map(float.__repr__, values)
    if types <= {int, bool}:
        return map(int.__repr__, values)
    return map(_cell, values)


def _table(header, columns, provenance: tuple[str, int, str] | None = None) -> str:
    """Text of one artifact table: ``# config_hash=``, ``# seed=`` and
    ``# version=`` lines from ``provenance`` when given, the CSV header,
    then one line of ``_cell`` values per row.  ``columns`` holds one
    sequence per header field, all of one length."""
    lines = [] if provenance is None else [
        f"# {key}={value}"
        for key, value in zip(("config_hash", "seed", "version"), provenance)
    ]
    lines.append(",".join(header))
    lines.extend(map(",".join, zip(*map(_column_cells, columns))))
    return "\n".join(lines) + "\n"


def render_artifacts(config: ExperimentConfig, batch: PredictionBatch,
                     report: MetricsReport, bins: ReliabilityBins,
                     distances: np.ndarray) -> dict[str, str]:
    """Text of every artifact that follows from the config, the validation
    predictions, their ``compute_report`` result and the min cosine
    distances, by file name: config.txt, the metrics files
    ``config.formats`` names, reliability_bins.csv, referral_curve.csv,
    threshold_curve.csv and distance_summary.json.

    The uncertainty is the predictive entropy of ``batch.probs``, the
    column distance_records.csv stores.  A run writes these texts and
    ``report`` renders them again from the stored predictions.csv and
    distance column to compare bytes.
    """
    uncertainty = predictive_entropy(batch.probs)
    correctness = batch.correctness()
    curve = referral_curve(uncertainty, correctness, batch.probs[:, 1],
                           config.analysis.fractions, labels=batch.labels)
    thresholds = threshold_curve(uncertainty, correctness, config.analysis.thresholds)
    texts = {"config.txt": canonical_text(config)}
    if "json" in config.formats:
        texts["metrics.json"] = _json_text(report.to_dict())
    if "csv" in config.formats:
        texts["metrics.csv"] = _table(METRICS_CSV_COLUMNS,
                                      [[cell] for cell in report.row()],
                                      report.provenance)
    texts["reliability_bins.csv"] = _table(
        ("bin_lo", "bin_hi", "count", "conf_mean", "acc", "gap"),
        (bins.edges[:-1], bins.edges[1:], bins.counts, bins.conf_mean,
         bins.acc, bins.gaps()),
        report.provenance)
    texts["referral_curve.csv"] = _table(ReferralPoint._fields, zip(*curve),
                                         report.provenance)
    texts["threshold_curve.csv"] = _table(ThresholdPoint._fields, zip(*thresholds),
                                          report.provenance)
    texts["distance_summary.json"] = _json_text(
        distance_perception_summary(distances, uncertainty))
    return texts


def _load_rows(path, skiprows: int, **kwargs) -> np.ndarray:
    """``np.loadtxt`` of the comma-separated rows after the first
    ``skiprows`` lines; a missing, empty or malformed file raises
    ``InvalidInputError`` naming it."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("error", "loadtxt: input contained no data")
            return np.loadtxt(path, delimiter=",", skiprows=skiprows, **kwargs)
    except FileNotFoundError:
        raise InvalidInputError(f"{path}: no such file") from None
    except UserWarning:
        raise InvalidInputError(f"{path}: no data rows") from None
    except ValueError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


def read_predictions(path) -> PredictionBatch:
    """Rebuild the exact PredictionBatch persisted by run_experiment; a
    malformed file raises ``InvalidInputError`` naming it."""
    data = _load_rows(path, 1, ndmin=2)
    if data.shape[1] < 3:
        raise InvalidInputError(f"{path}: rows must hold a sample index, a "
                                "label and class probabilities")
    try:
        return PredictionBatch(data[:, 2:], data[:, 1])
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from None


def read_distances(path, n: int) -> np.ndarray:
    """The exact min_cosine_distance column of a run's distance_records.csv,
    which must hold ``n`` rows; a malformed file raises
    ``InvalidInputError`` naming it."""
    # three provenance lines, then the header
    distances = _load_rows(path, 4, usecols=1, ndmin=1)
    if len(distances) != n:
        raise InvalidInputError(f"{path}: {len(distances)} rows, expected {n}")
    return distances


def is_run_dir(path: Path) -> bool:
    """Whether ``path`` holds a run: its config.txt and predictions.csv."""
    return (path / "config.txt").is_file() and (path / "predictions.csv").is_file()


@contextmanager
def _publishing(out: Path):
    """Yield a new empty directory to build ``out`` in.  When the block
    ends without an exception, the new directory replaces ``out`` whole;
    on any exception it is removed and ``out`` stays as it was.

    Only an empty directory, a run directory or a sweep directory (one
    holding sweep.csv) is replaced: any other existing ``out`` raises
    ``InvalidInputError`` before the block runs.  The work happens in a
    hidden ``.<name>.*`` sibling of ``out``, which a killed process may
    leave behind; it is safe to delete.
    """
    target = out.resolve()
    if target.exists() and not (target.is_dir() and (
            is_run_dir(target) or (target / "sweep.csv").is_file()
            or not any(target.iterdir()))):
        raise InvalidInputError(f"{out} exists and is not a run or sweep "
                                "directory; refusing to replace it")
    target.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(dir=target.parent, prefix=f".{target.name}."))
    built, old = stage / "new", stage / "old"
    try:
        built.mkdir()  # the umask's mode, where mkdtemp's is 0700
        yield built
        if target.exists():  # os.replace onto a non-empty directory fails
            os.replace(target, old)
        try:
            os.replace(built, target)
        except BaseException:
            if old.exists():
                os.replace(old, target)
            raise
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def run_experiment(config: ExperimentConfig) -> tuple[MetricsReport, Path]:
    """Train, evaluate on the validation split, and publish all artifacts
    as the output directory (see ``_publishing``).  Every BLAS call runs
    at one thread, so the bytes do not depend on the CPU count."""
    one_blas_thread()
    out = resolve_output_dir(config)
    with _publishing(out) as built:
        report = _evaluate_and_write(config, built, *train_models(config))
    return report, out


def _evaluate_and_write(config: ExperimentConfig, out: Path, dataset: Dataset,
                        models: list[MlpModel], logs: list[TrainLog]) -> MetricsReport:
    """Everything a run does after training: estimate, analyse, and write
    every artifact into the existing, empty directory ``out``: the
    ``render_artifacts`` texts, then train_log.json, the two row tables
    (each freed before the next is built) and the models."""
    output = estimate(config, models, dataset.val_inputs)
    batch = PredictionBatch(output.mean_probs, dataset.val_labels)
    report, bins = compute_report(config, batch)
    correctness = batch.correctness()
    bank = models[0].features(dataset.train_inputs)
    queries = models[0].features(dataset.val_inputs)
    uncertainty = predictive_entropy(batch.probs)
    distances = distance_records(queries, bank, uncertainty, correctness)

    for name, text in render_artifacts(config, batch, report, bins, distances).items():
        _write(out / name, text)
    _write(out / "train_log.json",
           _json_text({"models": [asdict(log) for log in logs]}))
    _write(out / "distance_records.csv", _table(
        ("sample_index", "min_cosine_distance", "uncertainty", "correct"),
        (range(batch.n), distances, uncertainty, correctness.astype(bool)),
        report.provenance))
    _write(out / "predictions.csv", _table(
        ("sample_index", "label", *(f"prob_{j}" for j in range(batch.k))),
        (range(batch.n), batch.labels, *batch.probs.T)))
    models_dir = out / "models"
    models_dir.mkdir()
    for m, model in enumerate(models):
        save_model(model, models_dir / f"model_{m}.txt")
    return report


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
    aborting; any other exception propagates.  Each ok member is written
    to ``member_<ordinal>/``, and an errored one has no directory.

    The whole sweep is published as the output directory: it then holds
    exactly the files of the last sweep that returned, a sweep that
    raised leaves the previous contents in place, and an existing
    directory that is not a run or sweep directory is refused (see
    ``_publishing``).  Every BLAS call runs at one thread, as in
    ``run_experiment``.
    """
    one_blas_thread()
    if axis not in SWEEP_AXES:
        raise InvalidInputError(f"unknown sweep axis {axis!r}; "
                                f"expected one of {tuple(SWEEP_AXES)}")
    if not values:
        raise InvalidInputError("sweep needs at least one value")
    out = resolve_output_dir(base)
    with _publishing(out) as built:
        members, jobs = [], []  # per member: its config error, or what it trains
        for ordinal, value in enumerate(values):
            try:
                member = _sweep_member_config(base, axis, value, ordinal)
                dataset, member_jobs = _training_jobs(member)
            except (MixbootError, OSError) as exc:
                members.append(exc)
                continue
            members.append((member, dataset,
                            slice(len(jobs), len(jobs) + len(member_jobs))))
            jobs.extend(member_jobs)
        results = _train_all(jobs)
        rows = []
        for ordinal, (value, member) in enumerate(zip(values, members)):
            try:
                if isinstance(member, Exception):
                    raise member
                config, dataset, span = member
                # a member that fails partway leaves no directory behind
                with _publishing(built / f"member_{ordinal}") as member_dir:
                    report = _evaluate_and_write(config, member_dir, dataset,
                                                 *_models_and_logs(results[span]))
                rows.append((axis, value, "ok", *report.row()))
            except (MixbootError, OSError) as exc:  # member failure must not kill the sweep
                # one quoted field on one line: the message may hold commas
                message = " ".join(str(exc).split()).replace('"', '""')
                rows.append((axis, value, f'"error: {type(exc).__name__}: {message}"',
                             *[""] * len(METRICS_CSV_COLUMNS)))
        text = _table(("axis", "value", "status", *METRICS_CSV_COLUMNS), zip(*rows),
                      (config_hash(base), base.train.seed, __version__))
        _write(built / "sweep.csv", text)
    return text, out
