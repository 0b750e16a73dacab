"""Experiment orchestration: train, estimate, analyze, write reports.

All emitted files are deterministic functions of the config: floats are
serialized with repr, JSON keys are sorted, and no timestamps or absolute
paths appear, so re-running a config reproduces every file byte for byte.
"""

from __future__ import annotations

import ctypes
import json
import os
import pickle
import shutil
import signal
import sys
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
    single_forward,
    tta_predict,
)
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
    roc_auc: float
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


def _one_blas_thread() -> None:
    """Limit the OpenBLAS that numpy loaded to one thread; a no-op when
    none is found.  Workers share the CPUs, so more threads only contend."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_set_num_threads64_",
                       "openblas_set_num_threads64_", "openblas_set_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = [ctypes.c_int]
                fn.restype = None
                fn(1)
                return


def _train_job(job: tuple[TrainConfig, Dataset]):
    try:
        return train(*job)
    except Exception as exc:  # the caller decides which failures a run survives
        return exc


def _worker(jobs: list, sink) -> None:
    """Body of a forked worker: train ``jobs``, pickle the results into
    ``sink`` and exit without returning to the caller's stack."""
    status = 1
    try:
        _one_blas_thread()
        sink.write(pickle.dumps([_train_job(job) for job in jobs]))
        sink.flush()
        status = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)


def _train_all(jobs: list[tuple[TrainConfig, Dataset]]) -> list:
    """Train every ``(TrainConfig, Dataset)`` job; in job order, its
    ``(model, log)`` or the exception it raised.

    With two or more usable CPUs and jobs, forked workers (one per CPU,
    at most one per job) take the jobs round-robin, each with one BLAS
    thread, and send their results back through a pipe.  Training is a
    pure function of the job, so the results equal a serial run's bit for
    bit.  Otherwise the jobs run here, one after another.  An exception
    raised here before every result is in (an interrupt) kills the
    workers before they are reaped.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    workers = min(cpus, len(jobs))
    if workers < 2 or not hasattr(os, "fork"):
        return [_train_job(job) for job in jobs]
    # a plain fork adds nothing to this process's peak memory, unlike a pool
    pids, pipes, payloads = [], [], None
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            with os.fdopen(write_fd, "wb") as sink:  # closes this process's end
                pid = os.fork()
                if pid == 0:
                    _worker(jobs[w::workers], sink)
            pids.append(pid)
        payloads = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        if payloads is None:  # interrupted: nobody will read what the workers train
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    results = [None] * len(jobs)
    for w, (payload, code) in enumerate(zip(payloads, codes)):
        if code != 0 or not payload:
            raise ChildProcessError(f"training worker {w} exited with status {code} "
                                    "without returning its results")
        results[w::workers] = pickle.loads(payload)
    return results


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
    if kind == "single":
        return single_forward(models[0], inputs)
    if kind == "ensemble":
        return ensemble_predict(models, inputs)
    if kind == "mc_dropout":
        rng = np.random.default_rng([seed, _MC_RNG_KEY])
        return mc_dropout_predict(models[0], inputs, config.estimator.passes,
                                  config.estimator.tau_inv, rng)
    if kind == "tta":
        policy = PerturbationPolicy(config.estimator.policy_noise_sigma,
                                    config.estimator.policy_scale_jitter)
        rng = np.random.default_rng([seed, _TTA_RNG_KEY])
        return tta_predict(models[0], inputs, policy,
                           config.estimator.repeats, rng)
    raise InvalidInputError(f"unknown estimator kind {kind!r}")


def compute_report(config: ExperimentConfig, batch: PredictionBatch
                   ) -> tuple[MetricsReport, ReliabilityBins]:
    ece, bins = expected_calibration_error(batch, config.analysis.bin_width)
    report = MetricsReport(
        method=config.train.method,
        noise_rate=config.train.noise_rate,
        estimator=config.estimator.kind,
        roc_auc=roc_auc(batch.probs[:, 1], batch.labels),
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
    with open(path, "w") as fh:
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


def metrics_csv(report: MetricsReport) -> str:
    """Text of metrics.csv for ``report``."""
    return _table(METRICS_CSV_COLUMNS, [report.row()],
                  (report.config_hash, report.seed, report.version))


def read_predictions(path) -> PredictionBatch:
    """Rebuild the exact PredictionBatch persisted by run_experiment."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    k = len(header) - 2
    labels, probs = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        labels.append(int(parts[1]))
        probs.append([float(p) for p in parts[2:2 + k]])
    return PredictionBatch(np.array(probs), np.array(labels))


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
        _write(out / "metrics.json", _json_text(report.to_dict()))
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
