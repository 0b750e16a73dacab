"""End-to-end experiment runs: artifacts, reruns, estimator paths, sweeps."""

import csv
import json
import os
import signal
import subprocess
import sys
import time
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import mixboot.experiment as experiment
from mixboot.config import config_hash, parse_config
from mixboot.errors import InvalidInputError, TrainingDivergenceError
from mixboot.experiment import (
    OUTPUT_ROOT_ENV,
    MetricsReport,
    compute_report,
    read_distances,
    read_predictions,
    render_artifacts,
    resolve_output_dir,
    run_experiment,
    run_sweep,
)
from mixboot.mlp import load_model
from mixboot.prob_metrics import PredictionBatch
from mixboot.version import __version__
from oracles import FAST_BLOBS, read_tree

FAST_MOONS = (
    "method = bsm\n"
    "generator = two_moons\n"
    "generator_noise = 0.2\n"
    "noise_rate = 0.2\n"
    "n_train = 200\n"
    "n_val = 50\n"
    "max_epochs = 3\n"
)

EXPECTED_FILES = (
    "config.txt",
    "metrics.json",
    "metrics.csv",
    "reliability_bins.csv",
    "referral_curve.csv",
    "threshold_curve.csv",
    "distance_records.csv",
    "distance_summary.json",
    "train_log.json",
    "predictions.csv",
    "models/model_0.txt",
)


class TestResolveOutputDir:
    def test_relative_rooted_at_env(self, out_root):
        config = parse_config(FAST_BLOBS + "output.dir = some/run\n")
        assert resolve_output_dir(config) == out_root / "some" / "run"

    def test_absolute_untouched(self, out_root, tmp_path):
        config = parse_config(FAST_BLOBS + f"output.dir = {tmp_path}/abs\n")
        assert resolve_output_dir(config) == tmp_path / "abs"


class TestRunExperiment:
    def test_all_artifacts_written(self, out_root):
        config = parse_config(FAST_MOONS + "output.dir = a\n")
        _, out_dir = run_experiment(config)
        for rel in EXPECTED_FILES:
            assert (out_dir / rel).is_file(), rel

    def test_formats_control_metrics_files(self, out_root):
        config = parse_config(FAST_BLOBS + "output.dir = b\noutput.formats = json\n")
        _, out_dir = run_experiment(config)
        assert (out_dir / "metrics.json").is_file()
        assert not (out_dir / "metrics.csv").exists()

    def test_separable_fixture_perfect_accuracy(self, out_root):
        config = parse_config(FAST_BLOBS + "output.dir = c\n")
        report, out_dir = run_experiment(config)
        assert report.accuracy == 1.0
        stored = json.loads((out_dir / "metrics.json").read_text())
        assert stored["accuracy"] == 1.0

    def test_rerun_byte_identical(self, out_root):
        config = parse_config(FAST_MOONS + "output.dir = d\n")
        _, out_dir = run_experiment(config)
        first = read_tree(out_dir)
        run_experiment(config)
        second = read_tree(out_dir)
        assert first.keys() == second.keys()
        for rel in first:
            assert first[rel] == second[rel], rel

    def test_predictions_round_trip_exact(self, out_root):
        config = parse_config(FAST_MOONS + "output.dir = e\n")
        report, out_dir = run_experiment(config)
        _, batch = read_predictions(out_dir / "predictions.csv")
        again, _ = compute_report(config, batch)
        assert again.to_dict() == report.to_dict()

    @pytest.mark.parametrize("estimator,n_models", [
        ("kind = ensemble\nestimator.ensemble_size = 2", 2),
        ("kind = mc_dropout", 1),
        ("kind = tta", 1),
    ], ids=["ensemble", "mc_dropout", "tta"])
    def test_files_are_the_rendered_texts(self, out_root, monkeypatch, estimator,
                                          n_models):
        # the run writes exactly render_artifacts' texts, and the stored
        # predictions and distance column render them again
        rendered = []
        real_render = experiment.render_artifacts

        def capture(*args):
            rendered.append((args, real_render(*args)))
            return rendered[-1][1]

        monkeypatch.setattr(experiment, "render_artifacts", capture)
        config = parse_config(FAST_MOONS + f"output.dir = j\nestimator.{estimator}\n")
        _, out_dir = run_experiment(config)
        [(args, texts)] = rendered
        tree = read_tree(out_dir)
        assert {name: tree[name] for name in texts} == {
            name: text.encode() for name, text in texts.items()}
        assert set(tree) - set(texts) == {
            "distance_records.csv", "predictions.csv", "train_log.json",
            *(f"models/model_{m}.txt" for m in range(n_models))}

        _, batch = read_predictions(out_dir / "predictions.csv")
        _, distances, uncertainty, _ = read_distances(
            out_dir / "distance_records.csv", batch.n)
        np.testing.assert_array_equal(batch.probs, args[1].probs)
        np.testing.assert_array_equal(distances, args[4])
        # the uncertainty the renderer reads is the column that
        # distance_records.csv stores
        np.testing.assert_array_equal(batch.uncertainty, uncertainty)
        again = render_artifacts(config, batch, *compute_report(config, batch),
                                 distances)
        assert again == texts

    def test_row_facts_computed_once_per_run(self, out_root, monkeypatch):
        # the entropy and the correctness of the validation rows come from
        # the one PredictionBatch of the run
        calls = []
        uncertainty = PredictionBatch.__dict__["uncertainty"].func
        counted = cached_property(lambda batch: calls.append("entropy") or uncertainty(batch))
        counted.__set_name__(PredictionBatch, "uncertainty")
        predictions = PredictionBatch.predictions
        monkeypatch.setattr(PredictionBatch, "uncertainty", counted)
        monkeypatch.setattr(PredictionBatch, "predictions",
                            lambda batch: calls.append("correct") or predictions(batch))
        run_experiment(parse_config(FAST_BLOBS + "output.dir = once\n"))
        assert sorted(calls) == ["correct", "entropy"]

    def test_metrics_json_matches_report(self, out_root):
        config = parse_config(FAST_MOONS + "output.dir = f\n")
        report, out_dir = run_experiment(config)
        stored = json.loads((out_dir / "metrics.json").read_text())
        assert stored == report.to_dict()

    def test_train_log_holds_no_derived_values(self, out_root):
        # the learning rate follows from config.txt and the best accuracy
        # is val_accuracy[best_epoch]: neither is stored again
        config = parse_config(FAST_MOONS + "output.dir = tl\n")
        _, out_dir = run_experiment(config)
        [entry] = json.loads((out_dir / "train_log.json").read_text())["models"]
        assert sorted(entry) == ["best_epoch", "bmm", "clean_ce", "flipped_ce", "method",
                                 "seed", "stopped_epoch", "train_loss", "val_accuracy"]

    def test_provenance_comments_present(self, out_root):
        config = parse_config(FAST_MOONS + "output.dir = g\n")
        report, out_dir = run_experiment(config)
        for name in ("metrics.csv", "reliability_bins.csv", "referral_curve.csv",
                     "threshold_curve.csv", "distance_records.csv"):
            text = (out_dir / name).read_text()
            assert f"# config_hash={report.config_hash}\n" in text
            assert f"# seed={report.seed}\n" in text

    def test_saved_model_reloads(self, out_root):
        config = parse_config(FAST_BLOBS + "output.dir = h\n")
        _, out_dir = run_experiment(config)
        model = load_model(out_dir / "models" / "model_0.txt")
        assert model.dims == (2, 64, 64, 2)

    def test_degenerate_distances_reported_not_fatal(self, out_root):
        # noiseless blobs collapse every feature distance to a constant,
        # which leaves the rank correlation undefined
        config = parse_config(FAST_BLOBS + "output.dir = i\n")
        _, out_dir = run_experiment(config)
        summary = json.loads((out_dir / "distance_summary.json").read_text())
        assert "degenerate" in summary or "rho_similarity" in summary
        assert summary["n"] + summary["n_dropped"] == 20


def hidden_siblings(out_dir):
    """What a publish left next to ``out_dir`` while building it."""
    return sorted(p.name for p in out_dir.parent.iterdir()
                  if p.name.startswith(f".{out_dir.name}."))


class TestPublishing:
    """A run or sweep directory holds exactly what the last successful
    run or sweep into it wrote; a failed one leaves it as it was."""

    def test_rerun_leaves_only_the_new_run(self, out_root, monkeypatch):
        _, out_dir = run_experiment(parse_config(
            FAST_BLOBS + "output.dir = pub\nestimator.kind = ensemble\n"
            "estimator.ensemble_size = 3\n"))
        assert (out_dir / "models" / "model_2.txt").is_file()
        single = parse_config(FAST_BLOBS + "output.dir = pub\noutput.formats = csv\n")
        run_experiment(single)
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(out_root / "fresh"))
        _, fresh_dir = run_experiment(single)
        assert read_tree(out_dir) == read_tree(fresh_dir)
        assert "metrics.json" not in read_tree(out_dir)
        assert hidden_siblings(out_dir) == []

    @pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()],
                             ids=["OSError", "KeyboardInterrupt"])
    def test_failed_run_keeps_previous_run(self, out_root, monkeypatch, error):
        _, out_dir = run_experiment(parse_config(FAST_MOONS + "output.dir = kept\n"))
        first = read_tree(out_dir)

        def failing(model, path):
            raise error

        monkeypatch.setattr(experiment, "save_model", failing)
        # another seed, so that any file it overwrote would differ
        with pytest.raises(type(error)):
            run_experiment(parse_config(FAST_MOONS + "output.dir = kept\nseed = 1\n"))
        assert read_tree(out_dir) == first
        assert hidden_siblings(out_dir) == []

    def test_failed_sweep_keeps_previous_sweep(self, out_root, monkeypatch):
        config = parse_config(FAST_BLOBS + "output.dir = kept_sweep\nmax_epochs = 2\n")
        _, out_dir = run_sweep(config, "noise_rates", [0.1, 0.2])
        first = read_tree(out_dir)

        def broken(config, out, dataset, models, logs):
            (out / "partial.txt").write_text("half a member")
            raise RuntimeError("a bug, not a member failure")

        monkeypatch.setattr(experiment, "_evaluate_and_write", broken)
        with pytest.raises(RuntimeError, match="a bug"):
            run_sweep(config, "noise_rates", [0.3])
        assert read_tree(out_dir) == first
        assert hidden_siblings(out_dir) == []

    def test_empty_directory_is_replaced(self, out_root):
        (out_root / "empty").mkdir()
        _, out_dir = run_experiment(parse_config(FAST_BLOBS + "output.dir = empty\n"))
        assert (out_dir / "predictions.csv").is_file()


class TestEstimatorPaths:
    def test_ensemble_members_and_logs(self, out_root):
        config = parse_config(
            FAST_BLOBS + "output.dir = j\nestimator.kind = ensemble\n"
            "estimator.ensemble_size = 3\n"
        )
        report, out_dir = run_experiment(config)
        assert report.estimator == "ensemble"
        for m in range(3):
            assert (out_dir / "models" / f"model_{m}.txt").is_file()
        log = json.loads((out_dir / "train_log.json").read_text())
        assert len(log["models"]) == 3
        seeds = [entry["seed"] for entry in log["models"]]
        assert seeds == [0, 1, 2]
        a = load_model(out_dir / "models" / "model_0.txt")
        b = load_model(out_dir / "models" / "model_1.txt")
        assert not (a.w1 == b.w1).all()

    def test_mc_dropout_path(self, out_root):
        config = parse_config(
            FAST_MOONS + "output.dir = k\nestimator.kind = mc_dropout\n"
            "estimator.passes = 5\n"
        )
        report, _ = run_experiment(config)
        assert report.estimator == "mc_dropout"
        assert np.isfinite(report.ece)

    def test_tau_inv_changes_only_config_and_its_hash(self, tmp_path, monkeypatch):
        # estimator.tau_inv is part of config.txt and the config hash, and
        # nothing else reads it
        def without_hash(name, data):
            if name == "metrics.json":
                stored = json.loads(data)
                del stored["provenance"]["config_hash"]
                return stored
            return [line for line in data.splitlines()
                    if not line.startswith(b"# config_hash=")]

        trees = []
        for tau_inv in (0.0, 0.37):
            monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / str(tau_inv)))
            _, out_dir = run_experiment(parse_config(
                FAST_MOONS + "output.dir = tau\nestimator.kind = mc_dropout\n"
                f"estimator.passes = 5\nestimator.tau_inv = {tau_inv}\n"))
            trees.append(read_tree(out_dir))
        a, b = trees
        assert set(a) == set(b)
        for name in sorted(set(a) - {"config.txt"}):
            assert without_hash(name, a[name]) == without_hash(name, b[name]), name

    def test_tta_path(self, out_root):
        config = parse_config(
            FAST_MOONS + "output.dir = l\nestimator.kind = tta\n"
            "estimator.repeats = 4\n"
        )
        report, _ = run_experiment(config)
        assert report.estimator == "tta"
        assert np.isfinite(report.nll)

    def test_tta_zero_repeats_matches_single(self, out_root):
        base = FAST_BLOBS
        single = parse_config(base + "output.dir = m1\n")
        tta0 = parse_config(
            base + "output.dir = m2\nestimator.kind = tta\nestimator.repeats = 0\n"
        )
        report_single, _ = run_experiment(single)
        report_tta, _ = run_experiment(tta0)
        assert report_tta.ece == report_single.ece
        assert report_tta.accuracy == report_single.accuracy

    def test_one_member_ensemble_writes_single_predictions(self, out_root):
        _, single_dir = run_experiment(parse_config(FAST_MOONS + "output.dir = s1\n"))
        _, ensemble_dir = run_experiment(parse_config(
            FAST_MOONS + "output.dir = s2\nestimator.kind = ensemble\n"
            "estimator.ensemble_size = 1\n"))
        assert ((ensemble_dir / "predictions.csv").read_bytes()
                == (single_dir / "predictions.csv").read_bytes())


class TestRunSweep:
    def test_rows_ordered_and_ok(self, out_root):
        config = parse_config(FAST_BLOBS + "output.dir = n\n")
        text, out_dir = run_sweep(config, "noise_rates", [0.0, 0.1])
        assert (out_dir / "sweep.csv").read_text() == text
        rows = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert rows[0].startswith("axis,value,status,method")
        assert rows[1].startswith("noise_rates,0.0,ok,")
        assert rows[2].startswith("noise_rates,0.1,ok,")
        for m in range(2):
            assert (out_dir / f"member_{m}" / "metrics.csv").is_file()

    def test_member_seeds_offset_by_ordinal(self, out_root):
        config = parse_config(FAST_BLOBS + "output.dir = o\nseed = 5\n")
        text, _ = run_sweep(config, "alphas", [0.1, 0.3])
        rows = [ln.split(",") for ln in text.splitlines()
                if ln.startswith("alphas")]
        seeds = [int(r[-1]) for r in rows]
        assert seeds == [5, 6]

    def test_failing_member_becomes_error_row(self, out_root):
        config = parse_config(FAST_BLOBS + "output.dir = p\n")
        text, _ = run_sweep(config, "noise_rates", [0.0, 2.0])
        rows = list(csv.reader(ln for ln in text.splitlines() if not ln.startswith("#")))
        assert len(rows) == 3 and all(len(row) == len(rows[0]) for row in rows)
        assert rows[1][:3] == ["noise_rates", "0.0", "ok"]
        assert rows[2][:3] == ["noise_rates", "2.0",
                               "error: ConfigError: noise_rate must lie in [0, 1]"]
        assert rows[2][3:] == [""] * (len(rows[0]) - 3)

    def test_error_message_is_one_quoted_field(self, out_root, monkeypatch):
        def failing(config, out, dataset, models, logs):
            raise InvalidInputError('bad "value", see\n  next line')

        monkeypatch.setattr(experiment, "_evaluate_and_write", failing)
        config = parse_config(FAST_BLOBS + "output.dir = u\n")
        text, _ = run_sweep(config, "noise_rates", [0.0])
        data = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(data) == 2
        header, row = csv.reader(data)
        assert len(row) == len(header)
        assert row[2] == 'error: InvalidInputError: bad "value", see next line'

    def test_programming_error_propagates(self, out_root, monkeypatch):
        def broken(config, out, dataset, models, logs):
            raise RuntimeError("a bug, not a member failure")

        monkeypatch.setattr(experiment, "_evaluate_and_write", broken)
        config = parse_config(FAST_BLOBS + "output.dir = t\n")
        with pytest.raises(RuntimeError, match="a bug"):
            run_sweep(config, "noise_rates", [0.0])

    def test_estimator_axes_force_kind(self, out_root):
        config = parse_config(FAST_BLOBS + "output.dir = q\n")
        text, _ = run_sweep(config, "tta_repeats", [0, 2])
        ok_rows = [ln for ln in text.splitlines() if ",ok," in ln]
        assert all(",tta," in ln for ln in ok_rows)

        text, _ = run_sweep(
            parse_config(FAST_BLOBS + "output.dir = r\n"), "ensemble_sizes", [1, 2]
        )
        ok_rows = [ln for ln in text.splitlines() if ",ok," in ln]
        assert all(",ensemble," in ln for ln in ok_rows)

    def test_single_value_sweep_matches_run(self, out_root):
        sweep_cfg = parse_config(FAST_BLOBS + "output.dir = s\n")
        text, out_dir = run_sweep(sweep_cfg, "methods", ["ce"])
        member = read_tree(out_dir / "member_0")
        run_cfg = parse_config(FAST_BLOBS + "output.dir = s/member_0\n")
        _, run_dir = run_experiment(run_cfg)
        assert read_tree(run_dir) == member

    def test_shorter_rerun_removes_stale_members(self, out_root, monkeypatch):
        config = parse_config(FAST_BLOBS + "output.dir = v\nmax_epochs = 2\n")
        _, out_dir = run_sweep(config, "noise_rates", [0.1, 0.2, 0.3])
        (out_dir / "member_notes").mkdir()
        (out_dir / "member_notes" / "notes.txt").write_text("not a member")
        run_sweep(config, "noise_rates", [0.1])
        assert (out_dir / "member_0" / "metrics.csv").is_file()
        # the rerun's tree is exactly a fresh sweep's: nothing else survives
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(out_root / "fresh"))
        _, fresh_dir = run_sweep(config, "noise_rates", [0.1])
        assert read_tree(out_dir) == read_tree(fresh_dir)

    def test_errored_member_leaves_no_directory(self, out_root, monkeypatch):
        config = parse_config(FAST_BLOBS + "output.dir = x\nmax_epochs = 2\n")
        _, out_dir = run_sweep(config, "noise_rates", [0.1, 0.2])
        assert (out_dir / "member_1" / "metrics.csv").is_file()
        text, _ = run_sweep(config, "noise_rates", [0.1, 1.5])
        assert '"error: ConfigError: noise_rate must lie in [0, 1]"' in text
        assert not (out_dir / "member_1").exists()
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(out_root / "fresh"))
        _, fresh_dir = run_sweep(config, "noise_rates", [0.1, 1.5])
        assert read_tree(out_dir) == read_tree(fresh_dir)

    def test_member_failing_partway_leaves_no_directory(self, out_root, monkeypatch):
        saved = []

        def save_once(model, path):  # member_1 fails after its other files
            if saved:
                raise OSError("disk full")
            saved.append(path)
            real_save(model, path)

        real_save = experiment.save_model
        monkeypatch.setattr(experiment, "save_model", save_once)
        config = parse_config(FAST_BLOBS + "output.dir = y\nmax_epochs = 2\n")
        text, out_dir = run_sweep(config, "noise_rates", [0.1, 0.2])
        assert '"error: OSError: disk full"' in text
        assert sorted(p.name for p in out_dir.iterdir()) == ["member_0", "sweep.csv"]

    def test_unknown_axis_rejected(self, out_root):
        config = parse_config(FAST_BLOBS + "output.dir = t\n")
        with pytest.raises(InvalidInputError):
            run_sweep(config, "learning_rates", [1e-3])
        with pytest.raises(InvalidInputError):
            run_sweep(config, "alphas", [])


ENSEMBLE_OF_TWO = FAST_BLOBS + "output.dir = ens\nestimator.kind = ensemble\n" \
                               "estimator.ensemble_size = 2\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestParallelTraining:
    def test_forked_sweep_matches_serial_bytes(self, tmp_path, monkeypatch, cpus):
        config = parse_config(FAST_MOONS + "output.dir = sweep\n")
        trees = {}
        for name, n_cpus in (("serial", 1), ("forked", 2)):
            monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / name))
            forked = cpus(n_cpus)
            _, out_dir = run_sweep(config, "ensemble_sizes", [1, 2])
            trees[name] = read_tree(out_dir)
            assert len(forked) == (0 if n_cpus == 1 else 2)
        assert "member_1/models/model_1.txt" in trees["serial"]
        assert trees["forked"].keys() == trees["serial"].keys()
        for rel in trees["serial"]:
            assert trees["forked"][rel] == trees["serial"][rel], rel

    def test_dead_worker_is_reported_and_reaped(self, out_root, monkeypatch, cpus,
                                                deadline):
        monkeypatch.setattr(experiment, "train", lambda config, dataset: os._exit(7))
        forked = cpus(2)
        with pytest.raises(ChildProcessError, match="exited with status 7"):
            run_experiment(parse_config(ENSEMBLE_OF_TWO))
        assert len(forked) == 2
        for pid in forked:  # every worker was reaped: none is left a zombie
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_worker_bug_propagates(self, out_root, monkeypatch, cpus, deadline):
        def broken(config, dataset):
            raise RuntimeError(f"a bug in the worker training seed {config.seed}")

        monkeypatch.setattr(experiment, "train", broken)
        forked = cpus(2)
        with pytest.raises(RuntimeError) as info:
            run_experiment(parse_config(ENSEMBLE_OF_TWO))
        assert info.type is RuntimeError
        assert str(info.value) == "a bug in the worker training seed 0"
        assert len(forked) == 2

    def test_diverging_sweep_training_becomes_error_row(self, tmp_path, monkeypatch,
                                                        cpus):
        # jobs: member 0's seed-0 training, member 1's seeds 1 and 2; on 2
        # CPUs the seed-2 failure comes back as a value after a result
        def diverge_seed_2(config, dataset):
            if config.seed == 2:
                raise TrainingDivergenceError("non-finite loss at seed 2")
            return real_train(config, dataset)

        real_train = experiment.train
        monkeypatch.setattr(experiment, "train", diverge_seed_2)
        config = parse_config(FAST_BLOBS + "output.dir = div\nmax_epochs = 2\n")
        trees = {}
        for n_cpus in (1, 2):
            monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / str(n_cpus)))
            forked = cpus(n_cpus)
            text, out_dir = run_sweep(config, "ensemble_sizes", [1, 2])
            assert len(forked) == (0 if n_cpus == 1 else 2)
            trees[n_cpus] = read_tree(out_dir)
        rows = list(csv.reader(ln for ln in text.splitlines() if not ln.startswith("#")))
        assert rows[1][:3] == ["ensemble_sizes", "1", "ok"]
        assert rows[2][:3] == ["ensemble_sizes", "2", "error: TrainingDivergenceError: "
                                                      "non-finite loss at seed 2"]
        assert {rel.split("/")[0] for rel in trees[1]} == {"member_0", "sweep.csv"}
        assert trees[2] == trees[1]

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_sweep_training_bug_propagates(self, out_root, monkeypatch, cpus,
                                           deadline, n_cpus):
        # the bug in member 1's training stops the sweep before member 0,
        # which trained, is evaluated
        def broken(config, dataset):
            if config.seed == 1:
                raise RuntimeError("a bug training seed 1")
            return real_train(config, dataset)

        real_train, evaluated = experiment.train, []
        monkeypatch.setattr(experiment, "train", broken)
        monkeypatch.setattr(experiment, "_evaluate_and_write",
                            lambda *args: evaluated.append(args))
        forked = cpus(n_cpus)
        config = parse_config(FAST_BLOBS + "output.dir = bug\nmax_epochs = 2\n")
        with pytest.raises(RuntimeError, match="a bug training seed 1"):
            run_sweep(config, "noise_rates", [0.0, 0.1])
        assert len(forked) == (0 if n_cpus == 1 else 2)
        assert evaluated == []
        assert not (out_root / "bug").exists()

    def test_interrupted_parent_kills_its_workers(self, out_root, monkeypatch, cpus):
        monkeypatch.setattr(experiment, "train", lambda config, dataset: time.sleep(60))
        forked = cpus(2)

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 1.0)  # while the parent reads the pipes
        start = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                run_experiment(parse_config(ENSEMBLE_OF_TWO))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 30  # the workers' sleep was not waited out
        assert len(forked) == 2
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)


# numpy loads OpenBLAS, with the thread count OPENBLAS_NUM_THREADS asks
# for, before the process is pinned to one CPU; mixboot then takes its
# serial path, and must itself bring OpenBLAS down to one thread
SERIAL_CLI = ("import os, sys, numpy\n"
              "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
              "from mixboot.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")

# a 600-row batch: backward's 64 x 600 @ 600 x 64 product gives other
# bits at 2 BLAS threads than at 1
WIDE_BATCH_MC = (
    "method = bsm\n"
    "n_train = 1100\n"
    "batch_size = 600\n"
    "max_epochs = 3\n"
    "estimator.kind = mc_dropout\n"
    "estimator.passes = 5\n"
)


# (config, command, a file the run must write)
BLAS_THREAD_RUNS = (
    (FAST_MOONS, ["sweep", "--axis", "ensemble_sizes", "--values", "1,2"],
     "member_1/models/model_1.txt"),
    (WIDE_BATCH_MC, ["run"], "models/model_0.txt"),
)


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="OpenBLAS runs at most one thread per usable CPU")
def test_serial_bytes_do_not_depend_on_blas_threads(tmp_path):
    # forked workers run one BLAS thread and must match a serial run
    # started at any thread count
    src = Path(__file__).resolve().parents[1] / "src"
    for n, (config_text, (verb, *args), expected_file) in enumerate(BLAS_THREAD_RUNS):
        config = tmp_path / f"run_{n}.cfg"
        config.write_text(config_text + "output.dir = out\n")
        trees = []
        for threads in ("1", "2"):
            root = tmp_path / f"run_{n}_threads_{threads}"
            subprocess.run(
                [sys.executable, "-c", SERIAL_CLI, verb, "--config", str(config), *args],
                env=dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                         **{OUTPUT_ROOT_ENV: str(root)}),
                check=True, capture_output=True, timeout=120,
            )
            trees.append(read_tree(root / "out"))
        assert expected_file in trees[0]
        assert trees[0] == trees[1], verb


def row_table(header, rows, provenance=None) -> str:
    """Reference: the artifact-table text built a row at a time, one
    ``_cell`` call per value."""
    lines = [] if provenance is None else [
        f"# {key}={value}"
        for key, value in zip(("config_hash", "seed", "version"), provenance)
    ]
    lines.append(",".join(header))
    lines.extend(",".join(map(experiment._cell, row)) for row in rows)
    return "\n".join(lines) + "\n"


TABLE_FLOATS = st.one_of(
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324]))
TABLE_CELLS = st.one_of(
    TABLE_FLOATS, st.integers(), st.booleans(), st.none(), st.just(""),
    st.sampled_from(["ce", '"error: X: y"']), TABLE_FLOATS.map(np.float64),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
)


@st.composite
def table_cases(draw):
    """Columns of one length (0 to 12 rows), each of Python floats, of
    ints and bools, of any cells mixed, or a float64, int64 or bool
    array; provenance or none."""
    n = draw(st.integers(0, 12))
    kinds = [
        st.lists(TABLE_FLOATS, min_size=n, max_size=n),
        st.lists(st.one_of(st.integers(), st.booleans()), min_size=n, max_size=n),
        st.lists(TABLE_CELLS, min_size=n, max_size=n),
        hnp.arrays(np.float64, n, elements=TABLE_FLOATS),
        hnp.arrays(np.int64, n),
        hnp.arrays(np.bool_, n),
    ]
    columns = [draw(st.one_of(kinds)) for _ in range(draw(st.integers(1, 5)))]
    provenance = draw(st.sampled_from([None, ("0123456789ab", 3, "0.1.0")]))
    return columns, provenance


class TestTableFormat:
    """The artifact-table format, pinned to the text the per-file writers
    emitted before they shared one table writer."""

    REPORT = MetricsReport(
        method="bsm", noise_rate=0.2, estimator="mc_dropout", roc_auc=0.9,
        ece=float("nan"), brier=1e-300, nll=-0.0, accuracy=2 / 3, seed=5,
        config_hash="0123456789ab", version="0.1.0",
    )
    METRICS_HEADER = "method,noise_rate,estimator,roc_auc,ece,brier,nll,accuracy,seed\n"
    METRICS_ROW = "bsm,0.2,mc_dropout,0.9,nan,1e-300,-0.0,0.6666666666666666,5\n"

    def test_cell_rule(self):
        row = (float("nan"), None, np.bool_(True), np.bool_(False), np.int64(7),
               np.float64(0.1), -0.0, 1e-300, "ce")
        assert experiment._table(tuple("abcdefghi"), [[cell] for cell in row]) == (
            "a,b,c,d,e,f,g,h,i\n"
            "nan,nan,1,0,7,0.1,-0.0,1e-300,ce\n"
        )

    @settings(deadline=None, max_examples=300)
    @given(table_cases())
    def test_columns_match_the_per_cell_row_writer(self, case):
        columns, provenance = case
        header = [f"c{j}" for j in range(len(columns))]
        assert experiment._table(header, columns, provenance) == row_table(
            header, zip(*columns), provenance)

    def test_metrics_csv_provenance_and_row(self):
        batch = PredictionBatch(np.array([[0.25, 0.75], [0.5, 0.5], [0.9, 0.1]]),
                                np.array([1, 0, 0]))
        config = parse_config(FAST_BLOBS)
        _, bins = compute_report(config, batch)
        texts = render_artifacts(config, batch, self.REPORT, bins, np.array([0.1, 0.2, 0.3]))
        assert texts["metrics.csv"] == (
            "# config_hash=0123456789ab\n"
            "# seed=5\n"
            "# version=0.1.0\n"
            + self.METRICS_HEADER + self.METRICS_ROW
        )

    def test_sweep_header_and_ok_row(self, out_root, monkeypatch):
        monkeypatch.setattr(experiment, "_evaluate_and_write",
                            lambda config, out, dataset, models, logs: self.REPORT)
        config = parse_config(FAST_BLOBS + "output.dir = v\nseed = 3\n")
        text, _ = run_sweep(config, "alphas", [0.3])
        assert text == (
            f"# config_hash={config_hash(config)}\n"
            "# seed=3\n"
            f"# version={__version__}\n"
            "axis,value,status," + self.METRICS_HEADER
            + "alphas,0.3,ok," + self.METRICS_ROW
        )

    def test_run_tables(self, out_root, monkeypatch):
        # every validation row predicts (1/3, 2/3): the predictions rows and
        # the empty first reliability bin are then known by hand
        def thirds(config, models, inputs):
            return np.tile([1 / 3, 2 / 3], (len(inputs), 1))

        monkeypatch.setattr(experiment, "estimate", thirds)
        _, out_dir = run_experiment(parse_config(FAST_BLOBS + "output.dir = w\n"))
        lines = (out_dir / "predictions.csv").read_text().splitlines()
        assert len(lines) == 21  # no provenance lines, one row per val sample
        assert lines[0] == "sample_index,label,prob_0,prob_1"
        assert lines[1] in ("0,0,0.3333333333333333,0.6666666666666666",
                            "0,1,0.3333333333333333,0.6666666666666666")
        headers = {
            "reliability_bins.csv": "bin_lo,bin_hi,count,conf_mean,acc,gap",
            "referral_curve.csv": "rejected_fraction,accuracy,auc,n_retained",
            "threshold_curve.csv": "threshold,accuracy,n_retained",
            "distance_records.csv":
                "sample_index,min_cosine_distance,uncertainty,correct",
        }
        for name, header in headers.items():
            assert (out_dir / name).read_text().splitlines()[3] == header, name
        bins = (out_dir / "reliability_bins.csv").read_text().splitlines()
        assert bins[4] == "0.0,0.1,0,nan,nan,nan"
