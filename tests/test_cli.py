"""Command-line interface: verbs, exit codes and stored-report verification."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mixboot.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_MISMATCH, EXIT_OK, main
from mixboot.experiment import OUTPUT_ROOT_ENV
from oracles import FAST_BLOBS, read_tree


def write_config(out_root, text, name="config.txt"):
    path = out_root / name
    path.write_text(text)
    return str(path)


class TestRunVerb:
    def test_run_succeeds_and_prints_metrics(self, out_root, capsys):
        config = write_config(out_root, FAST_BLOBS + "output.dir = run1\n")
        code = main(["run", "--config", config])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "accuracy = " in out
        assert "ece = " in out
        assert "artifacts written to" in out
        assert (out_root / "run1" / "metrics.json").is_file()

    def test_too_few_distances_still_writes_run(self, out_root):
        # two validation rows (one per class here): too few for a rank correlation
        config = write_config(out_root, "method = ce\ngenerator = blobs\nseed = 0\n"
                                       "n_train = 40\nn_val = 2\nmax_epochs = 3\n"
                                       "output.dir = tiny\n")
        assert main(["run", "--config", config]) == EXIT_OK
        summary = json.loads((out_root / "tiny" / "distance_summary.json").read_text())
        assert summary == {
            "degenerate": "correlation needs at least 3 finite distances, got 2",
            "n": 2, "n_dropped": 0}

    def test_out_flag_overrides_directory(self, out_root):
        config = write_config(out_root, FAST_BLOBS + "output.dir = ignored\n")
        code = main(["run", "--config", config, "--out", "chosen"])
        assert code == EXIT_OK
        assert (out_root / "chosen" / "metrics.json").is_file()
        assert not (out_root / "ignored").exists()

    def test_set_overrides_config_values(self, out_root):
        config = write_config(out_root, FAST_BLOBS + "output.dir = run2\n")
        code = main(["run", "--config", config, "--set", "seed = 3"])
        assert code == EXIT_OK
        stored = json.loads((out_root / "run2" / "metrics.json").read_text())
        assert stored["provenance"]["seed"] == 3

    def test_missing_config_file_is_config_error(self, out_root, capsys):
        code = main(["run", "--config", str(out_root / "absent.txt")])
        assert code == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_invalid_config_names_problem(self, out_root, capsys):
        config = write_config(out_root, "seed = 1\n")  # no method
        code = main(["run", "--config", config])
        assert code == EXIT_CONFIG
        assert "method" in capsys.readouterr().err

    @pytest.mark.parametrize("override,message", [
        ("seed=-1", "seed must be nonnegative"),
        ("generator_noise=-1", "generator_noise must be nonnegative"),
        pytest.param("analysis.fractions=0.0,1.0",
                     "analysis.fractions must lie in [0, 1)", id="fraction_one"),
        pytest.param("n_train=33", "n_train + n_val must be even", id="odd_total"),
        ("aug_noise_sigma=inf", "aug_noise_sigma must be finite"),
        ("aug_scale_jitter=1e308", "aug_scale_jitter must lie in [0, "),
        ("estimator.policy.noise_sigma=inf", "estimator.policy.noise_sigma must be finite"),
        ("estimator.policy.scale_jitter=1e308",
         "estimator.policy.scale_jitter must lie in [0, "),
        ("learning_rate=inf", "learning_rate must be finite"),
        ("weight_decay=inf", "weight_decay must be finite"),
        ("generator_noise=inf", "generator_noise must be finite"),
        ("alpha=inf", "alpha must be finite"),
    ])
    def test_negative_setting_is_config_error(self, out_root, capsys, override, message):
        # each once failed past config loading: the negative settings in
        # numpy with a bare ValueError traceback, the fractions after all
        # training, the odd total with a message naming no config key, an
        # infinite noise sigma, learning rate, weight decay, generator noise
        # or (under bsm) alpha as diverged training (exit 3) and a jitter
        # whose draw range 2 * jitter overflows with an OverflowError
        config = write_config(out_root, FAST_BLOBS + "output.dir = neg\n")
        code = main(["run", "--config", config, "--set", override])
        assert code == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (out_root / "neg").exists()

    def test_bsm_with_too_few_training_rows_is_config_error(self, out_root, capsys,
                                                            monkeypatch):
        # once trained an epoch, then failed in the Beta-mixture fit with a
        # message naming no config key
        import mixboot.experiment as experiment

        trained = []
        monkeypatch.setattr(experiment, "train", lambda *job: trained.append(job))
        config = write_config(out_root, FAST_BLOBS + "output.dir = few\n")
        code = main(["run", "--config", config, "--set", "method=bsm",
                     "--set", "n_train=8"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: method = bsm needs n_train >= 10\n"
        assert trained == []
        assert not (out_root / "few").exists()

    def test_non_utf8_config_is_config_error(self, out_root, capsys):
        path = out_root / "config.txt"
        path.write_bytes(FAST_BLOBS.encode() + b"# \xff\n")
        code = main(["run", "--config", str(path)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: not UTF-8 text")

    def test_divergence_exit_code(self, out_root, capsys):
        config = write_config(
            out_root,
            "method = ce\nn_train = 100\nn_val = 20\nmax_epochs = 5\n"
            "learning_rate = 1e12\nweight_decay = 1e12\noutput.dir = boom\n",
        )
        code = main(["run", "--config", config])
        assert code == EXIT_DIVERGED
        # the overflow that diverges it prints no numpy warning
        assert capsys.readouterr().err == (
            "error: training diverged: non-finite activations in forward pass\n")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_divergence_in_an_mc_dropout_worker_exit_code(self, out_root, capsys,
                                                          monkeypatch, cpus, deadline):
        import numpy as np

        import mixboot.experiment as experiment

        real_train = experiment.train

        def poisoned(config, dataset):
            model, log = real_train(config, dataset)
            model.b3[0] = np.nan
            return model, log

        monkeypatch.setattr(experiment, "train", poisoned)
        forked = cpus(2)
        # 4 passes over 8192 rows: enough work for the passes to fork
        config = write_config(out_root, FAST_BLOBS + "n_val = 8192\n"
                                                    "estimator.kind = mc_dropout\n"
                                                    "estimator.passes = 4\noutput.dir = mc\n")
        assert main(["run", "--config", config]) == EXIT_DIVERGED
        assert len(forked) == 2  # one training here, then the passes in two workers
        assert "diverged: non-finite" in capsys.readouterr().err

    def test_one_class_split_records_undefined_auc(self, out_root, capsys):
        # n_val = 2 draws both validation rows from one class here
        config = write_config(out_root, FAST_BLOBS + "n_val = 2\noutput.dir = one\n"
                                                    "output.formats = csv,json\n")
        assert main(["run", "--config", config]) == EXIT_OK
        run = out_root / "one"
        labels = {line.split(",")[1] for line in
                  (run / "predictions.csv").read_text().splitlines()[1:]}
        assert len(labels) == 1
        assert json.loads((run / "metrics.json").read_text())["roc_auc"] is None
        row = (run / "metrics.csv").read_text().splitlines()[-1].split(",")
        assert row[3] == "nan"
        capsys.readouterr()
        assert main(["report", "--run", str(run)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "roc_auc = None" in out
        assert "matches stored metrics.json: yes" in out
        assert "matches stored metrics.csv: yes" in out

        sweep = main(["sweep", "--config", config, "--out", "one_sweep",
                      "--axis", "noise_rates", "--values", "0.0"])
        assert sweep == EXIT_OK
        row = (out_root / "one_sweep" / "sweep.csv").read_text().splitlines()[-1].split(",")
        assert row[2] == "ok" and row[6] == "nan"

    def test_failed_write_is_io_error_and_keeps_previous_run(self, out_root, capsys,
                                                              monkeypatch):
        import mixboot.experiment as experiment

        config = write_config(out_root, FAST_BLOBS + "output.dir = kept\n")
        assert main(["run", "--config", config]) == EXIT_OK
        run = out_root / "kept"

        def tree():
            return {str(p.relative_to(run)): p.read_bytes() for p in run.rglob("*")
                    if p.is_file()}

        first = tree()

        def full_disk(model, path):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(experiment, "save_model", full_disk)
        capsys.readouterr()
        code = main(["run", "--config", config, "--set", "seed = 1"])
        assert code == EXIT_CONFIG
        assert "No space left on device" in capsys.readouterr().err
        assert tree() == first
        assert sorted(p.name for p in out_root.iterdir()) == ["config.txt", "kept"]

    @pytest.mark.parametrize("verb", [
        ["run"], ["sweep", "--axis", "alphas", "--values", "0.1"]], ids=["run", "sweep"])
    def test_out_onto_foreign_directory_refused(self, out_root, capsys, monkeypatch,
                                                verb):
        import mixboot.experiment as experiment

        mine = out_root / "mine"
        mine.mkdir()
        (mine / "notes.txt").write_text("keep me")
        trained = []
        monkeypatch.setattr(experiment, "train", lambda *job: trained.append(job))
        config = write_config(out_root, FAST_BLOBS)
        code = main([verb[0], "--config", config, "--out", "mine", *verb[1:]])
        assert code == EXIT_CONFIG
        assert "mine exists and is not a run or sweep directory" in capsys.readouterr().err
        assert trained == []
        assert [p.name for p in mine.iterdir()] == ["notes.txt"]
        assert (mine / "notes.txt").read_text() == "keep me"

    def test_out_onto_working_directory_refused(self, tmp_path, capsys, monkeypatch):
        # an empty working directory was swapped away, leaving the shell in
        # a deleted directory
        monkeypatch.delenv(OUTPUT_ROOT_ENV, raising=False)
        config = write_config(tmp_path, FAST_BLOBS)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code = main(["run", "--config", config, "--out", "."])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {work} is the working directory or holds it; "
            "refusing to replace it\n")
        assert work.is_dir() and list(work.iterdir()) == []

    def test_out_onto_directory_holding_working_directory_refused(self, tmp_path, capsys,
                                                                  monkeypatch):
        # from a run's models/, --out .. replaced the run around the shell
        monkeypatch.delenv(OUTPUT_ROOT_ENV, raising=False)
        config = write_config(tmp_path, FAST_BLOBS)
        run_dir = tmp_path / "r1"
        assert main(["run", "--config", config, "--out", str(run_dir)]) == EXIT_OK
        before = read_tree(run_dir)
        monkeypatch.chdir(run_dir / "models")
        capsys.readouterr()
        code = main(["run", "--config", config, "--out", ".."])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: {run_dir} is the working directory or holds it; "
            "refusing to replace it\n")
        assert read_tree(run_dir) == before


class TestSweepVerb:
    def test_sweep_writes_table(self, out_root, capsys):
        config = write_config(out_root, FAST_BLOBS + "output.dir = sw\n")
        code = main(["sweep", "--config", config, "--axis", "methods",
                     "--values", "ce,mixup_ce"])
        assert code == EXIT_OK
        assert "sweep table written to" in capsys.readouterr().out
        table = (out_root / "sw" / "sweep.csv").read_text()
        assert "methods,ce,ok," in table
        assert "methods,mixup_ce,ok," in table

    def test_bad_values_are_config_error(self, out_root, capsys):
        config = write_config(out_root, FAST_BLOBS + "output.dir = sw2\n")
        code = main(["sweep", "--config", config, "--axis", "alphas",
                     "--values", "small,big"])
        assert code == EXIT_CONFIG
        assert ("--values for axis 'alphas': alpha: expected a number, got 'small'"
                in capsys.readouterr().err)
        assert not (out_root / "sw2").exists()

    def test_empty_values_are_config_error(self, out_root, capsys):
        config = write_config(out_root, FAST_BLOBS + "output.dir = sw3\n")
        code = main(["sweep", "--config", config, "--axis", "tta_repeats",
                     "--values", " , "])
        assert code == EXIT_CONFIG
        assert ("--values for axis 'tta_repeats': estimator.repeats: expected a "
                "comma-separated list, got ' , '" in capsys.readouterr().err)

    def test_unknown_axis_rejected_by_parser(self, out_root):
        config = write_config(out_root, FAST_BLOBS)
        with pytest.raises(SystemExit):
            main(["sweep", "--config", config, "--axis", "bogus", "--values", "1"])


# every file report re-renders, in the order it checks them
DERIVED = ("config.txt", "metrics.json", "metrics.csv", "reliability_bins.csv",
           "referral_curve.csv", "threshold_curve.csv", "distance_summary.json")
# every file report checks, in order: the rendered files by their bytes,
# then the row tables by the bits of their derived columns
CHECKED = (*DERIVED, "predictions.csv", "distance_records.csv")


def edit_rows(text, edit):
    """``text`` with ``edit`` applied to the cell list of every data row."""
    header, *rows = text.splitlines()
    return "\n".join([header, *(",".join(edit(row.split(","))) for row in rows)]) + "\n"


def bump_last_digit(text):
    i = max(i for i, ch in enumerate(text) if ch.isdigit())
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]


class TestReportVerb:
    def run_once(self, out_root, extra=""):
        config = write_config(out_root, FAST_BLOBS + "output.dir = rep\n" + extra)
        assert main(["run", "--config", config]) == EXIT_OK
        return out_root / "rep"

    def report(self, run_dir, capsys):
        """report's exit code and its ``matches stored`` lines."""
        capsys.readouterr()
        code = main(["report", "--run", str(run_dir)])
        out = capsys.readouterr().out
        return code, [line for line in out.splitlines() if line.startswith("matches")]

    def test_recomputation_matches(self, out_root, capsys):
        run_dir = self.run_once(out_root)
        capsys.readouterr()
        code = main(["report", "--run", str(run_dir)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "matches stored metrics.json: yes" in out
        assert out.splitlines()[-len(CHECKED):] == [
            f"matches stored {name}: yes" for name in CHECKED]

    @pytest.mark.parametrize("extra", [
        "estimator.kind = single\n",
        "estimator.kind = ensemble\nestimator.ensemble_size = 2\n",
        "estimator.kind = mc_dropout\nestimator.passes = 3\n",
        "estimator.kind = tta\nestimator.repeats = 2\n",
        "method = ce_aug\nestimator.kind = tta\nestimator.repeats = 0\n",
        "generator = two_moons\nmethod = bsm\nnoise_rate = 0.2\n",
    ], ids=["single", "ensemble", "mc_dropout", "tta", "ce_aug_tta0", "bsm"])
    def test_every_derived_file_matches(self, out_root, capsys, extra):
        run_dir = self.run_once(out_root, extra)
        assert self.report(run_dir, capsys) == (
            EXIT_OK, [f"matches stored {name}: yes" for name in CHECKED])

    def test_degenerate_distance_run_matches(self, out_root, capsys):
        # one penultimate unit: every distance is exactly 0.0 or NaN, on any
        # BLAS kernel, so the correlation is degenerate without rounding
        run_dir = self.run_once(out_root, "hidden_2 = 1\n")
        summary = json.loads((run_dir / "distance_summary.json").read_text())
        assert "degenerate" in summary
        assert summary["n"] + summary["n_dropped"] == 20
        assert self.report(run_dir, capsys) == (
            EXIT_OK, [f"matches stored {name}: yes" for name in CHECKED])

    def test_one_class_split_matches(self, out_root, capsys):
        run_dir = self.run_once(out_root, "n_val = 2\n")
        assert json.loads((run_dir / "metrics.json").read_text())["roc_auc"] is None
        assert self.report(run_dir, capsys) == (
            EXIT_OK, [f"matches stored {name}: yes" for name in CHECKED])

    @pytest.mark.parametrize("name", DERIVED)
    def test_tampered_file_flagged(self, out_root, capsys, name):
        run_dir = self.run_once(out_root)
        stored = run_dir / name
        text = stored.read_text()
        # config.txt is parsed, so an edited value would render back as
        # written; a comment keeps the config and changes only the bytes
        stored.write_text(text + "# edited\n" if name == "config.txt"
                          else bump_last_digit(text))
        assert self.report(run_dir, capsys) == (EXIT_MISMATCH, [
            f"matches stored {other}: {'NO' if other == name else 'yes'}"
            for other in CHECKED])

    @pytest.mark.parametrize("name, column", [
        ("predictions.csv", "sample_index"),
        ("distance_records.csv", "sample_index"),
        ("distance_records.csv", "uncertainty"),
        ("distance_records.csv", "correct"),
    ])
    def test_tampered_row_table_column_flagged(self, out_root, capsys, name, column):
        # the row tables are inputs: a derived column that no longer follows
        # from the predictions is a mismatch of its table
        run_dir = self.run_once(out_root)
        table = run_dir / name
        lines = table.read_text().splitlines(keepends=True)
        header = next(line for line in lines if not line.startswith("#"))
        j = header.rstrip("\n").split(",").index(column)
        cells = lines[-1].rstrip("\n").split(",")
        cells[j] = {"sample_index": "0", "uncertainty": "0.5",
                    "correct": "1" if cells[j] == "0" else "0"}[column]
        table.write_text("".join(lines[:-1]) + ",".join(cells) + "\n")
        assert self.report(run_dir, capsys) == (EXIT_MISMATCH, [
            f"matches stored {other}: {'NO' if other == name else 'yes'}"
            for other in CHECKED])

    @pytest.mark.parametrize("name, edit", [
        ("predictions.csv", lambda text: text.replace(
            "sample_index,label,prob_0,prob_1\n", "sample_index,label,prob_0,prob_x\n", 1)),
        ("distance_records.csv",
         lambda text: "# config_hash=000000000000\n" + text.split("\n", 1)[1]),
        ("distance_records.csv", lambda text: text.replace(",correct\n", ",correctness\n", 1)),
    ], ids=["predictions_header", "distance_records_provenance", "distance_records_header"])
    def test_tampered_row_table_head_flagged(self, out_root, capsys, name, edit):
        # the lines before the rows are read by no parser, so they are
        # compared by their bytes with the heads this run's config renders
        run_dir = self.run_once(out_root)
        table = run_dir / name
        text = table.read_text()
        assert edit(text) != text
        table.write_text(edit(text))
        assert self.report(run_dir, capsys) == (EXIT_MISMATCH, [
            f"matches stored {other}: {'NO' if other == name else 'yes'}"
            for other in CHECKED])

    def test_tampered_metrics_flagged(self, out_root, capsys):
        run_dir = self.run_once(out_root)
        stored = json.loads((run_dir / "metrics.json").read_text())
        stored["accuracy"] = 0.123
        (run_dir / "metrics.json").write_text(json.dumps(stored))
        capsys.readouterr()
        code = main(["report", "--run", str(run_dir)])
        out = capsys.readouterr().out
        assert code == EXIT_MISMATCH
        assert "matches stored metrics.json: NO" in out

    def test_mismatch_exit_code_is_documented_four(self, out_root):
        # README "Exit codes": 4 report mismatch
        run_dir = self.run_once(out_root)
        stored = json.loads((run_dir / "metrics.json").read_text())
        stored["brier"] = -1.0
        (run_dir / "metrics.json").write_text(json.dumps(stored))
        assert main(["report", "--run", str(run_dir)]) == 4

    def test_reused_directory_reports_the_last_run(self, out_root, capsys):
        # an ensemble-3 run, then a single csv-only run into the same directory
        self.run_once(out_root, extra="estimator.kind = ensemble\n"
                                     "estimator.ensemble_size = 3\n")
        run_dir = self.run_once(out_root, extra="estimator.kind = single\n"
                                               "output.formats = csv\n")
        capsys.readouterr()
        assert main(["report", "--run", str(run_dir)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "matches stored metrics.csv: yes" in out
        assert "matches stored metrics.json" not in out
        assert [p.name for p in (run_dir / "models").iterdir()] == ["model_0.txt"]

    def test_csv_only_run_matches(self, out_root, capsys):
        run_dir = self.run_once(out_root, extra="output.formats = csv\n")
        capsys.readouterr()
        code = main(["report", "--run", str(run_dir)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "matches stored metrics.csv: yes" in out
        assert "matches stored metrics.json" not in out

    def test_tampered_metrics_csv_flagged(self, out_root, capsys):
        run_dir = self.run_once(out_root)
        stored = run_dir / "metrics.csv"
        text = stored.read_text()
        assert "\nce," in text  # the data row starts with the method
        stored.write_text(text.replace("\nce,", "\nbsm,"))
        capsys.readouterr()
        code = main(["report", "--run", str(run_dir)])
        out = capsys.readouterr().out
        assert code == EXIT_MISMATCH
        assert "matches stored metrics.json: yes" in out
        assert "matches stored metrics.csv: NO" in out

    @pytest.mark.parametrize("name,stored", [
        ("metrics.json", b"{not json"),
        ("metrics.csv", b"\xff\xfe"),
        ("reliability_bins.csv", b"\xff\xfe"),
        ("referral_curve.csv", b"\xff\xfe"),
        ("threshold_curve.csv", b"\xff\xfe"),
        ("distance_summary.json", b"{not json"),
    ])
    def test_unparseable_stored_metrics_flagged(self, out_root, capsys, name, stored):
        # the stored file is compared by bytes, never parsed (config.txt is
        # parsed: see test_non_utf8_stored_config_is_config_error)
        run_dir = self.run_once(out_root)
        (run_dir / name).write_bytes(stored)
        assert self.report(run_dir, capsys) == (EXIT_MISMATCH, [
            f"matches stored {other}: {'NO' if other == name else 'yes'}"
            for other in CHECKED])

    def test_non_utf8_stored_config_is_config_error(self, out_root, capsys):
        run_dir = self.run_once(out_root)
        with open(run_dir / "config.txt", "ab") as fh:
            fh.write(b"# \xff\n")
        capsys.readouterr()
        assert main(["report", "--run", str(run_dir)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "config.txt: not UTF-8 text" in err

    @pytest.mark.parametrize("rows", [
        "0,1,abc,0.5\n",  # a cell that is no number
        "0,1.5,0.5,0.5\n",  # a label that is no class index
        "0,1,0.5,0.5\n1,0,0.5\n",  # a short row
        "",  # no rows
        "0,1,1.5,-0.5\n",  # a probability outside [0, 1]
        "0,1,0.5,0.4\n",  # a row that does not sum to 1
        "0,7,0.5,0.5\n",  # a label past the last class
        "0,1,nan,nan\n",  # a NaN probability
        "0,inf,0.5,0.5\n",  # a label that no int64 holds
    ])
    @pytest.mark.filterwarnings("error")  # the error: line is all the user sees
    def test_malformed_predictions_are_input_errors(self, out_root, capsys, rows):
        write_config(out_root, FAST_BLOBS)
        predictions = out_root / "predictions.csv"
        predictions.write_text("sample_index,label,prob_0,prob_1\n" + rows)
        capsys.readouterr()
        assert main(["report", "--run", str(out_root)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {predictions}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("name, edit, message", [
        ("predictions.csv", lambda text: edit_rows(text, lambda c: [c[0], "0", "1.0"]),
         "rows must hold 2 class probabilities, got 1"),
        ("predictions.csv", lambda text: edit_rows(text, lambda c: c + ["0.0"]),
         "rows must hold 2 class probabilities, got 3"),
        ("config.txt", lambda text: text + "analysis.bin_width = 0.0001\n",
         "analysis.bin_width must lie in [1/1000, 1] (at most 1000 reliability bins)"),
    ], ids=["one_class", "three_classes", "bin_width_1e-4"])
    @pytest.mark.filterwarnings("error")  # the error: line is all the user sees
    def test_malformed_run_directories_are_input_errors(self, out_root, capsys, name,
                                                        edit, message):
        # one probability column once ended in an IndexError traceback (exit
        # 1), three in a message naming no file, and a bin width of 1e-4 was
        # rendered as 10000 bins (1e-9 asked for 8 GB per bin array)
        run_dir = self.run_once(out_root)
        stored = run_dir / name
        stored.write_text(edit(stored.read_text()))
        capsys.readouterr()
        assert main(["report", "--run", str(run_dir)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: {stored}: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("edit", ["missing", "short", "one_column", "non_number"])
    @pytest.mark.filterwarnings("error")  # the error: line is all the user sees
    def test_bad_distance_records_are_input_errors(self, out_root, capsys, edit):
        run_dir = self.run_once(out_root)
        records = run_dir / "distance_records.csv"
        lines = records.read_text().splitlines(keepends=True)
        if edit == "missing":
            records.unlink()
        elif edit == "short":  # one row fewer than predictions.csv
            records.write_text("".join(lines[:-1]))
        elif edit == "one_column":
            records.write_text("".join(lines[:-1]) + "19\n")
        else:
            cells = lines[-1].split(",")
            cells[1] = "abc"
            records.write_text("".join(lines[:-1]) + ",".join(cells))
        capsys.readouterr()
        assert main(["report", "--run", str(run_dir)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {records}: ")
        assert captured.out == ""

    def test_non_run_directory_rejected(self, out_root, capsys):
        code = main(["report", "--run", str(out_root)])
        assert code == EXIT_CONFIG
        assert "not a run directory" in capsys.readouterr().err

    def test_report_without_stored_metrics_still_prints(self, out_root, capsys):
        # metrics.json is not rendered for a csv-only run; a rendered file
        # that is absent is a mismatch
        run_dir = self.run_once(out_root, extra="output.formats = csv\n")
        assert not (run_dir / "metrics.json").exists()
        (run_dir / "metrics.csv").unlink()
        capsys.readouterr()
        code = main(["report", "--run", str(run_dir)])
        out = capsys.readouterr().out
        assert code == EXIT_MISMATCH
        assert "accuracy = " in out
        assert [line for line in out.splitlines() if line.startswith("matches")] == [
            f"matches stored {name}: {'MISSING' if name == 'metrics.csv' else 'yes'}"
            for name in CHECKED if name != "metrics.json"]


class TestImportGraph:
    # numpy is the only runtime dependency: scipy (0.2 s of start-up for
    # scipy.special, about a second for scipy.stats) serves only as a test
    # oracle, and a lazy import would just move that cost into a verb
    SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"

    def run_python(self, code):
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.strip().splitlines()[-1]

    def test_cli_import_loads_no_scipy(self):
        assert self.run_python(f"import sys, mixboot.cli; print({self.SCIPY_LOADED})") == "False"

    def test_cli_import_loads_no_process_pool(self):
        # members train in plain forked workers, which need neither module
        loaded = ("any(m in sys.modules for m in "
                  "('multiprocessing', 'concurrent.futures'))")
        assert self.run_python(f"import sys, mixboot.cli; print({loaded})") == "False"

    @pytest.fixture(scope="class")
    def run_and_report_modules(self, tmp_path_factory):
        """The modules loaded after a small bsm run (perfbench's smoke
        sizes) and its report in one process: they reach the BMM fit, the
        Spearman p-value, both curves and report."""
        root = tmp_path_factory.mktemp("imports")
        config = write_config(root, (
            "method = bsm\ngenerator = two_moons\nnoise_rate = 0.2\n"
            "n_train = 200\nn_val = 100\nmax_epochs = 2\npatience = 2\n"
            "estimator.kind = mc_dropout\nestimator.passes = 3\n"
            f"output.dir = {root / 'run'}\n"
        ))
        code = (
            "import sys\n"
            "from mixboot.cli import main\n"
            f"assert main(['run', '--config', {config!r}]) == 0\n"
            f"assert main(['report', '--run', {str(root / 'run')!r}]) == 0\n"
            "print(' '.join(sys.modules))\n"
        )
        return set(self.run_python(code).split())

    def test_run_and_report_load_no_scipy(self, run_and_report_modules):
        assert not any(m == "scipy" or m.startswith("scipy.")
                       for m in run_and_report_modules)

    def test_run_and_report_load_no_numpy_ma(self, run_and_report_modules):
        # np.unique imports numpy.ma on its first call: 12-14 ms and 1.7 MB
        assert "numpy" in run_and_report_modules
        assert "numpy.ma" not in run_and_report_modules
