"""Self-test of the pipeline benchmark: ``python3 perfbench/selftest.py``.

Checks the tracer's self-time arithmetic on a scripted clock, that
times are scaled by the reference loop of their own child, the
import-time parser, that BENCHMARK.json and run.py name the same
metrics with the same units, that a smoke-sized run of every workload,
traced and untraced, prints exactly those metrics and passes its own
correctness checks, and that the benchmark refuses to run without the
mixboot sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def scripted_clock(*times):
    ticks = iter(times)
    return lambda: next(ticks)


class TracerArithmetic(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        # train [0, 10] holds forward [1, 3], which holds a kernel [1.5, 2.5],
        # then backward_step [4, 5]
        tracer = spans.Tracer(scripted_clock(0, 1, 1.5, 2.5, 3, 4, 5, 10))
        tracer.enter("trainer.train")
        tracer.enter("mlp.forward")
        tracer.enter("kernels.loss_from_targets")
        tracer.exit()
        tracer.exit()
        tracer.enter("mlp.backward_step")
        tracer.exit()
        tracer.exit()
        stats = tracer.stats
        self.assertEqual(stats["trainer.train"], {"busy_s": 10, "self_s": 7, "calls": 1})
        self.assertEqual(stats["mlp.forward"], {"busy_s": 2, "self_s": 1, "calls": 1})
        self.assertEqual(stats["kernels.loss_from_targets"]["self_s"], 1)
        self.assertEqual(stats["mlp.backward_step"]["self_s"], 1)
        self.assertEqual(stats["mlp.forward.in_trainer"]["busy_s"], 2)
        self.assertEqual(stats["kernels.loss_from_targets.in_mlp"]["calls"], 1)

    def test_caller_layer_skips_spans_of_the_same_layer(self):
        tracer = spans.Tracer(scripted_clock(0, 1, 2, 3, 4, 5))
        tracer.enter("estimators.mc_dropout_predict")
        tracer.enter("mlp.MlpModel.predict_logits")
        tracer.enter("mlp.forward")
        for _ in range(3):
            tracer.exit()
        self.assertEqual(tracer.stats["mlp.forward.in_estimators"]["busy_s"], 1)
        self.assertNotIn("mlp.forward.in_mlp", tracer.stats)

    def test_wrapped_call_counts_and_closes_on_error(self):
        tracer = spans.Tracer()
        hook = spans.Hook("m", "f", "augment.mixup_batch", spans._rows_of(0))

        def boom(rows):
            raise ValueError("no")

        tracer.wrap(hook, lambda rows: rows)([1, 2, 3])
        with self.assertRaises(ValueError):
            tracer.wrap(hook, boom)([1])
        entry = tracer.stats["augment.mixup_batch"]
        self.assertEqual((entry["calls"], entry["rows"]), (2, 3))
        self.assertEqual(tracer._open, [])

    def test_missing_targets_are_absent_not_errors(self):
        sys.path.insert(0, str(run.SRC))
        hooks = (spans.Hook("trainer", "no_such_function", "x.y"),
                 spans.Hook("no_such_module", "f", "x.z"))
        absent = spans.install(spans.Tracer(), hooks=hooks)
        self.assertEqual(absent, ["trainer.no_such_function", "no_such_module.f"])


class ReferenceScaling(unittest.TestCase):
    def test_times_are_scaled_by_the_reference_of_their_own_operation(self):
        def op(wall, scale):
            return {"result": {}, "traced": False, "wall_s": wall, "setup_s": 1.0,
                    "epochs": 10, "peak_rss_mb": 100.0, "scale": scale}
        ops = [op(2.0, 0.5), op(3.0, 1.0)]
        samples = run.end_to_end(ops)
        self.assertEqual(samples["wall_s"], [1.0, 3.0])
        self.assertEqual(samples["ms_per_epoch"], [100.0, 300.0])
        self.assertEqual(samples["setup_s"], [0.5, 1.0])
        self.assertEqual(samples["peak_rss_mb"], [100.0, 100.0])
        self.assertEqual(run.end_to_end(ops, scaled=False)["wall_s"], [2.0, 3.0])


class ImportTimeParser(unittest.TestCase):
    def test_outermost_imports_are_summed(self):
        log = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       400 |        500 |       scipy.stats._stats_py",
            "import time:       300 |        300 |       scipy.stats.distributions",
            "import time:       200 |       1000 |     mixboot.analysis",
            "import time:       100 |       1100 |   mixboot",
            "import time:       100 |       1200 | mixboot.cli",
        ])
        self.assertEqual(spans.parse_importtime(log),
                         {"import.mixboot.s": 0.0012, "import.scipy.stats.s": 0.0008})


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]],
                         list(run.PER_LAYER))


def _run(args, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


class SmokeRuns(unittest.TestCase):
    def _result(self, workload: str, trace: int) -> dict:
        proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke"], cwd=run.ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual((result["correct"], result["failed"]), (True, 0), proc.stdout)
        names = BENCHMARK["per_layer" if trace else "end_to_end"]
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in names})
        return {k: v["value"] for k, v in result["metrics"].items()}

    def test_every_workload_emits_every_metric(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                values = self._result(workload, 0)
                self.assertTrue(all(v > 0 for v in values.values()), values)
                layers = self._result(workload, 1)
                self.assertEqual(layers["trace.absent_hooks"], 0)
                self.assertGreater(layers["trainer.train.busy_s"], 0)
                bsm = workload == "run_bsm"
                self.assertEqual(layers["augment.mixup_batch.calls"] > 0, bsm)
                self.assertEqual(layers["noise_model.fit_bmm.calls"] > 0, bsm)
                if workload == "sweep_ce_ensemble":
                    self.assertEqual(layers["experiment.train_models.members"], 4)
                    self.assertEqual(layers["experiment.run_sweep.members"], 2)

    def test_refuses_to_run_without_the_sources(self):
        run.TMP_BASE.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.TMP_BASE))
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run(["--workload", "run_bsm", "--seed", "0", "--seconds", "1",
                         "--trace", "0"], cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)
            try:
                run.TMP_BASE.rmdir()
            except OSError:
                pass


if __name__ == "__main__":
    unittest.main()
