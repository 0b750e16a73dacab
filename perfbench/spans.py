"""Spans around the calls into each mixboot layer, for the traced run.

``HOOKS`` is the one table of wrap points.  Each row names the module
whose attribute the *caller* resolves at call time (``trainer.forward``
is the name the training loop calls; ``mlp.forward`` the one
``MlpModel.predict_logits`` calls), the attribute, and the metric the
spans are booked under.  Several rows may book one metric.  A row whose
target no longer exists is reported as absent with a warning and never
fails the run, so refactors that delete a function keep the benchmark
running.  An untraced child never calls ``install``, so it runs the
package unwrapped.

Metric names start with their layer.  The ``_kernels`` module is booked
as ``kernels`` because a metric name must start with a letter.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _rows_of(position: int):
    def count(args, kwargs, result):
        return {"rows": len(args[position])}
    return count


def _cosine_flops(args, kwargs, result):
    (nq, h), nb = args[0].shape, args[1].shape[0]
    return {"flops": 2 * nq * nb * h}


def _bmm_fit(args, kwargs, result):
    return {"uninformative": int(result.uninformative)}


def _train(args, kwargs, result):
    config, dataset = args[0], args[1]
    log = result[1]
    epochs = log.stopped_epoch + 1
    batches = math.ceil(dataset.train_inputs.shape[0] / config.batch_size)
    return {"epochs": epochs, "useful_epochs": log.best_epoch + 1,
            "steps": epochs * batches}


def _members(args, kwargs, result):
    return {"members": len(result[1])}


def _sweep_members(args, kwargs, result):
    return {"members": len(args[2])}


def _mc_dropout(args, kwargs, result):
    return {"passes": args[2], "rows": len(args[1])}


@dataclass(frozen=True)
class Hook:
    module: str          # submodule of mixboot that holds the attribute
    attribute: str       # dotted for methods, e.g. "MlpModel.predict_logits"
    metric: str
    count: Callable | None = None   # (args, kwargs, result) -> {counter: value}


HOOKS = (
    Hook("config", "load_config", "config.load_config"),
    Hook("cli", "load_config", "config.load_config"),
    Hook("trainer", "build_dataset", "data.build_dataset"),
    Hook("trainer", "mixup_batch", "augment.mixup_batch", _rows_of(0)),
    Hook("trainer", "forward", "mlp.forward", _rows_of(1)),
    Hook("mlp", "forward", "mlp.forward", _rows_of(1)),
    Hook("trainer", "backward_step", "mlp.backward_step"),
    Hook("mlp", "MlpModel.predict_logits", "mlp.MlpModel.predict_logits"),
    Hook("mlp", "MlpModel.features", "mlp.MlpModel.features"),
    Hook("experiment", "save_model", "mlp.save_model"),
    Hook("trainer", "batch_bsm_targets", "losses.batch_bsm_targets"),
    Hook("_kernels", "loss_from_targets", "kernels.loss_from_targets", _rows_of(0)),
    Hook("_kernels", "bmm_e_step", "kernels.bmm_e_step", _rows_of(0)),
    Hook("_kernels", "min_cosine_distances", "kernels.min_cosine_distances",
         _cosine_flops),
    Hook("trainer", "fit_bmm", "noise_model.fit_bmm", _bmm_fit),
    Hook("trainer", "noisy_posterior", "noise_model.noisy_posterior"),
    Hook("trainer", "_per_sample_ce", "trainer.per_sample_ce"),
    Hook("experiment", "train", "trainer.train", _train),
    Hook("experiment", "train_models", "experiment.train_models", _members),
    Hook("experiment", "estimate", "experiment.estimate"),
    Hook("experiment", "mc_dropout_predict", "estimators.mc_dropout_predict",
         _mc_dropout),
    Hook("experiment", "ensemble_predict", "estimators.ensemble_predict"),
    Hook("experiment", "compute_report", "experiment.compute_report"),
    Hook("cli", "compute_report", "experiment.compute_report"),
    Hook("experiment", "distance_records", "analysis.distance_records"),
    Hook("experiment", "referral_curve", "analysis.referral_curve"),
    Hook("experiment", "threshold_curve", "analysis.threshold_curve"),
    Hook("experiment", "distance_perception_summary",
         "analysis.distance_perception_summary"),
    Hook("experiment", "run_experiment", "experiment.run_experiment"),
    Hook("experiment", "run_sweep", "experiment.run_sweep", _sweep_members),
    Hook("cli", "read_predictions", "experiment.read_predictions"),
    Hook("cli", "main", "cli.report"),
)


def layer_of(metric: str) -> str:
    return metric.split(".", 1)[0]


class Tracer:
    """Aggregates nested spans into busy time, self time, calls and counters.

    busy_s is the summed span duration.  self_s subtracts the time covered
    by direct child spans; in one thread children run one after another, so
    that is the sum of their durations.  Each span is also booked under
    ``<metric>.in_<layer>``, the layer of the nearest enclosing span from
    another layer, so a layer's cost can be split by who called it.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, dict[str, float]] = {}
        self._open: list[list] = []  # [metric, start, child_time, context]
        self._count_failed: set[str] = set()

    def _context(self, metric: str) -> str | None:
        layer = layer_of(metric)
        for frame in reversed(self._open):
            if layer_of(frame[0]) != layer:
                return layer_of(frame[0])
        return None

    def enter(self, metric: str) -> None:
        self._open.append([metric, self.clock(), 0.0, self._context(metric)])

    def exit(self, counters: dict | None = None) -> None:
        metric, start, child_time, context = self._open.pop()
        busy = self.clock() - start
        if self._open:
            self._open[-1][2] += busy
        keys = [metric] if context is None else [metric, f"{metric}.in_{context}"]
        for key in keys:
            entry = self.stats.setdefault(key, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
            entry["busy_s"] += busy
            entry["self_s"] += busy - child_time
            entry["calls"] += 1
        for name, value in (counters or {}).items():
            entry = self.stats[metric]
            entry[name] = entry.get(name, 0) + value

    def wrap(self, hook: Hook, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(hook.metric)
            counters = None
            try:
                result = fn(*args, **kwargs)
                if hook.count is not None:
                    counters = self._count(hook, args, kwargs, result)
                return result
            finally:
                self.exit(counters)

        return traced

    def _count(self, hook: Hook, args, kwargs, result) -> dict | None:
        # a changed signature loses the counter, never the run
        try:
            return hook.count(args, kwargs, result)
        except (TypeError, IndexError, AttributeError, ValueError, KeyError) as exc:
            where = f"{hook.module}.{hook.attribute}"
            if where not in self._count_failed:
                self._count_failed.add(where)
                print(f"perfbench: counter for {where} failed "
                      f"({type(exc).__name__}: {exc}); counts dropped", file=sys.stderr)
            return None


def install(tracer: Tracer, hooks=HOOKS) -> list[str]:
    """Wrap every hook target that exists; return the absent ones."""
    absent = []
    for hook in hooks:
        where = f"{hook.module}.{hook.attribute}"
        try:
            owner = importlib.import_module(f"mixboot.{hook.module}")
        except ImportError:
            owner = None
        *path, name = hook.attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        target = getattr(owner, name, None)
        if not callable(target):
            absent.append(where)
            print(f"perfbench: hook {where} is absent; {hook.metric} "
                  "may read 0", file=sys.stderr)
            continue
        setattr(owner, name, tracer.wrap(hook, target))
    return absent


def _outermost_us(roots: list, prefix: str) -> int:
    """Cumulative microseconds of the outermost imports named prefix[.*]."""
    total = 0
    for name, cumulative, children in roots:
        if name == prefix or name.startswith(prefix + "."):
            total += cumulative
        else:
            total += _outermost_us(children, prefix)
    return total


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing mixboot and scipy.stats, from -X importtime.

    The log lists a module after the modules it imported, one indent level
    deeper per nesting level, so the import tree is rebuilt bottom-up.  A
    package loaded through importlib (scipy loads ``scipy.stats`` lazily
    that way) has no line of its own, so its figure is the sum over its
    outermost submodules.
    """
    pending: dict[int, list] = {}
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        if not parts[1].strip().isdigit():
            continue  # the header line
        name = parts[2].rstrip()
        level = (len(name) - len(name.lstrip()) - 1) // 2
        children = pending.pop(level + 1, [])
        pending.setdefault(level, []).append((name.strip(), int(parts[1]), children))
    roots = pending.get(0, [])
    return {"import.mixboot.s": _outermost_us(roots, "mixboot") / 1e6,
            "import.scipy.stats.s": _outermost_us(roots, "scipy.stats") / 1e6}
