"""End-to-end pipeline benchmark for mixboot: ``run``, ``sweep`` and ``report``.

Usage, from the repository root:

    python3 perfbench/run.py --workload run_bsm --seed 0 --seconds 42 --trace 0

Closed loop with one client.  Each operation is a fresh child interpreter
(``child.py``) that imports ``mixboot.cli``, parses the workload config,
calls the public entry points (``experiment.run_experiment`` or
``experiment.run_sweep``, then ``cli.main(["report", ...])`` on every run
directory) and exits.  The next child starts only after the previous one
has ended.  Children keep starting while the run stays within
``--seconds``; at least three run.  Every child writes into a fresh
temporary ``MIXBOOT_OUTPUT_ROOT`` under ``.perfbench_tmp/``, removed
afterwards, so no stale file survives into the next operation.  Children
run with one BLAS thread (``ONE_BLAS_THREAD``); the thread count the
child actually got is printed with the other machine facts.

The workload seed is the config ``seed``: it picks the dataset, the label
flips, the initialisation and every sampling stream.  ``patience`` equals
``max_epochs`` in the training workloads, so every seed trains the same
number of epochs and does the same amount of work.

Workloads
---------
run_bsm
    The README quick-start config (``bsm``, two_moons, noise 0.2, 2000
    training rows, MC dropout with 20 passes), then ``report``.  The
    headline method, and the only workload where ``augment``,
    ``losses.batch_bsm_targets`` and ``noise_model``/``kernels.bmm_e_step``
    do most of the work while ``estimators``, ``analysis`` and artifact
    writes do almost none.
sweep_ce_ensemble
    ``method=ce`` swept over ``ensemble_sizes`` 1,3: four trainings of 40
    epochs across two sweep members.  It skips mixup, bootstrapping and
    the Beta mixture, so changes there must show no move here, while
    ``mlp`` forward, backward and Adam and the two serial member loops
    carry the load.
eval_wide
    ``method=ce`` for 3 epochs, then MC dropout with 50 passes over 20000
    validation rows, then ``report``.  The only workload where
    post-training layers dominate; ``mlp.forward`` sees 20000-row batches
    instead of 32-row ones, the min-cosine distance matrix sets peak RSS,
    and two 20000-row CSVs are written and one is read back.

End-to-end metrics (``--trace 0``; median over the children of one run)
-----------------------------------------------------------------------
wall_s        first call into run_experiment/run_sweep to the end of report
ms_per_epoch  wall_s * 1000 / epochs trained by all members (train_log.json)
setup_s       child start until mixboot.cli is imported and the config parsed
peak_rss_mb   the child's ru_maxrss
The failure share (``fail_ratio``) is printed on every run and is the
top-level ``failed``/``attempted``.  One operation is a run, or a sweep
member.

wall_s, ms_per_epoch and setup_s are scaled to a reference machine
speed.  On a shared host the speed of the same code drifts over minutes
as other tenants come and go: ten runs of one workload spread by up to
29% (IQR/median) on a 2-vCPU VM, far more than the operations within
one run.  So every child times a fixed loop of numpy and interpreter
work (``reference.py``: benchmark code only, untouched by any change to
mixboot, shaped like the work that dominates the workload) right after
its set-up and right after its measured work, and its times are
multiplied by ``reference.NOMINAL_S`` over the mean of the two.  In ten
42-s runs per workload on that VM, wall_s spread 18% raw and 4.5%
scaled on run_bsm, 15% and 9% on sweep_ce_ensemble, 13% and 8% on
eval_wide; setup_s spread 15-26% raw and 9-12% scaled.  peak_rss_mb is
read before the second loop, and neither loop reaches the program's own
peak.  The raw medians and the reference median are printed above the
result line.

Correctness, checked on every operation and counted as failures
---------------------------------------------------------------
* ``report`` on every run directory must exit 0 (any other code fails).
* Every ``status`` in ``sweep.csv`` must be ``ok``: ``run_sweep`` turns a
  member exception into an error row and still returns normally.
* ``predictions.csv`` and ``metrics.json`` of each run directory must
  match the sha256 in ``expected.json`` for that workload and seed, where
  one is recorded, and otherwise agree across the operations of the run.
  ``train_log.json`` and ``distance_records.csv`` are left out: planned
  work changes them on purpose.

Per-layer metrics (``--trace 1``)
---------------------------------
A traced run alternates traced and untraced children.  Traced children
wrap the functions in ``spans.HOOKS`` and report, for each hook metric,
``busy_s`` (span time), ``self_s`` (span minus child spans) and
``calls``, plus the counters below.  ``trace.overhead_s`` is the median
traced wall_s minus the median untraced one.  Which end-to-end metric
each layer metric should move, and on which workload:

=========================================================  ====================  ==================
layer metric(s)                                            should move           on
=========================================================  ====================  ==================
import.mixboot.s, import.scipy.stats.s,                    setup_s               all
config.load_config.busy_s
data.build_dataset.busy_s                                  wall_s                eval_wide
augment.mixup_batch.busy_s/.calls/.rows                    ms_per_epoch, wall_s  run_bsm (0 calls
                                                                                 elsewhere)
mlp.forward.busy_s/.calls/.rows, split .in_trainer /       ms_per_epoch /        sweep, run_bsm /
.in_estimators                                             wall_s                eval_wide
mlp.backward_step.busy_s/.calls                            ms_per_epoch          sweep, run_bsm
mlp.MlpModel.predict_logits.busy_s/.calls, split           ms_per_epoch /        training /
.in_trainer (epoch-end CE, val accuracy) /                 wall_s                eval_wide
.in_estimators (MC passes)
mlp.MlpModel.features.busy_s, mlp.save_model.busy_s        wall_s                eval_wide
losses.batch_bsm_targets.busy_s/.calls                     ms_per_epoch          run_bsm
kernels.loss_from_targets.busy_s/.calls/.rows              ms_per_epoch          run_bsm, sweep
kernels.bmm_e_step.*, noise_model.fit_bmm.*                ms_per_epoch          run_bsm
(.uninformative_ratio), noise_model.noisy_posterior
kernels.min_cosine_distances.busy_s/.calls/.flops          wall_s, peak_rss_mb   eval_wide
(flops = 2*nq*nb*h), analysis.distance_records.busy_s
analysis.referral_curve, .threshold_curve,                 wall_s                eval_wide
.distance_perception_summary (busy_s)
trainer.train.busy_s/.self_s/.epochs/.steps,               ms_per_epoch, wall_s  training
.useful_epoch_ratio (sum(best+1) / sum(stopped+1)),
trainer.per_sample_ce.busy_s
experiment.train_models.busy_s/.members,                   wall_s                sweep
experiment.run_sweep.self_s/.members/.error_rows
experiment.estimate.busy_s,                                wall_s                eval_wide
estimators.mc_dropout_predict.busy_s/.passes/.rows,                              (run_bsm slightly)
estimators.ensemble_predict.busy_s
experiment.compute_report.busy_s (prob_metrics)            wall_s                eval_wide
experiment.run_experiment.self_s (formatting, writes),     wall_s                eval_wide
experiment.bytes_written, experiment.files_written
cli.report.busy_s, experiment.read_predictions.busy_s      wall_s                eval_wide
trace.overhead_s, trace.wall_s, trace.absent_hooks         none                  all
=========================================================  ====================  ==================

A hook whose target is gone reads 0 and is counted in
``trace.absent_hooks``, with a warning on stderr.

Self-test: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_BASE = ROOT / ".perfbench_tmp"

MIN_OPS = 3
LAST_START_S = 140.0  # start no child that would likely end later than this
DEADLINE_S = 170.0    # and kill any child still running then: a run ends within 180 s
DIGESTED = ("predictions.csv", "metrics.json")
# On a 2-vCPU VM (Xeon, OpenBLAS 0.3.31), a fixed loop of 32x64 @ 64x64
# products spread by ~30% (IQR/median) with two BLAS threads and by under
# 1% with one, so children run single-threaded.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    config: str
    axis: str | None = None
    values: tuple = ()
    reference: str = "narrow"  # the reference.LOOPS entry shaped like its work


WORKLOADS = {
    "run_bsm": Workload("""\
method = bsm
generator = two_moons
noise_rate = 0.2
n_train = 2000
n_val = 500
estimator.kind = mc_dropout
estimator.passes = 20
max_epochs = 20
patience = 20
"""),
    "sweep_ce_ensemble": Workload("""\
method = ce
noise_rate = 0.2
max_epochs = 40
patience = 40
""", axis="ensemble_sizes", values=(1, 3)),
    "eval_wide": Workload("""\
method = ce
max_epochs = 3
n_val = 20000
estimator.kind = mc_dropout
estimator.passes = 50
""", reference="wide"),
}

# later keys win, so this shrinks any workload to a seconds-long smoke run
SMOKE = """\
n_train = 200
n_val = 100
max_epochs = 2
patience = 2
estimator.passes = 3
"""

END_TO_END = (("wall_s", "s"), ("ms_per_epoch", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

_SPLIT = ("mlp.forward", "mlp.MlpModel.predict_logits")
_CALLERS = ("trainer", "estimators")
_COUNTS = (
    ("augment.mixup_batch.rows", "count"),
    ("mlp.forward.rows", "count"),
    ("kernels.loss_from_targets.rows", "count"),
    ("kernels.bmm_e_step.rows", "count"),
    ("kernels.min_cosine_distances.flops", "flop"),
    ("noise_model.fit_bmm.uninformative_ratio", "ratio"),
    ("trainer.train.epochs", "count"),
    ("trainer.train.steps", "count"),
    ("trainer.train.useful_epoch_ratio", "ratio"),
    ("experiment.train_models.members", "count"),
    ("experiment.run_sweep.members", "count"),
    ("experiment.run_sweep.error_rows", "count"),
    ("estimators.mc_dropout_predict.passes", "count"),
    ("estimators.mc_dropout_predict.rows", "count"),
    ("experiment.files_written", "count"),
    ("experiment.bytes_written", "B"),
    ("import.mixboot.s", "s"),
    ("import.scipy.stats.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.absent_hooks", "count"),
    ("fail_ratio", "ratio"),
)


def _per_layer() -> tuple:
    metrics = list(dict.fromkeys(hook.metric for hook in spans.HOOKS))
    timed = [(f"{m}.{field}", "count" if field == "calls" else "s")
             for m in metrics for field in ("busy_s", "self_s", "calls")]
    split = [(f"{m}.in_{c}.{field}", "count" if field == "calls" else "s")
             for m in _SPLIT for c in _CALLERS for field in ("busy_s", "calls")]
    return tuple(timed + split + list(_COUNTS))


PER_LAYER = _per_layer()
_RUN_LEVEL = ("trace.overhead_s", "fail_ratio")  # set from the whole run


def config_text(workload: Workload, seed: int, smoke: bool) -> str:
    text = workload.config + f"seed = {seed}\noutput.dir = out\n"
    return text + SMOKE if smoke else text


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def _sweep_statuses(path: Path) -> list[str]:
    try:
        text = path.read_text()
    except FileNotFoundError:
        return []
    rows = csv.reader(ln for ln in text.splitlines() if not ln.startswith("#"))
    next(rows, None)  # header
    return [row[2] if len(row) > 2 else "" for row in rows]


def _epochs(run_dir: Path) -> int:
    try:
        log = json.loads((run_dir / "train_log.json").read_text())
    except FileNotFoundError:
        return 0
    return sum(m["stopped_epoch"] + 1 for m in log["models"])


def _tree_size(root: Path) -> tuple[int, int]:
    files = [p for p in root.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def run_op(workload: Workload, seed: int, smoke: bool, traced: bool,
           timeout: float) -> dict:
    """Run one child and inspect what it left; a dict describing the op."""
    root = Path(tempfile.mkdtemp(prefix="op-", dir=TMP_BASE))
    out = root / "out"
    run_dirs = ([out / f"member_{i}" for i in range(len(workload.values))]
                if workload.axis else [out])
    op = {"traced": traced, "attempted": len(run_dirs), "failed_members": set(),
          "problems": [], "result": None}
    try:
        (root / "workload.cfg").write_text(config_text(workload, seed, smoke))
        spec = {"src": str(SRC), "config": str(root / "workload.cfg"),
                "axis": workload.axis, "values": list(workload.values),
                "run_dirs": [str(d) for d in run_dirs], "trace": traced,
                "reference": workload.reference,
                "result": str(root / "result.json")}
        (root / "spec.json").write_text(json.dumps(spec))
        cmd = [sys.executable, *(["-X", "importtime"] if traced else []),
               str(HERE / "child.py"), str(root / "spec.json")]
        env = dict(os.environ, MIXBOOT_OUTPUT_ROOT=str(root), **ONE_BLAS_THREAD)
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            op["failed_members"] = set(range(len(run_dirs)))
            op["problems"].append(f"child killed after {timeout:.0f} s")
            return op
        if proc.returncode != 0 or not (root / "result.json").is_file():
            op["failed_members"] = set(range(len(run_dirs)))
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            op["problems"].append(f"child exited {proc.returncode}: {tail[0]}")
            return op
        res = json.loads((root / "result.json").read_text())
        op["result"] = res
        op["setup_s"] = res["t_setup"] - t_spawn
        op["wall_s"] = res["wall_s"]
        op["reference_s"] = statistics.fmean(res["reference_s"])
        op["scale"] = reference.NOMINAL_S[workload.reference] / op["reference_s"]
        op["peak_rss_mb"] = res["maxrss_kb"] / 1024.0
        op["epochs"] = sum(_epochs(d) for d in run_dirs)
        op["files_written"], op["bytes_written"] = _tree_size(out)
        op["digests"] = [{name: _sha256(d / name) for name in DIGESTED}
                         for d in run_dirs]
        if traced:
            op["imports"] = spans.parse_importtime(proc.stderr)
        for i, code in enumerate(res["report_codes"]):
            if code != 0:
                op["failed_members"].add(i)
                op["problems"].append(f"report on {run_dirs[i].name} exited {code}")
        op["error_rows"] = 0
        if workload.axis:
            statuses = _sweep_statuses(out / "sweep.csv")
            for i in range(len(run_dirs)):
                status = statuses[i] if i < len(statuses) else "missing"
                if status != "ok":
                    op["error_rows"] += 1
                    op["failed_members"].add(i)
                    op["problems"].append(f"sweep member {i}: {status}")
        return op
    finally:
        shutil.rmtree(root, ignore_errors=True)


def check_digests(ops: list[dict], expected: list[dict] | None) -> str:
    """Fail every member whose digests differ from the reference."""
    done = [op for op in ops if op["result"] is not None]
    if not done:
        return "no operation finished"
    wanted = expected if expected is not None else done[0]["digests"]
    for op in done:
        for i, (got, want) in enumerate(zip(op["digests"], wanted)):
            if got != want or None in got.values():
                op["failed_members"].add(i)
                op["problems"].append(f"member {i} digests differ: {got}")
    if expected is not None:
        return "checked against expected.json"
    return f"agree across the {len(done)} operations of this run"


def collect(workload: Workload, seed: int, seconds: float, trace: bool,
            smoke: bool) -> list[dict]:
    """Closed loop: one child at a time until the measured time is used."""
    ops: list[dict] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        traced = trace and len(ops) % 2 == 0
        op = run_op(workload, seed, smoke, traced, max(1.0, DEADLINE_S - elapsed))
        ops.append(op)
        kind = "traced" if traced else "untraced"
        if op["result"] is None:
            print(f"op {len(ops)} {kind}: FAILED {'; '.join(op['problems'])}")
        else:
            print(f"op {len(ops)} {kind}: setup_s={op['setup_s']:.4f} "
                  f"wall_s={op['wall_s']:.4f} reference_s={op['reference_s']:.4f} "
                  f"epochs={op['epochs']} peak_rss_mb={op['peak_rss_mb']:.1f}")
        elapsed = time.monotonic() - start
        next_end = elapsed * (len(ops) + 1) / len(ops)
        if next_end > LAST_START_S or (len(ops) >= MIN_OPS and next_end > seconds):
            return ops


def _median_q(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def end_to_end(ops: list[dict], scaled: bool = True) -> dict[str, list[float]]:
    """Samples of each end-to-end metric; times at reference speed if scaled."""
    done = [op for op in ops if op["result"] is not None and not op["traced"]]
    scale = {id(op): op["scale"] if scaled else 1.0 for op in done}
    return {
        "wall_s": [op["wall_s"] * scale[id(op)] for op in done],
        "ms_per_epoch": [op["wall_s"] * scale[id(op)] * 1000.0 / op["epochs"]
                         for op in done if op["epochs"]],
        "setup_s": [op["setup_s"] * scale[id(op)] for op in done],
        "peak_rss_mb": [op["peak_rss_mb"] for op in done],
    }


def _layer_values(op: dict) -> dict[str, float]:
    stats = op["result"]["stats"]

    def stat(key: str, field: str) -> float:
        return stats.get(key, {}).get(field, 0)

    train_epochs = stat("trainer.train", "epochs")
    bmm_calls = stat("noise_model.fit_bmm", "calls")
    values = {
        "trainer.train.useful_epoch_ratio":
            stat("trainer.train", "useful_epochs") / train_epochs if train_epochs else 0.0,
        "noise_model.fit_bmm.uninformative_ratio":
            stat("noise_model.fit_bmm", "uninformative") / bmm_calls if bmm_calls else 0.0,
        "experiment.run_sweep.error_rows": op["error_rows"],
        "experiment.files_written": op["files_written"],
        "experiment.bytes_written": op["bytes_written"],
        "trace.wall_s": op["wall_s"],
        "trace.absent_hooks": len(op["result"]["absent"]),
        **op["imports"],
    }
    for name, _ in PER_LAYER:
        if name not in values and name not in _RUN_LEVEL:
            key, field = name.rsplit(".", 1)
            values[name] = stat(key, field)
    return values


def per_layer(ops: list[dict], fail_ratio: float) -> dict[str, float]:
    """Median of each layer metric over the traced children."""
    done = [op for op in ops if op["result"] is not None]
    traced = [_layer_values(op) for op in done if op["traced"]]
    untraced = [op["wall_s"] for op in done if not op["traced"]]
    if not traced or not untraced:
        return {}
    out = {name: statistics.median(v[name] for v in traced)
           for name in traced[0]}
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(untraced)
    out["fail_ratio"] = fail_ratio
    return out


def machine_facts(ops: list[dict], load_1m: float) -> dict:
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count())
    facts = {"nproc": os.cpu_count(), "cpus_usable": usable,
             "loadavg_1m_at_start": load_1m}
    for op in ops:
        if op["result"] is not None:
            facts.update(op["result"]["facts"])
            break
    return facts


def _load_expected(workload: str, seed: int) -> list[dict] | None:
    with open(HERE / "expected.json") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload to a seconds-long self-test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "mixboot" / "cli.py").is_file():
        print(f"perfbench: no mixboot sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    load_1m = os.getloadavg()[0]
    workload = WORKLOADS[args.workload]
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} smoke={args.smoke}")
    TMP_BASE.mkdir(exist_ok=True)
    try:
        ops = collect(workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    finally:
        try:
            TMP_BASE.rmdir()
        except OSError:
            pass

    facts = machine_facts(ops, load_1m)
    print("facts: " + json.dumps(facts, sort_keys=True))
    if (facts.get("blas_threads") or 0) > facts["nproc"]:
        print("perfbench: warning: more BLAS threads than CPUs", file=sys.stderr)
    expected = None if args.smoke else _load_expected(args.workload, args.seed)
    print("digests: " + check_digests(ops, expected))
    done = [op for op in ops if op["result"] is not None]
    if done:
        print("digests of this run: " + json.dumps(done[0]["digests"]))

    attempted = sum(op["attempted"] for op in ops)
    failed = sum(len(op["failed_members"]) for op in ops)
    for op in ops:
        for problem in op["problems"]:
            print(f"problem: {problem}")
    print(f"fail_ratio = {failed / attempted!r} ratio ({failed} failed of "
          f"{attempted} operations)")

    if args.trace:
        values = per_layer(ops, failed / attempted)
        units = PER_LAYER
    else:
        raw = end_to_end(ops, scaled=False)
        raw["reference_s"] = [op["reference_s"] for op in ops if op["result"] is not None]
        for name in ("reference_s", "wall_s", "setup_s"):
            if raw[name]:
                print(f"raw {name} = {statistics.median(raw[name])!r} s (median)")
        samples = end_to_end(ops)
        units = END_TO_END
        values = {}
        for name, unit in END_TO_END:
            if samples[name]:
                med, q1, q3 = _median_q(samples[name])
                values[name] = med
                print(f"{name} = {med!r} {unit} (median; q1 {q1:.6g}, "
                      f"q3 {q3:.6g}; n={len(samples[name])})")
    missing = [name for name, _ in units if name not in values]
    if missing:
        print(f"perfbench: no measurement for {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
