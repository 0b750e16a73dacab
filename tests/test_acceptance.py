"""Acceptance gate: nine criteria, one pass/fail line printed per criterion.

Criteria 5-8 share one fleet of models (10 seeds x {ce, bsm}) trained on the
noisy two-moons fixture; the fleet is built once per module.  Run with
`pytest tests/test_acceptance.py -v -s` to see the criterion lines inline.
"""

import numpy as np
import pytest

from mixboot.analysis import min_cosine_distances, referral_curve, spearman
from mixboot.augment import PerturbationPolicy, beta_from_gammas
from mixboot.config import parse_config
from mixboot.estimators import ensemble_predict, mc_dropout_predict, tta_predict
from mixboot.experiment import run_experiment, run_sweep
from mixboot.jobs import run_jobs
from mixboot._kernels import log_beta, loss_from_targets
from mixboot.losses import batch_onehot, softmax
from mixboot.mlp import kaiming_init
from mixboot.noise_model import fit_bmm, normalize_losses
from mixboot.prob_metrics import (
    PredictionBatch,
    brier_score,
    expected_calibration_error,
    negative_log_likelihood_binary,
    predictive_entropy,
    roc_auc,
)
from mixboot.trainer import TrainConfig, dataset_from_config, train
from oracles import bsm_targets

N_SEEDS = 10
WARMUP_EPOCHS = 1  # TrainConfig default; epochs >= this are post-warm-up


def mixup_row(y_i, y_j, gamma, k):
    """Hand 1-row mixup target gamma * onehot(y_i) + (1 - gamma) * onehot(y_j)."""
    eye = np.eye(k)
    return gamma * eye[[y_i]] + (1.0 - gamma) * eye[[y_j]]


def verdict(number, description, ok):
    """Print one criterion line; return ``ok``."""
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")
    return ok


def check(number, description, ok):
    assert verdict(number, description, ok), f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def fleet():
    """Models, logs, and datasets for 10 seeds x {ce, bsm}, trained by the
    experiment job runner (in parallel where it can fork)."""
    datasets, keys, jobs = {}, [], []
    # method-major order, so a round-robin split mixes ce and bsm jobs
    for method in ("ce", "bsm"):
        for seed in range(N_SEEDS):
            config = TrainConfig(
                method=method, noise_rate=0.2, max_epochs=100, seed=seed
            )
            if seed not in datasets:
                datasets[seed] = dataset_from_config(config)
            keys.append((method, seed))
            jobs.append((config, datasets[seed]))
    results = run_jobs(lambda job: train(*job), jobs)
    return ({key: model for key, (model, _) in zip(keys, results)},
            {key: log for key, (_, log) in zip(keys, results)}, datasets)


def single_forward(model, inputs):
    """The single-pass estimator written out: one softmax pass, dropout off."""
    return softmax(model.predict_logits(inputs))


def val_predictions(model, ds):
    return PredictionBatch(single_forward(model, ds.val_inputs), ds.val_labels)


def test_criterion_1_metric_oracles():
    """Frozen hand-oracle examples reproduce within stated tolerances."""
    ece, _ = expected_calibration_error(
        PredictionBatch(
            np.array([[0.05, 0.95], [0.15, 0.85], [0.65, 0.35], [0.55, 0.45]]),
            np.array([1, 1, 1, 0]),
        ),
        bin_width=0.1,
    )
    nll = negative_log_likelihood_binary(
        PredictionBatch(np.array([[0.1, 0.9], [0.6, 0.4]]), np.array([1, 0]))
    )
    # 1-row logits batches; bootstrapped CE is bsm with the row paired with
    # itself at gamma 1, and mixup-CE is bsm with w = 0
    z_23 = np.log([[2 / 3, 1 / 3]])
    z_64, z_37 = np.log([[0.6, 0.4]]), np.log([[0.3, 0.7]])
    ce_23 = loss_from_targets(z_23, batch_onehot([1], 2))[0][0]
    bs_64 = loss_from_targets(
        z_64, bsm_targets(z_64, [0], [0], [1.0], [0.5], [0.5]))[0][0]
    bs_37 = loss_from_targets(
        z_37, bsm_targets(z_37, [0], [0], [1.0], [0.4], [0.4]))[0][0]
    mixup_64 = loss_from_targets(
        z_64, bsm_targets(z_64, [0], [1], [0.5], [0.0], [0.0]))[0][0]
    bsm_37 = loss_from_targets(
        z_37, bsm_targets(z_37, [0], [1], [0.5], [0.4], [0.0]))[0][0]
    cases = [
        ("entropy(0.8,0.2)", predictive_entropy(np.array([[0.8, 0.2]]))[0],
         0.5004024235381879, 1e-9),
        ("ece hand example", ece, 0.325, 1e-9),
        ("nll hand example", nll, 0.30809306971190853, 1e-9),
        ("brier(0.7|class 0)",
         brier_score(PredictionBatch(np.array([[0.7, 0.3]]), np.array([0]))),
         0.09000000000000001, 1e-9),
        ("auc tied pair",
         roc_auc(np.array([0.9, 0.4, 0.4, 0.1]), np.array([1, 1, 0, 0])),
         0.875, 1e-9),
        ("ce ln3", ce_23, 1.0986122886681098, 1e-9),
        ("bs agreeing w inert", bs_64, 0.5108256237659907, 1e-9),
        ("bs disagreeing w=0.4", bs_37, 0.8650536601710546, 1e-9),
        ("mixup gamma=0.5", mixup_64, 0.7135581778200728, 1e-9),
        ("bsm composed", bsm_37, 0.6108643020548935, 1e-9),
        ("normalized loss midpoint",
         normalize_losses(np.array([0.0, 1.0, 2.0]))[1], 0.5, 1e-9),
        ("log beta (2,2) = -ln 6", log_beta(2.0, 2.0), -1.791759469228055, 1e-9),
        ("spearman tied ranks",
         spearman(np.array([1.0, 2.0, 2.0, 4.0]), np.array([1.0, 3.0, 2.0, 4.0]))[0],
         0.9486832980505138, 1e-9),
    ]
    rng = np.random.default_rng(7)
    draws = beta_from_gammas(rng.gamma(32.0, size=(200_000, 2)))
    cases.append(("gamma std alpha=32 (statistical)", draws.std(),
                  0.06201736729460423, 5e-3))
    bad = [name for name, got, want, tol in cases if abs(got - want) > tol]
    check(1, f"{len(cases)} frozen oracle examples within tolerance"
             + (f" (failed: {bad})" if bad else ""), not bad)


def _fd_gradient(value_fn, logits, step):
    g = np.zeros_like(logits)
    for i in range(len(logits)):
        hi, lo = logits.copy(), logits.copy()
        hi[i] += step
        lo[i] -= step
        g[i] = (value_fn(hi) - value_fn(lo)) / (2.0 * step)
    return g


def _gapped_logits(rng, k):
    # the hard prediction must not flip under the probe step
    while True:
        z = rng.normal(0.0, 2.0, size=k)
        top = np.sort(z)[-2:]
        if top[1] - top[0] > 1e-3:
            return z


def test_criterion_2_gradients_match_finite_differences():
    """Analytic grad_logits vs central differences, 100 instances per loss."""
    rng = np.random.default_rng(42)
    worst = {}
    for name in ("ce", "bs", "mixup", "bsm"):
        worst[name] = 0.0
        for _ in range(100):
            k = int(rng.integers(2, 7))
            z = _gapped_logits(rng, k)
            y_i = int(rng.integers(k))
            y_j = int(rng.integers(k))
            w_i = float(rng.uniform(0.05, 0.95))
            w_j = float(rng.uniform(0.05, 0.95))
            gamma = float(rng.uniform(0.05, 0.95))
            # q is a 1-row logits batch; bs pairs the row with itself at
            # gamma 1 and mixup is bsm with w = 0
            if name == "ce":
                targets = lambda q: batch_onehot([y_i], k)
            elif name == "bs":
                targets = lambda q: bsm_targets(
                    q, [y_i], [y_i], [1.0], [w_i], [w_i])
            elif name == "mixup":
                targets = lambda q: bsm_targets(
                    q, [y_i], [y_j], [gamma], [0.0], [0.0])
            else:
                targets = lambda q: bsm_targets(
                    q, [y_i], [y_j], [gamma], [w_i], [w_j])
            grad = loss_from_targets(z[None], targets(z[None]))[1][0]
            fd = _fd_gradient(
                lambda q: loss_from_targets(q[None], targets(q[None]))[0][0],
                z, step=1e-5)
            rel = np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12)
            worst[name] = max(worst[name], rel)
    peak = max(worst.values())
    check(2, f"finite-difference relative error <= 1e-5 "
             f"(worst {peak:.2e} across ce/bs/mixup/bsm)", peak <= 1e-5)


def test_criterion_3_bmm_recovery():
    """EM recovers a half-half Beta(2,8)/Beta(8,2) mixture over 5 seeds."""
    misses = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        pick_hi = rng.random(5000) < 0.5
        lo = rng.beta(2.0, 8.0, size=5000)
        hi = rng.beta(8.0, 2.0, size=5000)
        x = np.clip(np.where(pick_hi, hi, lo), 1e-6, 1.0 - 1e-6)
        fit = fit_bmm(x)
        if not (abs(fit.mean_1 - 0.2) <= 0.03
                and abs(fit.mean_2 - 0.8) <= 0.03
                and abs(fit.pi - 0.5) <= 0.05):
            misses.append(seed)
    check(3, "component means within 0.03 and weight within 0.05 on 5 seeds"
             + (f" (missed: {misses})" if misses else ""), not misses)


def test_criterion_4_reduction_identities():
    """Degenerate parameter settings collapse to the simpler estimator/loss."""
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(50):
        k = int(rng.integers(2, 6))
        z = rng.normal(0.0, 2.0, size=(1, k))
        y_i = int(rng.integers(k))
        y_j = int(rng.integers(k))
        gamma = float(rng.uniform(0.0, 1.0))
        ce = batch_onehot([y_i], k)
        mixup = mixup_row(y_i, y_j, gamma, k)
        for lhs, rhs in (
            (bsm_targets(z, [y_i], [y_i], [1.0], [0.0], [0.0]), ce),
            (bsm_targets(z, [y_i], [y_j], [gamma], [0.0], [0.0]), mixup),
            (bsm_targets(z, [y_i], [y_j], [1.0], [0.0], [0.0]), ce),
        ):
            (va, ga), (vb, gb) = loss_from_targets(z, lhs), loss_from_targets(z, rhs)
            ok &= bool((va == vb).all() and (ga == gb).all())

    model = kaiming_init((2, 16, 16, 3), seed=0, dropout=0.0)
    x = rng.normal(size=(12, 2))
    single = single_forward(model, x)
    ens = ensemble_predict([model], x)
    ok &= (ens == single).all()
    ok &= (predictive_entropy(ens) == predictive_entropy(single)).all()
    tta = tta_predict(model, x, PerturbationPolicy(0.1, 0.1), repeats=0, seed=0)
    ok &= (tta == single).all()
    ok &= (predictive_entropy(tta) == predictive_entropy(single)).all()
    mc = mc_dropout_predict(model, x, passes=7, seed=0)
    ok &= bool(np.max(np.abs(mc - single)) <= 1e-12)
    check(4, "bs(w=0)=ce, bsm(0,0)=mixup, mixup(g=1)=ce, ensemble(1)=single, "
             "tta(0)=single, dropout-free mc = single", ok)


def test_criterion_5_bsm_halves_calibration_error(fleet):
    """ECE(bsm) < ECE(baseline) per seed, and the median at most 0.6x, for
    each baseline on the fleet's ce models: the single model, and MC
    dropout of 20 passes from a run's seed material ``[seed, 201]``."""
    models, _, datasets = fleet
    eces = {"bsm": [], "ce single": [], "ce mc_dropout x20": []}
    for seed in range(N_SEEDS):
        ds = datasets[seed]
        ce = models[("ce", seed)]
        outputs = {
            "bsm": single_forward(models[("bsm", seed)], ds.val_inputs),
            "ce single": single_forward(ce, ds.val_inputs),
            "ce mc_dropout x20": mc_dropout_predict(ce, ds.val_inputs, 20,
                                                    seed=[seed, 201]),
        }
        for name, output in outputs.items():
            batch = PredictionBatch(output, ds.val_labels)
            eces[name].append(expected_calibration_error(batch)[0])
    failed = []
    for baseline in ("ce single", "ce mc_dropout x20"):
        wins = sum(b < c for b, c in zip(eces["bsm"], eces[baseline]))
        ratio = float(np.median(eces["bsm"]) / np.median(eces[baseline]))
        description = (f"vs {baseline}: ece(bsm) lower in {wins}/10 seeds, "
                       f"median ratio {ratio:.3f} <= 0.6")
        if not verdict(5, description, wins >= 8 and ratio <= 0.6):
            failed.append(description)
    assert not failed, f"criterion 5 failed: {failed}"


def test_criterion_6_flipped_samples_lose_more(fleet):
    """Post-warm-up per-sample CE is higher on flipped than clean samples."""
    _, logs, _ = fleet
    wins = 0
    for seed in range(N_SEEDS):
        log = logs[("bsm", seed)]
        flipped = np.mean(log.flipped_ce[WARMUP_EPOCHS:])
        clean = np.mean(log.clean_ce[WARMUP_EPOCHS:])
        wins += flipped > clean
    check(6, f"mean post-warm-up ce flipped > clean in {wins}/10 seeds",
          wins >= 8)


def test_criterion_7_referral_improves_accuracy(fleet):
    """Rejecting the most-uncertain fraction never hurts retained accuracy."""
    models, _, datasets = fleet
    wins = 0
    for seed in range(N_SEEDS):
        ds = datasets[seed]
        batch = val_predictions(models[("bsm", seed)], ds)
        curve = referral_curve(batch.uncertainty, batch.correct,
                               batch.probs[:, 1], (0.0, 0.1, 0.2, 0.3),
                               labels=ds.val_labels)
        full = curve[0].accuracy
        wins += all(p.accuracy >= full for p in curve[1:])

    ds = datasets[0]
    batch = val_predictions(models[("bsm", 0)], ds)
    correct = batch.correct
    oracle = referral_curve(1.0 - correct, correct, batch.probs[:, 1],
                            np.linspace(0.0, 0.9, 19), labels=ds.val_labels)
    accs = [p.accuracy for p in oracle]
    monotone = all(b >= a for a, b in zip(accs, accs[1:]))
    check(7, f"entropy referral >= full-set accuracy in {wins}/10 seeds; "
             f"oracle curve nondecreasing: {monotone}", wins >= 8 and monotone)


def test_criterion_8_distance_and_domain_shift(fleet):
    """Familiar inputs get low uncertainty; shifted inputs get more."""
    models, _, datasets = fleet
    rho_wins, shift_wins = 0, 0
    for seed in range(N_SEEDS):
        ds = datasets[seed]
        model = models[("bsm", seed)]
        batch = val_predictions(model, ds)
        d = min_cosine_distances(model.features(ds.val_inputs),
                                 model.features(ds.train_inputs))
        m = np.isfinite(d)
        rho, p = spearman(1.0 - d[m], batch.uncertainty[m])
        rho_wins += rho < 0.0 and p < 0.05

        shift = 3.0 * np.vstack([ds.train_inputs, ds.val_inputs]).std(axis=0)
        in_dom = mc_dropout_predict(model, ds.val_inputs, 20, seed=[seed, 900])
        out_dom = mc_dropout_predict(model, ds.val_inputs + shift, 20, seed=[seed, 900])
        shift_wins += (predictive_entropy(out_dom).mean()
                       > predictive_entropy(in_dom).mean())
    check(8, f"similarity-uncertainty rho negative with p<0.05 in "
             f"{rho_wins}/10 seeds; shifted inputs more uncertain in "
             f"{shift_wins}/10 seeds", rho_wins >= 8 and shift_wins >= 8)


RUN_TEXT = (
    "method = bsm\n"
    "generator = two_moons\n"
    "noise_rate = 0.2\n"
    "n_train = 200\n"
    "n_val = 50\n"
    "max_epochs = 5\n"
    "seed = 3\n"
)


def _read_tree(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_9_byte_identical_reruns(tmp_path, monkeypatch):
    """Repeating run and sweep reproduces every output file byte for byte."""
    monkeypatch.setenv("MIXBOOT_OUTPUT_ROOT", str(tmp_path))
    run_config = parse_config(RUN_TEXT + "output.dir = rerun\n")
    _, run_dir = run_experiment(run_config)
    first_run = _read_tree(run_dir)
    run_experiment(run_config)
    run_ok = _read_tree(run_dir) == first_run

    sweep_base = parse_config(RUN_TEXT + "output.dir = sweep_rerun\n")
    _, sweep_dir = run_sweep(sweep_base, "methods", ["ce", "bsm"])
    first_sweep = _read_tree(sweep_dir)
    run_sweep(sweep_base, "methods", ["ce", "bsm"])
    sweep_ok = _read_tree(sweep_dir) == first_sweep
    check(9, f"run rerun identical: {run_ok}; sweep rerun identical: {sweep_ok}",
          run_ok and sweep_ok)
