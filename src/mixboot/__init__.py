"""Noise-robust training with bootstrapped mixup, plus uncertainty reports.

The package trains a small dropout MLP on synthetic noisy-label data
under four loss regimes, models per-sample label noise with a beta
mixture, and evaluates predictions with calibration metrics, referral
curves and feature-distance analyses.

Import what you need from the submodules: ``mixboot.cli`` for the
``run``/``sweep``/``report`` verbs, ``mixboot.experiment`` for the
pipeline, and ``mixboot.losses``, ``mixboot.noise_model``,
``mixboot.mlp`` and the rest for their parts.
"""

from .version import __version__
