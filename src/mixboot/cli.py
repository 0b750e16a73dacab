"""Command-line interface: `run`, `sweep`, and `report` verbs."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import load_config, parse_values
from .errors import ConfigError, MixbootError, TrainingDivergenceError
from .experiment import (
    SWEEP_AXES,
    compute_report,
    is_run_dir,
    read_distances,
    read_predictions,
    render_artifacts,
    row_tables_match,
    run_experiment,
    run_sweep,
)

EXIT_OK = 0
EXIT_MISMATCH = 4
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixboot",
        description="Noise-robust training experiments with uncertainty reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    sweep_p = sub.add_parser("sweep", help="run one experiment per axis value")
    for p in (run_p, sweep_p):
        p.add_argument("--config", required=True, help="path to a key=value config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config key (repeatable)")
        p.add_argument("--out", default=None, help="override output.dir")
    sweep_p.add_argument("--axis", required=True, choices=sorted(SWEEP_AXES),
                         help="which config field the sweep varies")
    sweep_p.add_argument("--values", required=True,
                         help="comma-separated axis values")

    report_p = sub.add_parser(
        "report", help="recompute a run's metrics and derived files from its "
                       "persisted predictions and distances")
    report_p.add_argument("--run", required=True,
                          help="run directory containing predictions.csv")
    return parser


def _print_metrics(report) -> None:
    d = report.to_dict()
    for key in sorted(k for k in d if k != "provenance"):
        print(f"{key} = {d[key]!r}")


def _load_args_config(args):
    """The --config file with each --set override and --out applied."""
    overrides = list(args.overrides)
    if args.out is not None:
        overrides.append(f"output.dir = {args.out}")
    return load_config(args.config, overrides)


def _cmd_run(args) -> int:
    config = _load_args_config(args)
    report, out_dir = run_experiment(config)
    _print_metrics(report)
    print(f"artifacts written to {out_dir}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    config = _load_args_config(args)
    try:
        values = parse_values(SWEEP_AXES[args.axis][0], args.values)
    except ConfigError as exc:
        raise ConfigError(f"--values for axis {args.axis!r}: {exc}") from None
    _, out_dir = run_sweep(config, args.axis, values)
    print(f"sweep table written to {out_dir / 'sweep.csv'}")
    return EXIT_OK


def _cmd_report(args) -> int:
    """Check the rendered files by their bytes, then the row tables'
    heads and derived columns through ``experiment.row_tables_match``."""
    run_dir = Path(args.run)
    if not is_run_dir(run_dir):
        raise MixbootError(
            f"{run_dir} is not a run directory (needs predictions.csv and config.txt)"
        )
    config = load_config(run_dir / "config.txt")
    index, batch = read_predictions(run_dir / "predictions.csv")
    records = read_distances(run_dir / "distance_records.csv", batch.n)
    report, bins = compute_report(config, batch)
    _print_metrics(report)
    # every rendered file belongs in the run: the metrics files that
    # output.formats leaves out are not rendered
    verdicts = {}
    for name, text in render_artifacts(config, batch, report, bins, records[1]).items():
        stored = run_dir / name
        if not stored.is_file():
            verdicts[name] = "MISSING"
        else:
            verdicts[name] = "yes" if stored.read_bytes() == text.encode() else "NO"
    for name, same in row_tables_match(run_dir, index, records, batch, report).items():
        verdicts[name] = "yes" if same else "NO"
    for name, verdict in verdicts.items():
        print(f"matches stored {name}: {verdict}")
    return EXIT_OK if set(verdicts.values()) == {"yes"} else EXIT_MISMATCH


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except TrainingDivergenceError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (MixbootError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
