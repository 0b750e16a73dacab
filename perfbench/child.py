"""One benchmark operation in a fresh interpreter: set up, run, report.

Usage: python3 child.py SPEC.json

run.py writes SPEC.json (source dir, config file, sweep axis and values,
run directories to report on, whether to trace, where to put the result)
and reads back the result file this script writes.  The result holds
monotonic timestamps, so run.py can measure set-up from the moment it
started this process, plus the report exit codes, peak RSS, the times of
the reference loop run right before and right after the measured work,
machine facts and, when traced, the per-layer span totals.
"""

from __future__ import annotations

import ctypes
import importlib.util
import json
import platform
import resource
import sys
import time


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:  # the kernel backend switch is slated for removal
        from mixboot import _kernels
        backend = getattr(_kernels, "BACKEND", "absent")
    except ImportError:
        backend = "absent"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "kernels_backend": backend,
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import mixboot.cli
    from mixboot import config, experiment

    tracer = None
    absent: list[str] = []
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        absent = spans.install(tracer)
    cfg = config.load_config(spec["config"])
    t_setup = time.monotonic()
    import reference

    reference_s = [reference.loop_s(spec["reference"])]
    t_ready = time.monotonic()

    if spec["axis"] is None:
        experiment.run_experiment(cfg)
    else:
        experiment.run_sweep(cfg, spec["axis"], spec["values"])
    report_codes = [mixboot.cli.main(["report", "--run", d]) for d in spec["run_dirs"]]
    t_done = time.monotonic()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reference_s.append(reference.loop_s(spec["reference"]))

    result = {
        "t_setup": t_setup,
        "wall_s": t_done - t_ready,
        "report_codes": report_codes,
        "reference_s": reference_s,
        "maxrss_kb": maxrss_kb,
        "facts": _facts(),
        "stats": tracer.stats if tracer else None,
        "absent": absent,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
