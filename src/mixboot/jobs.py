"""One job runner, ``run_jobs(fn, jobs)``: ``[fn(job) for job in jobs]``,
in forked workers when the process may use two or more CPUs.

Three stages go through it: model trainings, MC-dropout passes and the
query-row ranges of the min cosine distance pass.  A job must be a pure
function of its input, so a worker's result equals the one the main
process would compute, bit for bit, whatever the scheduling.  Trainings
and distance ranges return their results through a pipe.  MC-dropout
passes return None: each writes its probability rows into its slot of
one ``shared_array``, which the main process allocates before the fork
and reads after it.
"""

from __future__ import annotations

import ctypes
import math
import mmap
import os
import pickle
import signal
import sys

import numpy as np


def usable_cpus() -> int:
    """CPUs this process may run on (``taskset`` limits them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def shared_array(shape: tuple[int, ...]) -> np.ndarray:
    """A zeroed float64 array in anonymous shared memory.  Allocated
    before a fork, it is the same memory in the workers: what they write
    into it, this process reads once they are reaped, with no copy."""
    size = math.prod(shape)
    memory = mmap.mmap(-1, 8 * max(size, 1))  # mmap refuses a length of 0
    return np.frombuffer(memory, dtype=np.float64, count=size).reshape(shape)


def one_blas_thread() -> None:
    """Limit the OpenBLAS that numpy loaded to one thread; a no-op when
    none is found.  Workers share the CPUs, so more threads only contend,
    and a matrix product's bits may depend on its thread count.  A forked
    worker inherits the setting."""
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


def _outcome(fn, job) -> tuple[bool, object]:
    """``(True, fn(job))``, or ``(False, the exception it raised)``."""
    try:
        return True, fn(job)
    except Exception as exc:  # sent back for run_jobs to raise
        return False, exc


def _worker(fn, jobs: list, sink) -> None:
    """Body of a forked worker: run ``jobs``, pickle their outcomes into
    ``sink`` and exit without returning to the caller's stack."""
    status = 1
    try:
        sink.write(pickle.dumps([_outcome(fn, job) for job in jobs]))
        sink.flush()
        status = 0
    except BaseException:
        sys.excepthook(*sys.exc_info())
        sys.stderr.flush()
    finally:
        os._exit(status)


def run_jobs(fn, jobs) -> list:
    """``[fn(job) for job in jobs]``: the results in job order, or the
    exception of the first job in job order that raised one.

    The process runs its BLAS at one thread from here on, so the jobs
    give the same bits wherever they run.  With two or more usable CPUs
    and jobs, forked workers (one per CPU, at most one per job) take the
    jobs round-robin and send their results, or the exceptions they
    raised, back through a pipe; every worker is reaped before this
    returns or raises, so whatever the jobs wrote into a
    ``shared_array`` is complete by then.  Otherwise the jobs run here.
    A worker that exits without its results raises
    ``ChildProcessError``.  An exception raised here before every result
    is in (an interrupt) kills the workers before they are reaped.
    """
    one_blas_thread()
    jobs = list(jobs)
    workers = min(usable_cpus(), len(jobs))
    if workers < 2 or not hasattr(os, "fork"):
        return [fn(job) for job in jobs]
    # a plain fork adds nothing to this process's peak memory, unlike a pool
    pids, pipes, payloads = [], [], None
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pipes.append(os.fdopen(read_fd, "rb"))
            with os.fdopen(write_fd, "wb") as sink:  # closes this process's end
                pid = os.fork()
                if pid == 0:
                    _worker(fn, jobs[w::workers], sink)
            pids.append(pid)
        payloads = [pipe.read() for pipe in pipes]
    finally:
        for pipe in pipes:
            pipe.close()
        if payloads is None:  # interrupted: nobody will read what the workers return
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    outcomes = [None] * len(jobs)
    for w, code in enumerate(codes):
        if code != 0 or not payloads[w]:
            raise ChildProcessError(f"worker {w} exited with status {code} "
                                    "without returning its results")
        outcomes[w::workers] = pickle.loads(payloads[w])
        payloads[w] = None  # free each worker's bytes once they are unpickled
    for ok, result in outcomes:
        if not ok:
            raise result
    return [result for _, result in outcomes]
