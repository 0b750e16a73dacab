"""The job runner, which means ``[fn(job) for job in jobs]`` on any
number of CPUs, and the shared array that forked workers write their
results into."""

import os
import time

import numpy as np
import pytest

from mixboot.jobs import run_jobs, shared_array


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("n_cpus, forks", [(1, 0), (2, 2)])
def test_jobs_write_into_one_shared_array(cpus, n_cpus, forks):
    slots = shared_array((5, 3, 2))

    def fill(p):
        slots[p] = p + 0.5

    forked = cpus(n_cpus)
    assert list(run_jobs(fill, range(5))) == [None] * 5
    assert len(forked) == forks
    assert (slots == np.arange(5)[:, None, None] + 0.5).all()


def test_shared_array_starts_zeroed_and_may_be_empty():
    assert (shared_array((4, 2)) == 0.0).all()
    assert shared_array((0, 2)).shape == (0, 2)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("n_cpus, forks", [(1, 0), (2, 2)])
def test_results_come_back_in_job_order(cpus, n_cpus, forks):
    def square(j):  # an exception returned, not raised, is a result
        return ValueError(j) if j == 3 else j * j

    forked = cpus(n_cpus)
    results = run_jobs(square, range(7))
    assert len(forked) == forks
    assert type(results) is list
    assert results[:3] == [0, 1, 4] and results[4:] == [16, 25, 36]
    assert type(results[3]) is ValueError and results[3].args == (3,)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("n_cpus, forks", [(1, 0), (2, 2)])
@pytest.mark.parametrize("first, second", [(2, 3), (1, 2)])
def test_first_failure_in_job_order_is_raised(cpus, tmp_path, deadline, n_cpus,
                                              forks, first, second):
    # on 2 CPUs, jobs 0, 2, 4 run in one worker and 1, 3 in the other;
    # a forked ``first`` raises only after ``second`` has failed
    parent, second_failed = os.getpid(), tmp_path / "second_failed"

    def job(j):
        if j == first:
            while os.getpid() != parent and not second_failed.exists():
                time.sleep(0.01)
            raise ValueError(f"job {j}")
        if j == second:
            second_failed.touch()
            raise KeyError(f"job {j}")
        return j

    forked = cpus(n_cpus)
    with pytest.raises(ValueError, match=f"job {first}"):
        run_jobs(job, range(5))
    assert len(forked) == forks
    for pid in forked:  # every worker was reaped: none is left a zombie
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
