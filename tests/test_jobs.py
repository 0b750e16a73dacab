"""The shared array that forked workers write their results into."""

import os

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
