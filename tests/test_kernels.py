"""Numeric kernels: agreement with references written out in the tests."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special, stats

from mixboot import _kernels
from oracles import reference_loss_from_targets, unit_rows


def random_logits_targets(seed, n=200, k=4):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(n, k)) * 3.0
    targets = rng.dirichlet(np.ones(k), size=n)
    return logits, targets


def random_losses(seed, n=500):
    return np.random.default_rng(seed).uniform(1e-4, 1.0 - 1e-4, size=n)


class TestLossKernelReference:
    def test_matches_scalar_losses(self):
        # one row at a time, written out here: the package's scalar losses
        # share this kernel, so they cannot serve as its reference
        logits, targets = random_logits_targets(0, n=50)
        values, grads = _kernels.loss_from_targets(logits, targets)
        for r in range(50):
            shifted = logits[r] - logits[r].max()
            logp = shifted - np.log(np.exp(shifted).sum())
            assert abs(values[r] - (-(targets[r] * logp).sum())) <= 1e-12
            np.testing.assert_allclose(grads[r], np.exp(logp) - targets[r], atol=1e-12)

    def test_grad_rows_sum_to_zero(self):
        # softmax and a normalized target both sum to 1
        logits, targets = random_logits_targets(1)
        _, grads = _kernels.loss_from_targets(logits, targets)
        np.testing.assert_allclose(grads.sum(axis=1), 0.0, atol=1e-12)

    def test_extreme_logits_finite(self):
        logits = np.array([[800.0, 0.0, -800.0]])
        targets = np.full((1, 3), 1 / 3)
        values, grads = _kernels.loss_from_targets(logits, targets)
        assert np.isfinite(values).all()
        assert np.isfinite(grads).all()


class TestLossKernelColumns:
    @pytest.mark.parametrize("n", [32, 2000])
    @pytest.mark.parametrize("k", range(2, 8))
    def test_bits_of_the_axis_reduction_form(self, k, n):
        # rows at several scales, so some classes underflow to 0 after exp;
        # soft and one-hot target rows
        rng = np.random.default_rng([k, n])
        logits = rng.normal(size=(n, k)) * rng.choice([0.01, 1.0, 30.0, 800.0],
                                                       size=(n, 1))
        targets = rng.dirichlet(np.ones(k), size=n)
        targets[::3] = np.eye(k)[rng.integers(k, size=len(targets[::3]))]
        values, grads = _kernels.loss_from_targets(logits, targets)
        ref_values, ref_grads = reference_loss_from_targets(logits, targets)
        assert values.tobytes() == ref_values.tobytes()
        assert grads.tobytes() == ref_grads.tobytes()


class TestEStepReference:
    def test_memberships_match_density_formula(self):
        x = random_losses(2)
        a1, b1, a2, b2, pi = 2.0, 8.0, 8.0, 2.0, 0.4
        r1, loglik = _kernels.bmm_e_step(x, a1, b1, a2, b2, pi)
        f1 = stats.beta.pdf(x, a1, b1)
        f2 = stats.beta.pdf(x, a2, b2)
        expected_r1 = pi * f1 / (pi * f1 + (1.0 - pi) * f2)
        np.testing.assert_allclose(r1, expected_r1, atol=1e-12)
        expected_ll = float(np.log(pi * f1 + (1.0 - pi) * f2).sum())
        assert abs(loglik - expected_ll) <= 1e-8 * max(1.0, abs(expected_ll))

    def test_memberships_are_probabilities(self):
        x = random_losses(3)
        r1, _ = _kernels.bmm_e_step(x, 1.5, 6.0, 7.0, 1.5, 0.25)
        assert (r1 >= 0.0).all()
        assert (r1 <= 1.0).all()

    def test_stable_for_extreme_shapes(self):
        # near-degenerate components must not overflow the density ratio
        x = np.array([1e-4, 0.5, 1.0 - 1e-4])
        r1, loglik = _kernels.bmm_e_step(x, 100.0, 0.01, 0.01, 100.0, 0.5)
        assert np.isfinite(r1).all()
        assert np.isfinite(loglik)


class TestDistanceKernelReference:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        queries = rng.normal(size=(20, 6))
        bank = rng.normal(size=(40, 6))
        out = _kernels.min_cosine_distances(queries, unit_rows(bank))
        qn = np.linalg.norm(queries, axis=1)
        bn = np.linalg.norm(bank, axis=1)
        sims = (queries @ bank.T) / np.outer(qn, bn)
        np.testing.assert_allclose(out, 1.0 - sims.max(axis=1), atol=1e-12)


# prints the bytes of one kernel result; OPENBLAS_NUM_THREADS, read when
# numpy loads, sets how many threads each matrix product may use
BLOCKS_BYTES = ("import sys\n"
                "import numpy as np\n"
                "from mixboot import _kernels\n"
                "rng = np.random.default_rng(5)\n"
                "queries, bank = rng.normal(size=(1000, 32)), rng.normal(size=(500, 32))\n"
                "sys.stdout.buffer.write(_kernels.min_cosine_distances(queries, bank).tobytes())\n")


class TestDistanceKernelBlocks:
    """A row's bits do not depend on where its batch puts it relative to
    the fixed query blocks, nor on how many BLAS threads run.  These
    banks are left unscaled: no bit checked here depends on the rows'
    length."""

    def test_slices_across_a_block_boundary_match(self):
        # each query lies near one of the bank's last rows, which one
        # product with the whole bank on its column side sums by the
        # query's position in the block
        rng = np.random.default_rng(6)
        bank = rng.normal(size=(500, 16))
        queries = bank[-4:][np.arange(300) % 4] + 0.1 * rng.normal(size=(300, 16))
        full = _kernels.min_cosine_distances(queries, bank)
        block = _kernels.BLOCK
        assert len(queries) > 2 * block
        for offset in (1, block - 1, block, block + 1):
            assert (_kernels.min_cosine_distances(queries[offset:], bank)
                    == full[offset:]).all()

    def test_zero_row_ends_a_partial_block(self):
        rng = np.random.default_rng(7)
        queries = rng.normal(size=(_kernels.BLOCK + 72, 8))
        bank = rng.normal(size=(500, 8))
        with_zero = queries.copy()
        with_zero[-1] = 0.0
        out = _kernels.min_cosine_distances(with_zero, bank)
        assert np.isnan(out[-1])
        assert (out[:-1] == _kernels.min_cosine_distances(queries, bank)[:-1]).all()

    @pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                        reason="OpenBLAS runs at most one thread per usable CPU")
    def test_bytes_do_not_depend_on_blas_threads(self):
        src = Path(__file__).resolve().parents[1] / "src"
        outputs = [
            subprocess.run([sys.executable, "-c", BLOCKS_BYTES],
                           env=dict(os.environ, PYTHONPATH=str(src),
                                    OPENBLAS_NUM_THREADS=threads),
                           check=True, capture_output=True, timeout=120).stdout
            for threads in ("1", "2")
        ]
        assert len(outputs[0]) == 1000 * 8
        assert outputs[0] == outputs[1]

    def test_no_query_rows(self):
        out = _kernels.min_cosine_distances(np.empty((0, 4)), np.ones((3, 4)))
        assert out.shape == (0,)


class TestGammalnPort:
    def test_equals_scipy_gammaln(self):
        # the Cephes lgam port keeps BMM fits and every artifact byte-identical
        # only if it is scipy's gammaln bit for bit; the fixed points sit on
        # both sides of each branch: the [2, 3) shift, 13, 1000 and 1e8
        rng = np.random.default_rng(12)
        branch = [2.0, 3.0, np.nextafter(13.0, 0.0), 13.0, 1000.0, 1e8,
                  np.nextafter(2.0, 0.0), np.nextafter(3.0, 0.0),
                  np.nextafter(1000.0, 0.0), np.nextafter(1e8, 2e8), 0.01, 2e4]
        x = np.concatenate([
            rng.uniform(0.01, 2e4, 50_000),
            np.exp(rng.uniform(math.log(0.01), math.log(2e4), 50_000)),
            np.arange(1.0, 14.0),
            branch,
        ])
        got = np.array([_kernels.gammaln(v) for v in x])
        np.testing.assert_array_equal(got, special.gammaln(x))

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1.0, -2.5, math.nan])
    def test_rejects_nonpositive_and_nan(self, bad):
        with pytest.raises(ValueError):
            _kernels.gammaln(bad)
