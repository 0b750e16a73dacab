"""Referral curves, feature-distance queries and rank correlation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import special, stats

from mixboot.analysis import (
    _sorted_unique,
    distance_perception_summary,
    distance_records,
    min_cosine_distances,
    referral_curve,
    spearman,
    t_two_tailed_p,
    threshold_curve,
)
from mixboot.errors import InvalidInputError, UndefinedMetricError
from mixboot.prob_metrics import roc_auc

# frozen tied-rank hand-oracle: ranks (1, 2.5, 2.5, 4) vs (1, 3, 2, 4)
SPEARMAN_TIED_EXAMPLE = 0.9486832980505138


@st.composite
def referral_cases(draw):
    """1..60 rows of uncertainty, 0/1 correctness, score and 0/1 label, a
    few rejection fractions and a permutation of the rows.  Uncertainties
    and scores come from a coarse grid (many ties) or are free floats."""
    n = draw(st.integers(1, 60))

    def column(grid):
        elements = (st.sampled_from(grid) if draw(st.booleans())
                    else st.floats(0.0, 1.0))
        return draw(hnp.arrays(np.float64, n, elements=elements))

    u = column([0.0, 0.1, 0.5, 0.7])
    s = column([0.0, 0.25, 0.5, 1.0])
    c = draw(hnp.arrays(np.float64, n, elements=st.sampled_from([0.0, 1.0])))
    y = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 1)))
    fracs = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=5))
    perm = np.array(draw(st.permutations(range(n))))
    return u, c, s, y, fracs, perm


class TestReferralCurve:
    def test_fraction_zero_is_full_set(self):
        u = np.array([0.3, 0.1, 0.9, 0.4])
        c = np.array([1.0, 1.0, 0.0, 1.0])
        s = np.array([0.9, 0.8, 0.6, 0.2])
        curve = referral_curve(u, c, s, [0.0], np.array([1, 1, 0, 0]))
        point = curve[0]
        assert point.accuracy == 0.75
        assert point.n_retained == 4

    def test_hand_sort_and_reject_oracle(self):
        u = np.array([0.9, 0.8, 0.1, 0.1])
        c = np.array([0.0, 0.0, 1.0, 1.0])
        s = np.array([0.9, 0.8, 0.9, 0.1])
        curve = referral_curve(u, c, s, [0.5], np.array([0, 0, 1, 0]))
        point = curve[0]
        assert point.accuracy == 1.0
        assert point.n_retained == 2

    def test_oracle_uncertainty_nondecreasing(self):
        rng = np.random.default_rng(0)
        c = (rng.random(40) < 0.7).astype(np.float64)
        u = 1.0 - c
        s = rng.random(40)
        labels = np.where(c == 1.0, s > 0.5, s <= 0.5).astype(int)
        fracs = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
        curve = referral_curve(u, c, s, fracs, labels)
        accs = [p.accuracy for p in curve]
        assert all(b >= a - 1e-12 for a, b in zip(accs, accs[1:]))

    def test_ceil_rejection_rule(self):
        u = np.array([0.4, 0.3, 0.2, 0.1])
        c = np.ones(4)
        s = np.full(4, 0.9)
        curve = referral_curve(u, c, s, [0.26], np.ones(4, dtype=int))
        assert curve[0].n_retained == 2  # ceil(0.26 * 4) = 2 rejected

    def test_uncertainty_ties_break_by_index(self):
        u = np.array([0.5, 0.5, 0.5, 0.2])
        c = np.array([0.0, 1.0, 1.0, 1.0])
        s = np.array([0.1, 0.9, 0.9, 0.9])
        curve = referral_curve(u, c, s, [0.25], np.ones(4, dtype=int))
        point = curve[0]
        # index 0 is rejected first among the tied 0.5s
        assert point.n_retained == 3
        assert point.accuracy == 1.0

    def test_full_rejection_keeps_an_empty_point(self):
        # the point is kept, with nothing retained and nothing defined
        u = np.array([0.9, 0.1])
        c = np.array([1.0, 1.0])
        s = np.array([0.9, 0.8])
        curve = referral_curve(u, c, s, [0.0, 0.9], np.ones(2, dtype=int))
        assert len(curve) == 2
        assert curve[1] == (0.9, None, None, 0)

    def test_auc_none_when_one_class_left(self):
        u = np.array([0.9, 0.2, 0.1])
        c = np.array([0.0, 1.0, 1.0])
        s = np.array([0.2, 0.9, 0.8])  # rejecting index 0 leaves only label 1
        curve = referral_curve(u, c, s, [1 / 3], np.ones(3, dtype=int))
        assert curve[0].auc is None

    def test_bad_fraction_rejected(self):
        with pytest.raises(InvalidInputError):
            referral_curve(np.ones(2), np.ones(2), np.full(2, 0.5), [1.0],
                           np.zeros(2, dtype=int))

    @settings(deadline=None, max_examples=200)
    @given(referral_cases())
    def test_points_do_not_depend_on_row_order(self, case):
        # the retained rows are scored in rejection order, and each point
        # has the bits of the same rows scored in any other order
        u, c, s, y, fracs, perm = case
        order = np.argsort(-u, kind="stable")
        expected = []
        for f in sorted(set(fracs)):
            kept = order[math.ceil(f * len(u)):]
            kept = kept[np.argsort(perm[kept])]  # the same rows, shuffled
            try:
                auc = roc_auc(s[kept], y[kept])
            except UndefinedMetricError:
                auc = None
            expected.append((f, float(c[kept].mean()) if kept.size else None, auc,
                             int(kept.size)))
        assert referral_curve(u, c, s, fracs, y) == expected
        if len(set(u.tolist())) == len(u):
            # without ties every permutation of the rows retains the same rows
            assert referral_curve(u[perm], c[perm], s[perm], fracs, y[perm]) == expected


class TestThresholdCurve:
    def test_hand_filter_oracle(self):
        points = threshold_curve(
            np.array([0.1, 0.5, 0.9]), np.array([1.0, 1.0, 0.0]), [0.5]
        )
        assert points[0].accuracy == 1.0
        assert points[0].n_retained == 2

    def test_threshold_above_max_keeps_all(self):
        u = np.array([0.1, 0.5, 0.9])
        c = np.array([1.0, 0.0, 0.0])
        points = threshold_curve(u, c, [1.5])
        assert points[0].n_retained == 3
        assert abs(points[0].accuracy - 1 / 3) <= 1e-12

    def test_threshold_below_min_keeps_an_empty_point(self):
        # the point is kept, with nothing retained and no accuracy
        points = threshold_curve(np.array([0.5, 0.9]), np.ones(2), [0.1, 1.0])
        assert points == [(0.1, None, 0), (1.0, 1.0, 2)]

    def test_thresholds_sorted_and_deduplicated(self):
        u = np.array([0.1, 0.2, 0.3])
        c = np.ones(3)
        points = threshold_curve(u, c, [0.3, 0.15, 0.3])
        assert [p.threshold for p in points] == [0.15, 0.3]
        assert [p.n_retained for p in points] == [1, 3]


class TestSortedUnique:
    @settings(deadline=None, max_examples=300)
    @given(hnp.arrays(np.float64, st.integers(0, 30), elements=st.one_of(
        st.sampled_from([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 0.5, 1.0]),
        st.floats(allow_nan=True, allow_infinity=True))))
    def test_matches_np_unique_bit_for_bit(self, values):
        # signed zeros and NaN payloads included
        got, want = _sorted_unique(values), np.unique(values)
        assert got.shape == want.shape
        assert (got.view(np.int64) == want.view(np.int64)).all()


class TestMinCosineDistance:
    def test_query_in_bank_is_zero(self):
        bank = np.array([[1.0, 2.0], [3.0, -1.0]])
        assert abs(min_cosine_distances(np.array([[3.0, -1.0]]), bank)[0]) <= 1e-12

    def test_orthogonal_query_is_one(self):
        bank = np.array([[1.0, 0.0]])
        assert abs(min_cosine_distances(np.array([[0.0, 2.0]]), bank)[0] - 1.0) <= 1e-12

    def test_opposite_query_is_two(self):
        bank = np.array([[1.0, 1.0]])
        assert abs(min_cosine_distances(np.array([[-2.0, -2.0]]), bank)[0] - 2.0) <= 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        bank = rng.normal(size=(20, 4))
        q = rng.normal(size=4)
        out = min_cosine_distances(np.stack([q, 1000.0 * q]), bank)
        assert abs(out[0] - out[1]) <= 1e-12

    def test_takes_minimum_over_bank(self):
        rng = np.random.default_rng(2)
        bank = rng.normal(size=(10, 3))
        q = rng.normal(size=(1, 3))
        per_row = [min_cosine_distances(q, bank[i : i + 1])[0] for i in range(10)]
        assert abs(min_cosine_distances(q, bank)[0] - min(per_row)) <= 1e-12

    def test_zero_bank_rows_ignored(self):
        bank = np.array([[0.0, 0.0], [0.0, 1.0]])
        assert abs(min_cosine_distances(np.array([[0.0, 3.0]]), bank)[0]) <= 1e-12

    def test_all_zero_bank_rejected(self):
        with pytest.raises(InvalidInputError):
            min_cosine_distances(np.ones((1, 2)), np.zeros((3, 2)))

    def test_batch_matches_scalar(self):
        # each row's value is the value of its 1-row batch, bit for bit
        rng = np.random.default_rng(3)
        bank = rng.normal(size=(15, 4))
        queries = rng.normal(size=(6, 4))
        batch = min_cosine_distances(queries, bank)
        for i in range(6):
            assert batch[i] == min_cosine_distances(queries[i : i + 1], bank)[0]

    def test_zero_row_padding_leaves_value_unchanged(self):
        # a zero-norm row goes through the kernel like any other and comes
        # back NaN; the other row's value must not depend on it
        rng = np.random.default_rng(3)
        bank = rng.normal(size=(15, 4))
        queries = rng.normal(size=(6, 4))
        full = min_cosine_distances(queries, bank)
        for i in range(6):
            padded = min_cosine_distances(np.stack([queries[i], np.zeros(4)]), bank)
            assert padded[0] == full[i]
            assert np.isnan(padded[1])

    def test_batch_zero_query_gives_nan(self):
        queries = np.array([[1.0, 0.0], [0.0, 0.0]])
        with np.errstate(all="raise"):
            out = min_cosine_distances(queries, np.ones((2, 2)))
        assert np.isfinite(out[0])
        assert np.isnan(out[1])

    def test_range(self):
        rng = np.random.default_rng(4)
        out = min_cosine_distances(rng.normal(size=(50, 5)), rng.normal(size=(30, 5)))
        assert (out >= -1e-12).all()
        assert (out <= 2.0 + 1e-12).all()


class TestSpearman:
    def test_perfect_inverse(self):
        rho, p = spearman(np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0]))
        assert rho == -1.0
        assert p == 0.0

    def test_rank_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=30)
        rho, _ = spearman(x, np.exp(2.0 * x) + 5.0)
        assert rho == 1.0

    def test_tied_rank_hand_oracle(self):
        rho, _ = spearman(np.array([1.0, 2.0, 2.0, 4.0]), np.array([1.0, 3.0, 2.0, 4.0]))
        assert abs(rho - SPEARMAN_TIED_EXAMPLE) <= 1e-9

    def test_matches_scipy(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n = int(rng.integers(8, 40))
            x = np.round(rng.normal(size=n), 1)  # rounding forces ties
            y = np.round(x + rng.normal(size=n), 1)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            rho, p = spearman(x, y)
            ref = stats.spearmanr(x, y)
            assert abs(rho - ref.statistic) <= 1e-12
            if abs(rho) < 1.0:
                assert abs(p - ref.pvalue) <= 1e-9

    def test_p_value_matches_scipy_t_sf(self):
        # the incomplete-beta p-value agrees with scipy's Student-t tail to
        # 1e-11 relative (about 1.4e-12 measured), not bit for bit: over df
        # 1-20000 and |t| from 1e-4 (p about 1) to where p falls below
        # 1e-300.  Below |t| ~ 1e-5 at df = 1 scipy itself drifts (2.8e-11
        # at 1e-6 against the closed form 1 - 2 atan(t) / pi).
        dfs = np.unique(np.concatenate(
            [np.arange(1, 31), np.geomspace(31, 20000, 60).round(), [19998]]
        )).astype(int)
        ts = np.concatenate([np.linspace(0.05, 4.0, 80), np.geomspace(1e-4, 1e150, 120)])
        smallest, checked = 1.0, 0
        for df in dfs:
            ref = 2.0 * special.stdtr(df, -ts)
            for t, p_ref in zip(ts, ref):
                if p_ref < 1e-300:
                    continue
                p = t_two_tailed_p(float(t), int(df))
                assert abs(p - p_ref) <= 1e-11 * p_ref, (df, t, p, p_ref)
                smallest = min(smallest, p_ref)
                checked += 1
        assert smallest < 1e-299
        assert checked > 5000

    def test_spearman_p_value_matches_scipy(self):
        # the same bound through spearman, over rho in (-1, 1) and n 3-5000
        rng = np.random.default_rng(9)
        checked = 0
        for n in (3, 4, 5, 8, 20, 100, 1000, 5000):
            x = rng.normal(size=n)
            noise = rng.normal(size=n)
            for weight in np.linspace(-1.0, 1.0, 21):
                y = weight * x + (1.0 - abs(weight)) * noise
                if n > 20:
                    y = np.round(y, 1)  # ties on the larger samples
                if np.all(y == y[0]):
                    continue
                rho, p = spearman(x, y)
                if abs(rho) >= 1.0:
                    continue
                t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
                p_ref = 2.0 * float(stats.t.sf(abs(t), n - 2))
                assert abs(p - p_ref) <= 1e-11 * p_ref
                checked += 1
        assert checked > 100

    def test_p_value_edges(self):
        for df in (1, 2, 7, 20000):
            assert t_two_tailed_p(0.0, df) == 1.0
            assert t_two_tailed_p(-0.0, df) == 1.0
        # ranks (1, 2, 3) against (1.5, 3, 1.5): rho = 0, so t = 0
        assert spearman(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 1.0])) == (0.0, 1.0)
        x = np.arange(12.0)
        assert spearman(x, x) == (1.0, 0.0)

    def test_constant_vector_undefined(self):
        with pytest.raises(UndefinedMetricError):
            spearman(np.ones(5), np.arange(5.0))

    def test_needs_three_samples(self):
        with pytest.raises(InvalidInputError):
            spearman(np.array([1.0, 2.0]), np.array([2.0, 1.0]))

    def test_t_approximation_significance(self):
        # strongly monotone 20-point relation must be significant
        rng = np.random.default_rng(8)
        x = np.linspace(0, 1, 20)
        y = x + 0.05 * rng.normal(size=20)
        rho, p = spearman(x, y)
        assert rho > 0.8
        assert p < 1e-4


class TestDistanceRecordsAndSummary:
    def test_records_carry_fields(self):
        bank = np.array([[1.0, 0.0], [0.0, 1.0]])
        queries = np.array([[1.0, 0.0], [1.0, 1.0]])
        d = distance_records(queries, bank, np.array([0.3, 0.7]), np.array([1, 0]))
        assert d.shape == (2,)
        assert d[0] <= 1e-12
        assert abs(d[1] - (1.0 - np.sqrt(0.5))) <= 1e-12
        with pytest.raises(InvalidInputError):
            distance_records(queries, bank, np.array([0.3]), np.array([1, 0]))

    def test_summary_signs_are_opposite(self):
        # uncertainty grows with distance by construction
        rng = np.random.default_rng(9)
        bank = rng.normal(size=(30, 3))
        queries = rng.normal(size=(25, 3))
        d = min_cosine_distances(queries, bank)
        u = d + 0.01 * rng.normal(size=25)
        summary = distance_perception_summary(d, u)
        assert summary["n"] == 25
        assert summary["n_dropped"] == 0
        assert summary["rho_similarity"] < -0.5
        assert summary["p_similarity"] < 1e-3
        assert set(summary) == {"n", "n_dropped", "rho_similarity", "p_similarity"}

    def test_summary_drops_nan_records(self):
        bank = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        queries = np.vstack([np.zeros(2), np.random.default_rng(10).normal(size=(9, 2))])
        u = np.linspace(0.1, 1.0, 10)
        d = distance_records(queries, bank, u, np.ones(10))
        summary = distance_perception_summary(d, u)
        assert summary["n"] == 9
        assert summary["n_dropped"] == 1

    def test_summary_undefined_below_three_finite(self):
        # spearman's own n < 3 input error would fail the whole run
        d = np.array([np.nan, 0.2, np.nan, 0.5, np.nan])
        u = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        assert distance_perception_summary(d, u) == {
            "n": 2, "n_dropped": 3,
            "degenerate": "correlation needs at least 3 finite distances, got 2"}

    def test_summary_undefined_for_constant_finite_distances(self):
        # n counts the finite distances here too, beside the dropped NaN rows
        d = np.array([0.2, np.nan, 0.2, 0.2, np.nan])
        u = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        assert distance_perception_summary(d, u) == {
            "n": 3, "n_dropped": 2,
            "degenerate": "correlation undefined for a constant vector"}
