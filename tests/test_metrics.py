"""Correlation metrics, the Student-t machinery, and report assembly."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanreg.basis import BasisSpec
from kanreg.data import FeatureTable
from kanreg.errors import (
    InsufficientDataError,
    ParameterError,
    ShapeError,
    UndefinedCorrelationError,
)
from kanreg.linalg import Rng
from kanreg.metrics import (
    evaluate,
    paired_t_test,
    plcc,
    rank_average,
    regularized_incomplete_beta,
    srcc,
    student_t_two_sided_p,
)
from kanreg.network import ModelBundle, init_network


def _oracle_pearson(a, b):
    """Textbook covariance over product of standard deviations."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    cov = np.mean((a - a.mean()) * (b - b.mean()))
    return cov / (a.std() * b.std())


def _oracle_midranks(v):
    """Average ranks derived from unique-value positions, 1-based."""
    uniq, inverse, counts = np.unique(np.asarray(v, dtype=np.float64),
                                      return_inverse=True, return_counts=True)
    ends = np.cumsum(counts).astype(np.float64)
    starts = ends - counts + 1.0
    return ((starts + ends) / 2.0)[inverse]


def _brute_force_midranks(v):
    """rank(x) = #(v < x) + (#(v == x) + 1) / 2, one value at a time."""
    v = np.asarray(v, dtype=np.float64)
    return np.array([np.sum(v < x) + (np.sum(v == x) + 1) / 2.0 for x in v])


class TestPlcc:
    def test_positive_affine(self):
        assert plcc([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)

    def test_reversal(self):
        assert plcc([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_definitional_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.normal(size=100)
            b = rng.normal(size=100) + 0.4 * a
            assert plcc(a, b) == pytest.approx(_oracle_pearson(a, b), abs=1e-12)

    def test_oracle_with_ties(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 5, size=100).astype(np.float64)
        b = rng.integers(0, 5, size=100).astype(np.float64)
        assert plcc(a, b) == pytest.approx(_oracle_pearson(a, b), abs=1e-12)

    def test_constant_input_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            plcc([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(UndefinedCorrelationError):
            plcc([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            plcc([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(InsufficientDataError):
            plcc([1.0], [2.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            plcc([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0])

    @settings(max_examples=50, deadline=None)
    @given(scale=st.floats(min_value=1e-3, max_value=1e3),
           shift=st.floats(min_value=-100, max_value=100),
           flip=st.booleans())
    def test_affine_map_is_exactly_correlated(self, scale, shift, flip):
        x = np.linspace(-2.0, 3.0, 17)
        a = -scale if flip else scale
        expect = -1.0 if flip else 1.0
        assert plcc(x, a * x + shift) == pytest.approx(expect, abs=1e-12)


class TestRankAverage:
    def test_distinct_values(self):
        np.testing.assert_array_equal(rank_average([30.0, 10.0, 20.0]),
                                      [3.0, 1.0, 2.0])

    def test_midranks(self):
        np.testing.assert_array_equal(rank_average([10.0, 20.0, 20.0, 30.0]),
                                      [1.0, 2.5, 2.5, 4.0])

    def test_all_tied(self):
        np.testing.assert_array_equal(rank_average([7.0, 7.0, 7.0, 7.0]),
                                      [2.5, 2.5, 2.5, 2.5])

    def test_matches_unique_position_oracle(self):
        rng = np.random.default_rng(11)
        v = rng.integers(0, 8, size=60).astype(np.float64)
        np.testing.assert_array_equal(rank_average(v), _oracle_midranks(v))

    def test_matches_brute_force_definition(self):
        rng = np.random.default_rng(53)
        for n in (1, 2, 7, 60, 301):
            heavy_ties = rng.integers(-3, 4, size=n).astype(np.float64)
            signed_zeros = rng.choice([-0.0, 0.0, 1.0, -2.5], size=n)
            for v in (heavy_ties, signed_zeros, rng.normal(size=n)):
                np.testing.assert_array_equal(rank_average(v), _brute_force_midranks(v))

    def test_ranks_sum_preserved(self):
        # midranking redistributes positions without changing their sum
        rng = np.random.default_rng(13)
        v = rng.integers(0, 4, size=25).astype(np.float64)
        assert rank_average(v).sum() == pytest.approx(25 * 26 / 2, abs=1e-9)


class TestSrcc:
    def test_monotone_map(self):
        assert srcc([1, 2, 3], [10, 100, 1000]) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=40)
        b = rng.normal(size=40)
        base = srcc(a, b)
        assert srcc(np.exp(a), b) == pytest.approx(base, abs=1e-12)
        assert srcc(a, b ** 3) == pytest.approx(base, abs=1e-12)

    def test_tied_data_oracle(self):
        a = [1.0, 1.0, 2.0]
        b = [1.0, 2.0, 3.0]
        expect = _oracle_pearson(_oracle_midranks(a), _oracle_midranks(b))
        assert srcc(a, b) == pytest.approx(expect, abs=1e-12)

    def test_random_ties_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            a = rng.integers(0, 6, size=100).astype(np.float64)
            b = rng.integers(0, 6, size=100).astype(np.float64)
            expect = _oracle_pearson(_oracle_midranks(a), _oracle_midranks(b))
            assert srcc(a, b) == pytest.approx(expect, abs=1e-12)

    def test_tie_free_equals_rank_plcc(self):
        rng = np.random.default_rng(23)
        a = rng.permutation(50).astype(np.float64)
        b = rng.permutation(50).astype(np.float64)
        expect = plcc(rank_average(a), rank_average(b))
        assert srcc(a, b) == pytest.approx(expect, abs=1e-12)

    def test_all_tied_vector_undefined(self):
        with pytest.raises(UndefinedCorrelationError):
            srcc([4.0, 4.0, 4.0], [1.0, 2.0, 3.0])


class TestIncompleteBeta:
    def test_uniform_cdf(self):
        for x in (0.1, 0.25, 0.5, 0.9):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-12)

    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_arcsine_median(self):
        assert regularized_incomplete_beta(0.5, 0.5, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry(self):
        for a, b, x in ((2.0, 5.0, 0.3), (0.5, 4.5, 0.7), (3.0, 3.0, 0.2)):
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_power_closed_forms(self):
        # I_x(a, 1) = x^a and I_x(1, b) = 1 - (1-x)^b
        for a, x in ((2.5, 0.4), (7.0, 0.9)):
            assert regularized_incomplete_beta(a, 1.0, x) == pytest.approx(x ** a, abs=1e-12)
        for b, x in ((3.5, 0.2), (1.5, 0.8)):
            assert regularized_incomplete_beta(1.0, b, x) == pytest.approx(
                1.0 - (1.0 - x) ** b, abs=1e-12)

    def test_monotone_in_x(self):
        values = [regularized_incomplete_beta(2.0, 3.0, x)
                  for x in np.linspace(0.0, 1.0, 21)]
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ParameterError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)


class TestStudentT:
    def test_cauchy_closed_form(self):
        # one degree of freedom is the Cauchy distribution
        for t in (0.5, 1.0, 2.0, 12.7062):
            expect = 1.0 - (2.0 / math.pi) * math.atan(t)
            assert student_t_two_sided_p(t, 1) == pytest.approx(expect, abs=1e-12)

    def test_two_df_closed_form(self):
        for t in (0.5, 1.5, 4.303):
            expect = 1.0 - t / math.sqrt(t * t + 2.0)
            assert student_t_two_sided_p(t, 2) == pytest.approx(expect, abs=1e-12)

    def test_zero_statistic(self):
        assert student_t_two_sided_p(0.0, 5) == 1.0

    def test_infinite_statistic(self):
        assert student_t_two_sided_p(math.inf, 5) == 0.0

    def test_sign_symmetric(self):
        assert student_t_two_sided_p(-1.7, 8) == student_t_two_sided_p(1.7, 8)

    def test_table_critical_value_nine_df(self):
        # two-sided 5% critical value for nine degrees of freedom
        assert student_t_two_sided_p(2.262, 9) == pytest.approx(0.05, abs=1e-3)

    def test_monotone_in_t(self):
        ps = [student_t_two_sided_p(t, 7) for t in np.linspace(0.0, 6.0, 25)]
        assert all(b <= a for a, b in zip(ps, ps[1:]))

    def test_df_validated(self):
        with pytest.raises(ParameterError):
            student_t_two_sided_p(1.0, 0)


class TestPairedTTest:
    def test_identical_vectors(self):
        a = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        got = paired_t_test(a, a.copy())
        assert got.t_stat == 0.0
        assert got.p_value == 1.0
        assert not got.significant
        assert got.df == 4

    def test_alternating_differences(self):
        got = paired_t_test([1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0])
        assert got.t_stat == 0.0

    def test_constant_nonzero_difference(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        got = paired_t_test(a + 1.0, a)
        assert got.t_stat == math.inf
        assert got.p_value == 0.0
        assert got.significant
        got = paired_t_test(a - 1.0, a)
        assert got.t_stat == -math.inf

    def test_hand_computed_statistic(self):
        # d = [1..5]: mean 3, sample sd sqrt(2.5), t = 3 / sqrt(2.5/5)
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        got = paired_t_test(a, np.zeros(5))
        assert got.t_stat == pytest.approx(3.0 / math.sqrt(0.5), abs=1e-12)
        assert got.significant

    def test_swap_symmetry(self):
        rng = np.random.default_rng(29)
        a = rng.normal(size=12)
        b = rng.normal(size=12)
        ab = paired_t_test(a, b)
        ba = paired_t_test(b, a)
        assert ab.t_stat == pytest.approx(-ba.t_stat, abs=1e-12)
        assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)

    def test_boundary_significance_nine_df(self):
        # n = 10 sample engineered so t lands on the tabled 5% boundary
        u = np.arange(10.0) - 4.5
        z = u / math.sqrt(float(u @ u) / 9.0)
        d = 1.0 + (math.sqrt(10.0) / 2.262) * z
        got = paired_t_test(d, np.zeros(10))
        assert got.df == 9
        assert got.t_stat == pytest.approx(2.262, abs=1e-12)
        assert got.p_value == pytest.approx(0.05, abs=1e-3)


def _passthrough_bundle(d):
    """Bundle whose prediction is exactly the first input feature."""
    net = init_network([d, 1], BasisSpec.taylor(1), Rng(0))
    for layer in net.layers:
        layer.coeffs[...] = 0.0
    net.layers[0].coeffs[0, 1, 0] = 1.0
    return ModelBundle(net=net)


class TestEvaluate:
    def test_perfect_monotone_model(self):
        rng = np.random.default_rng(31)
        feats = rng.normal(size=(50, 3))
        table = FeatureTable("t", feats, 3.0 * feats[:, 0] + 7.0)
        report = evaluate(_passthrough_bundle(3), table)
        assert report.plcc >= 0.999
        assert report.srcc >= 0.999
        assert report.n == 50

    def test_n_equals_index_count(self):
        rng = np.random.default_rng(37)
        feats = rng.normal(size=(30, 2))
        table = FeatureTable("t", feats, feats[:, 0] + 0.01 * feats[:, 1])
        report = evaluate(_passthrough_bundle(2), table, indices=[0, 3, 5, 7])
        assert report.n == 4

    def test_score_scale_irrelevant(self):
        rng = np.random.default_rng(41)
        feats = rng.normal(size=(40, 2))
        raw = feats[:, 0] + 0.1 * rng.normal(size=40)
        hundred = FeatureTable("a", feats, 50.0 + 10.0 * raw)
        five = FeatureTable("b", feats, 2.5 + 0.5 * raw)
        bundle = _passthrough_bundle(2)
        ra = evaluate(bundle, hundred)
        rb = evaluate(bundle, five)
        assert ra.plcc == pytest.approx(rb.plcc, abs=1e-12)
        assert ra.srcc == pytest.approx(rb.srcc, abs=1e-12)
