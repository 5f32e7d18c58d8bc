"""Deterministic RNG stream and dense linear algebra primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanreg.errors import (
    ContractError,
    InsufficientDataError,
    NumericError,
    ShapeError,
)
from kanreg.linalg import Rng, as_matrix, column_stats, covariance, matmul, sym_eig


# ---------------------------------------------------------------------------
# Rng: the stream is pinned bit for bit. Expected values come from a
# from-scratch reimplementation of the documented update equations
# (splitmix64 seeding, xoshiro256** steps), run once and frozen here.

_STREAM_ORACLE = {
    0: [11091344671253066420, 13793997310169335082,
        1900383378846508768, 7684712102626143532],
    1: [12966619160104079557, 9600361134598540522,
        10590380919521690900, 7218738570589545383],
    42: [1546998764402558742, 6990951692964543102,
         12544586762248559009, 17057574109182124193],
}

_UNIFORM_ORACLE_42 = [
    0.083862971059882163, 0.37898025066266861, 0.68004341102813937,
    0.92469294532538759, 0.99180391428210279, 0.76973946043424246,
]

# First Box-Muller pair for seed 42: r = sqrt(-2 log1p(-u1)), angle 2 pi u2.
_NORMAL_ORACLE_42 = [-0.30326306467873798, 0.28846173882942383]

_SHUFFLE_ORACLE_7 = [8, 3, 9, 0, 7, 2, 1, 6, 5, 4]


class TestRngStream:
    @pytest.mark.parametrize("seed", sorted(_STREAM_ORACLE))
    def test_raw_stream_matches_frozen_reference(self, seed):
        rng = Rng(seed)
        got = [rng.next_u64() for _ in range(4)]
        assert got == _STREAM_ORACLE[seed]

    def test_uniforms_match_frozen_reference(self):
        got = Rng(42).uniforms(6)
        np.testing.assert_array_equal(got, np.array(_UNIFORM_ORACLE_42))

    def test_normals_match_frozen_reference(self):
        got = Rng(42).normals(2)
        np.testing.assert_array_equal(got, np.array(_NORMAL_ORACLE_42))

    def test_shuffle_matches_frozen_reference(self):
        seq = list(range(10))
        Rng(7).shuffle(seq)
        assert seq == _SHUFFLE_ORACLE_7

    @pytest.mark.parametrize("n", [0, 1, 2, 17, 350])
    def test_shuffle_matches_fisher_yates_on_below(self, n):
        for seed in (0, 7, 42, (1 << 64) - 1):
            ref_rng = Rng(seed)
            want = list(range(n))
            for i in range(n - 1, 0, -1):
                j = ref_rng.below(i + 1)
                want[i], want[j] = want[j], want[i]
            rng = Rng(seed)
            got = list(range(n))
            rng.shuffle(got)
            assert got == want
            assert rng.next_u64() == ref_rng.next_u64()  # same draws consumed

    def test_bulk_and_scalar_paths_agree(self):
        a = Rng(13)
        b = Rng(13)
        bulk = a.uniforms(17)
        single = np.array([b.uniform() for _ in range(17)])
        np.testing.assert_array_equal(bulk, single)

    def test_same_seed_bit_identical(self):
        np.testing.assert_array_equal(Rng(99).uniforms(1000), Rng(99).uniforms(1000))

    def test_different_seeds_differ(self):
        assert Rng(0).next_u64() != Rng(1).next_u64()

    def test_uniform_range(self):
        u = Rng(3).uniforms(10000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_normals_moments(self):
        # loose sanity: mean near 0, variance near 1 at n = 50k
        z = Rng(5).normals(50000)
        assert abs(z.mean()) < 0.02
        assert abs(z.var() - 1.0) < 0.03

    def test_below_range_and_determinism(self):
        rng = Rng(11)
        draws = [rng.below(7) for _ in range(200)]
        assert all(0 <= d < 7 for d in draws)
        rng2 = Rng(11)
        assert draws == [rng2.below(7) for _ in range(200)]

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Rng(0).below(0)

    def test_seed_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(1 << 64)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=2, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_shuffle_is_permutation(self, seed, n):
        seq = list(range(n))
        Rng(seed).shuffle(seq)
        assert sorted(seq) == list(range(n))


# ---------------------------------------------------------------------------
# Matrix helpers


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(matmul(np.eye(2), a), a)

    def test_hand_multiplication(self):
        got = matmul([[1.0, 2.0], [3.0, 4.0]], [[0.0], [1.0]])
        np.testing.assert_array_equal(got, [[2.0], [4.0]])

    def test_zero_matrix(self):
        a = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(matmul(a, np.zeros((3, 2))), np.zeros((2, 2)))

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.ones((2, 3)), np.ones((2, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(ShapeError):
            as_matrix([1.0, 2.0, 3.0])


class TestColumnStats:
    def test_definition_oracle(self):
        means, stds = column_stats([[1.0], [2.0], [3.0]])
        assert means[0] == pytest.approx(2.0, abs=1e-15)
        assert stds[0] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-15)

    def test_constant_column(self):
        means, stds = column_stats([[5.0], [5.0], [5.0]])
        assert means[0] == 5.0
        assert stds[0] == 0.0

    def test_single_row(self):
        means, stds = column_stats([[3.0, -1.0]])
        np.testing.assert_array_equal(means, [3.0, -1.0])
        np.testing.assert_array_equal(stds, [0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            column_stats(np.empty((0, 4)))


class TestCovariance:
    def test_identical_rows_zero(self):
        got = covariance([[1.0, 2.0], [1.0, 2.0]])
        np.testing.assert_array_equal(got, np.zeros((2, 2)))

    def test_definition_oracle(self):
        got = covariance([[0.0, 0.0], [2.0, 2.0]])
        np.testing.assert_allclose(got, [[2.0, 2.0], [2.0, 2.0]], atol=1e-15)

    def test_row_permutation_invariance(self):
        rows = np.random.default_rng(0).normal(size=(8, 3))
        np.testing.assert_allclose(covariance(rows), covariance(rows[::-1]), atol=1e-12)

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientDataError):
            covariance([[1.0, 2.0]])

    def test_symmetric_and_psd(self):
        m = covariance(np.random.default_rng(3).normal(size=(20, 6)))
        np.testing.assert_array_equal(m, m.T)
        w, _ = sym_eig(m)
        assert np.all(w >= -1e-9)


class TestSymEig:
    def test_identity(self):
        w, v = sym_eig(np.eye(3))
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        w, v = sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(w, [3.0, 1.0], atol=1e-12)
        # axis-aligned eigenvectors up to sign
        np.testing.assert_allclose(np.abs(v), np.eye(2), atol=1e-12)

    def test_2x2_quadratic_formula_oracle(self):
        # eigenvalues of [[a,b],[b,c]] are (a+c)/2 +- sqrt(((a-c)/2)^2 + b^2)
        rng = np.random.default_rng(7)
        for _ in range(20):
            a, b, c = rng.normal(size=3)
            m = np.array([[a, b], [b, c]])
            mid = (a + c) / 2.0
            rad = math.sqrt(((a - c) / 2.0) ** 2 + b * b)
            w, _ = sym_eig(m)
            np.testing.assert_allclose(w, [mid + rad, mid - rad], atol=1e-10)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 8, 17):
            g = rng.normal(size=(n, n))
            m = (g + g.T) / 2.0
            w, v = sym_eig(m)
            np.testing.assert_allclose(v.T @ np.diag(w) @ v, m, atol=1e-7)
            np.testing.assert_allclose(v @ v.T, np.eye(n), atol=1e-8)
            assert np.all(np.diff(w) <= 1e-12)  # descending

    def test_eigenpairs_satisfy_definition(self):
        g = np.random.default_rng(23).normal(size=(6, 6))
        m = (g + g.T) / 2.0
        w, v = sym_eig(m)
        for i in range(6):
            np.testing.assert_allclose(m @ v[i], w[i] * v[i], atol=1e-8)

    def test_tiny_negative_eigenvalues_clamped(self):
        # rank-1 PSD matrix: the numerically-zero eigenvalues must not be
        # returned as small negatives
        u = np.array([1.0, 2.0, 3.0])
        m = np.outer(u, u)
        w, _ = sym_eig(m)
        assert np.all(w >= 0.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(ContractError):
            sym_eig([[0.0, 1.0], [0.0, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            sym_eig(np.ones((2, 3)))

    def test_zero_matrix(self):
        w, v = sym_eig(np.zeros((4, 4)))
        np.testing.assert_array_equal(w, np.zeros(4))
        np.testing.assert_allclose(v @ v.T, np.eye(4), atol=1e-12)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        g = rng.normal(size=(n, n))
        m = (g + g.T) / 2.0
        w, v = sym_eig(m)
        np.testing.assert_allclose(v.T @ np.diag(w) @ v, m, atol=1e-7)
