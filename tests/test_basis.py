"""Basis family evaluators: value oracles and derivative checks.

Each family is checked two ways: against an independently coded oracle
(closed forms, classical recurrences, or naive reference algorithms), and
against central finite differences for the input derivative.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kanreg import cli
from kanreg.basis import (
    FAMILIES,
    FAMILY_FIELDS,
    MEXICAN_HAT_PEAK,
    SQUASHED_FAMILIES,
    BasisSpec,
    basis_size,
    eval_mexican_hat,
    evaluate_basis,
)
from kanreg.errors import ParameterError

_FD_STEP = 1e-5


def _eval(spec, x):
    """Values and input derivative of a coefficient family, both built now."""
    vals, derivative = evaluate_basis(spec, x)
    return vals, derivative()


def _fd_close(fd, ana, rtol=1e-5, atol=1e-8):
    """Gradcheck comparator: relative error with an absolute floor.

    Near-zero derivatives are dominated by cancellation noise in the
    difference quotient, so tiny absolute gaps are accepted outright.
    """
    gap = np.abs(fd - ana)
    ref = np.maximum(np.abs(fd), np.abs(ana))
    return np.all(gap <= np.maximum(rtol * ref, atol))


def _check_input_derivative(fn, xs):
    vals_p, _ = fn(xs + _FD_STEP)
    vals_m, _ = fn(xs - _FD_STEP)
    fd = (vals_p - vals_m) / (2.0 * _FD_STEP)
    _, ana = fn(xs)
    assert _fd_close(fd, ana)


class TestTaylor:
    def test_expansion_point(self):
        vals, _ = _eval(BasisSpec.taylor(2), 0.0)
        np.testing.assert_array_equal(vals, [1.0, 0.0, 0.0])

    def test_monomial_oracle(self):
        # term j is x^j / j!, so at x = 1 the terms are 1/j! and d/dx of
        # term j is term j - 1
        vals, d = _eval(BasisSpec.taylor(3), 1.0)
        np.testing.assert_array_equal(vals, [1.0, 1.0, 0.5, 1.0 / 6.0])
        np.testing.assert_array_equal(d, [0.0, 1.0, 1.0, 0.5])

    def test_matches_power_oracle(self):
        xs = np.linspace(-2.0, 2.0, 9)
        vals, d = _eval(BasisSpec.taylor(5), xs)
        for j in range(6):
            np.testing.assert_allclose(vals[:, j], xs**j / math.factorial(j), atol=1e-12)
            expect_d = xs ** (j - 1) / math.factorial(j - 1) if j > 0 else np.zeros_like(xs)
            np.testing.assert_allclose(d[:, j], expect_d, atol=1e-12)

    def test_orders_0_and_1_are_the_plain_monomials(self):
        xs = np.random.default_rng(3).normal(size=(7, 5))
        for order in (0, 1):
            vals, d = _eval(BasisSpec.taylor(order), xs)
            want = np.stack([np.ones_like(xs), xs], -1)[..., :order + 1]
            want_d = np.stack([np.zeros_like(xs), np.ones_like(xs)], -1)[..., :order + 1]
            np.testing.assert_array_equal(vals, want)
            np.testing.assert_array_equal(d, want_d)

    def test_negative_order_rejected(self):
        with pytest.raises(ParameterError):
            _eval(BasisSpec.taylor(-1), 0.0)

    def test_input_derivative(self):
        _check_input_derivative(lambda x: _eval(BasisSpec.taylor(4), x),
                                np.linspace(-1.5, 1.5, 100))


class TestChebyshev:
    def test_t0_is_one(self):
        vals, _ = _eval(BasisSpec.chebyshev(0), 0.7)
        np.testing.assert_array_equal(vals, [1.0])

    def test_t2_closed_form(self):
        vals, _ = _eval(BasisSpec.chebyshev(2), 0.5)
        assert vals[2] == pytest.approx(math.cos(2.0 * math.acos(0.5)), abs=1e-14)
        assert vals[2] == pytest.approx(-0.5, abs=1e-14)

    def test_trig_oracle(self):
        # T_n(cos t) = cos(n t): the defining identity, evaluated directly
        rng = np.random.default_rng(0)
        xs = rng.uniform(-0.999, 0.999, size=100)
        vals, _ = _eval(BasisSpec.chebyshev(8), xs)
        for n in range(9):
            oracle = np.cos(n * np.arccos(xs))
            np.testing.assert_allclose(vals[:, n], oracle, atol=1e-10, rtol=0.0)

    def test_bounded_on_domain(self):
        xs = np.linspace(-1.0, 1.0, 501)
        vals, _ = _eval(BasisSpec.chebyshev(8), xs)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12

    def test_derivative_endpoint_identity(self):
        # dT_n/dx at x=1 equals n^2
        _, d = _eval(BasisSpec.chebyshev(6), 1.0)
        np.testing.assert_allclose(d, [n * n for n in range(7)], atol=1e-10)

    def test_input_derivative(self):
        _check_input_derivative(lambda x: _eval(BasisSpec.chebyshev(8), x),
                                np.random.default_rng(1).uniform(-0.99, 0.99, 100))


def _legendre_table(xs, n_max):
    """Classical Legendre recurrence, coded independently of the package."""
    p = np.empty((xs.size, n_max + 1))
    p[:, 0] = 1.0
    if n_max >= 1:
        p[:, 1] = xs
    for n in range(1, n_max):
        p[:, n + 1] = ((2 * n + 1) * xs * p[:, n] - n * p[:, n - 1]) / (n + 1)
    return p


class TestJacobi:
    def test_p0_constant(self):
        vals, _ = _eval(BasisSpec.jacobi(0, 1.5, -0.5), 0.3)
        np.testing.assert_array_equal(vals, [1.0])

    def test_p1_legendre_case(self):
        vals, _ = _eval(BasisSpec.jacobi(1, 0.0, 0.0), 0.5)
        assert vals[1] == pytest.approx(0.5, abs=1e-15)

    def test_legendre_oracle(self):
        xs = np.random.default_rng(2).uniform(-1.0, 1.0, size=100)
        vals, _ = _eval(BasisSpec.jacobi(6, 0.0, 0.0), xs)
        np.testing.assert_allclose(vals, _legendre_table(xs, 6), atol=1e-9, rtol=0.0)

    def test_proportional_to_chebyshev_at_minus_half(self):
        # alpha = beta = -1/2 gives first-kind Chebyshev up to a per-degree
        # constant; the ratio must not depend on x
        xs = np.random.default_rng(3).uniform(-0.9, 0.9, size=50)
        jv, _ = _eval(BasisSpec.jacobi(5, -0.5, -0.5), xs)
        cv, _ = _eval(BasisSpec.chebyshev(5), xs)
        for n in range(1, 6):
            ratio = jv[:, n] / cv[:, n]
            np.testing.assert_allclose(ratio, ratio[0], atol=1e-9)

    def test_derivative_shift_identity(self):
        # dP_n^(a,b)/dx = (n+a+b+1)/2 * P_{n-1}^(a+1,b+1)
        xs = np.linspace(-0.8, 0.8, 7)
        _, d = _eval(BasisSpec.jacobi(4, 0.7, 1.3), xs)
        shifted, _ = _eval(BasisSpec.jacobi(3, 1.7, 2.3), xs)
        for n in range(1, 5):
            expect = 0.5 * (n + 0.7 + 1.3 + 1.0) * shifted[:, n - 1]
            np.testing.assert_allclose(d[:, n], expect, atol=1e-12)

    def test_invalid_alpha_beta(self):
        with pytest.raises(ParameterError):
            _eval(BasisSpec.jacobi(3, -1.0, 0.0), 0.0)
        with pytest.raises(ParameterError):
            _eval(BasisSpec.jacobi(3, 0.0, -1.5), 0.0)

    def test_input_derivative(self):
        _check_input_derivative(lambda x: _eval(BasisSpec.jacobi(5, 0.4, 2.0), x),
                                np.random.default_rng(4).uniform(-0.95, 0.95, 100))


# symbolic expansions of the first six probabilists' Hermite polynomials
_HERMITE_SYMBOLIC = [
    lambda x: np.ones_like(x),
    lambda x: x,
    lambda x: x**2 - 1.0,
    lambda x: x**3 - 3.0 * x,
    lambda x: x**4 - 6.0 * x**2 + 3.0,
    lambda x: x**5 - 10.0 * x**3 + 15.0 * x,
]


class TestHermite:
    def test_h0(self):
        vals, _ = _eval(BasisSpec.hermite(0), 123.0)
        np.testing.assert_array_equal(vals, [1.0])

    def test_h2_at_zero(self):
        vals, _ = _eval(BasisSpec.hermite(2), 0.0)
        assert vals[2] == -1.0

    def test_symbolic_oracle(self):
        xs = np.random.default_rng(5).uniform(-3.0, 3.0, size=100)
        vals, _ = _eval(BasisSpec.hermite(5), xs)
        for n, poly in enumerate(_HERMITE_SYMBOLIC):
            np.testing.assert_allclose(vals[:, n], poly(xs), atol=1e-9, rtol=0.0)

    def test_derivative_identity(self):
        xs = np.linspace(-2.0, 2.0, 9)
        vals, d = _eval(BasisSpec.hermite(5), xs)
        for n in range(1, 6):
            np.testing.assert_allclose(d[:, n], n * vals[:, n - 1], atol=1e-12)

    def test_input_derivative(self):
        _check_input_derivative(lambda x: _eval(BasisSpec.hermite(5), x),
                                np.random.default_rng(6).uniform(-2.0, 2.0, 100))


# The fixed grids, (centers, bandwidth), of gaussian_rbf and of bsrbf's RBF half.
_WIDE_GRID = (np.linspace(-2.0, 2.0, 8), 4.0 / 7.0)
_UNIT_GRID = (np.linspace(-1.0, 1.0, 8), 2.0 / 7.0)


def _rbf_oracle(xs, grid):
    """exp(-u^2) and its x-derivative, u = (x - c)/h, one column per center."""
    centers, h = grid
    u = (xs[:, None] - centers[None, :]) / h
    return np.exp(-u * u), -2.0 * u / h * np.exp(-u * u)


class TestGaussianRbf:
    CENTERS, H = _WIDE_GRID

    def test_unit_at_center(self):
        vals, _ = _eval(BasisSpec.gaussian_rbf(), self.CENTERS)
        np.testing.assert_array_equal(np.diag(vals), 1.0)

    def test_one_bandwidth_away(self):
        vals, _ = _eval(BasisSpec.gaussian_rbf(), self.CENTERS + self.H)
        np.testing.assert_allclose(np.diag(vals), math.exp(-1.0), rtol=0.0, atol=1e-15)

    def test_derivative_zero_at_center(self):
        _, d = _eval(BasisSpec.gaussian_rbf(), self.CENTERS)
        np.testing.assert_array_equal(np.diag(d), 0.0)

    def test_formula_oracle(self):
        xs = np.random.default_rng(7).uniform(-2.5, 2.5, size=50)
        vals, d = _eval(BasisSpec.gaussian_rbf(), xs)
        oracle_vals, oracle_d = _rbf_oracle(xs, _WIDE_GRID)
        np.testing.assert_allclose(vals, oracle_vals, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(d, oracle_d, rtol=0.0, atol=1e-12)

    def test_input_derivative(self):
        _check_input_derivative(lambda x: _eval(BasisSpec.gaussian_rbf(), x),
                                np.random.default_rng(8).uniform(-2.0, 2.0, 100))


def _naive_bspline(x, knots, i, p):
    """Textbook Cox-de Boor recursion, scalar and unoptimized on purpose."""
    if p == 0:
        return 1.0 if knots[i] <= x < knots[i + 1] else 0.0
    left = 0.0
    if knots[i + p] != knots[i]:
        left = (x - knots[i]) / (knots[i + p] - knots[i]) * _naive_bspline(x, knots, i, p - 1)
    right = 0.0
    if knots[i + p + 1] != knots[i + 1]:
        right = (knots[i + p + 1] - x) / (knots[i + p + 1] - knots[i + 1]) \
            * _naive_bspline(x, knots, i + 1, p - 1)
    return left + right


class TestBspline:
    def test_degree_zero_indicator(self):
        vals, _ = _eval(BasisSpec.bspline(5, 0), 0.15)
        assert np.sum(vals == 1.0) == 1
        assert np.sum(vals) == 1.0

    def test_partition_of_unity(self):
        xs = np.random.default_rng(9).uniform(-0.999, 0.999, size=100)
        vals, _ = _eval(BasisSpec.bspline(5, 3), xs)
        np.testing.assert_allclose(vals.sum(axis=-1), 1.0, atol=1e-10, rtol=0.0)

    def test_nonnegative(self):
        xs = np.linspace(-1.0, 1.0, 401)
        vals, _ = _eval(BasisSpec.bspline(6, 3), xs)
        assert np.min(vals) >= -1e-14

    def test_basis_count(self):
        vals, _ = _eval(BasisSpec.bspline(7, 2), 0.0)
        assert vals.shape == (9,)

    def test_naive_recursion_oracle(self):
        grid_size, degree = 5, 3
        h = 2.0 / grid_size
        knots = [(j - degree) * h - 1.0 for j in range(grid_size + 2 * degree + 1)]
        xs = np.random.default_rng(10).uniform(-0.99, 0.99, size=25)
        vals, _ = _eval(BasisSpec.bspline(grid_size, degree), xs)
        for row, x in zip(vals, xs):
            oracle = [_naive_bspline(float(x), knots, i, degree)
                      for i in range(grid_size + degree)]
            np.testing.assert_allclose(row, oracle, atol=1e-12)

    def test_stable_at_right_edge(self):
        vals, d = _eval(BasisSpec.bspline(5, 3), 1.0)
        assert np.isfinite(vals).all() and np.isfinite(d).all()
        assert vals.sum() == pytest.approx(1.0, abs=1e-10)

    def test_derivative_sums_to_zero(self):
        # partition of unity is constant, so basis derivatives sum to 0
        xs = np.linspace(-0.9, 0.9, 50)
        _, d = _eval(BasisSpec.bspline(5, 3), xs)
        np.testing.assert_allclose(d.sum(axis=-1), 0.0, atol=1e-10)

    def test_grid_too_small_rejected(self):
        with pytest.raises(ParameterError):
            _eval(BasisSpec.bspline(3, 3), 0.0)

    def test_input_derivative(self):
        _check_input_derivative(lambda x: _eval(BasisSpec.bspline(5, 3), x),
                                np.random.default_rng(11).uniform(-0.95, 0.95, 100))

    @given(st.floats(min_value=-0.999, max_value=0.999),
           st.integers(min_value=4, max_value=9),
           st.integers(min_value=1, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_partition_of_unity_property(self, x, grid_size, degree):
        vals, _ = _eval(BasisSpec.bspline(grid_size, degree), x)
        assert abs(vals.sum() - 1.0) <= 1e-10


class TestBsrbf:
    def test_concatenation_length(self):
        spec = BasisSpec.bsrbf()
        vals, d = _eval(spec, 0.3)
        assert vals.shape == (16,) and d.shape == (16,)

    def test_equals_parts(self):
        xs = np.linspace(-0.9, 0.9, 11)
        vals, d = _eval(BasisSpec.bsrbf(7, 2), xs)
        sv, sd = _eval(BasisSpec.bspline(7, 2), xs)
        rv, rd = _rbf_oracle(xs, _UNIT_GRID)
        assert vals.shape == (11, 9 + 8)
        np.testing.assert_array_equal(vals[:, :9], sv)
        np.testing.assert_array_equal(d[:, :9], sd)
        np.testing.assert_allclose(vals[:, 9:], rv, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(d[:, 9:], rd, rtol=0.0, atol=1e-12)


class TestWavelet:
    def test_peak_value(self):
        value, _, _, _ = eval_mexican_hat(0.0, 1.0, 0.0)
        assert value == pytest.approx(2.0 / math.sqrt(3.0 * math.sqrt(math.pi)), abs=1e-15)
        assert value == pytest.approx(0.8673250705840776, abs=1e-12)

    def test_zeros_at_unit_input(self):
        for x in (-1.0, 1.0):
            value, _, _, _ = eval_mexican_hat(x, 1.0, 0.0)
            assert value == pytest.approx(0.0, abs=1e-15)

    def test_zero_mean(self):
        xs = np.linspace(-10.0, 10.0, 200001)
        value, _, _, _ = eval_mexican_hat(xs, 1.0, 0.0)
        dx = xs[1] - xs[0]
        integral = (0.5 * value[0] + value[1:-1].sum() + 0.5 * value[-1]) * dx
        assert abs(integral) <= 1e-6

    def test_scale_shift_composition(self):
        # family member s^(-1/2) psi((x - t)/s) against the mother wavelet
        s, t = 1.7, -0.4
        xs = np.linspace(-3.0, 3.0, 13)
        value, _, _, _ = eval_mexican_hat(xs, s, t)
        mother, _, _, _ = eval_mexican_hat((xs - t) / s, 1.0, 0.0)
        np.testing.assert_allclose(value, mother / math.sqrt(s), atol=1e-14)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ParameterError):
            eval_mexican_hat(0.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            eval_mexican_hat(0.0, -1.0, 0.0)

    def test_all_three_derivatives_vs_fd(self):
        xs = np.random.default_rng(12).uniform(-2.5, 2.5, size=100)
        s, t = 0.8, 0.3
        eps = _FD_STEP
        value, d_x, d_scale, d_shift = eval_mexican_hat(xs, s, t)
        fd_x = (eval_mexican_hat(xs + eps, s, t)[0]
                - eval_mexican_hat(xs - eps, s, t)[0]) / (2 * eps)
        fd_s = (eval_mexican_hat(xs, s + eps, t)[0]
                - eval_mexican_hat(xs, s - eps, t)[0]) / (2 * eps)
        fd_t = (eval_mexican_hat(xs, s, t + eps)[0]
                - eval_mexican_hat(xs, s, t - eps)[0]) / (2 * eps)
        assert _fd_close(fd_x, d_x)
        assert _fd_close(fd_s, d_scale)
        assert _fd_close(fd_t, d_shift)


class TestFourier:
    def test_at_zero(self):
        vals, _ = _eval(BasisSpec.fourier(3), 0.0)
        np.testing.assert_array_equal(vals, [1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])

    def test_zero_harmonics(self):
        vals, d = _eval(BasisSpec.fourier(0), 0.42)
        np.testing.assert_array_equal(vals, [1.0])
        np.testing.assert_array_equal(d, [0.0])

    def test_trig_oracle(self):
        xs = np.random.default_rng(13).uniform(-1.0, 1.0, size=50)
        vals, d = _eval(BasisSpec.fourier(4), xs)
        np.testing.assert_allclose(vals[:, 0], 1.0, atol=0)
        for n in range(1, 5):
            w = n * np.pi
            np.testing.assert_allclose(vals[:, 2 * n - 1], np.cos(w * xs), atol=1e-14)
            np.testing.assert_allclose(vals[:, 2 * n], np.sin(w * xs), atol=1e-14)
            np.testing.assert_allclose(d[:, 2 * n - 1], -w * np.sin(w * xs), atol=1e-12)
            np.testing.assert_allclose(d[:, 2 * n], w * np.cos(w * xs), atol=1e-12)

    def test_input_derivative(self):
        _check_input_derivative(lambda x: _eval(BasisSpec.fourier(4), x),
                                np.random.default_rng(14).uniform(-0.99, 0.99, 100))


class TestBasisSpec:
    def test_basis_sizes(self):
        assert basis_size(BasisSpec.taylor(2)) == 3
        assert basis_size(BasisSpec.fourier(4)) == 9
        assert basis_size(BasisSpec.bsrbf()) == 16
        assert basis_size(BasisSpec.chebyshev(6)) == 7
        assert basis_size(BasisSpec.jacobi(3)) == 4
        assert basis_size(BasisSpec.hermite(5)) == 6
        assert basis_size(BasisSpec.gaussian_rbf()) == 8
        assert basis_size(BasisSpec.bspline(5, 3)) == 8
        assert basis_size(BasisSpec.wavelet()) == 1

    def test_squashed_families(self):
        assert SQUASHED_FAMILIES == {"chebyshev", "jacobi", "hermite",
                                     "fourier", "bspline", "bsrbf"}
        assert not BasisSpec.taylor().squashes_input()
        assert not BasisSpec.gaussian_rbf().squashes_input()
        assert not BasisSpec.wavelet().squashes_input()
        assert BasisSpec.chebyshev().squashes_input()

    def test_unknown_family(self):
        with pytest.raises(ParameterError):
            BasisSpec(family="splines_r_us")

    def test_validation(self):
        with pytest.raises(ParameterError):
            BasisSpec.taylor(order=-1)
        with pytest.raises(ParameterError):
            BasisSpec.jacobi(alpha=-1.0)
        with pytest.raises(ParameterError):
            BasisSpec.bspline(grid_size=2, degree=3)
        with pytest.raises(ParameterError, match="bsrbf grid_size must be >= degree"):
            BasisSpec.bsrbf(grid_size=2, degree=3)
        with pytest.raises(ParameterError):
            BasisSpec.fourier(harmonics=-2)
        for family in ("taylor", "chebyshev", "jacobi", "hermite"):
            with pytest.raises(ParameterError, match=f"{family} order must be >= 0, got -1"):
                getattr(BasisSpec, family)(-1)
        with pytest.raises(ParameterError, match="bspline degree must be >= 0"):
            BasisSpec.bspline(degree=-1)
        with pytest.raises(ParameterError, match="bsrbf degree must be >= 0"):
            BasisSpec.bsrbf(degree=-1)

    def test_serialization_round_trip(self):
        specs = [
            BasisSpec.taylor(3),
            BasisSpec.chebyshev(6),
            BasisSpec.jacobi(4, alpha=0.2, beta=1.4),
            BasisSpec.hermite(5),
            BasisSpec.gaussian_rbf(),
            BasisSpec.bspline(6, 2),
            BasisSpec.bsrbf(),
            BasisSpec.bsrbf(7, 2),
            BasisSpec.wavelet(),
            BasisSpec.fourier(3),
        ]
        for spec in specs:
            assert BasisSpec.from_dict(spec.to_dict()) == spec

    def test_spec_holds_only_what_flags_set(self):
        # every stored field is named after the flag that sets it, and no
        # spec field is left that no family stores
        assert set(FAMILY_FIELDS) == set(FAMILIES)
        stored = {attr for fields in FAMILY_FIELDS.values() for attr, _ in fields}
        assert stored <= set(cli._FLAGS)
        assert {f.name for f in dataclasses.fields(BasisSpec)} - {"family"} == stored
        assert len(dataclasses.fields(BasisSpec)) == 7

    def test_factories_keep_their_defaults(self):
        assert BasisSpec.taylor().order == 2
        assert BasisSpec.chebyshev().order == BasisSpec.jacobi().order == 4
        assert BasisSpec.hermite().order == BasisSpec(family="hermite").order == 4
        assert BasisSpec.fourier().harmonics == 4

    @pytest.mark.parametrize("order", range(8))
    def test_derivative_tables_match_per_term_loops(self, order):
        # the broadcast derivative tables equal the per-term loops bit for bit
        x = np.random.default_rng(order).uniform(-0.99, 0.99, size=(6, 5))
        vals, d = _eval(BasisSpec.hermite(order), x)
        for j in range(1, order + 1):
            np.testing.assert_array_equal(d[..., j], j * vals[..., j - 1])
        alpha, beta = 0.3, 1.7
        _, d = _eval(BasisSpec.jacobi(order, alpha=alpha, beta=beta), x)
        if order:
            shifted, _ = _eval(BasisSpec.jacobi(order - 1, alpha=alpha + 1.0, beta=beta + 1.0), x)
        for n in range(1, order + 1):
            np.testing.assert_array_equal(
                d[..., n], 0.5 * (n + alpha + beta + 1.0) * shifted[..., n - 1])
        vals, d = _eval(BasisSpec.fourier(order), x)
        for n in range(1, order + 1):
            w = n * np.pi
            np.testing.assert_array_equal(vals[..., 2 * n - 1], np.cos(n * np.pi * x))
            np.testing.assert_array_equal(vals[..., 2 * n], np.sin(n * np.pi * x))
            np.testing.assert_array_equal(d[..., 2 * n - 1], -w * vals[..., 2 * n])
            np.testing.assert_array_equal(d[..., 2 * n], w * vals[..., 2 * n - 1])

    @pytest.mark.parametrize("order", range(8))
    def test_taylor_values_match_per_term_recurrence(self, order):
        # term j is (term j-1 * x) / j bit for bit, term 1 included, at the extremes too
        x = np.array([[-0.0, 0.0, 1e300, -1e300], [1e-300, -1e-300, 0.37, -2.5]])
        with np.errstate(over="ignore"):
            vals, _ = evaluate_basis(BasisSpec.taylor(order), x)
            want = [np.ones_like(x)]
            for j in range(1, order + 1):
                want.append((want[-1] * x) / j)
        for j in range(order + 1):
            assert vals[..., j].tobytes() == want[j].tobytes(), j

    def test_evaluate_basis_dispatch(self):
        xs = np.linspace(-0.5, 0.5, 5)
        for family in FAMILIES:
            if family == "wavelet_mexican_hat":
                with pytest.raises(ParameterError):
                    evaluate_basis(BasisSpec.wavelet(), xs)
                continue
            spec = BasisSpec(family=family)
            vals, d = _eval(spec, xs)
            assert vals.shape == (5, basis_size(spec))
            assert d.shape == vals.shape
            assert np.isfinite(vals).all() and np.isfinite(d).all()


class TestDerivativeSweep:
    """Spec-level invariant: 100 random interior points per family."""

    @pytest.mark.parametrize("family", [f for f in FAMILIES if f != "wavelet_mexican_hat"])
    def test_fd_matches_analytic(self, family):
        rng = np.random.default_rng(hash(family) % (2**32))
        spec = BasisSpec(family=family)
        lo, hi = (-0.99, 0.99) if family in SQUASHED_FAMILIES else (-2.5, 2.5)
        xs = rng.uniform(lo, hi, size=100)
        _check_input_derivative(lambda x: _eval(spec, x), xs)
