"""Network composition, auto-configuration, gradients, and model files."""

import copy
import hashlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kanreg import network
from kanreg.basis import FAMILIES, BasisSpec, basis_size, evaluate_basis
from kanreg.cli import main
from kanreg.data import Standardizer
from kanreg.errors import (
    ContractError,
    FormatError,
    KanregError,
    NumericError,
    ParameterError,
    ParseError,
    ShapeError,
    UnsupportedVersionError,
)
from kanreg.linalg import Rng
from kanreg.network import (
    KanLayer,
    KanNetwork,
    ModelBundle,
    auto_configure,
    backward,
    forward,
    init_mlp,
    init_network,
    load_model,
    mlp_dims,
    params_of,
    predict,
    save_model,
    six_layer_dims,
)
from kanreg.pca import fit as pca_fit
from kanreg.pca import transform as pca_transform
from kanreg.data import (apply_standardizer, fit_standardizer, make_synthetic,
                         save_table)

ALL_SPECS = {
    "taylor": BasisSpec.taylor(2),
    "chebyshev": BasisSpec.chebyshev(4),
    "jacobi": BasisSpec.jacobi(3, alpha=0.5, beta=0.5),
    "hermite": BasisSpec.hermite(4),
    "gaussian_rbf": BasisSpec.gaussian_rbf(),
    "bspline": BasisSpec.bspline(5, 3),
    "bsrbf": BasisSpec.bsrbf(),
    "wavelet_mexican_hat": BasisSpec.wavelet(),
    "fourier": BasisSpec.fourier(3),
}


class TestAutoConfigure:
    # the four width branches, pinned on every boundary input
    EXPECTED = {
        1: [1, 64, 16, 1],
        64: [64, 64, 16, 1],
        65: [65, 128, 32, 1],
        128: [128, 128, 32, 1],
        129: [129, 256, 64, 1],
        256: [256, 256, 64, 1],
        257: [257, 512, 128, 1],
        2048: [2048, 512, 128, 1],
    }

    @pytest.mark.parametrize("input_dim", sorted(EXPECTED))
    def test_branch_table(self, input_dim):
        assert auto_configure(input_dim, 1) == self.EXPECTED[input_dim]

    def test_always_four_entries(self):
        for d in (1, 2, 63, 64, 100, 500, 4096):
            assert len(auto_configure(d, 1)) == 4

    def test_output_dim_passthrough(self):
        assert auto_configure(64, 3)[-1] == 3

    def test_rejects_zero_dims(self):
        with pytest.raises(ParameterError):
            auto_configure(0, 1)
        with pytest.raises(ParameterError):
            auto_configure(64, 0)

    def test_six_layer_preset(self):
        assert six_layer_dims(2048) == [2048, 512, 256, 128, 64, 1]
        assert six_layer_dims(64) == [64, 512, 256, 128, 64, 1]

    def test_mlp_dims(self):
        assert mlp_dims(2048) == [2048, 1024, 512, 256, 128, 1]
        assert mlp_dims(100) == [100, 1024, 512, 256, 128, 1]


# SHA-256 of the params_of bytes of a fresh [70, 20, 3, 1] network from Rng(181),
# frozen so that a change to init moves no draw, bound or fill value. Its first
# layer takes lane draws where b >= 3, the other layers single steps.
_INIT_DIGESTS = {
    "bspline": "f6eb50c142acee65ad1e70a5fabbb8d1fcb5611d11ab2b10ae82405b71a03fbf",
    "bsrbf": "c7f1b01cf5c5b67f2244d08359dd90dcbc4e7c96bc86709ee4eb62c6e049767f",
    "chebyshev": "f79754593a6ff69772df7bf356142de7e410cd916f5379eb61cb774b8e57c73e",
    "fourier": "cad3717b8eb83c87288a319f5b7679323f29b1a8c2a13b984e629afb7995597f",
    "gaussian_rbf": "f6eb50c142acee65ad1e70a5fabbb8d1fcb5611d11ab2b10ae82405b71a03fbf",
    "hermite": "f79754593a6ff69772df7bf356142de7e410cd916f5379eb61cb774b8e57c73e",
    "jacobi": "6c6d137bf5c99cbff5f6ad10395880474d03b14d341c885fdfc7dfa8ba2bb5c7",
    "taylor": "3d1f5d4151f8d7d30586fee70770163e8027929051b905e07e0bb0ce6b452187",
    "wavelet_mexican_hat": "bd16d19bb20b3788292529b0b85b92ee618d25d3b057a8d7423e1c751b97e2ac",
    "mlp": "ba0cc68563d552489e81fd8ccd0b899fded0a09192c10f2ace9c7b48e7b0318b",
}


class TestInit:
    @pytest.mark.parametrize("kind", sorted(_INIT_DIGESTS))
    def test_draws_are_frozen(self, kind):
        dims = [70, 20, 3, 1]
        net = (init_mlp(dims, Rng(181)) if kind == "mlp"
               else init_network(dims, ALL_SPECS[kind], Rng(181)))
        blob = b"".join(p.tobytes() for p in params_of(net)[0])
        assert hashlib.sha256(blob).hexdigest() == _INIT_DIGESTS[kind]

    def test_same_seed_identical(self):
        a = init_network([5, 8, 1], BasisSpec.taylor(2), Rng(7))
        b = init_network([5, 8, 1], BasisSpec.taylor(2), Rng(7))
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.coeffs, lb.coeffs)

    def test_bound_magnitude(self):
        net = init_network([6, 1], BasisSpec.taylor(2), Rng(1))
        assert np.max(np.abs(net.layers[0].coeffs)) < 1.0

    def test_parameter_count_shape(self):
        net = init_network([4, 2], BasisSpec.taylor(2), Rng(3))
        assert net.layers[0].coeffs.shape == (2, 3, 4)
        assert net.layers[0].coeffs.size == 24

    def test_wavelet_scale_shift_init(self):
        net = init_network([3, 2, 1], BasisSpec.wavelet(), Rng(5))
        for layer in net.layers:
            np.testing.assert_array_equal(layer.scales, np.ones_like(layer.scales))
            np.testing.assert_array_equal(layer.shifts, np.zeros_like(layer.shifts))

    @pytest.mark.parametrize("order", range(1, 7))
    def test_taylor_output_stays_bounded_at_init(self, order):
        # on the z-scored PCA coordinates a run feeds the network, terms
        # x^j / j! keep every order near unit scale (x^j alone reach 1e4 at order 3)
        table = make_synthetic(300, 256, 8, 0.0, "quadratic", 11)
        z = apply_standardizer(fit_standardizer(table.features), table.features)
        coords = pca_transform(pca_fit(z, 0.95), z)
        x = apply_standardizer(fit_standardizer(coords), coords)
        net = init_network([64, 64, 16, 1], BasisSpec.taylor(order), Rng(order))
        out, _ = forward(net, x, want_cache=False)
        assert np.std(out) < 5.0

    def test_too_few_dims_rejected(self):
        with pytest.raises(ParameterError):
            init_network([4], BasisSpec.taylor(2), Rng(0))

    def test_zero_width_rejected(self):
        with pytest.raises(ParameterError, match="all layer dims must be >= 1"):
            init_network([4, 0, 1], BasisSpec.taylor(2), Rng(0))

    def test_mlp_needs_one_output(self):
        with pytest.raises(ParameterError, match="end in one output"):
            init_mlp([4, 3, 2], Rng(0))

    def test_mlp_init(self):
        net = init_mlp([10, 4, 1], Rng(2))
        assert net.dims == [10, 4, 1]
        for b in net.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))


# One network of each layer kind forward and backward run: coefficient, wavelet, dense.
LAYER_KINDS = pytest.mark.parametrize("kind", ["taylor", "wavelet", "mlp"])


def _net_of(kind, dims, seed):
    if kind == "mlp":
        return init_mlp(dims, Rng(seed))
    spec = BasisSpec.wavelet() if kind == "wavelet" else BasisSpec.taylor(2)
    return init_network(dims, spec, Rng(seed))


def _zero_like(net):
    for layer in net.layers:
        layer.coeffs[...] = 0.0
    return net


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = _zero_like(init_network([3, 4, 1], BasisSpec.chebyshev(3), Rng(0)))
        out, _ = forward(net, np.random.default_rng(0).normal(size=(6, 3)))
        # T_0 = 1 contributes only through its (zeroed) coefficient
        np.testing.assert_array_equal(out, np.zeros(6))

    def test_single_edge_polynomial(self):
        net = init_network([1, 1], BasisSpec.taylor(2), Rng(0))
        net.layers[0].coeffs[0, :, 0] = [0.5, -1.0, 2.0]
        xs = np.array([[0.0], [1.0], [-0.5]])
        out, _ = forward(net, xs)
        expect = 0.5 - 1.0 * xs[:, 0] + 2.0 * xs[:, 0] ** 2 / 2.0  # terms x^j / j!
        np.testing.assert_allclose(out, expect, atol=1e-15)

    def test_two_edge_sum(self):
        net = init_network([2, 1], BasisSpec.taylor(1), Rng(0))
        net.layers[0].coeffs[0, :, 0] = [0.0, 1.0]
        net.layers[0].coeffs[0, :, 1] = [0.0, 1.0]
        xs = np.array([[1.5, -2.0], [0.25, 0.75]])
        out, _ = forward(net, xs)
        np.testing.assert_allclose(out, xs.sum(axis=1), atol=1e-15)

    def test_batch_order_equivariance(self):
        net = init_network([4, 6, 1], BasisSpec.hermite(3), Rng(9))
        x = np.random.default_rng(1).normal(size=(10, 4))
        perm = np.random.default_rng(2).permutation(10)
        out, _ = forward(net, x, want_cache=False)
        out_p, _ = forward(net, x[perm], want_cache=False)
        np.testing.assert_allclose(out_p, out[perm], atol=1e-12)

    def test_wrong_width_rejected(self):
        net = init_network([4, 1], BasisSpec.taylor(2), Rng(0))
        with pytest.raises(ShapeError):
            forward(net, np.ones((3, 5)))
        with pytest.raises(ShapeError):
            forward(net, np.ones(4))

    def test_multi_output_head_rejected(self):
        net = init_network([4, 2], BasisSpec.taylor(2), Rng(0))
        with pytest.raises(ShapeError):
            forward(net, np.ones((3, 4)))

    @LAYER_KINDS
    def test_overflow_raises_numeric_error_with_layer(self, kind):
        net = _net_of(kind, [1, 1, 1], 0)
        if kind == "mlp":
            for w in net.weights:
                w[...] = 1e200              # layer 0 outputs 2e200, layer 1 inf
        else:
            net.layers[0].coeffs[...] = 1e200   # first layer output ~1e200
            net.layers[1].coeffs[...] = 1.0     # taylor squares it -> inf, wavelet -> nan
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError) as exc:
            forward(net, np.array([[2.0]]))
        assert exc.value.layer == 1

    @pytest.mark.parametrize("family", sorted(ALL_SPECS))
    def test_all_families_finite(self, family):
        net = init_network([5, 8, 4, 1], ALL_SPECS[family], Rng(11))
        x = np.random.default_rng(3).normal(size=(16, 5))
        out, cache = forward(net, x)
        assert out.shape == (16,)
        assert np.isfinite(out).all()
        assert cache is not None and cache.n == 16


def _loss_and_grads(net, x):
    out, cache = forward(net, x)
    grads = backward(net, cache, np.ones_like(out))
    return float(out.sum()), grads


def _fd_param_grads(net, x, eps=1e-5):
    params, _ = params_of(net)
    fd = []
    for p in params:
        g = np.empty_like(p)
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            keep = flat_p[i]
            flat_p[i] = keep + eps
            up, _ = forward(net, x, want_cache=False)
            flat_p[i] = keep - eps
            dn, _ = forward(net, x, want_cache=False)
            flat_p[i] = keep
            flat_g[i] = (up.sum() - dn.sum()) / (2.0 * eps)
        fd.append(g)
    return fd


def _grad_agreement(fd_list, ana_list, rtol, atol):
    """Fraction of parameters whose FD and analytic gradients agree."""
    ok = 0
    total = 0
    for fd, ana in zip(fd_list, ana_list):
        gap = np.abs(fd - ana)
        ref = np.maximum(np.abs(fd), np.abs(ana))
        ok += int(np.sum(gap <= np.maximum(rtol * ref, atol)))
        total += fd.size
    return ok, total


class TestBackward:
    def test_zero_out_grads(self):
        net = init_network([3, 2, 1], BasisSpec.taylor(2), Rng(0))
        x = np.random.default_rng(0).normal(size=(4, 3))
        _, cache = forward(net, x)
        grads = backward(net, cache, np.zeros(4))
        for g in grads.arrays:
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_single_edge_coefficient_gradient(self):
        # out = c0 + c1 x + c2 x^2, so d out / d c1 = x
        net = init_network([1, 1], BasisSpec.taylor(2), Rng(0))
        xs = np.array([[0.7], [-1.3]])
        _, cache = forward(net, xs)
        grads = backward(net, cache, np.ones(2))
        # gradient of the sum over the batch: sum of x
        assert grads.arrays[0][0, 1, 0] == pytest.approx(0.7 - 1.3, abs=1e-15)

    @LAYER_KINDS
    def test_stale_cache_rejected(self, kind):
        net_a = _net_of(kind, [3, 1], 0)
        net_b = _net_of(kind, [3, 1], 1)
        x = np.ones((2, 3))
        _, cache = forward(net_a, x)
        with pytest.raises(ContractError):
            backward(net_b, cache, np.ones(2))
        with pytest.raises(ContractError):
            backward(net_a, None, np.ones(2))

    @LAYER_KINDS
    def test_out_grads_length_checked(self, kind):
        net = _net_of(kind, [3, 1], 0)
        _, cache = forward(net, np.ones((2, 3)))
        with pytest.raises(ShapeError):
            backward(net, cache, np.ones(5))

    def test_l1_flags_cover_all_parameters(self):
        # L1 applies to edge coefficients and MLP weights, never to wavelet
        # scales/shifts or biases; the arrays come role by role, and the
        # gradients in the parameters' order.
        kan = init_network([3, 2, 1], BasisSpec.wavelet(), Rng(0))
        mlp = init_mlp([3, 2, 1], Rng(0))
        cases = [
            (kan, [l.coeffs for l in kan.layers] + [l.scales for l in kan.layers]
             + [l.shifts for l in kan.layers],
             [True, True, False, False, False, False]),
            (mlp, mlp.weights + mlp.biases, [True, True, False, False]),
        ]
        x = np.random.default_rng(0).normal(size=(4, 3))
        for net, arrays, want_flags in cases:
            params, flags = params_of(net)
            assert flags == want_flags
            assert all(p is a for p, a in zip(params, arrays))
            assert len(params) == len(arrays)
            _, cache = forward(net, x)
            grads = backward(net, cache, np.ones(4))
            assert len(grads.arrays) == len(params)
            for p, g in zip(params, grads.arrays):
                assert p.shape == g.shape

    def test_wavelet_derivatives_frozen_at_forward(self):
        # Adam updates scales and shifts in place between forward and the
        # next step; backward must differentiate what forward evaluated.
        net = init_network([4, 3, 1], BasisSpec.wavelet(), Rng(3))
        rng = np.random.default_rng(3)
        for layer in net.layers:
            layer.scales[:] = rng.uniform(0.5, 2.0, size=layer.scales.shape)
            layer.shifts[:] = rng.uniform(-0.5, 0.5, size=layer.shifts.shape)
        clone = copy.deepcopy(net)
        x = rng.normal(size=(6, 4))
        _, cache = forward(net, x)
        _, clone_cache = forward(clone, x)
        for layer in net.layers:
            layer.scales *= 1.7
            layer.shifts += 0.3
        g = rng.normal(size=6)
        got = backward(net, cache, g).arrays
        want = backward(clone, clone_cache, g).arrays
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("family", sorted(ALL_SPECS))
    def test_finite_difference_suite(self, family):
        """Analytic vs central-difference gradients on a [5,8,4,1] stack.

        Near-zero gradients sit at the roundoff floor of the difference
        quotient, so agreement uses a relative tolerance with an absolute
        floor; the tighter bound must hold on at least 99% of parameters
        and the looser one everywhere.
        """
        net = init_network([5, 8, 4, 1], ALL_SPECS[family], Rng(17))
        x = np.random.default_rng(23).normal(size=(16, 5))
        _, grads = _loss_and_grads(net, x)
        fd = _fd_param_grads(net, x)
        ok_tight, total = _grad_agreement(fd, grads.arrays, 1e-4, 1e-7)
        ok_loose, _ = _grad_agreement(fd, grads.arrays, 1e-3, 1e-7)
        assert ok_tight / total >= 0.99, f"{family}: {ok_tight}/{total} within 1e-4"
        assert ok_loose == total, f"{family}: {total - ok_loose} params beyond 1e-3"


def _einsum_reference(net, x, w):
    """Output and coefficient gradients of ``sum(w * output)`` by einsum.

    Built from the public ``[n, in, b]`` basis values and the coefficients
    read in ``[out, in, b]`` order, independently of the layer's matmuls.
    """
    squash = net.spec.squashes_input()
    cur, seen = x, []
    for layer in net.layers:
        u = np.tanh(cur) if squash else cur
        vals, derivative = evaluate_basis(net.spec, u)
        seen.append((u, vals, derivative()))
        cur = np.einsum("nib,oib->no", vals, layer.coeffs.transpose(0, 2, 1))
    grad, grads = w[:, None], []
    for layer, (u, vals, dvals) in zip(net.layers[::-1], seen[::-1]):
        grads.insert(0, np.einsum("no,nib->oib", grad, vals).transpose(0, 2, 1))
        grad = np.einsum("no,oib,nib->ni", grad, layer.coeffs.transpose(0, 2, 1), dvals)
        grad = grad * (1.0 - u * u) if squash else grad
    return cur[:, 0], grads


class TestCoefficientLayout:
    # Coefficients live as [out, b, in]; the matmuls leave out a constant
    # basis column only above network.BIAS_MIN, so 0 forces that path here.
    @pytest.mark.parametrize("bias_min", [0, None], ids=["split", "whole"])
    @pytest.mark.parametrize("family", sorted(set(ALL_SPECS) - {"wavelet_mexican_hat"}))
    def test_layers_match_einsum_reference(self, family, bias_min, monkeypatch):
        if bias_min is not None:
            monkeypatch.setattr(network, "BIAS_MIN", bias_min)
        net = init_network([6, 5, 1], ALL_SPECS[family], Rng(4))
        rng = np.random.default_rng(8)
        x = rng.normal(size=(7, 6))
        w = rng.normal(size=7)
        out, cache = forward(net, x)
        grads = backward(net, cache, w).arrays
        want_out, want_grads = _einsum_reference(net, x, w)
        for got, want in zip([out] + grads, [want_out] + want_grads):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_model_file_holds_out_b_in(self, tmp_path):
        net = init_network([5, 3, 1], BasisSpec.chebyshev(3), Rng(2))
        path = tmp_path / "model.json"
        save_model(path, ModelBundle(net=net))
        head, _, payload = path.read_bytes().partition(b"\n")
        assert json.loads(head)["coeffs"] == [[3, 4, 5], [1, 4, 3]]
        data = np.frombuffer(payload, dtype="<f8")
        np.testing.assert_array_equal(data[:60].reshape(3, 4, 5), net.layers[0].coeffs)
        np.testing.assert_array_equal(data[60:].reshape(1, 4, 3), net.layers[1].coeffs)


def _inference_peak_bytes(net, x) -> int:
    tracemalloc.start()
    try:
        forward(net, x, want_cache=False)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInferenceMemory:
    """forward(want_cache=False) builds no derivative tables."""

    @pytest.mark.parametrize("spec", [BasisSpec.chebyshev(3), BasisSpec.taylor(2),
                                      BasisSpec.jacobi(3)],
                             ids=["chebyshev-3", "taylor-2", "jacobi-3"])
    def test_coefficient_family_peak_within_two_values_tables(self, spec):
        net = init_network([512, 64, 1], spec, Rng(0))
        x = np.random.default_rng(0).normal(size=(1000, 512))
        values_table = x.size * basis_size(spec) * 8  # layer 0, float64
        assert _inference_peak_bytes(net, x) <= 2.0 * values_table

    def test_wavelet_peak_within_four_and_a_half_edge_tensors(self):
        net = init_network([256, 128, 1], BasisSpec.wavelet(), Rng(0))
        x = np.random.default_rng(0).normal(size=(256, 256))
        edge_tensor = 256 * 128 * 256 * 8  # one float64 [n, out, in] array
        assert _inference_peak_bytes(net, x) <= 4.5 * edge_tensor


CHUNK_SPECS = {"chebyshev": BasisSpec.chebyshev(3), "taylor": BasisSpec.taylor(2),
               "wavelet": BasisSpec.wavelet()}
# Row counts as (chunks, extra rows): 1, chunk-1, chunk, chunk+1, 2*chunk+1.
ROW_COUNTS = pytest.mark.parametrize("times, plus", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
                                     ids=["1", "chunk-1", "chunk", "chunk+1", "2chunk+1"])


def _chunk_bundle(kind):
    """A standardizer -> PCA -> scaler bundle fit on 300 raw rank-3 rows of 12 columns."""
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(300, 3)) @ rng.normal(size=(3, 12))
    raw += 0.01 * rng.normal(size=raw.shape)
    std = fit_standardizer(raw)
    z = apply_standardizer(std, raw)
    pca = pca_fit(z, 0.95)
    scaler = fit_standardizer(pca_transform(pca, z))
    dims = [pca.k, 6, 1]
    net = init_mlp(dims, Rng(5)) if kind == "mlp" else init_network(dims, CHUNK_SPECS[kind], Rng(5))
    return ModelBundle(net=net, standardizer=std, pca=pca, feature_scaler=scaler,
                       target_mean=50.0, target_std=12.5), raw


class TestChunkedInference:
    """Values-only passes run in row chunks and match the one-shot result."""

    @ROW_COUNTS
    @pytest.mark.parametrize("kind", [*CHUNK_SPECS, "mlp"])
    def test_predict_matches_one_shot(self, monkeypatch, kind, times, plus):
        bundle, raw = _chunk_bundle(kind)
        monkeypatch.setattr(network, "CHUNK_BYTES", 4096)
        chunk = network._row_chunks(bundle.net, 10**6, raw.shape[1])[0].stop
        assert 2 <= chunk and 2 * chunk + 1 <= len(raw)
        x = raw[:times * chunk + plus]
        got = predict(bundle, x)
        monkeypatch.setattr(network, "CHUNK_BYTES", 2**62)
        np.testing.assert_allclose(got, predict(bundle, x), rtol=0, atol=1e-12)

    @ROW_COUNTS
    @pytest.mark.parametrize("kind", [*CHUNK_SPECS, "mlp"])
    def test_forward_without_cache_matches_cached_pass(self, monkeypatch, kind, times, plus):
        net = _chunk_bundle(kind)[0].net
        monkeypatch.setattr(network, "CHUNK_BYTES", 4096)
        chunk = network._row_chunks(net, 10**6)[0].stop
        assert chunk >= 2
        x = np.random.default_rng(9).normal(size=(times * chunk + plus, net.dims[0]))
        got, cache = forward(net, x, want_cache=False)
        assert cache is None
        np.testing.assert_allclose(got, forward(net, x)[0], rtol=0, atol=1e-12)

    def test_overflow_in_a_later_chunk_names_the_layer(self, monkeypatch):
        net = init_network([1, 1, 1], BasisSpec.taylor(2), Rng(0))
        net.layers[0].coeffs[0, :, 0] = [0.0, 1e200, 0.0]  # output ~1e200 * x
        net.layers[1].coeffs[...] = 1.0                # squares it -> inf
        monkeypatch.setattr(network, "CHUNK_BYTES", 8 * 3 * 4)  # 4 rows a chunk
        x = np.zeros((9, 1))
        x[6] = 2.0
        with np.errstate(over="ignore"), pytest.raises(NumericError) as exc:
            forward(net, x, want_cache=False)
        assert exc.value.layer == 1

    def test_fullwidth_predict_peak_does_not_grow_with_rows(self):
        bundle = ModelBundle(net=init_network([2048, 512, 128, 1], BasisSpec.chebyshev(3),
                                              Rng(0)))
        x = np.random.default_rng(0).normal(size=(4000, 2048))
        peaks = []
        for n in (500, 4000):
            tracemalloc.start()
            try:
                predict(bundle, x[:n])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_training_forward_retains_value_and_u_per_wavelet_edge(self):
        net = init_network([256, 128, 1], BasisSpec.wavelet(), Rng(0))
        x = np.random.default_rng(0).normal(size=(256, 256))
        edge_tensor = 256 * 128 * 256 * 8  # one float64 [n, out, in] array
        tracemalloc.start()
        try:
            _, cache = forward(net, x)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert cache is not None
        assert retained <= 2.1 * edge_tensor


class TestMlp:
    def test_zero_network(self):
        net = init_mlp([4, 3, 1], Rng(0))
        for w in net.weights:
            w[...] = 0.0
        out, _ = forward(net, np.random.default_rng(0).normal(size=(5, 4)))
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_linear_slice_oracle(self):
        net = init_mlp([2, 1], Rng(0))
        net.weights[0][...] = [[2.0, -1.0]]
        net.biases[0][...] = [0.5]
        out, _ = forward(net, np.array([[1.0, 1.0], [0.0, 2.0]]))
        np.testing.assert_allclose(out, [1.5, -1.5], atol=1e-15)

    def test_relu_hidden_layer(self):
        net = init_mlp([1, 1, 1], Rng(0))
        net.weights[0][...] = [[1.0]]
        net.weights[1][...] = [[1.0]]
        out, _ = forward(net, np.array([[-3.0], [2.0]]))
        np.testing.assert_allclose(out, [0.0, 2.0], atol=1e-15)

    def test_finite_difference(self):
        net = init_mlp([5, 8, 4, 1], Rng(29))
        x = np.random.default_rng(31).normal(size=(16, 5))
        out, cache = forward(net, x)
        grads = backward(net, cache, np.ones_like(out))
        fd = _fd_param_grads(net, x)
        ok, total = _grad_agreement(fd, grads.arrays, 1e-4, 1e-7)
        assert ok == total


_ABSENT = object()  # the value _rewrite takes to mean: delete the field


def _rewrite(path, field, value):
    """Set header ``field`` of the version-4 file at ``path`` to ``value``.

    Each array in a dict ``value`` becomes a shape whose values are appended
    to the payload (so the file must hold no array that the format puts after
    them); ``_ABSENT`` deletes the field.
    """
    head, _, payload = path.read_bytes().partition(b"\n")
    doc = json.loads(head)
    if isinstance(value, dict):
        value = dict(value)
        for key, a in value.items():
            if isinstance(a, np.ndarray):
                value[key] = list(a.shape)
                payload += a.astype("<f8").tobytes()
    doc[field] = value
    if value is _ABSENT:
        del doc[field]
    path.write_bytes(json.dumps(doc).encode("ascii") + b"\n" + payload)


def _bundle_of(kind):
    """A small bundle of ``kind`` (a basis family or "mlp") with every array it can hold."""
    if kind == "mlp":
        return ModelBundle(net=init_mlp([5, 4, 1], Rng(127)))
    net = init_network([5, 4, 1], ALL_SPECS[kind], Rng(127))
    for layer in net.layers:
        if layer.scales is not None:
            layer.scales *= 1.0 + np.random.default_rng(131).random(layer.scales.shape)
            layer.shifts += np.random.default_rng(137).normal(size=layer.shifts.shape)
    raw = np.random.default_rng(139).normal(size=(30, 5)) * 3.0 + 1.0 / 3.0
    std = fit_standardizer(raw)
    pca = pca_fit(apply_standardizer(std, raw), 0.9)
    return ModelBundle(net=net, standardizer=std, pca=pca,
                       feature_scaler=fit_standardizer(raw[:, :pca.k]),
                       target_mean=0.1, target_std=2.0 / 3.0, meta={"seed": 5})


def _arrays_of(bundle):
    arrays = params_of(bundle.net)[0]
    for std in (bundle.standardizer, bundle.feature_scaler):
        arrays += [] if std is None else [std.means, std.stds]
    pca = bundle.pca
    return arrays + ([] if pca is None else [pca.mean, pca.components, pca.eigenvalues])


# the version fields _damage writes in place of 4
_BAD_VERSIONS = {"version_2": 2, "version_3": 3, "version_5": 5, "version_string": "4"}

# each defect _damage makes, with the error load_model names it by
_DAMAGE = {
    "truncated": (FormatError, r"standardizer\.stds needs payload bytes"),
    "trailing": (FormatError, r"the payload holds 8 bytes after its last block"),
    "shape_too_large": (FormatError, r"coeffs\[1\] needs payload bytes 144 to 8000144,"),
    "nan": (FormatError, r"standardizer\.means holds non-finite values"),
    "non_utf8": (ParseError, r"is not UTF-8 text: line 1, byte offset 2"),
    "digit_limit": (ParseError, r"malformed model file: Exceeds the limit"),
    **{case: (UnsupportedVersionError, r"model file version .* is not supported \(expected 4\)")
       for case in _BAD_VERSIONS},
}


def _damage(path, case):
    """Rewrite the version-4 file at ``path`` with one defect."""
    head, _, payload = path.read_bytes().partition(b"\n")
    doc = json.loads(head)
    if case == "truncated":
        payload = payload[:-8]
    elif case == "trailing":
        payload += bytes(8)
    elif case == "shape_too_large":
        doc["coeffs"][1] = [1, 1, 10**6]
    elif case in _BAD_VERSIONS:
        doc["version"] = _BAD_VERSIONS[case]
    elif case == "nan":
        at = 8 * sum(math.prod(shape) for shape in doc["coeffs"]) + 8  # standardizer.means[1]
        payload = payload[:at] + np.array([np.nan], dtype="<f8").tobytes() + payload[at + 8:]
    head = json.dumps(doc, separators=(",", ":")).encode("ascii")
    if case == "non_utf8":
        head = head[:2] + b"\xff" + head[3:]
    elif case == "digit_limit":
        head = head[:-1] + b',"big":' + b"1" * 5000 + b"}"
    path.write_bytes(head + b"\n" + payload)


# The header fields test_malformed_fields_are_named_format_errors breaks, as
# (field, value, message, or None to match the field's name). _rewrite writes
# each array in a value as a real block. The ids keep pytest's default form.
_MALFORMED = [
    ("layer_dims", ["x", 1], None), ("layer_dims", [3.0, 1], None),
    ("standardizer", {"stds": [1.0]}, r"standardizer\.means is missing"),
    ("pca", {"mean": [0.0]}, r"pca\.mean has an invalid shape \[0\.0\]"), ("meta", [1], None),
    ("basis", {"family": "taylor"}, None),
    ("basis", {"family": "bsrbf", "spline": 5, "rbf": {}},
     r"basis holds fields that bsrbf does not store: rbf, spline"),
    ("standardizer", {"means": np.zeros(6), "stds": np.ones(3)},
     r"standardizer has means of shape \(6,\) and stds of shape \(3,\)"),
    ("feature_scaler", {"means": np.zeros(3), "stds": np.ones(2)},
     r"feature_scaler has means of shape \(3,\) and stds of shape \(2,\)"),
    ("pca", {"mean": np.zeros(3), "components": np.array([[1.0, 0.0]]),
             "eigenvalues": np.ones(3), "tau": None},
     r"pca has mean \(3,\), eigenvalues \(3,\) and components \(1, 2\); expected"),
    ("pca", {"mean": np.zeros(3), "components": np.zeros(3),
             "eigenvalues": np.ones(3), "tau": None},
     r"pca has mean \(3,\), eigenvalues \(3,\) and components \(3,\); expected"),
    ("target_affine", {"mean": [1.0]}, None), ("target_affine", {"std": [2.0]}, None),
    ("target_affine", {"std": 10**400}, None),
    ("standardizer", {"means": np.zeros(3), "stds": np.ones(3), "epsilon": [1e-8]},
     r"standardizer\.epsilon must be a finite number"),
    ("feature_scaler", {"means": np.zeros(3), "stds": np.ones(3), "epsilon": [1e-8]},
     r"feature_scaler\.epsilon must be a finite number"),
    ("pca", {"mean": np.zeros(3), "components": np.array([[1.0, 0.0, 0.0]]),
             "eigenvalues": np.ones(3), "tau": [0.9]},
     r"pca\.tau must be a finite number"),
    ("layer_dims", [3, 0, 1], r"layer_dims\[1\] must be an integer >= 1, got 0"),
    ("basis", {"family": "taylor", "order": 2.7}, r"basis\.order must be an integer, got 2\.7"),
    ("basis", {"family": "taylor", "order": "2"}, r"basis\.order must be an integer, got '2'"),
    ("basis", {"family": "taylor", "order": True}, r"basis\.order must be an integer, got True"),
    ("basis", {"family": "taylor", "order": -1}, r"basis is invalid: taylor order must be >= 0"),
    ("basis", {"family": "gaussian_rbf", "centers": [0.0, 1.0], "bandwidth": 0.5},
     r"basis holds fields that gaussian_rbf does not store: bandwidth, centers"),
    # the field names of version 3
    ("basis", {"family": "taylor", "order": 2, "center": 0.0},
     r"basis holds fields that taylor does not store: center"),
    ("basis", {"family": "chebyshev", "n_max": 2},
     r"basis holds fields that chebyshev does not store: n_max"),
    ("basis", {"family": "fourier", "n_harmonics": 2},
     r"basis holds fields that fourier does not store: n_harmonics"),
    ("basis", _ABSENT, r"basis is missing"),
    ("target_affine", _ABSENT, r"target_affine is missing"),
    ("target_affine", {"std": 1.0}, r"target_affine\.mean must be a finite number, got None"),
    ("meta", _ABSENT, r"meta is missing"),
    ("standardizer", _ABSENT, r"standardizer is missing"),
    ("pca", _ABSENT, r"pca is missing"),
    ("standardizer", {"means": np.zeros(3), "stds": np.ones(3)},
     r"standardizer\.epsilon must be a finite number, got None"),
    ("feature_scaler", {"means": np.zeros(3), "stds": np.ones(3)},
     r"feature_scaler\.epsilon must be a finite number, got None"),
    ("pca", {"mean": np.zeros(3), "components": np.array([[1.0, 0.0, 0.0]]),
             "eigenvalues": np.ones(3)}, r"pca\.tau is missing"),
]


class TestModelFiles:
    @pytest.mark.parametrize("family", sorted(ALL_SPECS))
    def test_round_trip_bit_identical(self, family, tmp_path):
        net = init_network([4, 6, 1], ALL_SPECS[family], Rng(41))
        probe = np.random.default_rng(43).normal(size=(9, 4))
        expect, _ = forward(net, probe, want_cache=False)
        path = tmp_path / "model.json"
        save_model(path, ModelBundle(net=net))
        loaded = load_model(path)
        got, _ = forward(loaded.net, probe, want_cache=False)
        np.testing.assert_array_equal(got, expect)

    def test_mlp_round_trip(self, tmp_path):
        net = init_mlp([6, 4, 1], Rng(47))
        probe = np.random.default_rng(48).normal(size=(5, 6))
        expect, _ = forward(net, probe, want_cache=False)
        path = tmp_path / "mlp.json"
        save_model(path, ModelBundle(net=net))
        got, _ = forward(load_model(path).net, probe, want_cache=False)
        np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("kind", ["mlp", "wavelet"])
    def test_params_buffer_and_file_share_one_order(self, kind, tmp_path):
        # params_of, the training buffer and the model file's payload all hold
        # every layer's coefficients (weights), then scales, then shifts (biases)
        rng = np.random.default_rng(149)
        net = (init_mlp([5, 4, 3, 1], Rng(151)) if kind == "mlp"
               else init_network([5, 4, 3, 1], BasisSpec.wavelet(), Rng(151)))
        for p in params_of(net)[0]:
            p[...] = rng.uniform(0.5, 2.0, size=p.shape)
        want = b"".join(p.tobytes() for p in params_of(net)[0])
        std = Standardizer(means=rng.normal(size=5), stds=rng.uniform(1.0, 2.0, size=5))
        path = tmp_path / "model.json"
        save_model(path, ModelBundle(net=net, standardizer=std))
        payload = path.read_bytes().partition(b"\n")[2]
        assert payload == want + std.means.tobytes() + std.stds.tobytes()
        assert network.bind_flat(net)[0].tobytes() == want

    def test_save_is_deterministic(self, tmp_path):
        net = init_network([3, 2, 1], BasisSpec.fourier(2), Rng(53))
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_model(a, ModelBundle(net=net))
        save_model(b, ModelBundle(net=net))
        assert a.read_bytes() == b.read_bytes()

    def test_truncated_file_is_parse_error(self, tmp_path):
        net = init_network([3, 2, 1], BasisSpec.taylor(2), Rng(59))
        path = tmp_path / "model.json"
        save_model(path, ModelBundle(net=net))
        blob = path.read_bytes()
        path.write_bytes(blob[: blob.index(b"\n") // 2])  # cut inside the header line
        with pytest.raises(ParseError) as exc:
            load_model(path)
        assert exc.value.offset is not None

    def test_wrong_format_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(FormatError):
            load_model(path)

    def test_unsupported_version(self, tmp_path):
        net = init_network([3, 1], BasisSpec.taylor(2), Rng(61))
        path = tmp_path / "model.json"
        save_model(path, ModelBundle(net=net))
        _rewrite(path, "version", 9)
        with pytest.raises(UnsupportedVersionError):
            load_model(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        net = init_network([3, 1], BasisSpec.taylor(2), Rng(67))
        path = tmp_path / "model.json"
        save_model(path, ModelBundle(net=net))
        _rewrite(path, "layer_dims", [4, 1])
        with pytest.raises(FormatError,
                           match=r"coeffs\[0\] has shape \(1, 3, 3\), expected \(1, 3, 4\)"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["taylor", "mlp"])
    @pytest.mark.parametrize("width", [10**30, 2**62])
    @pytest.mark.parametrize("with_block", [False, True])
    def test_huge_layer_dims_are_format_errors(self, kind, width, with_block, tmp_path):
        # the skeleton holds shapes, not arrays, so no width reaches NumPy
        # before the header's block shapes and the payload length are checked
        net = init_mlp([3, 1], Rng(197)) if kind == "mlp" else init_network(
            [3, 1], BasisSpec.taylor(2), Rng(197))
        path = tmp_path / "model.json"
        save_model(path, ModelBundle(net=net))
        _rewrite(path, "layer_dims", [width, 1])
        block = "mlp_weights" if kind == "mlp" else "coeffs"
        if with_block:  # the header claims the block too
            _rewrite(path, block, [[1, width] if kind == "mlp" else [1, 3, width]])
        match = rf"{block}\[0\] (needs payload bytes|has shape .* expected)"
        with pytest.raises(FormatError, match=match):
            load_model(path)

    @pytest.mark.parametrize("kind", ["mlp", "wavelet"])
    def test_load_walks_the_slot_order(self, kind, tmp_path, monkeypatch):
        # save and load both follow _slots: listing its roles in another order
        # changes the payload, not the round trip
        slots = network._slots
        monkeypatch.setattr(network, "_slots",
                            lambda net: sorted(slots(net), key=lambda slot: -slot[2]))
        rng = np.random.default_rng(199)
        net = (init_mlp([5, 4, 3, 1], Rng(211)) if kind == "mlp"
               else init_network([5, 4, 3, 1], BasisSpec.wavelet(), Rng(211)))
        for p in params_of(net)[0]:
            p[...] = rng.uniform(0.5, 2.0, size=p.shape)
        path = tmp_path / "model.json"
        save_model(path, ModelBundle(net=net))
        first = net.biases[0] if kind == "mlp" else net.layers[0].shifts
        assert path.read_bytes().partition(b"\n")[2].startswith(first.tobytes())
        loaded = load_model(path).net
        if kind == "mlp":
            pairs = zip(loaded.weights + loaded.biases, net.weights + net.biases, strict=True)
        else:
            pairs = ((getattr(got, key), getattr(want, key))
                     for got, want in zip(loaded.layers, net.layers, strict=True)
                     for key in ("coeffs", "scales", "shifts"))
        for got, want in pairs:
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("field, value, match", [
        pytest.param(*case, id=f"{case[0]}-value{i}") for i, case in enumerate(_MALFORMED)])
    def test_malformed_fields_are_named_format_errors(self, field, value, match, tmp_path):
        net = init_network([3, 1], BasisSpec.taylor(2), Rng(113))
        path = tmp_path / "model.json"
        save_model(path, ModelBundle(net=net))
        _rewrite(path, field, value)
        with pytest.raises(FormatError, match=match or field):
            load_model(path)

    @pytest.mark.parametrize("kind", sorted(ALL_SPECS) + ["mlp"])
    def test_round_trip_keeps_every_array_bit_for_bit(self, kind, tmp_path):
        bundle = _bundle_of(kind)
        path = tmp_path / "model.json"
        save_model(path, bundle)
        doc = json.loads(path.read_bytes().partition(b"\n")[0])
        assert doc["version"] == network.MODEL_VERSION == 4
        assert "family" not in doc
        assert doc["basis"] == (None if kind == "mlp" else ALL_SPECS[kind].to_dict())
        if bundle.pca is not None:
            assert list(doc["pca"]) == ["mean", "components", "eigenvalues", "tau"]
        loaded = load_model(path)
        want = _arrays_of(bundle)
        got = _arrays_of(loaded)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.dtype == np.float64 and g.flags.c_contiguous and g.flags.writeable
            np.testing.assert_array_equal(g, w)
        assert (loaded.target_mean, loaded.target_std) == (bundle.target_mean, bundle.target_std)
        assert loaded.meta == bundle.meta
        assert getattr(loaded.pca, "k", None) == getattr(bundle.pca, "k", None)

    def test_header_key_order_does_not_matter(self, tmp_path):
        # the payload order belongs to the format, not to the header
        bundle = _bundle_of("wavelet_mexican_hat")
        path = tmp_path / "model.json"
        save_model(path, bundle)
        head, _, payload = path.read_bytes().partition(b"\n")
        doc = json.loads(head)
        path.write_bytes(json.dumps(dict(reversed(doc.items()))).encode("ascii")
                         + b"\n" + payload)
        loaded = load_model(path)
        for g, w in zip(_arrays_of(loaded), _arrays_of(bundle), strict=True):
            np.testing.assert_array_equal(g, w)

    def test_readme_names_the_format_version(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        assert f"format version {network.MODEL_VERSION}" in " ".join(text.split())

    @pytest.mark.parametrize("case", list(_DAMAGE))
    def test_damage_is_a_named_error(self, case, tmp_path, capsys):
        error, match = _DAMAGE[case]
        table = make_synthetic(20, 3, 2, seed=5)
        data = tmp_path / "t.csv"
        save_table(table, data)
        path = tmp_path / "model.json"
        save_model(path, ModelBundle(net=init_network([3, 2, 1], BasisSpec.taylor(2), Rng(149)),
                                     standardizer=fit_standardizer(table.features)))
        load_model(path)
        _damage(path, case)
        with pytest.raises(error, match=match):
            load_model(path)
        assert main(["cross", "--data", str(data), "--model", str(path),
                     "--out", str(tmp_path / "x")]) == 1
        assert re.search(match, capsys.readouterr().err)

    def test_byte_flips_and_truncations_raise_only_named_errors(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(path, _bundle_of("wavelet_mexican_hat"))
        clean = path.read_bytes()
        rng = np.random.default_rng(151)
        loaded = 0
        for _ in range(300):
            blob = bytearray(clean)
            if rng.random() < 0.75:
                blob[rng.integers(len(blob))] = rng.integers(256)
            else:
                del blob[rng.integers(len(blob)):]
            path.write_bytes(blob)
            try:
                load_model(path)
                loaded += 1
            except (KanregError, OSError):
                pass
        assert loaded < 300

    def test_file_holds_the_arrays_and_a_small_header(self, tmp_path):
        net = init_network([256, 64, 1], BasisSpec.chebyshev(3), Rng(157))
        raw = np.random.default_rng(163).normal(size=(20, 256))
        bundle = ModelBundle(net=net, standardizer=fit_standardizer(raw))
        path = tmp_path / "model.json"
        save_model(path, bundle)
        assert path.stat().st_size <= sum(a.nbytes for a in _arrays_of(bundle)) + 16 * 1024

    def test_load_peak_within_one_and_a_fifth_of_the_arrays(self, tmp_path):
        rng = np.random.default_rng(167)
        layers = [KanLayer(1024, 128, rng.normal(size=(128, 4, 1024))),
                  KanLayer(128, 1, rng.normal(size=(1, 4, 128)))]
        bundle = ModelBundle(net=KanNetwork(spec=BasisSpec.chebyshev(3), layers=layers),
                             standardizer=Standardizer(rng.normal(size=1024),
                                                       rng.random(1024) + 0.5))
        path = tmp_path / "model.json"
        save_model(path, bundle)
        tracemalloc.start()
        try:
            loaded = load_model(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = sum(a.nbytes for a in _arrays_of(loaded))
        assert peak <= 1.2 * size

    def test_bundle_round_trip_with_preprocessing(self, tmp_path):
        rng = np.random.default_rng(71)
        raw = rng.normal(size=(40, 12)) * rng.uniform(0.5, 3.0, size=12)
        std = fit_standardizer(raw, list(range(30)))
        z = apply_standardizer(std, raw)
        pca = pca_fit(z[:30], 0.95)
        coords = pca_transform(pca, z)
        scaler = fit_standardizer(coords, list(range(30)))
        work = apply_standardizer(scaler, coords)
        net = init_network(auto_configure(pca.k, 1), BasisSpec.taylor(2), Rng(73))
        bundle = ModelBundle(net=net, standardizer=std, pca=pca, feature_scaler=scaler,
                             target_mean=50.0, target_std=12.5,
                             meta={"dataset": "probe"})
        # predict must equal manual composition of the chain
        out, _ = forward(net, work, want_cache=False)
        np.testing.assert_allclose(predict(bundle, raw), out * 12.5 + 50.0, atol=1e-12)
        path = tmp_path / "bundle.json"
        save_model(path, bundle)
        loaded = load_model(path)
        np.testing.assert_array_equal(predict(loaded, raw), predict(bundle, raw))
        assert loaded.meta["dataset"] == "probe"
        assert loaded.pca.k == pca.k

    def test_predict_dim_mismatch(self):
        raw = np.random.default_rng(79).normal(size=(10, 5))
        std = fit_standardizer(raw)
        net = init_network([5, 1], BasisSpec.taylor(1), Rng(83))
        bundle = ModelBundle(net=net, standardizer=std)
        with pytest.raises(ShapeError):
            predict(bundle, np.ones((3, 7)))
