"""Network composition, auto-configuration, gradients, and model files."""

import json

import numpy as np
import pytest

from kanreg.basis import FAMILIES, BasisSpec, basis_size
from kanreg.data import Standardizer
from kanreg.errors import (
    ContractError,
    FormatError,
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
    estimate_forward_cost,
    forward,
    init_mlp,
    init_network,
    load_model,
    mlp_backward,
    mlp_dims,
    mlp_forward,
    params_of,
    predict,
    save_model,
    six_layer_dims,
)
from kanreg.pca import fit as pca_fit
from kanreg.pca import transform as pca_transform
from kanreg.data import apply_standardizer, fit_standardizer

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


class TestForwardCost:
    def test_worked_example(self):
        assert estimate_forward_cost([2, 3, 2, 1], BasisSpec.taylor(2)) == 42

    def test_single_term(self):
        assert estimate_forward_cost([17, 1], BasisSpec.wavelet()) == 17

    def test_additive_over_concatenation(self):
        spec = BasisSpec.chebyshev(4)
        whole = estimate_forward_cost([5, 8, 4, 1], spec)
        parts = (estimate_forward_cost([5, 8], spec)
                 + estimate_forward_cost([8, 4], spec)
                 + estimate_forward_cost([4, 1], spec))
        assert whole == parts

    def test_equals_coefficient_count(self):
        for name, spec in ALL_SPECS.items():
            if name == "wavelet_mexican_hat":
                continue
            net = init_network([5, 8, 4, 1], spec, Rng(0))
            count = sum(layer.coeffs.size for layer in net.layers)
            assert estimate_forward_cost([5, 8, 4, 1], spec) == count


class TestInit:
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
        assert net.layers[0].coeffs.shape == (2, 4, 3)
        assert net.layers[0].coeffs.size == 24

    def test_wavelet_scale_shift_init(self):
        net = init_network([3, 2, 1], BasisSpec.wavelet(), Rng(5))
        for layer in net.layers:
            np.testing.assert_array_equal(layer.scales, np.ones_like(layer.scales))
            np.testing.assert_array_equal(layer.shifts, np.zeros_like(layer.shifts))

    def test_too_few_dims_rejected(self):
        with pytest.raises(ParameterError):
            init_network([4], BasisSpec.taylor(2), Rng(0))

    def test_mlp_init(self):
        net = init_mlp([10, 4, 1], Rng(2))
        assert net.dims == [10, 4, 1]
        for b in net.biases:
            np.testing.assert_array_equal(b, np.zeros_like(b))


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
        net.layers[0].coeffs[0, 0] = [0.5, -1.0, 2.0]
        xs = np.array([[0.0], [1.0], [-0.5]])
        out, _ = forward(net, xs)
        expect = 0.5 - 1.0 * xs[:, 0] + 2.0 * xs[:, 0] ** 2
        np.testing.assert_allclose(out, expect, atol=1e-15)

    def test_two_edge_sum(self):
        net = init_network([2, 1], BasisSpec.taylor(1), Rng(0))
        net.layers[0].coeffs[0, 0] = [0.0, 1.0]
        net.layers[0].coeffs[0, 1] = [0.0, 1.0]
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

    def test_overflow_raises_numeric_error_with_layer(self):
        net = init_network([1, 1, 1], BasisSpec.taylor(2), Rng(0))
        net.layers[0].coeffs[...] = 1e200   # first layer output ~1e200
        net.layers[1].coeffs[...] = 1.0     # second squares it -> inf
        with np.errstate(over="ignore"), pytest.raises(NumericError) as exc:
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
        assert grads.arrays[0][0, 0, 1] == pytest.approx(0.7 - 1.3, abs=1e-15)

    def test_stale_cache_rejected(self):
        net_a = init_network([3, 1], BasisSpec.taylor(2), Rng(0))
        net_b = init_network([3, 1], BasisSpec.taylor(2), Rng(1))
        x = np.ones((2, 3))
        _, cache = forward(net_a, x)
        with pytest.raises(ContractError):
            backward(net_b, cache, np.ones(2))
        with pytest.raises(ContractError):
            backward(net_a, None, np.ones(2))

    def test_out_grads_length_checked(self):
        net = init_network([3, 1], BasisSpec.taylor(2), Rng(0))
        _, cache = forward(net, np.ones((2, 3)))
        with pytest.raises(ShapeError):
            backward(net, cache, np.ones(5))

    def test_labels_cover_all_parameters(self):
        net = init_network([3, 2, 1], BasisSpec.wavelet(), Rng(0))
        params, labels = params_of(net)
        assert labels == ["layer0.coeffs", "layer0.scales", "layer0.shifts",
                          "layer1.coeffs", "layer1.scales", "layer1.shifts"]
        _, cache = forward(net, np.random.default_rng(0).normal(size=(4, 3)))
        grads = backward(net, cache, np.ones(4))
        assert grads.labels == labels
        for p, g in zip(params, grads.arrays):
            assert p.shape == g.shape

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


class TestMlp:
    def test_zero_network(self):
        net = init_mlp([4, 3, 1], Rng(0))
        for w in net.weights:
            w[...] = 0.0
        out, _ = mlp_forward(net, np.random.default_rng(0).normal(size=(5, 4)))
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_linear_slice_oracle(self):
        net = init_mlp([2, 1], Rng(0))
        net.weights[0][...] = [[2.0, -1.0]]
        net.biases[0][...] = [0.5]
        out, _ = mlp_forward(net, np.array([[1.0, 1.0], [0.0, 2.0]]))
        np.testing.assert_allclose(out, [1.5, -1.5], atol=1e-15)

    def test_relu_hidden_layer(self):
        net = init_mlp([1, 1, 1], Rng(0))
        net.weights[0][...] = [[1.0]]
        net.weights[1][...] = [[1.0]]
        out, _ = mlp_forward(net, np.array([[-3.0], [2.0]]))
        np.testing.assert_allclose(out, [0.0, 2.0], atol=1e-15)

    def test_finite_difference(self):
        net = init_mlp([5, 8, 4, 1], Rng(29))
        x = np.random.default_rng(31).normal(size=(16, 5))
        out, cache = mlp_forward(net, x)
        grads = mlp_backward(net, cache, np.ones_like(out))
        fd = _fd_param_grads(net, x)
        ok, total = _grad_agreement(fd, grads.arrays, 1e-4, 1e-7)
        assert ok == total

    def test_forward_dispatch(self):
        net = init_mlp([3, 2, 1], Rng(1))
        x = np.random.default_rng(1).normal(size=(4, 3))
        d_out, _ = forward(net, x, want_cache=False)
        m_out, _ = mlp_forward(net, x, want_cache=False)
        np.testing.assert_array_equal(d_out, m_out)


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
        expect, _ = mlp_forward(net, probe, want_cache=False)
        path = tmp_path / "mlp.json"
        save_model(path, ModelBundle(net=net))
        got, _ = forward(load_model(path).net, probe, want_cache=False)
        np.testing.assert_array_equal(got, expect)

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
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
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
        doc = path.read_text().replace('"version":1', '"version":9')
        path.write_text(doc)
        with pytest.raises(UnsupportedVersionError):
            load_model(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        net = init_network([3, 1], BasisSpec.taylor(2), Rng(67))
        path = tmp_path / "model.json"
        save_model(path, ModelBundle(net=net))
        doc = path.read_text().replace('"layer_dims":[3,1]', '"layer_dims":[4,1]')
        path.write_text(doc)
        with pytest.raises(FormatError):
            load_model(path)

    def test_non_finite_values_rejected_naming_the_block(self, tmp_path):
        raw = np.random.default_rng(89).normal(size=(10, 3))
        net = init_network([3, 1], BasisSpec.taylor(2), Rng(97))
        path = tmp_path / "model.json"
        save_model(path, ModelBundle(net=net, standardizer=fit_standardizer(raw)))
        clean = path.read_text()
        load_model(path)

        doc = json.loads(clean)
        doc["coeffs"][0][0][1][2] = float("nan")
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text()
        with pytest.raises(FormatError, match=r"coeffs\[0\]"):
            load_model(path)

        doc = json.loads(clean)
        doc["standardizer"]["means"][0] = float("inf")
        path.write_text(json.dumps(doc))
        assert "Infinity" in path.read_text()
        with pytest.raises(FormatError, match=r"standardizer\.means"):
            load_model(path)

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
