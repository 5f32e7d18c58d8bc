"""Optimizer, training loop, early stopping, and the learning-rate grid."""

import copy
import gc
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from kanreg import training
from kanreg.basis import FAMILIES, BasisSpec
from kanreg.data import (
    FeatureTable,
    SplitIndices,
    apply_standardizer,
    fit_standardizer,
    make_synthetic,
    save_table,
    split,
)
from kanreg.cli import main
from kanreg.errors import (DivergedError, InsufficientDataError, NumericError,
                           ParameterError, UndefinedCorrelationError)
from kanreg.linalg import Rng
from kanreg.metrics import plcc
from kanreg.network import (GradientSet, KanNetwork, ModelBundle, _flat_views, auto_configure,
                            backward, forward, init_mlp, init_network, load_model, params_of,
                            save_model)
from kanreg.training import (
    ADAM_SLICE,
    DEFAULT_LR_GRID,
    TrainConfig,
    TrainResult,
    adam_step,
    grid_search,
    init_adam,
    train,
)


def _standardized_task(seed, n, d, rank, target="quadratic"):
    """Synthetic table with z-scored features and targets, plus its split."""
    table = make_synthetic(n, d, rank, 0.0, target, seed)
    splits = split(n, seed)
    std = fit_standardizer(table.features, splits.train)
    feats = apply_standardizer(std, table.features)
    y = table.scores
    mean = float(y[splits.train].mean())
    scale = float(y[splits.train].std())
    return FeatureTable("task", feats, (y - mean) / scale), splits


@pytest.fixture(scope="module")
def latent_1d():
    return _standardized_task(1, 400, 1, 1)


@pytest.fixture(scope="module")
def latent_4d():
    return _standardized_task(5, 100, 4, 2)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.max_epochs == 500
        assert cfg.patience == 20
        assert cfg.batch_size == 128
        assert DEFAULT_LR_GRID == (1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2)

    def test_zero_learning_rate_is_legal(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    def test_rejections(self):
        with pytest.raises(ParameterError):
            TrainConfig(learning_rate=-1e-3)
        with pytest.raises(ParameterError):
            TrainConfig(learning_rate=float("nan"))
        with pytest.raises(ParameterError):
            TrainConfig(max_epochs=0)
        with pytest.raises(ParameterError):
            TrainConfig(patience=0)
        with pytest.raises(ParameterError):
            TrainConfig(batch_size=0)
        with pytest.raises(ParameterError):
            TrainConfig(l1_penalty=-0.1)


def _textbook_adam(ref, m, v, g, t, lr, beta1, beta2, eps):
    """The textbook Adam update of ``ref``, ``m`` and ``v`` in place, in its operation order."""
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    m[...] = beta1 * m + (1.0 - beta1) * g
    v[...] = beta2 * v + (1.0 - beta2) * (g * g)
    ref -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


class TestAdam:
    def test_zero_grads_leave_params(self):
        params = np.array([1.0, -2.0, 3.0])
        state = init_adam(params)
        adam_step(params, np.zeros(3), state, lr=0.1)
        np.testing.assert_array_equal(params, [1.0, -2.0, 3.0])

    def test_first_step_magnitude(self):
        # bias correction makes m_hat = g and v_hat = g^2 on step one, so
        # the update is lr * g / (|g| + eps) ~ lr
        params = np.array([0.0])
        state = init_adam(params)
        adam_step(params, np.array([1.0]), state, lr=0.1)
        assert params[0] == pytest.approx(-0.1, abs=1e-6)

    def test_step_counter(self):
        params = np.array([0.0])
        state = init_adam(params)
        for _ in range(3):
            adam_step(params, np.array([1.0]), state, lr=0.1)
        assert state.step == 3

    def test_deterministic_trajectory(self):
        def run():
            params = np.array([0.5, -0.5])
            state = init_adam(params)
            for t in range(10):
                g = np.array([np.sin(t + 1.0), np.cos(t + 1.0)])
                adam_step(params, g, state, lr=0.05)
            return params
        np.testing.assert_array_equal(run(), run())

    def test_misaligned_rejected(self):
        params = np.array([0.0])
        state = init_adam(params)
        with pytest.raises(ParameterError):
            adam_step(params, np.zeros(2), state, lr=0.1)
        with pytest.raises(ParameterError):
            adam_step(np.zeros(2), np.zeros(2), state, lr=0.1)
        assert state.step == 0

    def test_matches_textbook_update_bit_for_bit(self):
        rng = np.random.default_rng(19)
        n = 3 + 2 * 4 + 2 * 3 * 2 + 1 * 1  # the shapes (3,), (2, 4), (2, 3, 2) and (1, 1)
        params = rng.normal(size=n)
        ref = params.copy()
        ref_m = np.zeros(n)
        ref_v = np.zeros(n)
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        state = init_adam(params)
        for t in range(1, 11):
            grads = rng.normal(size=n)
            adam_step(params, grads, state, lr, beta1, beta2, eps)
            _textbook_adam(ref, ref_m, ref_v, grads, t, lr, beta1, beta2, eps)
            np.testing.assert_array_equal(params, ref)


class TestAdamSlices:
    def test_sliced_parameter_matches_textbook_bit_for_bit(self):
        # 2.5 slices and a ragged tail
        rng = np.random.default_rng(29)
        n = 5 * (ADAM_SLICE // 2 + 7) + 3 + 2 * 4
        params = rng.normal(size=n)
        ref = params.copy()
        ref_m = np.zeros(n)
        ref_v = np.zeros(n)
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        state = init_adam(params)
        for t in range(1, 4):
            grads = rng.normal(size=n)
            adam_step(params, grads, state, lr, beta1, beta2, eps)
            _textbook_adam(ref, ref_m, ref_v, grads, t, lr, beta1, beta2, eps)
            np.testing.assert_array_equal(params, ref)

    def test_large_parameter_needs_no_full_size_scratch(self):
        params = np.zeros(2**20)
        grads = np.full(2**20, 0.5)
        state = init_adam(params)
        assert [a.size for a in state.scratch] == [ADAM_SLICE, ADAM_SLICE]
        tracemalloc.start()
        try:
            for _ in range(2):
                adam_step(params, grads, state, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * ADAM_SLICE * 8

    def test_two_dimensional_params_rejected(self):
        params = np.zeros((3, ADAM_SLICE))
        state = init_adam(params)
        with pytest.raises(ParameterError, match="1-D"):
            adam_step(params, np.ones_like(params), state, 1e-3)


class TestTrain:
    def test_zero_lr_leaves_parameters(self, latent_4d):
        table, splits = latent_4d
        net = init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2))
        before = [p.copy() for p in params_of(net)[0]]
        result = train(net, table, splits, TrainConfig(learning_rate=0.0, seed=7))
        for b, p in zip(before, params_of(net)[0]):
            np.testing.assert_array_equal(b, p)
        assert len(set(result.val_curve)) == 1

    def test_zero_lr_plateau_stops_after_patience(self, latent_4d):
        table, splits = latent_4d
        net = init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2))
        result = train(net, table, splits,
                       TrainConfig(learning_rate=0.0, patience=5, seed=7))
        assert result.best_epoch == 1
        assert result.epochs_run == result.best_epoch + 5

    def test_noiseless_quadratic_converges(self, latent_1d):
        table, splits = latent_1d
        net = init_network(auto_configure(1, 1), BasisSpec.taylor(2), Rng(2))
        result = train(net, table, splits,
                       TrainConfig(learning_rate=5e-3, max_epochs=500,
                                   patience=500, seed=7))
        assert min(result.train_curve) < 1e-3
        assert result.epochs_run <= 500

    def test_curve_lengths_match_epochs(self, latent_4d):
        table, splits = latent_4d
        net = init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2))
        result = train(net, table, splits,
                       TrainConfig(learning_rate=1e-3, max_epochs=30,
                                   patience=30, seed=7))
        assert len(result.val_curve) == result.epochs_run
        assert len(result.train_curve) == result.epochs_run
        assert result.wall_seconds >= 0.0

    def test_best_epoch_parameters_restored(self, latent_4d):
        table, splits = latent_4d
        net = init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2))
        result = train(net, table, splits,
                       TrainConfig(learning_rate=5e-3, max_epochs=80, seed=7))
        out, _ = forward(net, table.features[splits.val], want_cache=False)
        pred = out * result.target_std + result.target_mean
        resid = pred - table.scores[splits.val]
        val_mse = float(resid @ resid) / resid.size
        assert val_mse == pytest.approx(result.best_val_loss, rel=1e-9)
        assert result.best_val_loss == pytest.approx(min(result.val_curve), rel=1e-12)

    def test_tiny_lr_full_batch_never_increases_loss(self, latent_4d):
        table, splits = latent_4d
        net = init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2))
        result = train(net, table, splits,
                       TrainConfig(learning_rate=1e-6, max_epochs=5, patience=5,
                                   batch_size=10**9, seed=7))
        curve = result.train_curve
        assert all(b <= a for a, b in zip(curve, curve[1:]))

    def test_diverged_error_names_epoch_and_lr(self, latent_4d):
        table, splits = latent_4d
        net = init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedError) as exc:
                train(net, table, splits,
                      TrainConfig(learning_rate=1e200, max_epochs=50, seed=7))
        assert exc.value.epoch == 1
        assert exc.value.learning_rate == 1e200

    def test_loss_overflow_diverges_with_its_cause(self, latent_1d):
        # Outputs near 1e160 are finite, but their squared error overflows:
        # the train loss is the first non-finite value, and it is the cause.
        table, splits = latent_1d
        net = init_network([1, 1], BasisSpec.taylor(2), Rng(2))
        net.layers[0].coeffs[...] = 1e160
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedError) as exc:
                train(net, table, splits, TrainConfig(learning_rate=1e-3, max_epochs=5, seed=7))
        assert exc.value.epoch == 1
        assert exc.value.learning_rate == 1e-3
        assert isinstance(exc.value.__cause__, NumericError)
        assert str(exc.value) == "training diverged at epoch 1 (lr=0.001): non-finite train loss"

    def test_adam_moment_overflow_diverges(self):
        # A finite gradient near 1e160 squares to inf in Adam's second moment,
        # which would freeze that coefficient; the end-of-epoch check names it.
        rng = np.random.default_rng(4)
        table = FeatureTable("wide", 1e7 * rng.uniform(1.0, 2.0, size=(20, 1)), rng.normal(size=20))
        splits = split(20, 4)
        net = init_network([1, 1], BasisSpec.taylor(2), Rng(2))
        net.layers[0].coeffs[...] = 1e132
        out, cache = forward(net, table.features[splits.train])
        grad = backward(net, cache, 2.0 * out / out.size).flat
        assert np.isfinite(grad).all() and np.abs(grad).max() > 1e159
        with np.errstate(over="ignore"):
            with pytest.raises(DivergedError) as exc:
                train(net, table, splits, TrainConfig(learning_rate=1e-3, max_epochs=5, seed=7))
        assert exc.value.epoch == 1
        assert isinstance(exc.value.__cause__, NumericError)
        assert str(exc.value) == "training diverged at epoch 1 (lr=0.001): non-finite Adam moment"

    def test_l1_shrinks_coefficients_on_noise(self):
        rng = np.random.default_rng(0)
        noise = FeatureTable("noise", rng.normal(size=(120, 4)), rng.normal(size=120))
        splits = split(120, 3)
        medians = {}
        for lam in (0.0, 1.0):
            net = init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2))
            train(net, noise, splits,
                  TrainConfig(learning_rate=1e-3, max_epochs=100, patience=100,
                              l1_penalty=lam, seed=7))
            flat = np.concatenate([p.ravel() for p in params_of(net)[0]])
            medians[lam] = float(np.median(np.abs(flat)))
        assert medians[1.0] < medians[0.0]

    def test_wavelet_scales_clamped(self, latent_4d):
        table, splits = latent_4d
        net = init_network([4, 4, 1], BasisSpec.wavelet(), Rng(2))
        for layer in net.layers:
            layer.scales[...] = 1e-6   # positive but below the floor
        train(net, table, splits,
              TrainConfig(learning_rate=0.0, max_epochs=1, seed=7))
        for layer in net.layers:
            assert np.all(layer.scales >= 1e-3)

    def test_identical_runs_identical_bytes(self, latent_4d):
        table, splits = latent_4d
        cfg = TrainConfig(learning_rate=1e-3, max_epochs=40, seed=7)
        blobs = []
        for _ in range(2):
            net = init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2))
            train(net, table, splits, cfg)
            blobs.append(b"".join(p.tobytes() for p in params_of(net)[0]))
        assert blobs[0] == blobs[1]

    def test_one_gradient_buffer_alive_per_step(self):
        # The buffer, Adam's two moments, the snapshot, the L1 work array and
        # one gradient buffer are six parameter-sized arrays; the previous
        # step's gradients alive during the next backward would be a seventh.
        table = make_synthetic(40, 512, 4, 0.0, "quadratic", 3)
        net = init_network([512, 256, 1], BasisSpec.chebyshev(3), Rng(3))
        nbytes = sum(p.nbytes for p in params_of(net)[0])
        tracemalloc.start()
        try:
            train(net, table, split(40, 3), TrainConfig(max_epochs=2, batch_size=8, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.8 * nbytes

    def test_empty_val_split_rejected(self, latent_4d):
        table, _ = latent_4d
        bad = SplitIndices(train=np.arange(50), val=np.arange(0),
                           test=np.arange(50, 60))
        net = init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2))
        with pytest.raises(InsufficientDataError):
            train(net, table, bad, TrainConfig(seed=7))


def _per_array_train(net, table, splits, config):
    """Train ``net`` for ``config.max_epochs`` epochs with a per-array step.

    Shuffle, gather the batch rows, forward and backward, ``g += l1 * sign(p)``
    per penalized array, Adam on each array with its own state, then the wavelet clamp.
    """
    x = table.features[splits.train]
    y = table.scores[splits.train]
    y = (y - float(np.mean(y))) / float(np.std(y))
    params, penalized = params_of(net)
    states = [init_adam(p.reshape(-1)) for p in params]
    rng = Rng(config.seed)
    n = len(x)
    batch = min(n, config.batch_size)
    wavelet = isinstance(net, KanNetwork) and net.spec.family == "wavelet_mexican_hat"
    for _ in range(config.max_epochs):
        order = list(range(n))
        rng.shuffle(order)
        for lo in range(0, n, batch):
            idx = order[lo:lo + batch]
            out, cache = forward(net, x[idx])
            grads = backward(net, cache, (2.0 / len(idx)) * (out - y[idx])).arrays
            for g, p, pen in zip(grads, params, penalized):
                if pen:
                    g += config.l1_penalty * np.sign(p)
            for p, g, state in zip(params, grads, states):
                adam_step(p.reshape(-1), g.reshape(-1), state, config.learning_rate)
            if wavelet:
                for layer in net.layers:
                    np.maximum(layer.scales, 1e-3, out=layer.scales)


def _wavelet_near_floor():
    net = init_network([4, 3, 1], BasisSpec.wavelet(), Rng(2))
    for layer in net.layers:  # scales a step can push under the clamp
        layer.scales[...] = np.random.default_rng(1).uniform(2e-3, 0.5, size=layer.scales.shape)
    return net


# kind -> (network factory, a learning rate whose best epoch of 3 is the last)
_FLAT_NETS = {
    "taylor2": (lambda: init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2)), 1e-2),
    "wavelet": (_wavelet_near_floor, 5e-2),
    "mlp": (lambda: init_mlp([4, 8, 1], Rng(2)), 1e-2),
}


class TestFlatBuffer:
    @pytest.mark.parametrize("kind", sorted(_FLAT_NETS))
    def test_train_matches_per_array_step_bit_for_bit(self, latent_4d, kind):
        table, splits = latent_4d
        make, lr = _FLAT_NETS[kind]
        config = TrainConfig(learning_rate=lr, max_epochs=3, patience=3, batch_size=16,
                             l1_penalty=1e-2, seed=7)
        net = make()
        ref = copy.deepcopy(net)
        _per_array_train(ref, table, splits, config)
        assert train(net, table, splits, config).best_epoch == 3
        for got, want in zip(params_of(net)[0], params_of(ref)[0]):
            assert np.array_equal(got, want)
        if kind == "wavelet":  # the clamp bound
            assert any((layer.scales == 1e-3).any() for layer in net.layers)

    @pytest.mark.parametrize("kind", sorted(_FLAT_NETS))
    def test_parameters_are_views_of_one_buffer(self, latent_4d, kind, tmp_path):
        table, splits = latent_4d
        made = []

        def make_net():
            made.append(_FLAT_NETS[kind][0]())
            return made[-1]

        net = grid_search(make_net, table, splits, TrainConfig(max_epochs=3, seed=7),
                          grid=(1e-3, 1e-2)).best_net
        params, flags = params_of(net)
        buffer = params[0].base
        assert buffer.flags.c_contiguous and buffer.size == sum(p.size for p in params)
        assert all(p.base is buffer for p in params)
        n_pen = sum(p.size for p, flag in zip(params, flags) if flag)
        assert [np.shares_memory(p, buffer[:n_pen]) for p in params] == flags
        others = [other for other in made if other is not net] + [make_net()]
        assert len(others) == 2
        assert not any(np.shares_memory(p, q)
                       for other in others for p in params for q in params_of(other)[0])

        _, cache = forward(net, table.features[:5])
        grads = backward(net, cache, np.ones(5))
        grads.flat[...] = np.arange(grads.flat.size)
        covered = np.sort(np.concatenate([a.ravel() for a in grads.arrays]))
        assert np.array_equal(covered, np.arange(grads.flat.size))
        assert [a.shape for a in grads.arrays] == [p.shape for p in params]

        save_model(tmp_path / "model.json", ModelBundle(net=net))
        loaded = params_of(load_model(tmp_path / "model.json").net)[0]
        assert [a.tobytes() for a in loaded] == [p.tobytes() for p in params]

    @pytest.mark.parametrize("kind", [*FAMILIES, "mlp"])
    def test_backward_into_out_matches_a_fresh_buffer_bit_for_bit(self, kind):
        # 64 rows x 64 inputs x 128 outputs reach BIAS_MIN, so the
        # constant-first families also take their split-bias branch.
        x = np.random.default_rng(5).normal(size=(64, 64))
        net = (init_mlp([64, 128, 1], Rng(5)) if kind == "mlp"
               else init_network([64, 128, 1], BasisSpec(family=kind), Rng(5)))
        out = GradientSet(*_flat_views(net))
        out.flat[...] = np.nan  # every element must be overwritten
        out_grads = np.linspace(-1.0, 1.0, 64)
        got = backward(net, forward(net, x)[1], out_grads, out=out)
        want = backward(net, forward(net, x)[1], out_grads)
        assert got is out and want.flat is not out.flat
        assert got.flat.tobytes() == want.flat.tobytes()
        assert all(a.base is out.flat for a in got.arrays)

    @pytest.mark.parametrize("l1", [0.0, 1e-2])
    def test_train_hands_backward_one_buffer(self, latent_4d, monkeypatch, l1):
        table, splits = latent_4d
        buffers = []
        real_backward = training.backward

        def spy(*args, out):
            buffers.append(out)
            return real_backward(*args, out=out)

        monkeypatch.setattr(training, "backward", spy)
        train(_FLAT_NETS["taylor2"][0](), table, splits,
              TrainConfig(max_epochs=2, batch_size=16, l1_penalty=l1, seed=7))
        assert len(buffers) > 2 and all(b is buffers[0] for b in buffers)

    def test_deepcopy_of_trained_network_trains_on_to_the_same_bits(self, latent_4d):
        table, splits = latent_4d
        config = TrainConfig(learning_rate=1e-2, max_epochs=3, l1_penalty=1e-3, seed=7)
        net = _wavelet_near_floor()
        train(net, table, splits, config)
        clone = copy.deepcopy(net)
        assert not any(np.shares_memory(a, b)
                       for a in params_of(net)[0] for b in params_of(clone)[0])
        for n in (net, clone):
            train(n, table, splits, replace(config, seed=8))
        assert ([p.tobytes() for p in params_of(clone)[0]]
                == [p.tobytes() for p in params_of(net)[0]])


def _taylor_4d():
    return init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2))


def _taylor_1d():
    return init_network([1, 8, 1], BasisSpec.taylor(2), Rng(2))


def _plcc_undefined_on_call(n):
    """A stand-in for metrics.plcc that raises on its ``n``-th call."""
    calls = []

    def fake(a, b):
        calls.append(None)
        if len(calls) == n:
            raise UndefinedCorrelationError("constant predictions")
        return plcc(a, b)
    return fake


class TestGridSearch:
    def test_singleton_grid(self, latent_4d):
        table, splits = latent_4d
        got = grid_search(_taylor_4d, table, splits,
                          TrainConfig(max_epochs=20, seed=7), grid=(1e-3,))
        assert got.best_lr == 1e-3
        assert len(got.rows) == 1

    def test_one_row_per_rate(self, latent_4d):
        table, splits = latent_4d
        grid = (1e-4, 1e-3, 1e-2)
        got = grid_search(_taylor_4d, table, splits,
                          TrainConfig(max_epochs=10, seed=7), grid=grid)
        assert [row.learning_rate for row in got.rows] == list(grid)

    def test_planted_optimum_selected(self, latent_1d):
        table, splits = latent_1d
        got = grid_search(_taylor_1d, table, splits,
                          TrainConfig(max_epochs=60, seed=7), grid=(1e-5, 1e-3))
        assert got.best_lr == 1e-3
        slow, fast = got.rows
        assert fast.plcc + fast.srcc > slow.plcc + slow.srcc

    def test_tie_keeps_earliest_entry(self, latent_4d):
        table, splits = latent_4d
        got = grid_search(_taylor_4d, table, splits,
                          TrainConfig(max_epochs=10, seed=7), grid=(1e-3, 1e-3))
        assert got.best_index == 0

    def test_failed_rate_keeps_row(self, latent_4d):
        table, splits = latent_4d
        with np.errstate(over="ignore", invalid="ignore"):
            got = grid_search(_taylor_4d, table, splits,
                              TrainConfig(max_epochs=10, seed=7),
                              grid=(1e-3, 1e200))
        assert got.best_index == 0
        assert got.rows[1].error is not None
        assert np.isnan(got.rows[1].plcc)

    def test_rows_are_the_train_results(self, latent_4d):
        # Each rate has one record, the one train returned: the search adds
        # the validation correlations to it and copies nothing.
        table, splits = latent_4d
        got = grid_search(_taylor_4d, table, splits,
                          TrainConfig(max_epochs=10, seed=7), grid=(1e-4, 1e-3))
        assert all(isinstance(row, TrainResult) for row in got.rows)
        assert [row.learning_rate for row in got.rows] == [1e-4, 1e-3]
        assert got.best_result is got.rows[got.best_index]
        for row in got.rows:
            assert row.error is None
            assert np.isfinite(row.plcc) and np.isfinite(row.srcc)
            assert row.epochs_run == len(row.val_curve) >= row.best_epoch >= 1

    def test_failed_rate_row_holds_no_run(self, latent_4d):
        table, splits = latent_4d
        with np.errstate(over="ignore", invalid="ignore"):
            got = grid_search(_taylor_4d, table, splits,
                              TrainConfig(max_epochs=10, seed=7),
                              grid=(1e-3, 1e200))
        failed = got.rows[1]
        assert failed.learning_rate == 1e200
        assert failed.error.startswith("training diverged at epoch 1 (lr=1e+200)")
        assert np.isnan(failed.plcc) and np.isnan(failed.srcc)
        assert np.isnan(failed.best_val_loss)
        assert failed.epochs_run == 0
        assert failed.wall_seconds == 0.0

    def test_undefined_correlation_keeps_the_trained_record(self, latent_4d, monkeypatch):
        # A trial that trained but whose correlations are undefined keeps its
        # epochs and seconds; only its error and NaN metrics mark it.
        table, splits = latent_4d
        monkeypatch.setattr(training, "plcc", _plcc_undefined_on_call(2))
        got = grid_search(_taylor_4d, table, splits,
                          TrainConfig(max_epochs=10, seed=7), grid=(1e-4, 1e-3))
        assert got.best_index == 0
        trained = got.rows[1]
        assert trained.error == "constant predictions"
        assert np.isnan(trained.plcc) and np.isnan(trained.srcc)
        assert trained.epochs_run == len(trained.val_curve) >= trained.best_epoch >= 1
        assert trained.wall_seconds > 0.0 and np.isfinite(trained.best_val_loss)

    def test_undefined_correlation_row_in_lr_grid_csv(self, tmp_path, monkeypatch):
        data = tmp_path / "t.csv"
        save_table(make_synthetic(60, 6, 2, 0.0, "quadratic", 3), data)
        monkeypatch.setattr(training, "plcc", _plcc_undefined_on_call(2))
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--lr-grid", "1e-4,1e-3",
                     "--max-epochs", "5", "--seed", "5", "--out", str(out)]) == 0
        rows = (out / "lr_grid.csv").read_text().splitlines()[1:]
        assert rows[0].endswith(",ok")
        fields = rows[1].split(",")
        assert fields[0] == "0.001" and fields[-1] == "undefined"
        assert fields[1:3] == ["nan", "nan"] and int(fields[-2]) >= 1

    def test_all_rates_failing_aggregates(self, latent_4d):
        table, splits = latent_4d
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedError):
                grid_search(_taylor_4d, table, splits,
                            TrainConfig(max_epochs=10, seed=7),
                            grid=(1e200, 1e250))

    def test_empty_grid_rejected(self, latent_4d):
        table, splits = latent_4d
        with pytest.raises(ParameterError):
            grid_search(_taylor_4d, table, splits, TrainConfig(seed=7), grid=())
        with pytest.raises(ParameterError):
            grid_search(_taylor_4d, table, splits, TrainConfig(seed=7), grid=(0.0, 1e-3))

    def test_best_net_matches_best_row(self, latent_1d):
        table, splits = latent_1d
        got = grid_search(_taylor_1d, table, splits,
                          TrainConfig(max_epochs=30, seed=7), grid=(1e-4, 1e-3))
        out, _ = forward(got.best_net, table.features[splits.val], want_cache=False)
        pred = out * got.best_result.target_std + got.best_result.target_mean
        resid = pred - table.scores[splits.val]
        val_mse = float(resid @ resid) / resid.size
        assert val_mse == pytest.approx(got.rows[got.best_index].best_val_loss, rel=1e-9)

    def test_keeps_at_most_one_earlier_network(self, latent_4d, monkeypatch):
        # A losing trial's network is dropped before the next trial trains,
        # so a grid of any length holds the best network so far and the new one.
        table, splits = latent_4d
        trial_nets, alive = [], []
        real_train = training.train

        def spy(trial_net, *args):
            gc.collect()
            alive.append(sum(ref() is not None for ref in trial_nets))
            trial_nets.append(weakref.ref(trial_net))
            return real_train(trial_net, *args)

        monkeypatch.setattr(training, "train", spy)
        got = grid_search(_taylor_4d, table, splits, TrainConfig(max_epochs=5, seed=7),
                          grid=(1e-4, 1e-3, 1e-2, 5e-2))
        assert len(alive) == 4 and max(alive) <= 1
        assert trial_nets[got.best_index]() is got.best_net

    def test_one_rate_grid_holds_only_the_trial_network(self, latent_4d, monkeypatch):
        # The grid keeps no template: while a one-rate grid trains, the
        # network it trains is the only one that make_net has built.
        table, splits = latent_4d
        made, alive = [], []
        real_train = training.train

        def make_net():
            net = _taylor_4d()
            made.append(weakref.ref(net))
            return net

        def spy(trial_net, *args):
            gc.collect()
            alive.append([ref() for ref in made if ref() is not None])
            return real_train(trial_net, *args)

        monkeypatch.setattr(training, "train", spy)
        got = grid_search(make_net, table, splits, TrainConfig(max_epochs=3, seed=7),
                          grid=(1e-3,))
        assert len(made) == 1 and len(alive) == 1
        assert len(alive[0]) == 1 and alive[0][0] is got.best_net

    def test_one_rate_grid_peak_memory(self):
        # Init, then the trial: the buffer, Adam's two moments, the snapshot and
        # one gradient buffer are five parameter-sized arrays. A template held
        # through the trial, or an L1 work array at l1 = 0, would be a sixth.
        table = make_synthetic(40, 512, 4, 0.0, "quadratic", 3)

        def make_net():
            return init_network([512, 256, 1], BasisSpec.chebyshev(3), Rng(3))

        nbytes = sum(p.nbytes for p in params_of(make_net())[0])
        tracemalloc.start()
        try:
            grid_search(make_net, table, split(40, 3),
                        TrainConfig(max_epochs=3, batch_size=8, l1_penalty=0.0, seed=3),
                        grid=(1e-3,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.0 * nbytes
