"""Optimizer, training loop, early stopping, and the learning-rate grid."""

import time

import numpy as np
import pytest

from kanreg.basis import BasisSpec
from kanreg.data import (
    FeatureTable,
    SplitIndices,
    apply_standardizer,
    fit_standardizer,
    make_synthetic,
    split,
)
from kanreg.errors import DivergedError, InsufficientDataError, ParameterError
from kanreg.linalg import Rng
from kanreg.network import auto_configure, forward, init_network, params_of
from kanreg.training import (
    DEFAULT_LR_GRID,
    AdamState,
    TrainConfig,
    adam_step,
    grid_search,
    init_adam,
    measure_time,
    thread_budget,
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
        with pytest.raises(ParameterError):
            TrainConfig(beta1=1.0)


class TestAdam:
    def test_zero_grads_leave_params(self):
        params = [np.array([1.0, -2.0]), np.array([[3.0]])]
        state = init_adam(params)
        adam_step(params, [np.zeros(2), np.zeros((1, 1))], state, lr=0.1)
        np.testing.assert_array_equal(params[0], [1.0, -2.0])
        np.testing.assert_array_equal(params[1], [[3.0]])

    def test_first_step_magnitude(self):
        # bias correction makes m_hat = g and v_hat = g^2 on step one, so
        # the update is lr * g / (|g| + eps) ~ lr
        params = [np.array([0.0])]
        state = init_adam(params)
        adam_step(params, [np.array([1.0])], state, lr=0.1)
        assert params[0][0] == pytest.approx(-0.1, abs=1e-6)

    def test_step_counter(self):
        params = [np.array([0.0])]
        state = init_adam(params)
        for _ in range(3):
            adam_step(params, [np.array([1.0])], state, lr=0.1)
        assert state.step == 3

    def test_deterministic_trajectory(self):
        def run():
            params = [np.array([0.5, -0.5])]
            state = init_adam(params)
            for t in range(10):
                g = np.array([np.sin(t + 1.0), np.cos(t + 1.0)])
                adam_step(params, [g], state, lr=0.05)
            return params[0]
        np.testing.assert_array_equal(run(), run())

    def test_misaligned_rejected(self):
        params = [np.array([0.0])]
        state = init_adam(params)
        with pytest.raises(ParameterError):
            adam_step(params, [np.zeros(1), np.zeros(1)], state, lr=0.1)

    def test_matches_textbook_update_bit_for_bit(self):
        rng = np.random.default_rng(19)
        shapes = [(3,), (2, 4), (2, 3, 2), (1, 1)]
        params = [rng.normal(size=shape) for shape in shapes]
        ref = [p.copy() for p in params]
        ref_m = [np.zeros_like(p) for p in params]
        ref_v = [np.zeros_like(p) for p in params]
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        state = init_adam(params)
        for t in range(1, 11):
            grads = [rng.normal(size=shape) for shape in shapes]
            adam_step(params, grads, state, lr, beta1, beta2, eps)
            c1 = 1.0 - beta1 ** t
            c2 = 1.0 - beta2 ** t
            for p, g, m, v in zip(ref, grads, ref_m, ref_v):
                m[...] = beta1 * m + (1.0 - beta1) * g
                v[...] = beta2 * v + (1.0 - beta2) * (g * g)
                p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
            for got, want in zip(params, ref):
                np.testing.assert_array_equal(got, want)


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

    def test_empty_val_split_rejected(self, latent_4d):
        table, _ = latent_4d
        bad = SplitIndices(train=np.arange(50), val=np.arange(0),
                           test=np.arange(50, 60))
        net = init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2))
        with pytest.raises(InsufficientDataError):
            train(net, table, bad, TrainConfig(seed=7))


class TestGridSearch:
    def test_singleton_grid(self, latent_4d):
        table, splits = latent_4d
        net = init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2))
        got = grid_search(net, table, splits,
                          TrainConfig(max_epochs=20, seed=7), grid=(1e-3,))
        assert got.best_lr == 1e-3
        assert len(got.rows) == 1

    def test_one_row_per_rate(self, latent_4d):
        table, splits = latent_4d
        net = init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2))
        grid = (1e-4, 1e-3, 1e-2)
        got = grid_search(net, table, splits,
                          TrainConfig(max_epochs=10, seed=7), grid=grid)
        assert [row.learning_rate for row in got.rows] == list(grid)

    def test_planted_optimum_selected(self, latent_1d):
        table, splits = latent_1d
        net = init_network([1, 8, 1], BasisSpec.taylor(2), Rng(2))
        got = grid_search(net, table, splits,
                          TrainConfig(max_epochs=60, seed=7), grid=(1e-5, 1e-3))
        assert got.best_lr == 1e-3
        slow, fast = got.rows
        assert fast.plcc + fast.srcc > slow.plcc + slow.srcc

    def test_tie_keeps_earliest_entry(self, latent_4d):
        table, splits = latent_4d
        net = init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2))
        got = grid_search(net, table, splits,
                          TrainConfig(max_epochs=10, seed=7), grid=(1e-3, 1e-3))
        assert got.best_index == 0

    def test_failed_rate_keeps_row(self, latent_4d):
        table, splits = latent_4d
        net = init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2))
        with np.errstate(over="ignore", invalid="ignore"):
            got = grid_search(net, table, splits,
                              TrainConfig(max_epochs=10, seed=7),
                              grid=(1e-3, 1e200))
        assert got.best_index == 0
        assert got.rows[1].error is not None
        assert np.isnan(got.rows[1].plcc)

    def test_all_rates_failing_aggregates(self, latent_4d):
        table, splits = latent_4d
        net = init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedError):
                grid_search(net, table, splits,
                            TrainConfig(max_epochs=10, seed=7),
                            grid=(1e200, 1e250))

    def test_empty_grid_rejected(self, latent_4d):
        table, splits = latent_4d
        net = init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2))
        with pytest.raises(ParameterError):
            grid_search(net, table, splits, TrainConfig(seed=7), grid=())
        with pytest.raises(ParameterError):
            grid_search(net, table, splits, TrainConfig(seed=7), grid=(0.0, 1e-3))

    def test_best_net_matches_best_row(self, latent_1d):
        table, splits = latent_1d
        net = init_network([1, 8, 1], BasisSpec.taylor(2), Rng(2))
        got = grid_search(net, table, splits,
                          TrainConfig(max_epochs=30, seed=7), grid=(1e-4, 1e-3))
        out, _ = forward(got.best_net, table.features[splits.val], want_cache=False)
        pred = out * got.best_result.target_std + got.best_result.target_mean
        resid = pred - table.scores[splits.val]
        val_mse = float(resid @ resid) / resid.size
        assert val_mse == pytest.approx(got.rows[got.best_index].val_loss, rel=1e-9)


class TestThreadBudget:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("KANREG_THREADS", raising=False)
        assert thread_budget() == 1
        monkeypatch.setenv("KANREG_THREADS", "")
        assert thread_budget() == 1

    def test_parses_integer(self, monkeypatch):
        monkeypatch.setenv("KANREG_THREADS", "4")
        assert thread_budget() == 4

    def test_floor_of_one(self, monkeypatch):
        monkeypatch.setenv("KANREG_THREADS", "0")
        assert thread_budget() == 1

    def test_garbage_rejected(self, monkeypatch):
        monkeypatch.setenv("KANREG_THREADS", "many")
        with pytest.raises(ParameterError):
            thread_budget()

    def test_parallel_equals_serial(self, latent_4d, monkeypatch):
        table, splits = latent_4d
        rows = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("KANREG_THREADS", workers)
            net = init_network([4, 8, 1], BasisSpec.taylor(2), Rng(2))
            got = grid_search(net, table, splits,
                              TrainConfig(max_epochs=10, seed=7),
                              grid=(1e-4, 1e-3))
            rows[workers] = [(r.learning_rate, r.plcc, r.srcc) for r in got.rows]
        assert rows["1"] == rows["2"]


class TestMeasureTime:
    def test_returns_result_and_seconds(self):
        value, seconds = measure_time(lambda: 41 + 1)
        assert value == 42
        assert seconds >= 0.0

    def test_nested_measurement_dominates(self):
        def inner():
            time.sleep(0.01)
            return measure_time(time.sleep, 0.01)
        (_, inner_s), outer_s = measure_time(inner)
        assert outer_s >= inner_s
