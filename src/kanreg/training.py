"""MSE training with Adam, patience-based early stopping, and an LR grid.

The protocol: mini-batches of 128 rows (full batch when the train split is
smaller), Adam with bias correction, at most 500 epochs, stop after 20
epochs without a validation improvement, return the parameters from the
best validation epoch. The grid search trains one model per learning rate
from an identical starting point and picks the rate whose validation
PLCC + SRCC is largest.

Targets are standardized internally with train-split statistics (a positive
affine reparametrization of the objective, so optimization and selection
are unchanged) and all reported losses are mapped back to the raw scale.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .data import FeatureTable, SplitIndices
from .errors import (DivergedError, InsufficientDataError, NumericError,
                     ParameterError, UndefinedCorrelationError)
from .linalg import Rng
from .metrics import plcc, srcc
from .network import KanNetwork, backward, forward, params_of

DEFAULT_LR_GRID = (1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2)
_WAVELET_SCALE_FLOOR = 1e-3


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    max_epochs: int = 500
    patience: int = 20
    batch_size: int = 128
    l1_penalty: float = 0.0
    seed: int = 0             # drives epoch shuffling only
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8

    def __post_init__(self):
        # lr = 0 is legal (a zero step leaves parameters untouched)
        if not self.learning_rate >= 0.0:
            raise ParameterError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.max_epochs < 1:
            raise ParameterError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ParameterError(f"patience must be >= 1, got {self.patience}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.l1_penalty < 0.0:
            raise ParameterError(f"l1_penalty must be >= 0, got {self.l1_penalty}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ParameterError("Adam betas must lie in [0, 1)")


@dataclass
class AdamState:
    step: int
    m: list[np.ndarray]
    v: list[np.ndarray]
    # two work arrays per parameter, allocated by the first adam_step
    scratch: list[tuple[np.ndarray, np.ndarray]] = field(default_factory=list)


def init_adam(params: list[np.ndarray]) -> AdamState:
    return AdamState(step=0,
                     m=[np.zeros_like(p) for p in params],
                     v=[np.zeros_like(p) for p in params])


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              epsilon: float = 1e-8) -> list[np.ndarray]:
    """One bias-corrected Adam update, in place on ``params``.

    The update is ``p -= lr * (m / c1) / (sqrt(v / c2) + epsilon)``,
    evaluated in that operation order into the state's scratch arrays so
    that no step allocates.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ParameterError("params, grads, and Adam state are misaligned")
    if not state.scratch:
        state.scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for p, g, m, v, (a, b) in zip(params, grads, state.m, state.v, state.scratch):
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=a)
        m += a
        v *= beta2
        np.multiply(g, g, out=a)
        a *= 1.0 - beta2
        v += a
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += epsilon
        np.divide(m, c1, out=a)
        a *= lr
        a /= b
        p -= a
    return params


@dataclass
class TrainResult:
    epochs_run: int
    best_epoch: int
    best_val_loss: float          # raw-scale MSE at the best epoch
    train_curve: list[float]      # raw-scale MSE per epoch
    val_curve: list[float]
    wall_seconds: float
    target_mean: float
    target_std: float
    learning_rate: float


def measure_time(fn, *args, **kwargs):
    """Run ``fn`` and return ``(result, wall_seconds)`` on a monotonic clock."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def _l1_mask(labels: list[str]) -> list[bool]:
    # Penalize edge coefficients (KAN) and weight matrices (MLP); never the
    # wavelet scale/shift parameters or biases.
    return [label.endswith(".coeffs") or label.endswith(".weights") for label in labels]


def train(net, table: FeatureTable, splits: SplitIndices, config: TrainConfig) -> TrainResult:
    """Train ``net`` in place on the table's train split; returns the run record.

    On return the network holds the parameters of the best validation
    epoch. A non-finite loss raises DivergedError naming the epoch and
    learning rate.
    """
    if splits.train.size < 1 or splits.val.size < 1:
        raise InsufficientDataError("training needs nonempty train and val splits")
    x_train = table.features[splits.train]
    y_train_raw = table.scores[splits.train]
    x_val = table.features[splits.val]
    y_val_raw = table.scores[splits.val]

    t_mean = float(np.mean(y_train_raw))
    t_std = float(np.std(y_train_raw))
    if t_std < 1e-12:
        t_std = 1.0
    y_train = (y_train_raw - t_mean) / t_std
    y_val = (y_val_raw - t_mean) / t_std
    raw_scale = t_std * t_std

    params, labels = params_of(net)
    penalized = _l1_mask(labels)
    state = init_adam(params)
    n_train = x_train.shape[0]
    batch = n_train if n_train < config.batch_size else config.batch_size
    rng = Rng(config.seed)
    lr = config.learning_rate
    clamp_scales = isinstance(net, KanNetwork) and net.spec.family == "wavelet_mexican_hat"

    start = time.perf_counter()
    best_val = math.inf
    best_epoch = 0
    # The first epoch always improves on best_val = inf (a non-finite val
    # loss raises), so the snapshot is filled before it is restored.
    snapshot = [np.empty_like(p) for p in params]
    streak = 0
    train_curve: list[float] = []
    val_curve: list[float] = []
    epoch = 0
    for epoch in range(1, config.max_epochs + 1):
        order = list(range(n_train))
        rng.shuffle(order)
        sse = 0.0
        for lo in range(0, n_train, batch):
            idx = order[lo:lo + batch]
            xb = x_train[idx]
            yb = y_train[idx]
            try:
                out, cache = forward(net, xb, want_cache=True)
            except NumericError as e:
                raise DivergedError(f"training diverged at epoch {epoch} (lr={lr:g}): {e}",
                                    epoch=epoch, learning_rate=lr) from e
            resid = out - yb
            batch_sse = float(resid @ resid)
            if not math.isfinite(batch_sse):
                raise DivergedError(f"non-finite train loss at epoch {epoch} (lr={lr:g})",
                                    epoch=epoch, learning_rate=lr)
            sse += batch_sse
            grads = backward(net, cache, (2.0 / len(idx)) * resid)
            if config.l1_penalty > 0.0:
                for g, p, pen in zip(grads.arrays, params, penalized):
                    if pen:
                        g += config.l1_penalty * np.sign(p)
            adam_step(params, grads.arrays, state, lr,
                      config.beta1, config.beta2, config.adam_epsilon)
            if clamp_scales:
                for layer in net.layers:
                    np.maximum(layer.scales, _WAVELET_SCALE_FLOOR, out=layer.scales)
        try:
            val_out, _ = forward(net, x_val, want_cache=False)
        except NumericError as e:
            raise DivergedError(f"training diverged at epoch {epoch} (lr={lr:g}): {e}",
                                epoch=epoch, learning_rate=lr) from e
        val_resid = val_out - y_val
        val_mse = float(val_resid @ val_resid) / val_resid.size
        if not math.isfinite(val_mse):
            raise DivergedError(f"non-finite val loss at epoch {epoch} (lr={lr:g})",
                                epoch=epoch, learning_rate=lr)
        train_curve.append((sse / n_train) * raw_scale)
        val_curve.append(val_mse * raw_scale)
        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            for s, p in zip(snapshot, params):
                np.copyto(s, p)
            streak = 0
        else:
            streak += 1
            if streak >= config.patience:
                break
    for p, s in zip(params, snapshot):
        np.copyto(p, s)
    return TrainResult(
        epochs_run=epoch,
        best_epoch=best_epoch,
        best_val_loss=best_val * raw_scale,
        train_curve=train_curve,
        val_curve=val_curve,
        wall_seconds=time.perf_counter() - start,
        target_mean=t_mean,
        target_std=t_std,
        learning_rate=lr,
    )


@dataclass
class TrialRow:
    learning_rate: float
    plcc: float
    srcc: float
    val_loss: float
    seconds: float
    epochs: int
    error: str | None = None


@dataclass
class GridSearchResult:
    rows: list[TrialRow]
    best_index: int
    best_net: object
    best_result: TrainResult

    @property
    def best_lr(self) -> float:
        return self.rows[self.best_index].learning_rate


def _run_trial(net_template, table, splits, config, lr):
    trial_net = net_template.clone()
    cfg = replace(config, learning_rate=lr)
    try:
        result = train(trial_net, table, splits, cfg)
        x_val = table.features[splits.val]
        y_val = table.scores[splits.val]
        pred, _ = forward(trial_net, x_val, want_cache=False)
        pred = pred * result.target_std + result.target_mean
        row = TrialRow(learning_rate=lr, plcc=plcc(pred, y_val), srcc=srcc(pred, y_val),
                       val_loss=result.best_val_loss, seconds=result.wall_seconds,
                       epochs=result.epochs_run)
        return row, trial_net, result
    except (DivergedError, UndefinedCorrelationError) as e:
        row = TrialRow(learning_rate=lr, plcc=float("nan"), srcc=float("nan"),
                       val_loss=float("nan"), seconds=0.0, epochs=0, error=str(e))
        return row, None, None


def thread_budget() -> int:
    """Worker count from KANREG_THREADS (default 1 = serial)."""
    raw = os.environ.get("KANREG_THREADS", "").strip()
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        raise ParameterError(f"KANREG_THREADS must be an integer, got {raw!r}") from None


def grid_search(net_template, table: FeatureTable, splits: SplitIndices,
                config: TrainConfig, grid=None) -> GridSearchResult:
    """Train one clone of ``net_template`` per learning rate and select.

    Selection maximizes validation PLCC + SRCC; ties keep the earliest grid
    entry, so the result does not depend on completion order when trials
    run on multiple threads (KANREG_THREADS > 1). Diverged trials keep
    their row with NaN metrics; if every rate diverges a DivergedError
    summarizing the failures is raised.
    """
    grid = tuple(DEFAULT_LR_GRID if grid is None else grid)
    if not grid:
        raise ParameterError("learning-rate grid must not be empty")
    if any(not lr > 0.0 for lr in grid):
        raise ParameterError(f"learning rates must be positive, got {grid}")
    workers = thread_budget()
    if workers == 1:
        outcomes = [_run_trial(net_template, table, splits, config, lr) for lr in grid]
    else:
        with ThreadPoolExecutor(max_workers=min(workers, len(grid))) as pool:
            futures = [pool.submit(_run_trial, net_template, table, splits, config, lr)
                       for lr in grid]
            outcomes = [f.result() for f in futures]
    rows = [row for row, _, _ in outcomes]
    best_index = -1
    best_score = -math.inf
    for i, row in enumerate(rows):
        if row.error is not None:
            continue
        score = row.plcc + row.srcc
        if math.isfinite(score) and score > best_score:
            best_score = score
            best_index = i
    if best_index < 0:
        details = "; ".join(f"lr={row.learning_rate:g}: {row.error}" for row in rows)
        raise DivergedError(f"every learning rate failed: {details}")
    _, best_net, best_result = outcomes[best_index]
    return GridSearchResult(rows=rows, best_index=best_index,
                            best_net=best_net, best_result=best_result)
