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
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .data import FeatureTable, SplitIndices
from .errors import (DivergedError, InsufficientDataError, NumericError, ParameterError,
                     UndefinedCorrelationError)
from .linalg import Rng
from .metrics import plcc, srcc
from .network import GradientSet, _flat_views, backward, bind_flat, forward

DEFAULT_LR_GRID = (1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2)
_WAVELET_SCALE_FLOOR = 1e-3
# Adam updates its vector in slices of this many elements, which stay in cache.
ADAM_SLICE = 32 * 1024


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    max_epochs: int = 500
    patience: int = 20
    batch_size: int = 128
    l1_penalty: float = 0.0
    seed: int = 0             # drives epoch shuffling only

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
        if not self.l1_penalty >= 0.0:  # NaN too
            raise ParameterError(f"l1_penalty must be >= 0, got {self.l1_penalty}")


@dataclass
class AdamState:
    step: int
    m: np.ndarray
    v: np.ndarray
    scratch: tuple[np.ndarray, np.ndarray]  # two work arrays of one slice each


def init_adam(params: np.ndarray) -> AdamState:
    # one block: separate slice-sized work arrays fragmented the heap (+7 MB full-width peak RSS)
    n, k = params.size, min(ADAM_SLICE, params.size)
    m, v, a, b = np.split(np.zeros(2 * n + 2 * k), [n, 2 * n, 2 * n + k])
    return AdamState(step=0, m=m, v=v, scratch=(a, b))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              epsilon: float = 1e-8) -> np.ndarray:
    """One bias-corrected Adam update, in place on the 1-D vector ``params``.

    The update is ``p -= lr * (m / c1) / (sqrt(v / c2) + epsilon)``,
    evaluated in that operation order, one slice of ``ADAM_SLICE`` elements
    at a time, into the state's scratch arrays, so that no step allocates.
    """
    if params.ndim != 1 or not grads.shape == state.m.shape == state.v.shape == params.shape:
        raise ParameterError("Adam needs a 1-D params vector, and grads and state of its shape")
    state.step += 1
    c1 = 1.0 - beta1 ** state.step
    c2 = 1.0 - beta2 ** state.step
    for lo in range(0, params.size, ADAM_SLICE):
        hi = lo + ADAM_SLICE
        p, g, m, v = params[lo:hi], grads[lo:hi], state.m[lo:hi], state.v[lo:hi]
        a, b = state.scratch[0][:p.size], state.scratch[1][:p.size]
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
    """One learning-rate trial; a failed one sets ``error`` and NaN metrics (and holds
    only its rate if it diverged, or its whole run if its correlations were undefined)."""
    learning_rate: float
    epochs_run: int = 0
    best_epoch: int = 0
    best_val_loss: float = math.nan  # raw-scale MSE at the best epoch
    train_curve: list[float] = field(default_factory=list)  # raw-scale MSE per epoch
    val_curve: list[float] = field(default_factory=list)
    wall_seconds: float = 0.0
    target_mean: float = math.nan
    target_std: float = math.nan
    val_predictions: np.ndarray | None = None  # raw-scale, at the best epoch
    plcc: float = math.nan  # validation correlations, set by grid_search
    srcc: float = math.nan
    error: str | None = None


def check_splits(splits: SplitIndices) -> None:
    """Raise InsufficientDataError unless ``splits`` can train and rank rates.

    Rates are ranked by validation PLCC and SRCC, which need two rows.
    """
    if splits.train.size < 1 or splits.val.size < 2:
        raise InsufficientDataError(
            f"training needs 1 train and 2 validation rows, got {splits.train.size} and "
            f"{splits.val.size}; the 70/15/15 split needs a table of at least 14 rows")


def train(net, table: FeatureTable, splits: SplitIndices, config: TrainConfig) -> TrainResult:
    """Train ``net`` in place on the table's train split; returns the run record.

    On return the network holds the parameters of the best validation epoch,
    as views of one buffer (:func:`bind_flat`). A non-finite loss or Adam
    moment raises DivergedError naming the epoch and learning rate, with the
    NumericError that stopped training as its cause.
    """
    check_splits(splits)
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

    flat, (n_pen, n_scales, _) = bind_flat(net)
    scales = flat[n_pen:n_pen + n_scales]  # wavelet scales (else empty), clamped each step
    state = init_adam(flat)
    n_train = x_train.shape[0]
    batch = n_train if n_train < config.batch_size else config.batch_size
    rng = Rng(config.seed)
    lr = config.learning_rate
    grads = GradientSet(*_flat_views(net))  # backward writes every step's gradients here
    work = np.empty(n_pen) if config.l1_penalty > 0.0 else None

    start = time.perf_counter()
    best_val = math.inf
    best_epoch = 0
    # The first epoch always improves on best_val = inf (a non-finite val
    # loss raises), so the snapshot and best_val_out are set before use.
    snapshot = np.empty_like(flat)
    streak = 0
    train_curve: list[float] = []
    val_curve: list[float] = []
    epoch = 0
    try:
        for epoch in range(1, config.max_epochs + 1):
            order = list(range(n_train))
            rng.shuffle(order)
            xs, ys = x_train[order], y_train[order]
            sse = 0.0
            for lo in range(0, n_train, batch):
                xb, yb = xs[lo:lo + batch], ys[lo:lo + batch]
                out, cache = forward(net, xb, want_cache=True)
                resid = out - yb
                batch_sse = float(resid @ resid)
                if not math.isfinite(batch_sse):
                    raise NumericError("non-finite train loss")
                sse += batch_sse
                backward(net, cache, (2.0 / len(yb)) * resid, out=grads)
                if work is not None:
                    np.sign(flat[:n_pen], out=work)
                    work *= config.l1_penalty
                    grads.flat[:n_pen] += work
                adam_step(flat, grads.flat, state, lr)
                if n_scales:
                    np.maximum(scales, _WAVELET_SCALE_FLOOR, out=scales)
            if not (np.isfinite(state.m).all() and np.isfinite(state.v).all()):
                raise NumericError("non-finite Adam moment")
            val_out, _ = forward(net, x_val, want_cache=False)
            val_resid = val_out - y_val
            val_mse = float(val_resid @ val_resid) / val_resid.size
            if not math.isfinite(val_mse):
                raise NumericError("non-finite val loss")
            train_curve.append((sse / n_train) * raw_scale)
            val_curve.append(val_mse * raw_scale)
            if val_mse < best_val:
                best_val = val_mse
                best_epoch = epoch
                best_val_out = val_out
                np.copyto(snapshot, flat)
                streak = 0
            else:
                streak += 1
                if streak >= config.patience:
                    break
    except NumericError as e:
        raise DivergedError(f"training diverged at epoch {epoch} (lr={lr:g}): {e}",
                            epoch=epoch, learning_rate=lr) from e
    np.copyto(flat, snapshot)
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
        val_predictions=best_val_out * t_std + t_mean,
    )


@dataclass
class GridSearchResult:
    rows: list[TrainResult]  # one per rate, in grid order
    best_index: int
    best_net: object

    @property
    def best_result(self) -> TrainResult:
        return self.rows[self.best_index]

    @property
    def best_lr(self) -> float:
        return self.best_result.learning_rate


def grid_search(make_net, table: FeatureTable, splits: SplitIndices,
                config: TrainConfig, grid=None) -> GridSearchResult:
    """Train one network per learning rate, in grid order; select one.

    ``make_net()`` builds each rate's network just before its trial, so every
    rate starts from the same parameters when it returns the same network.

    Selection maximizes validation PLCC + SRCC; ties keep the earliest grid
    entry. Only the best network so far is kept: a trial's network is
    dropped as soon as it loses. A failed trial, diverged or with undefined
    validation correlations, keeps its row with NaN metrics; if every rate
    fails a DivergedError summarizing the failures is raised.
    """
    grid = tuple(DEFAULT_LR_GRID if grid is None else grid)
    if not grid:
        raise ParameterError("learning-rate grid must not be empty")
    if any(not lr > 0.0 for lr in grid):
        raise ParameterError(f"learning rates must be positive, got {grid}")
    y_val = table.scores[splits.val]
    rows: list[TrainResult] = []
    best_score, best_index, best_net = -math.inf, None, None  # of the best trial so far
    for i, lr in enumerate(grid):
        net = make_net()
        try:
            result = train(net, table, splits, replace(config, learning_rate=lr))
            result.plcc, result.srcc = (plcc(result.val_predictions, y_val),
                                        srcc(result.val_predictions, y_val))
        except DivergedError as e:
            result = TrainResult(learning_rate=lr, error=str(e))
        except UndefinedCorrelationError as e:  # trained: keep its record, NaN metrics
            result.error = str(e)
        rows.append(result)
        score = result.plcc + result.srcc
        if score > best_score:  # False for a NaN score
            best_score, best_index, best_net = score, i, net
    if best_index is None:
        details = "; ".join(f"lr={row.learning_rate:g}: {row.error}" for row in rows)
        raise DivergedError(f"every learning rate failed: {details}")
    return GridSearchResult(rows=rows, best_index=best_index, best_net=best_net)
