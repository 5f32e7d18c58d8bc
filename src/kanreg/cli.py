"""Command-line experiment harness.

Subcommands: train, cross, pca, sweep-order, sweep-layers, compare, hist.
Every run writes a manifest.json (command, resolved config, input hashes)
into the output directory before any heavy work starts, then one or more
CSV tables. Output CSVs are byte-identical across reruns with the same
flags; wall-clock columns are therefore zeroed unless `--timing wall` is
passed (the sweep tables are the exception, since their whole point is the
timing comparison, and stdout always shows real timings).

A config file (`--config`, key=value lines, '#' comments) can set any flag
of the active subcommand; explicit flags override the file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from .basis import FAMILIES, BasisSpec, basis_size
from .data import (FeatureTable, apply_standardizer, atomic_write_text,
                   fit_standardizer, load_table, mos_histogram, split)
from .errors import FormatError, KanregError, ParameterError, ParseError
from .linalg import Rng
from .metrics import EvalReport, evaluate, paired_t_test, plcc, srcc
from .network import (ModelBundle, auto_configure, forward, init_mlp,
                      init_network, load_model, mlp_dims, save_model,
                      six_layer_dims)
from .pca import fit as fit_pca
from .pca import select_k
from .pca import transform as pca_transform
from .training import (DEFAULT_LR_GRID, GridSearchResult, TrainConfig,
                       grid_search, measure_time)

_SEED_MASK = (1 << 64) - 1
_TAU_CHOICES = (0.90, 0.95, 1.00)
REPORT_HEADER = "dataset,basis,tau,k,layers,lr,plcc,srcc,seconds,epochs"

_DEFAULTS = {
    "data": None,
    "format": None,          # None = infer from the file suffix
    "seed": 42,
    "out": "kanreg_out",
    "timing": "off",
    "basis": "taylor",
    "order": 2,
    "harmonics": 4,
    "grid_size": 5,
    "degree": 3,
    "alpha": 1.0,
    "beta": 1.0,
    "tau": 0.95,
    "lr": None,
    "lr_grid": "default",
    "max_epochs": 500,
    "patience": 20,
    "batch": 128,
    "l1": 0.0,
    "model": None,
    "model_a": None,
    "model_b": None,
    "split": "all",
    "taus": "0.90,0.95,1.00",
    "orders": "1,2,3,4",
    "bins": 100,
}


def _parse_u64(text: str) -> int:
    value = int(text)
    if not 0 <= value <= _SEED_MASK:
        raise ParameterError(f"seed must fit in 64 bits, got {text}")
    return value


_CONVERTERS = {
    "data": str, "format": str, "seed": _parse_u64, "out": str, "timing": str,
    "basis": str, "order": int, "harmonics": int, "grid_size": int,
    "degree": int, "alpha": float, "beta": float, "tau": float, "lr": float,
    "lr_grid": str, "max_epochs": int, "patience": int, "batch": int,
    "l1": float, "model": str, "model_a": str, "model_b": str, "split": str,
    "taus": str, "orders": str, "bins": int,
}

_COMMON_KEYS = ("data", "format", "seed", "out", "timing")
_TRAIN_KEYS = _COMMON_KEYS + (
    "basis", "order", "harmonics", "grid_size", "degree", "alpha", "beta",
    "tau", "lr", "lr_grid", "max_epochs", "patience", "batch", "l1")
_COMMAND_KEYS = {
    "train": _TRAIN_KEYS,
    "cross": _COMMON_KEYS + ("model", "split"),
    "pca": _COMMON_KEYS + ("taus",),
    "sweep-order": _TRAIN_KEYS + ("orders",),
    "sweep-layers": _TRAIN_KEYS,
    "compare": _COMMON_KEYS + ("model_a", "model_b", "split"),
    "hist": _COMMON_KEYS + ("bins",),
}

_BASIS_CHOICES = FAMILIES + ("wavelet", "mlp")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kanreg",
        description="KAN regression experiments: train, evaluate, and sweep.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--data", help="feature table (CSV or binary)")
        p.add_argument("--format", choices=("csv", "bin"),
                       help="table format; default infers from suffix")
        p.add_argument("--seed", type=_parse_u64, help="master RNG seed")
        p.add_argument("--out", help="output directory (default kanreg_out)")
        p.add_argument("--timing", choices=("off", "wall"),
                       help="'wall' records wall seconds in CSVs; default off keeps them 0")
        p.add_argument("--config", help="key=value file; flags override it")

    def train_flags(p):
        p.add_argument("--basis", choices=_BASIS_CHOICES)
        p.add_argument("--order", type=int, help="expansion order / max degree")
        p.add_argument("--harmonics", type=int, help="fourier harmonics")
        p.add_argument("--grid-size", dest="grid_size", type=int)
        p.add_argument("--degree", type=int, help="bspline degree")
        p.add_argument("--alpha", type=float, help="jacobi alpha")
        p.add_argument("--beta", type=float, help="jacobi beta")
        p.add_argument("--tau", type=float, help="PCA variance ratio: 0.90, 0.95, or 1.0")
        p.add_argument("--lr", type=float, help="single learning rate (skips the grid)")
        p.add_argument("--lr-grid", dest="lr_grid",
                       help="'default' or comma-separated rates")
        p.add_argument("--max-epochs", dest="max_epochs", type=int)
        p.add_argument("--patience", type=int)
        p.add_argument("--batch", type=int)
        p.add_argument("--l1", type=float, help="L1 penalty on edge coefficients")

    p = sub.add_parser("train", help="fit one model and report test metrics")
    common(p)
    train_flags(p)

    p = sub.add_parser("cross", help="evaluate a saved model on another table")
    common(p)
    p.add_argument("--model", help="model.json from a train run")
    p.add_argument("--split", choices=("all", "test"),
                   help="evaluate on the whole table or its seeded test split")

    p = sub.add_parser("pca", help="report retained dimensions per variance ratio")
    common(p)
    p.add_argument("--taus", help="comma-separated variance ratios")

    p = sub.add_parser("sweep-order", help="train once per expansion order")
    common(p)
    train_flags(p)
    p.add_argument("--orders", help="comma-separated orders (default 1,2,3,4)")

    p = sub.add_parser("sweep-layers", help="depth/reduction timing grid")
    common(p)
    train_flags(p)

    p = sub.add_parser("compare", help="paired significance test of two models")
    common(p)
    p.add_argument("--model-a", dest="model_a")
    p.add_argument("--model-b", dest="model_b")
    p.add_argument("--split", choices=("all", "test"))

    p = sub.add_parser("hist", help="score histogram as CSV")
    common(p)
    p.add_argument("--bins", type=int)
    return parser


def _read_config_file(path: str, keys: tuple[str, ...], command: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ParameterError(f"cannot read config file {path}: {e}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ParseError(f"config line is not key=value: {line!r}",
                             line=lineno)
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in keys:
            raise ParameterError(
                f"config key {key!r} is not valid for {command!r}")
        try:
            values[key] = _CONVERTERS[key](value)
        except ValueError:
            raise ParseError(f"bad value for {key!r}: {value!r}",
                             line=lineno) from None
    return values


def _resolve(args: argparse.Namespace, command: str) -> dict:
    keys = _COMMAND_KEYS[command]
    resolved = {k: _DEFAULTS[k] for k in keys}
    if command in ("cross", "compare"):
        resolved["seed"] = None  # filled in from the models by _seed_from_models
    if getattr(args, "config", None):
        resolved.update(_read_config_file(args.config, keys, command))
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    if resolved.get("data") is None:
        raise ParameterError("--data is required")
    if "tau" in resolved and resolved["tau"] not in _TAU_CHOICES:
        raise ParameterError(
            f"--tau must be one of 0.90, 0.95, 1.0; got {resolved['tau']}")
    if "basis" in resolved and resolved["basis"] == "wavelet":
        resolved["basis"] = "wavelet_mexican_hat"
    return resolved


def _parse_float_list(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ParameterError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if not values:
        raise ParameterError(f"{flag} must not be empty")
    return values


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ParameterError(f"{flag} expects comma-separated integers, got {text!r}") from None
    if not values:
        raise ParameterError(f"{flag} must not be empty")
    return values


def _lr_grid(cfg: dict) -> tuple[float, ...]:
    if cfg.get("lr") is not None:
        return (cfg["lr"],)
    text = cfg["lr_grid"]
    if text == "default":
        return DEFAULT_LR_GRID
    return _parse_float_list(text, "--lr-grid")


def _basis_spec(cfg: dict) -> BasisSpec | None:
    """None means the MLP baseline."""
    family = cfg["basis"]
    if family == "mlp":
        return None
    if family == "taylor":
        return BasisSpec.taylor(order=cfg["order"])
    if family == "chebyshev":
        return BasisSpec.chebyshev(n_max=cfg["order"])
    if family == "jacobi":
        return BasisSpec.jacobi(n_max=cfg["order"], alpha=cfg["alpha"],
                                beta=cfg["beta"])
    if family == "hermite":
        return BasisSpec.hermite(n_max=cfg["order"])
    if family == "gaussian_rbf":
        return BasisSpec.gaussian_rbf()
    if family == "bspline":
        return BasisSpec.bspline(grid_size=cfg["grid_size"], degree=cfg["degree"])
    if family == "bsrbf":
        return BasisSpec.bsrbf(
            spline=BasisSpec.bspline(grid_size=cfg["grid_size"], degree=cfg["degree"]))
    if family == "wavelet_mexican_hat":
        return BasisSpec.wavelet()
    if family == "fourier":
        return BasisSpec.fourier(n_harmonics=cfg["harmonics"])
    raise ParameterError(f"unknown basis {family!r}")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def _write_manifest(out_dir: str, command: str, cfg: dict,
                    input_paths: list[str], outputs: list[str]) -> None:
    doc = {
        "command": command,
        "config": {k: _jsonable(v) for k, v in sorted(cfg.items())},
        "inputs": {p: _sha256(p) for p in input_paths},
        "outputs": sorted(outputs),
        "created_unix": round(time.time(), 3),
    }
    atomic_write_text(os.path.join(out_dir, "manifest.json"),
                      json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _ensure_out(cfg: dict) -> str:
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _layers_text(dims) -> str:
    return "-".join(str(d) for d in dims)


def _csv_seconds(cfg: dict, seconds: float) -> float:
    return seconds if cfg["timing"] == "wall" else 0.0


def _report_row(dataset: str, basis_name: str, tau: float, k: int, dims,
                lr: float, rep: EvalReport, seconds: float, epochs: int) -> str:
    return (f"{dataset},{basis_name},{tau:.2f},{k},{_layers_text(dims)},"
            f"{lr:g},{rep.plcc:.6f},{rep.srcc:.6f},{seconds:.3f},{epochs}")


def _prepare_features(table: FeatureTable, cfg: dict, use_pca: bool):
    """Split, standardize on train rows, optionally reduce, then rescale.

    The final z-score (fit on train rows) puts the network inputs on unit
    scale: PCA coordinates carry the eigenvalue scale otherwise. Returns the
    splits, the fitted transforms, and the matrix the trainer consumes.
    """
    splits = split(table.n, cfg["seed"])
    standardizer = fit_standardizer(table.features, splits.train)
    feats = apply_standardizer(standardizer, table.features)
    pca_model = None
    if use_pca and cfg["tau"] < 1.0:
        pca_model = fit_pca(feats[splits.train], cfg["tau"])
        feats = pca_transform(pca_model, feats)
    scaler = fit_standardizer(feats, splits.train)
    feats = apply_standardizer(scaler, feats)
    return splits, standardizer, pca_model, scaler, feats


def _run_training(table: FeatureTable, feats: np.ndarray, splits, cfg: dict,
                  spec: BasisSpec | None, dims) -> GridSearchResult:
    seed = cfg["seed"]
    init_rng = Rng((seed + 1) & _SEED_MASK)
    if spec is None:
        net = init_mlp(dims, init_rng)
    else:
        net = init_network(dims, spec, init_rng)
    train_config = TrainConfig(
        max_epochs=cfg["max_epochs"], patience=cfg["patience"],
        batch_size=cfg["batch"], l1_penalty=cfg["l1"],
        seed=(seed + 2) & _SEED_MASK)
    work_table = FeatureTable(name=table.name, features=feats, scores=table.scores)
    return grid_search(net, work_table, splits, train_config, _lr_grid(cfg))


def cmd_train(cfg: dict) -> int:
    table = load_table(cfg["data"], cfg["format"])
    out_dir = _ensure_out(cfg)
    model_path = os.path.join(out_dir, "model.json")
    report_path = os.path.join(out_dir, "report.csv")
    grid_path = os.path.join(out_dir, "lr_grid.csv")
    _write_manifest(out_dir, "train", cfg, [cfg["data"]],
                    [model_path, report_path, grid_path])

    spec = _basis_spec(cfg)
    use_pca = spec is not None
    splits, standardizer, pca_model, scaler, feats = _prepare_features(table, cfg, use_pca)
    k = feats.shape[1]
    dims = mlp_dims(k) if spec is None else auto_configure(k, 1)
    search, search_seconds = measure_time(
        _run_training, table, feats, splits, cfg, spec, dims)
    best = search.best_result

    grid_lines = ["lr,plcc,srcc,val_loss,seconds,epochs,status"]
    for row in search.rows:
        status = "ok" if row.error is None else "diverged"
        grid_lines.append(
            f"{row.learning_rate:g},{row.plcc:.6f},{row.srcc:.6f},"
            f"{row.val_loss:.8g},{_csv_seconds(cfg, row.seconds):.3f},"
            f"{row.epochs},{status}")
    atomic_write_text(grid_path, "\n".join(grid_lines) + "\n")

    tau_used = cfg["tau"] if use_pca else 1.0
    basis_name = cfg["basis"]
    bundle = ModelBundle(
        net=search.best_net, standardizer=standardizer, pca=pca_model,
        feature_scaler=scaler,
        target_mean=best.target_mean, target_std=best.target_std,
        meta={
            "dataset": table.name, "basis": basis_name, "tau": tau_used,
            "k": k, "layers": _layers_text(dims), "lr": search.best_lr,
            "epochs": best.epochs_run, "seed": cfg["seed"],
        })
    save_model(model_path, bundle)

    report = evaluate(bundle, table, splits.test, train_seconds=best.wall_seconds)
    row = _report_row(table.name, basis_name, tau_used, k, dims, search.best_lr,
                      report, _csv_seconds(cfg, best.wall_seconds), best.epochs_run)
    atomic_write_text(report_path, REPORT_HEADER + "\n" + row + "\n")

    print(f"train: {table.name} basis={basis_name} tau={tau_used:.2f} k={k} "
          f"layers={_layers_text(dims)} lr={search.best_lr:g}")
    print(f"train: test PLCC={report.plcc:.6f} SRCC={report.srcc:.6f} "
          f"epochs={best.epochs_run} train_seconds={best.wall_seconds:.3f} "
          f"grid_seconds={search_seconds:.3f}")
    print(f"train: wrote {model_path}, {report_path}, {grid_path}")
    return 0


def _seed_from_models(cfg: dict, command: str, bundles: dict) -> None:
    """Settle ``cfg["seed"]`` for commands that score saved models.

    Without ``--seed`` the models' training seed (``meta["seed"]``) is used,
    so ``--split test`` scores the models' own held-out rows. Under
    ``--split test``, models trained with different seeds have no common
    test split and raise, and an explicit seed that differs from a training
    seed gets a warning.
    """
    seeds = {}
    for flag, bundle in bundles.items():
        seed = bundle.meta.get("seed")
        if seed is not None:
            try:
                seeds[flag] = _parse_u64(str(seed))
            except ValueError:
                raise FormatError(f"{flag} meta seed is not an integer: {seed!r}") from None
    distinct = sorted(set(seeds.values()))
    if cfg["seed"] is None:
        if len(distinct) > 1 and cfg["split"] == "test":
            named = " and ".join(f"{flag} with seed {seed}" for flag, seed in seeds.items())
            raise ParameterError(f"{command}: the models were trained {named}; "
                                 f"pass --seed to choose the test split")
        cfg["seed"] = distinct[0] if len(distinct) == 1 else _DEFAULTS["seed"]
    elif cfg["split"] == "test":
        for seed in distinct:
            if seed != cfg["seed"]:
                print(f"{command}: warning: --seed {cfg['seed']} differs from the model's "
                      f"training seed {seed}; the test split will not be the model's "
                      f"held-out rows", file=sys.stderr)


def cmd_cross(cfg: dict) -> int:
    if cfg.get("model") is None:
        raise ParameterError("--model is required for cross")
    bundle = load_model(cfg["model"])
    _seed_from_models(cfg, "cross", {"model": bundle})
    table = load_table(cfg["data"], cfg["format"])
    out_dir = _ensure_out(cfg)
    report_path = os.path.join(out_dir, "cross.csv")
    _write_manifest(out_dir, "cross", cfg, [cfg["data"], cfg["model"]],
                    [report_path])

    indices = split(table.n, cfg["seed"]).test if cfg["split"] == "test" else None
    report = evaluate(bundle, table, indices)
    meta = bundle.meta
    row = _report_row(
        table.name, str(meta.get("basis", "unknown")),
        float(meta.get("tau", 1.0)), int(meta.get("k", table.d)),
        str(meta.get("layers", "")).split("-"), float(meta.get("lr", 0.0)),
        report, 0.0, int(meta.get("epochs", 0)))
    atomic_write_text(report_path, REPORT_HEADER + "\n" + row + "\n")
    print(f"cross: {table.name} n={report.n} PLCC={report.plcc:.6f} "
          f"SRCC={report.srcc:.6f}")
    print(f"cross: wrote {report_path}")
    return 0


def cmd_pca(cfg: dict) -> int:
    table = load_table(cfg["data"], cfg["format"])
    out_dir = _ensure_out(cfg)
    report_path = os.path.join(out_dir, "pca_report.csv")
    _write_manifest(out_dir, "pca", cfg, [cfg["data"]], [report_path])

    taus = _parse_float_list(cfg["taus"], "--taus")
    d = table.d
    splits = split(table.n, cfg["seed"])
    standardizer = fit_standardizer(table.features, splits.train)
    standardized = apply_standardizer(standardizer, table.features)
    eigenvalues = None
    reduced = [t for t in taus if t < 1.0]
    if reduced:
        # one spectrum serves every tau; fit at the smallest requested ratio
        eigenvalues = fit_pca(standardized[splits.train], min(reduced)).eigenvalues
    lines = ["tau,k,reduction_pct"]
    for tau in taus:
        k = d if tau >= 1.0 else select_k(eigenvalues, tau, d)
        lines.append(f"{tau:.2f},{k},{100.0 * (1.0 - k / d):.4f}")
    atomic_write_text(report_path, "\n".join(lines) + "\n")
    print("pca: " + "; ".join(lines[1:]))
    print(f"pca: wrote {report_path}")
    return 0


_ORDER_FAMILIES = {"taylor", "chebyshev", "jacobi", "hermite", "fourier"}


def _spec_with_order(cfg: dict, order: int) -> BasisSpec:
    sub = dict(cfg)
    sub["order"] = order
    sub["harmonics"] = order
    return _basis_spec(sub)


def cmd_sweep_order(cfg: dict) -> int:
    if cfg["basis"] not in _ORDER_FAMILIES:
        raise ParameterError(
            f"sweep-order needs an order-parameterized basis, got {cfg['basis']!r}")
    table = load_table(cfg["data"], cfg["format"])
    out_dir = _ensure_out(cfg)
    report_path = os.path.join(out_dir, "sweep_order.csv")
    _write_manifest(out_dir, "sweep-order", cfg, [cfg["data"]], [report_path])

    orders = _parse_int_list(cfg["orders"], "--orders")
    splits, _, _, _, feats = _prepare_features(table, cfg, use_pca=True)
    k = feats.shape[1]
    dims = auto_configure(k, 1)
    lines = ["order,plcc,srcc,seconds"]
    failures = []
    for order in orders:
        spec = _spec_with_order(cfg, order)
        try:
            search, _ = measure_time(
                _run_training, table, feats, splits, cfg, spec, dims)
        except KanregError as e:
            failures.append(f"order {order}: {e}")
            lines.append(f"{order},nan,nan,nan")
            continue
        bundle = ModelBundle(
            net=search.best_net, standardizer=None, pca=None,
            target_mean=search.best_result.target_mean,
            target_std=search.best_result.target_std)
        work = FeatureTable(name=table.name, features=feats, scores=table.scores)
        report = evaluate(bundle, work, splits.test)
        seconds = search.best_result.wall_seconds
        lines.append(f"{order},{report.plcc:.6f},{report.srcc:.6f},{seconds:.3f}")
        print(f"sweep-order: order={order} PLCC={report.plcc:.6f} "
              f"SRCC={report.srcc:.6f} seconds={seconds:.3f}")
    atomic_write_text(report_path, "\n".join(lines) + "\n")
    print(f"sweep-order: wrote {report_path}")
    for message in failures:
        print(f"sweep-order: FAILED {message}", file=sys.stderr)
    return 1 if failures else 0


_LAYER_GRID = ((6, 1.00), (4, 1.00), (4, 0.95))


def cmd_sweep_layers(cfg: dict) -> int:
    spec = _basis_spec(cfg)
    if spec is None:
        raise ParameterError("sweep-layers applies to KAN bases, not mlp")
    table = load_table(cfg["data"], cfg["format"])
    out_dir = _ensure_out(cfg)
    report_path = os.path.join(out_dir, "sweep_layers.csv")
    _write_manifest(out_dir, "sweep-layers", cfg, [cfg["data"]], [report_path])

    results = []
    failures = []
    for depth, tau in _LAYER_GRID:
        row_cfg = dict(cfg)
        row_cfg["tau"] = tau
        splits, _, _, _, feats = _prepare_features(table, row_cfg, use_pca=True)
        k = feats.shape[1]
        dims = six_layer_dims(k) if depth == 6 else auto_configure(k, 1)
        try:
            search, _ = measure_time(
                _run_training, table, feats, splits, row_cfg, spec, dims)
        except KanregError as e:
            failures.append(f"L={depth} tau={tau:.2f}: {e}")
            results.append((depth, tau, None, None, float("nan")))
            continue
        bundle = ModelBundle(
            net=search.best_net, standardizer=None, pca=None,
            target_mean=search.best_result.target_mean,
            target_std=search.best_result.target_std)
        work = FeatureTable(name=table.name, features=feats, scores=table.scores)
        report = evaluate(bundle, work, splits.test)
        results.append((depth, tau, report.plcc, report.srcc,
                        search.best_result.wall_seconds))
        print(f"sweep-layers: L={depth} tau={tau:.2f} k={k} "
              f"PLCC={report.plcc:.6f} seconds={search.best_result.wall_seconds:.3f}")

    baseline = results[0][4]
    lines = ["layers,tau,plcc,srcc,seconds,speedup"]
    for depth, tau, pl, sr, seconds in results:
        if pl is None:
            lines.append(f"{depth},{tau:.2f},nan,nan,nan,nan")
            continue
        speedup = baseline / max(seconds, 1e-9)
        lines.append(f"{depth},{tau:.2f},{pl:.6f},{sr:.6f},"
                     f"{seconds:.3f},{speedup:.2f}")
    atomic_write_text(report_path, "\n".join(lines) + "\n")
    print(f"sweep-layers: wrote {report_path}")
    for message in failures:
        print(f"sweep-layers: FAILED {message}", file=sys.stderr)
    return 1 if failures else 0


def cmd_compare(cfg: dict) -> int:
    if cfg.get("model_a") is None or cfg.get("model_b") is None:
        raise ParameterError("compare needs --model-a and --model-b")
    bundle_a = load_model(cfg["model_a"])
    bundle_b = load_model(cfg["model_b"])
    _seed_from_models(cfg, "compare", {"model-a": bundle_a, "model-b": bundle_b})
    table = load_table(cfg["data"], cfg["format"])
    out_dir = _ensure_out(cfg)
    report_path = os.path.join(out_dir, "compare.csv")
    _write_manifest(out_dir, "compare", cfg,
                    [cfg["data"], cfg["model_a"], cfg["model_b"]], [report_path])

    if cfg["split"] == "test":
        idx = split(table.n, cfg["seed"]).test
    else:
        idx = np.arange(table.n)
    feats = table.features[idx]
    y = table.scores[idx]
    from .network import predict
    preds_a = predict(bundle_a, feats)
    preds_b = predict(bundle_b, feats)
    sig = paired_t_test(preds_a, preds_b)
    name_a = str(bundle_a.meta.get("basis", "model_a"))
    name_b = str(bundle_b.meta.get("basis", "model_b"))
    line = (f"{name_a},{name_b},{plcc(preds_a, y):.6f},{srcc(preds_a, y):.6f},"
            f"{plcc(preds_b, y):.6f},{srcc(preds_b, y):.6f},"
            f"{sig.t_stat:.6f},{sig.p_value:.6g},"
            f"{'true' if sig.significant else 'false'}")
    header = "model_a,model_b,plcc_a,srcc_a,plcc_b,srcc_b,t_stat,p_value,significant"
    atomic_write_text(report_path, header + "\n" + line + "\n")
    print(f"compare: t={sig.t_stat:.6f} p={sig.p_value:.6g} "
          f"significant={'yes' if sig.significant else 'no'}")
    print(f"compare: wrote {report_path}")
    return 0


def cmd_hist(cfg: dict) -> int:
    table = load_table(cfg["data"], cfg["format"])
    out_dir = _ensure_out(cfg)
    report_path = os.path.join(out_dir, "hist.csv")
    _write_manifest(out_dir, "hist", cfg, [cfg["data"]], [report_path])

    edges, counts = mos_histogram(table.scores, cfg["bins"])
    lines = ["bin_lo,bin_hi,count"]
    for i, count in enumerate(counts):
        lines.append(f"{edges[i]:.17g},{edges[i + 1]:.17g},{count}")
    atomic_write_text(report_path, "\n".join(lines) + "\n")
    print(f"hist: {len(counts)} bins over [{edges[0]:.6g}, {edges[-1]:.6g}], "
          f"n={int(counts.sum())}")
    print(f"hist: wrote {report_path}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "cross": cmd_cross,
    "pca": cmd_pca,
    "sweep-order": cmd_sweep_order,
    "sweep-layers": cmd_sweep_layers,
    "compare": cmd_compare,
    "hist": cmd_hist,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args, args.command)
        return _COMMANDS[args.command](cfg)
    except (KanregError, OSError) as e:
        print(f"kanreg {args.command}: error: {e}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
