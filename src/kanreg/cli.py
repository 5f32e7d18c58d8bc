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

from .basis import FAMILIES, FAMILY_FIELDS, BasisSpec
from .data import (FeatureTable, apply_standardizer, atomic_write_text,
                   fit_standardizer, load_table, mos_histogram, split, utf8_error)
from .errors import (FormatError, InsufficientDataError, KanregError, ParameterError,
                     ParseError)
from .linalg import Rng
from .metrics import EvalReport, evaluate, paired_t_test, plcc, srcc
from .network import (ModelBundle, auto_configure, init_mlp, init_network,
                      load_model, mlp_dims, predict, save_model, six_layer_dims)
from .pca import fit as fit_pca
from .pca import select_k
from .pca import transform as pca_transform
from .training import DEFAULT_LR_GRID, TrainConfig, check_splits, grid_search

_SEED_MASK = (1 << 64) - 1
_TAU_CHOICES = (0.90, 0.95, 1.00)
_MAX_BINS = 1_000_000  # --bins ceiling: the histogram allocates per bin (10**12 bins: 7 TiB)
REPORT_HEADER = "dataset,basis,tau,k,layers,lr,plcc,srcc,seconds,epochs"


def _parse_u64(text: str) -> int:
    """A seed in [0, 2**64). Raises ArgumentTypeError, whose text argparse prints."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}") from None
    if not 0 <= value <= _SEED_MASK:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {text}")
    return value


# Every flag, once: key -> (converter, default, choices, help). The key is the
# --config key and, with '-' for '_', the flag name. Converter and choices
# check flags and config values alike. --tau is checked in _resolve instead,
# so a bad ratio is an error exit rather than a usage exit.
_FLAGS = {
    "data": (str, None, None, "feature table (CSV or binary)"),
    "format": (str, None, ("csv", "bin"), "table format; default infers from suffix"),
    "seed": (_parse_u64, 42, None, "master RNG seed"),
    "out": (str, "kanreg_out", None, "output directory (default kanreg_out)"),
    "timing": (str, "off", ("off", "wall"),
               "'wall' records wall seconds in CSVs; default off keeps them 0"),
    "basis": (str, "taylor", FAMILIES + ("wavelet", "mlp"), None),
    "order": (int, 2, None, "expansion order / max degree"),
    "harmonics": (int, 4, None, "fourier harmonics"),
    "grid_size": (int, 5, None, "bspline and bsrbf grid cells"),
    "degree": (int, 3, None, "bspline and bsrbf degree"),
    "alpha": (float, 1.0, None, "jacobi alpha"),
    "beta": (float, 1.0, None, "jacobi beta"),
    "tau": (float, 0.95, None, "PCA variance ratio: 0.90, 0.95, or 1.0"),
    "lr": (float, None, None, "single learning rate (skips the grid)"),
    "lr_grid": (str, "default", None, "'default' or comma-separated rates"),
    "max_epochs": (int, 500, None, None),
    "patience": (int, 20, None, None),
    "batch": (int, 128, None, None),
    "l1": (float, 0.0, None, "L1 penalty on edge coefficients"),
    "model": (str, None, None, "model.json from a train run"),
    "model_a": (str, None, None, None),
    "model_b": (str, None, None, None),
    "split": (str, "all", ("all", "test"),
              "evaluate on the whole table or its seeded test split"),
    "taus": (str, "0.90,0.95,1.00", None, "comma-separated variance ratios"),
    "orders": (str, "1,2,3,4", None, "comma-separated orders (default 1,2,3,4)"),
    "bins": (int, 100, None, None),
}

# The list-valued flags, parsed by _resolve so that a malformed or out-of-range
# list fails before the output directory is made: key -> (converter of one
# entry, range test, the range in words).
_LIST_FLAGS = {"lr_grid": (float, lambda v: v > 0.0, "positive"),
               "taus": (float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
               "orders": (int, lambda v: v >= 1, ">= 1")}

_COMMON_KEYS = ("data", "format", "seed", "out", "timing")
_TRAIN_KEYS = _COMMON_KEYS + (
    "basis", "order", "harmonics", "grid_size", "degree", "alpha", "beta",
    "tau", "lr", "lr_grid", "max_epochs", "patience", "batch", "l1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kanreg",
        description="KAN regression experiments: train, evaluate, and sweep.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key=value file; flags override it")
        for key in keys:
            convert, _, choices, flag_help = _FLAGS[key]
            p.add_argument("--" + key.replace("_", "-"), type=convert,
                           choices=choices, help=flag_help)
    return parser


def _read_config_file(path: str, keys: tuple[str, ...], command: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ParameterError(f"cannot read config file {path}: {e}") from None
    except UnicodeDecodeError:
        raise utf8_error(path) from None
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
        if "\0" in value:  # argv cannot hold one, and open() raises ValueError on it
            raise ParseError(f"NUL byte in the value of {key!r}", line=lineno)
        if key not in keys:
            raise ParameterError(
                f"config key {key!r} is not valid for {command!r}")
        convert, _, choices, _ = _FLAGS[key]
        try:
            values[key] = convert(value)
        except ValueError:
            raise ParseError(f"bad value for {key!r}: {value!r}",
                             line=lineno) from None
        except argparse.ArgumentTypeError as e:
            raise ParseError(f"bad value for {key!r}: {e}", line=lineno) from None
        if choices is not None and values[key] not in choices:
            raise ParseError(f"bad value for {key!r}: {value!r} is not one of "
                             f"{', '.join(choices)}", line=lineno)
    return values


def _resolve(args: argparse.Namespace, command: str) -> dict:
    keys = _COMMANDS[command][2]
    resolved = {k: _FLAGS[k][1] for k in keys}
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
    if "basis" in resolved:  # a training command: its spec and schedule must build
        if resolved["basis"] == "wavelet":
            resolved["basis"] = "wavelet_mexican_hat"
        for attr, _ in FAMILY_FIELDS.get(resolved["basis"], ()):  # order 0: a constant network
            if attr in ("order", "harmonics") and resolved[attr] < 1:
                raise ParameterError(f"--{attr} must be >= 1, got {resolved[attr]}")
        _basis_spec(resolved)
        _train_config(resolved)
    if not 1 <= resolved.get("bins", 1) <= _MAX_BINS:
        raise ParameterError(f"--bins must be in [1, {_MAX_BINS}], got {resolved['bins']}")
    if resolved.get("lr") is not None and not resolved["lr"] > 0.0:  # NaN too
        raise ParameterError(f"--lr must be positive, got {resolved['lr']}")
    for key, rule in _LIST_FLAGS.items():
        if key == "lr_grid" and resolved.get(key) == "default":
            resolved[key] = DEFAULT_LR_GRID
        elif key in resolved:
            resolved[key] = _parse_list(resolved[key], "--" + key.replace("_", "-"), rule)
    return resolved


def _parse_list(text: str, flag: str, rule) -> tuple:
    convert, in_range, range_words = rule
    try:
        values = tuple(convert(part) for part in text.split(",") if part.strip())
    except ValueError:
        kind = "integers" if convert is int else "numbers"
        raise ParameterError(f"{flag} expects comma-separated {kind}, got {text!r}") from None
    if not values:
        raise ParameterError(f"{flag} must not be empty")
    bad = [v for v in values if not in_range(v)]
    if bad:
        raise ParameterError(f"{flag} entries must be {range_words}, got {bad[0]}")
    return values


def _basis_spec(cfg: dict) -> BasisSpec | None:
    """The spec the CLI keys in ``cfg`` select; None means the MLP baseline."""
    family = cfg["basis"]
    if family == "mlp":
        return None
    return BasisSpec(family=family, **{attr: cfg[attr] for attr, _ in FAMILY_FIELDS[family]})


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(max_epochs=cfg["max_epochs"], patience=cfg["patience"],
                       batch_size=cfg["batch"], l1_penalty=cfg["l1"],
                       seed=(cfg["seed"] + 2) & _SEED_MASK)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: str, command: str, cfg: dict,
                    input_paths: list[str], outputs: list[str]) -> None:
    doc = {
        "command": command,
        "config": dict(sorted(cfg.items())),
        "inputs": {p: _sha256(p) for p in input_paths},
        "outputs": sorted(outputs),
        "created_unix": round(time.time(), 3),
    }
    atomic_write_text(os.path.join(out_dir, "manifest.json"),
                      json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _start(cfg: dict, command: str, outputs: tuple[str, ...],
           inputs: tuple[str, ...] = ("data",)) -> tuple[FeatureTable, list[str]]:
    """Load the table, make the output directory and write the manifest.

    Returns the table and the output paths.
    """
    table = load_table(cfg["data"], cfg["format"])
    # a table too small for the split a command fits on fails before the directory
    if "basis" in cfg:  # a training command
        check_splits(split(table.n, cfg["seed"]))
    elif command == "pca" and (n_train := split(table.n, cfg["seed"]).train.size) < 2:
        raise InsufficientDataError(
            f"pca fits on the train split, which needs 2 rows, got {n_train}; "
            f"the 70/15/15 split needs a table of at least 5 rows")
    out_dir = cfg["out"]
    os.makedirs(out_dir, exist_ok=True)
    paths = [os.path.join(out_dir, name) for name in outputs]
    _write_manifest(out_dir, command, cfg, [cfg[key] for key in inputs], paths)
    return table, paths


def _write_csv(path: str, header: str, rows) -> None:
    atomic_write_text(path, "\n".join([header, *rows]) + "\n")


def _layers_text(dims) -> str:
    return "-".join(str(d) for d in dims)


def _csv_seconds(cfg: dict, seconds: float) -> float:
    return seconds if cfg["timing"] == "wall" else 0.0


def _report_row(dataset: str, meta: dict, rep: EvalReport, seconds: float) -> str:
    return (f"{dataset},{meta['basis']},{meta['tau']:.2f},{meta['k']},{meta['layers']},"
            f"{meta['lr']:g},{rep.plcc:.6f},{rep.srcc:.6f},{seconds:.3f},{meta['epochs']}")


def _finish_sweep(command: str, path: str, header: str, rows: list[str],
                  failures: list[str]) -> int:
    _write_csv(path, header, rows)
    print(f"{command}: wrote {path}")
    for message in failures:
        print(f"{command}: FAILED {message}", file=sys.stderr)
    return 1 if failures else 0


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


def _train_and_score(table: FeatureTable, prepared, cfg: dict,
                     spec: BasisSpec | None, dims):
    """Grid-search a network on ``prepared`` features and score its test split.

    The bundle carries the network, the fitted transforms and the run's
    meta, and is scored on the raw test rows. Returns the search, the
    bundle and the test report.
    """
    splits, standardizer, pca_model, scaler, feats = prepared
    work = FeatureTable(name=table.name, features=feats, scores=table.scores)

    def make_net():  # each rate's network, from the same seed
        rng = Rng((cfg["seed"] + 1) & _SEED_MASK)
        return init_mlp(dims, rng) if spec is None else init_network(dims, spec, rng)

    grid = cfg["lr_grid"] if cfg["lr"] is None else (cfg["lr"],)
    search = grid_search(make_net, work, splits, _train_config(cfg), grid)
    best = search.best_result
    meta = {
        "dataset": table.name, "basis": cfg["basis"],
        "tau": cfg["tau"] if spec is not None else 1.0, "k": feats.shape[1],
        "layers": _layers_text(dims), "lr": search.best_lr,
        "epochs": best.epochs_run, "seed": cfg["seed"],
    }
    bundle = ModelBundle(net=search.best_net, standardizer=standardizer, pca=pca_model,
                         feature_scaler=scaler, target_mean=best.target_mean,
                         target_std=best.target_std, meta=meta)
    return search, bundle, evaluate(bundle, table, splits.test)


def cmd_train(cfg: dict) -> int:
    table, (model_path, report_path, grid_path) = _start(
        cfg, "train", ("model.json", "report.csv", "lr_grid.csv"))
    spec = _basis_spec(cfg)
    prepared = _prepare_features(table, cfg, use_pca=spec is not None)
    k = prepared[-1].shape[1]
    dims = mlp_dims(k) if spec is None else auto_configure(k, 1)
    search, bundle, report = _train_and_score(table, prepared, cfg, spec, dims)
    save_model(model_path, bundle)
    best = search.best_result

    _write_csv(grid_path, "lr,plcc,srcc,val_loss,seconds,epochs,status", (
        f"{row.learning_rate:g},{row.plcc:.6f},{row.srcc:.6f},"
        f"{row.best_val_loss:.8g},{_csv_seconds(cfg, row.wall_seconds):.3f},{row.epochs_run},"
        # a failed trial that ran no epoch diverged; one that trained has undefined correlations
        f"{'ok' if row.error is None else 'undefined' if row.epochs_run else 'diverged'}"
        for row in search.rows))
    meta = bundle.meta
    _write_csv(report_path, REPORT_HEADER,
               [_report_row(table.name, meta, report, _csv_seconds(cfg, best.wall_seconds))])

    print(f"train: {table.name} basis={meta['basis']} tau={meta['tau']:.2f} k={k} "
          f"layers={meta['layers']} lr={meta['lr']:g}")
    print(f"train: test PLCC={report.plcc:.6f} SRCC={report.srcc:.6f} "
          f"epochs={best.epochs_run} train_seconds={best.wall_seconds:.3f} "
          f"grid_seconds={sum(row.wall_seconds for row in search.rows):.3f}")
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
            except argparse.ArgumentTypeError:
                raise FormatError(f"{flag} meta.seed is malformed: {seed!r}") from None
    distinct = sorted(set(seeds.values()))
    if cfg["seed"] is None:
        if len(distinct) > 1 and cfg["split"] == "test":
            named = " and ".join(f"{flag} with seed {seed}" for flag, seed in seeds.items())
            raise ParameterError(f"{command}: the models were trained {named}; "
                                 f"pass --seed to choose the test split")
        cfg["seed"] = distinct[0] if len(distinct) == 1 else _FLAGS["seed"][1]
    elif cfg["split"] == "test":
        for seed in distinct:
            if seed != cfg["seed"]:
                print(f"{command}: warning: --seed {cfg['seed']} differs from the model's "
                      f"training seed {seed}; the test split will not be the model's "
                      f"held-out rows", file=sys.stderr)


def _scored_rows(table: FeatureTable, cfg: dict) -> FeatureTable:
    """The rows ``--split`` selects: the seeded test split, or the table itself."""
    if cfg["split"] == "all":
        return table  # every row, without copying the feature matrix
    idx = split(table.n, cfg["seed"]).test
    return FeatureTable(name=table.name, features=table.features[idx],
                        scores=table.scores[idx])


# The meta fields a cross row shows: key -> (converter, value when absent).
_ROW_META = {"basis": (str, "unknown"), "tau": (float, 1.0), "k": (int, None),
             "layers": (str, ""), "lr": (float, 0.0), "epochs": (int, 0)}


def cmd_cross(cfg: dict) -> int:
    if cfg.get("model") is None:
        raise ParameterError("--model is required for cross")
    bundle = load_model(cfg["model"])
    _seed_from_models(cfg, "cross", {"model": bundle})
    table, (report_path,) = _start(cfg, "cross", ("cross.csv",), ("data", "model"))

    meta = {}
    for key, (convert, default) in _ROW_META.items():
        value = bundle.meta.get(key, table.d if key == "k" else default)
        try:
            meta[key] = convert(value)
        except (TypeError, ValueError, OverflowError):
            raise FormatError(f"meta.{key} is malformed: {value!r}") from None
    report = evaluate(bundle, _scored_rows(table, cfg))
    _write_csv(report_path, REPORT_HEADER, [_report_row(table.name, meta, report, 0.0)])
    print(f"cross: {table.name} n={report.n} PLCC={report.plcc:.6f} "
          f"SRCC={report.srcc:.6f}")
    print(f"cross: wrote {report_path}")
    return 0


def cmd_pca(cfg: dict) -> int:
    table, (report_path,) = _start(cfg, "pca", ("pca_report.csv",))

    taus = cfg["taus"]
    d = table.d
    # one spectrum serves every tau; fit at the smallest requested ratio
    pca_model = _prepare_features(table, dict(cfg, tau=min(taus)), use_pca=True)[2]
    rows = []
    for tau in taus:
        k = d if tau >= 1.0 else select_k(pca_model.eigenvalues, tau)
        rows.append(f"{tau:.2f},{k},{100.0 * (1.0 - k / d):.4f}")
    _write_csv(report_path, "tau,k,reduction_pct", rows)
    print("pca: " + "; ".join(rows))
    print(f"pca: wrote {report_path}")
    return 0


# Families with a field that --order (or --harmonics) sets.
_ORDER_FAMILIES = {family for family, fields in FAMILY_FIELDS.items()
                   if any(attr in ("order", "harmonics") for attr, _ in fields)}


def _sweep(command: str, table: FeatureTable, trials) -> tuple[list, list[str]]:
    """Train and score each ``(label, cfg, prepared, spec, dims)`` trial in turn.

    Returns one ``(plcc, srcc, seconds)`` per trial, all NaN for a trial that
    raised a KanregError or ran out of memory, and one failure message per
    such trial, so the finished rows still reach the CSV.
    """
    results, failures = [], []
    for label, cfg, prepared, spec, dims in trials:
        try:
            search, _, report = _train_and_score(table, prepared, cfg, spec, dims)
        except (KanregError, MemoryError) as e:
            failures.append(f"{label}: {str(e) or 'out of memory'}")
            results.append((float("nan"),) * 3)
            continue
        seconds = search.best_result.wall_seconds
        results.append((report.plcc, report.srcc, seconds))
        print(f"{command}: {label} PLCC={report.plcc:.6f} SRCC={report.srcc:.6f} "
              f"seconds={seconds:.3f}")
    return results, failures


def cmd_sweep_order(cfg: dict) -> int:
    if cfg["basis"] not in _ORDER_FAMILIES:
        raise ParameterError(
            f"sweep-order needs an order-parameterized basis, got {cfg['basis']!r}")
    table, (report_path,) = _start(cfg, "sweep-order", ("sweep_order.csv",))

    prepared = _prepare_features(table, cfg, use_pca=True)
    dims = auto_configure(prepared[-1].shape[1], 1)
    orders = cfg["orders"]
    results, failures = _sweep("sweep-order", table, [
        (f"order={order}", cfg, prepared,
         _basis_spec(dict(cfg, order=order, harmonics=order)), dims) for order in orders])
    rows = [f"{order},{pl:.6f},{sr:.6f},{seconds:.3f}"
            for order, (pl, sr, seconds) in zip(orders, results)]
    return _finish_sweep("sweep-order", report_path, "order,plcc,srcc,seconds", rows, failures)


_LAYER_GRID = ((6, 1.00), (4, 1.00), (4, 0.95))


def cmd_sweep_layers(cfg: dict) -> int:
    spec = _basis_spec(cfg)
    if spec is None:
        raise ParameterError("sweep-layers applies to KAN bases, not mlp")
    table, (report_path,) = _start(cfg, "sweep-layers", ("sweep_layers.csv",))

    # the features depend on tau, not on the depth
    prepared = {tau: _prepare_features(table, dict(cfg, tau=tau), use_pca=True)
                for tau in dict.fromkeys(tau for _, tau in _LAYER_GRID)}
    trials = []
    for depth, tau in _LAYER_GRID:
        k = prepared[tau][-1].shape[1]
        dims = six_layer_dims(k) if depth == 6 else auto_configure(k, 1)
        trials.append((f"L={depth} tau={tau:.2f} k={k}", dict(cfg, tau=tau),
                       prepared[tau], spec, dims))
    results, failures = _sweep("sweep-layers", table, trials)
    baseline = results[0][2]  # a NaN time gives NaN speedups
    rows = [f"{depth},{tau:.2f},{pl:.6f},{sr:.6f},{seconds:.3f},"
            f"{baseline / max(seconds, 1e-9):.2f}"
            for (depth, tau), (pl, sr, seconds) in zip(_LAYER_GRID, results)]
    return _finish_sweep("sweep-layers", report_path,
                         "layers,tau,plcc,srcc,seconds,speedup", rows, failures)


def cmd_compare(cfg: dict) -> int:
    if cfg.get("model_a") is None or cfg.get("model_b") is None:
        raise ParameterError("compare needs --model-a and --model-b")
    bundle_a = load_model(cfg["model_a"])
    bundle_b = load_model(cfg["model_b"])
    _seed_from_models(cfg, "compare", {"model-a": bundle_a, "model-b": bundle_b})
    table, (report_path,) = _start(cfg, "compare", ("compare.csv",),
                                   ("data", "model_a", "model_b"))

    rows = _scored_rows(table, cfg)
    y = rows.scores
    preds_a = predict(bundle_a, rows.features)
    preds_b = predict(bundle_b, rows.features)
    sig = paired_t_test(np.abs(preds_a - y), np.abs(preds_b - y))
    name_a = str(bundle_a.meta.get("basis", "model_a"))
    name_b = str(bundle_b.meta.get("basis", "model_b"))
    line = (f"{name_a},{name_b},{plcc(preds_a, y):.6f},{srcc(preds_a, y):.6f},"
            f"{plcc(preds_b, y):.6f},{srcc(preds_b, y):.6f},"
            f"{sig.t_stat:.6f},{sig.p_value:.6g},"
            f"{'true' if sig.significant else 'false'}")
    _write_csv(report_path, "model_a,model_b,plcc_a,srcc_a,plcc_b,srcc_b,t_stat,p_value,"
               "significant", [line])
    print(f"compare: t={sig.t_stat:.6f} p={sig.p_value:.6g} "
          f"significant={'yes' if sig.significant else 'no'}")
    print(f"compare: wrote {report_path}")
    return 0


def cmd_hist(cfg: dict) -> int:
    table, (report_path,) = _start(cfg, "hist", ("hist.csv",))

    edges, counts = mos_histogram(table.scores, cfg["bins"])
    rows = (f"{lo:.17g},{hi:.17g},{count}" for lo, hi, count in zip(edges, edges[1:], counts))
    _write_csv(report_path, "bin_lo,bin_hi,count", rows)
    print(f"hist: {len(counts)} bins over [{edges[0]:.6g}, {edges[-1]:.6g}], "
          f"n={int(counts.sum())}")
    print(f"hist: wrote {report_path}")
    return 0


# command -> (handler, help, the keys of _FLAGS it takes)
_COMMANDS = {
    "train": (cmd_train, "fit one model and report test metrics", _TRAIN_KEYS),
    "cross": (cmd_cross, "evaluate a saved model on another table",
              _COMMON_KEYS + ("model", "split")),
    "pca": (cmd_pca, "report retained dimensions per variance ratio",
            _COMMON_KEYS + ("taus",)),
    "sweep-order": (cmd_sweep_order, "train once per expansion order",
                    _TRAIN_KEYS + ("orders",)),
    "sweep-layers": (cmd_sweep_layers, "depth/reduction timing grid", _TRAIN_KEYS),
    "compare": (cmd_compare, "paired significance test of two models",
                _COMMON_KEYS + ("model_a", "model_b", "split")),
    "hist": (cmd_hist, "score histogram as CSV", _COMMON_KEYS + ("bins",)),
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve(args, args.command)
        return _COMMANDS[args.command][0](cfg)
    except (KanregError, OSError, MemoryError) as e:
        print(f"kanreg {args.command}: error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
