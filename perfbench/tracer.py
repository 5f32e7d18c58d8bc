"""In-process span tracer for the kanreg package.

`Tracer.install` replaces package functions at the names their callers look
up (``kanreg.training.adam_step`` is what ``train`` calls, ``kanreg.cli.
save_model`` is what the CLI calls, and so on) with wrappers that record one
span per call: name, start, end and the index of the enclosing span. Spans
stay in memory until the run ends. A layer's self time is its spans'
durations minus the time covered by their child spans, so the self times of
all spans under the root add up to the root span.
"""

from __future__ import annotations

import csv
import math
import os
import time

# (module under kanreg, attribute, span name). One span name may cover several
# bindings of the same function, e.g. `forward` as imported by training.py and
# as called by network.predict.
WRAPS = (
    ("cli", "_write_manifest", "cli.manifest"),
    ("cli", "load_table", "data.load_table"),
    ("cli", "fit_standardizer", "data.standardize"),
    ("cli", "apply_standardizer", "data.standardize"),
    ("cli", "fit_pca", "pca.fit"),
    ("cli", "pca_transform", "pca.transform"),
    ("cli", "init_network", "network.init"),
    ("cli", "grid_search", "training.grid_search"),
    ("cli", "save_model", "network.save_model"),
    ("cli", "load_model", "network.load_model"),
    ("cli", "evaluate", "metrics.evaluate"),
    ("training", "train", "training.train"),
    ("training", "forward", "network.forward"),
    ("training", "backward", "network.backward"),
    ("training", "adam_step", "training.adam_step"),
    ("network", "forward", "network.forward"),
    ("network", "evaluate_basis", "basis.evaluate"),
    ("network", "apply_standardizer", "data.standardize"),
    ("network", "pca_transform", "pca.transform"),
    ("metrics", "predict", "network.predict"),
    ("pca", "sym_eig", "linalg.sym_eig"),
    ("linalg.Rng", "uniforms", "linalg.rng_uniforms"),
    ("linalg.Rng", "shuffle", "linalg.rng_shuffle"),
)

ROOT = "cli"

# Span name -> which per-call statistics are reported besides self time.
REPORTED = {
    "training.adam_step": ("calls", "ms_p50", "ms_p90"),
    "network.backward": ("calls", "ms_p50", "ms_p90"),
    "network.forward": ("calls",),
    "basis.evaluate": ("calls",),
    "training.train": (),
    "linalg.rng_shuffle": (),
    "linalg.sym_eig": ("calls",),
    "pca.fit": (),
    "pca.transform": (),
    "linalg.rng_uniforms": (),
    "network.save_model": (),
    "network.load_model": (),
    "data.load_table": (),
    "data.standardize": (),
    "network.predict": (),
    "metrics.evaluate": (),
    "cli.manifest": (),
    ROOT: (),
}

COUNTERS = ("training.trials", "training.trials_failed", "training.epochs",
            "linalg.sym_eig.n", "pca.k", "linalg.rng_draws",
            "network.model_bytes", "data.bytes_read")


def _count_train(counts, args, result, exc):
    counts["training.trials"] += 1
    if exc is not None:
        counts["training.trials_failed"] += 1
        counts["training.epochs"] += getattr(exc, "epoch", None) or 0
    else:
        counts["training.epochs"] += result.epochs_run
        counts["training.epochs_ok"] += result.epochs_run
        counts["training.best_epochs"] += result.best_epoch


def _count_sym_eig(counts, args, result, exc):
    counts["linalg.sym_eig.n"] = max(counts["linalg.sym_eig.n"], len(args[0]))


def _count_pca(counts, args, result, exc):
    if result is not None:
        counts["pca.k"] = result.k


def _count_draws(counts, args, result, exc):
    counts["linalg.rng_draws"] += args[1]


def _count_model_bytes(counts, args, result, exc):
    if exc is None:
        counts["network.model_bytes"] = os.path.getsize(args[0])


def _count_bytes_read(counts, args, result, exc):
    if exc is None:
        counts["data.bytes_read"] += os.path.getsize(args[0])


HOOKS = {
    "training.train": _count_train,
    "linalg.sym_eig": _count_sym_eig,
    "pca.fit": _count_pca,
    "linalg.rng_uniforms": _count_draws,
    "network.save_model": _count_model_bytes,
    "data.load_table": _count_bytes_read,
}


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class Tracer:
    """Records spans from wrapped kanreg functions; single-threaded."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts = dict.fromkeys(COUNTERS + ("training.epochs_ok",
                                                "training.best_epochs"), 0)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        result = exc = None
        self.starts.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as e:
            exc = e
            raise
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()
            hook = HOOKS.get(name)
            if hook is not None:
                hook(self.counts, args, result, exc)

    def install(self, package):
        """Wrap every binding in WRAPS; `uninstall` puts the originals back."""
        for module_path, attr, name in WRAPS:
            owner = package
            for part in module_path.split("."):
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrapper(name, original))
            self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics named `<span>.self_s`, `.calls`, `.ms_p50`, ..."""
        own = self.self_times()
        self_s: dict[str, float] = {}
        durations: dict[str, list[float]] = {}
        for name, start, end, t in zip(self.names, self.starts, self.ends, own):
            self_s[name] = self_s.get(name, 0.0) + t
            durations.setdefault(name, []).append(end - start)
        metrics: dict[str, float] = {}
        for name, stats in REPORTED.items():
            calls = sorted(durations.get(name, []))
            metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
            for stat in stats:
                if stat == "calls":
                    metrics[f"{name}.calls"] = len(calls)
                elif stat == "ms_p50":
                    metrics[f"{name}.ms_p50"] = 1000.0 * _percentile(calls, 0.5)
                else:
                    metrics[f"{name}.ms_p90"] = 1000.0 * _percentile(calls, 0.9)
        for key in COUNTERS:
            metrics[key] = self.counts[key]
        epochs_ok = self.counts["training.epochs_ok"]
        metrics["training.useful_epoch_ratio"] = (
            self.counts["training.best_epochs"] / epochs_ok if epochs_ok else 0.0)
        root = sum(durations.get(ROOT, []))
        # Time under the root that some wrapper other than the root claims; a
        # missing wrapper leaves its time in cli.self_s and lowers this.
        metrics["trace.coverage"] = (root - self_s.get(ROOT, 0.0)) / root if root else 0.0
        return metrics

    def write_spans(self, path):
        """Write spans as CSV: index, name, start_s, end_s, parent."""
        t0 = min(self.starts) if self.starts else 0.0
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "start_s", "end_s", "parent"))
            for i, (name, start, end, parent) in enumerate(
                    zip(self.names, self.starts, self.ends, self.parents)):
                out.writerow((i, name, f"{start - t0:.9f}", f"{end - t0:.9f}", parent))
