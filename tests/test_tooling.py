"""Guards for the benchmark tooling and the package's dependency rule."""

import ast
import builtins
import collections
import importlib
import importlib.util
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import kanreg
from kanreg import cli
from kanreg.basis import BasisSpec
from kanreg.data import make_synthetic, save_table, split
from kanreg.linalg import Rng
from kanreg.network import init_network
from kanreg.training import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
RUNNER = ROOT / "perfbench" / "run.py"
SELFTEST = ROOT / "perfbench" / "selftest.py"
PACKAGE = ROOT / "src" / "kanreg"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_argv_parses_and_resolves(monkeypatch, tmp_path):
    # The benchmark drives the CLI with fixed argv; a renamed flag or a new
    # check in _resolve must fail here, not only in a benchmark run.
    spec = importlib.util.spec_from_file_location("perfbench_run", RUNNER)
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    out = str(tmp_path / "out")
    argvs = [run.Bench(w, 1, run.TINY, str(tmp_path)).args(out) for w in run.WORKLOADS]
    argvs.append(run.Bench("score-heldout", 1, run.TINY, str(tmp_path))
                 .train_args("fullwidth-chebyshev", out))
    for argv in argvs:
        args = cli.build_parser().parse_args(argv)
        cli._resolve(args, args.command)
    assert not (tmp_path / "out").exists()


def test_tracer_wraps_bindings_that_exist():
    # The tracer replaces each name in the namespace its callers look it up
    # in; a refactor that drops or moves one of those bindings breaks
    # `perfbench/run.py --trace 1` with a KeyError.
    missing = []
    for module_path, attr, _ in _load_tracer().WRAPS:
        first, *rest = module_path.split(".")
        owner = importlib.import_module(f"kanreg.{first}")
        for part in rest:
            owner = getattr(owner, part)
        if not callable(owner.__dict__.get(attr)):
            missing.append(f"{module_path}.{attr}")
    assert missing == []


def test_tracer_attributes_a_training_run_to_each_layer(tmp_path, capsys):
    # The per-layer metrics of `--trace 1` come from wrapped bindings; a
    # refactor that routes around one would read 0 there, so fail here.
    data = tmp_path / "t.bin"
    save_table(make_synthetic(40, 6, 2, 0.0, "quadratic", 1), data)
    tracer = _load_tracer().Tracer()
    tracer.install(kanreg)
    try:
        code = tracer.call("cli", cli.main, [
            "train", "--basis", "chebyshev", "--order", "3", "--tau", "1.0", "--lr", "1e-3",
            "--max-epochs", "2", "--data", str(data), "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert code == 0
    calls = collections.Counter(tracer.names)
    for name in ("training.adam_step", "network.forward", "network.backward",
                 "basis.evaluate", "data.load_table", "network.init",
                 "training.grid_search", "network.save_model", "metrics.evaluate"):
        assert calls[name] >= 1, name


def test_tracer_counts_each_trial_of_a_training_run(tmp_path):
    # The training counters of `--trace 1` read the trial record and
    # DivergedError.epoch; a renamed field would read 0 there, so match them
    # to lr_grid.csv.
    data = tmp_path / "t.bin"
    save_table(make_synthetic(40, 6, 2, 0.0, "quadratic", 1), data)
    out = tmp_path / "out"
    tracer = _load_tracer().Tracer()
    tracer.install(kanreg)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            code = tracer.call("cli", cli.main, [
                "train", "--basis", "taylor", "--order", "2", "--tau", "1.0",
                "--lr-grid", "1e-4,1e-3,1e200", "--max-epochs", "3",
                "--data", str(data), "--out", str(out)])
    finally:
        tracer.uninstall()
    assert code == 0
    rows = [line.split(",") for line in (out / "lr_grid.csv").read_text().splitlines()[1:]]
    assert [row[-1] for row in rows] == ["ok", "ok", "diverged"]
    assert tracer.counts["training.trials"] == len(rows)
    assert tracer.counts["training.trials_failed"] == 1
    # the diverged row holds 0 epochs; the tracer adds the epoch it diverged in
    assert tracer.counts["training.epochs"] == sum(int(row[5]) for row in rows) + 1
    assert tracer.counts["training.best_epochs"] > 0


def test_tracer_counts_one_span_per_training_step(tmp_path):
    # BENCHMARK.json's per-layer counts read these spans: `train` must call
    # forward, backward and adam_step, and forward evaluate_basis, through
    # their module globals once per step (forward once more per epoch).
    table = make_synthetic(40, 6, 2, 0.0, "quadratic", 1)
    splits = split(40, 1)
    net = init_network([6, 5, 3, 1], BasisSpec.taylor(2), Rng(1))
    config = TrainConfig(max_epochs=4, patience=4, batch_size=8, seed=1)
    tracer = _load_tracer().Tracer()
    tracer.install(kanreg)
    try:
        result = kanreg.training.grid_search(net, table, splits, config, grid=(1e-3, 1e-2))
    finally:
        tracer.uninstall()
    epochs = sum(row.epochs_run for row in result.rows)
    steps = epochs * math.ceil(splits.train.size / config.batch_size)
    calls = collections.Counter(tracer.names)
    assert calls["training.adam_step"] == calls["network.backward"] == steps
    assert calls["network.forward"] == steps + epochs
    assert calls["basis.evaluate"] == (steps + epochs) * len(net.layers)


def test_package_imports_only_numpy_and_the_stdlib():
    # NumPy is the only runtime dependency (pyproject.toml); an import of
    # anything else would break installs that have nothing more.
    allowed = set(sys.stdlib_module_names) | {"numpy", "kanreg"}
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert outside == []


def test_package_raises_only_its_own_errors():
    # Every library failure is a KanregError (errors.py), which the CLI maps to
    # exit code 1; a builtin exception raised in the package would escape that.
    # Allowed: bare re-raises, and the ArgumentTypeError argparse prints.
    allowed = {("cli.py", "_parse_u64", "argparse.ArgumentTypeError")}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        owner = {}  # raise node -> innermost enclosing function
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func)
                             if isinstance(node, ast.Raise))
        for node, func in owner.items():
            if node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(exc)
            builtin = getattr(builtins, name, None)
            if ((isinstance(builtin, type) and issubclass(builtin, BaseException))
                    or "." in name) and (path.name, func, name) not in allowed:
                found.append(f"{path.name}:{node.lineno} {func} raises {name}")
    assert found == []


def test_benchmark_selftest_passes():
    # The harness writes its tables with save_table and runs every workload
    # at toy size; a change to either side that breaks a run fails here.
    proc = subprocess.run([sys.executable, str(SELFTEST)], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_package_reads_no_environment_variables():
    # Every setting is a flag or a config key that the manifest records; a
    # variable read inside the package would be a setting no run records.
    hits = [f"{path.name}:{n}" for path in sorted(PACKAGE.glob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
            if "environ" in line or "getenv" in line]
    assert hits == []
