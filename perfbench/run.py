"""Benchmark of the kanreg command line on generated tables.

Run from the repository root, which must hold the package under src/:

    python3 perfbench/run.py --workload reduced-taylor --seed 1 --seconds 30 --trace 0

--trace 0 sets the workload up, then runs the `kanreg` CLI as child
processes for about --seconds and reports the end-to-end metrics (medians
over the runs). --trace 1 runs the same command three times in this process,
plain, with every package layer wrapped (tracer.py), and plain again, and
reports per-layer metrics. Both check the CLI's outputs. The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines above it give the machine record and every metric in
words. Working files go to .perfbench_work/ under the current directory.
perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

WORKLOADS = ("reduced-taylor", "fullwidth-chebyshev", "score-heldout")
TRAINING = ("reduced-taylor", "fullwidth-chebyshev")
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MB = 1e6


@dataclass(frozen=True)
class Sizes:
    train_rows: int        # the first rows of the table; the CLI splits them 70/15/15
    heldout_rows: int      # the rest, scored by score-heldout
    dim: int
    rank: int
    taylor_epochs: int     # reduced-taylor: --max-epochs and --patience
    chebyshev_epochs: int  # fullwidth-chebyshev and the score-heldout model
    setup_repeats: int     # table generation + file writes, median reported
    floors: dict           # workload -> minimum PLCC and SRCC (both must be finite)


FULL = Sizes(train_rows=500, heldout_rows=2000, dim=2048, rank=8,
             taylor_epochs=150, chebyshev_epochs=3, setup_repeats=7,
             # A few full-width epochs leave PLCC anywhere from about 0 to 0.85
             # by table, so only reduced-taylor has a floor above -1.
             floors={"reduced-taylor": 0.8, "fullwidth-chebyshev": -1.0,
                     "score-heldout": -1.0})
# A few seconds end to end; used by selftest.py to exercise the harness.
TINY = Sizes(train_rows=60, heldout_rows=40, dim=24, rank=3,
             taylor_epochs=3, chebyshev_epochs=2, setup_repeats=2,
             floors=dict.fromkeys(WORKLOADS, -1.0))


class Bench:
    """One benchmark run: set-up, CLI invocations, output checks."""

    def __init__(self, workload: str, seed: int, sizes: Sizes, root: str):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.work = os.path.join(root, ".perfbench_work", workload)
        self.train_path = os.path.join(self.work, "train.bin")
        self.heldout_path = os.path.join(self.work, "heldout.csv")
        self.model_dir = os.path.join(self.work, "model")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.problems: list[str] = []
        self.digests: set[str] = set()

    # -- set-up -------------------------------------------------------------

    def write_inputs(self) -> None:
        """One table per seed; its first rows train, the rest are held out.

        make_synthetic draws a new loading matrix on every call, so held-out
        rows must come from the same call as the training rows.
        """
        from kanreg.data import FeatureTable, make_synthetic, save_table
        s = self.sizes
        table = make_synthetic(s.train_rows + s.heldout_rows, s.dim, s.rank,
                               0.0, "quadratic", self.seed)
        rows = s.train_rows
        save_table(FeatureTable("train", table.features[:rows], table.scores[:rows]),
                   self.train_path)
        if self.workload == "score-heldout":
            save_table(FeatureTable("heldout", table.features[rows:], table.scores[rows:]),
                       self.heldout_path)

    def set_up(self) -> float:
        """Write the inputs (median of several passes); train the scored model."""
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        repeats = 1 if self.workload == "score-heldout" else self.sizes.setup_repeats
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self.write_inputs()
            times.append(time.perf_counter() - start)
        seconds = statistics.median(times)
        if self.workload == "score-heldout":
            start = time.perf_counter()
            code, _, _ = self.spawn(self.train_args("fullwidth-chebyshev", self.model_dir))
            seconds += time.perf_counter() - start
            if code != 0 or self.check("fullwidth-chebyshev", self.model_dir) is None:
                raise RuntimeError(f"set-up training failed (exit {code}); "
                                   f"see {self.model_dir}/stdout.txt")
        return seconds

    # -- invocations --------------------------------------------------------

    def train_args(self, workload: str, out: str) -> list[str]:
        if workload == "reduced-taylor":
            epochs = str(self.sizes.taylor_epochs)
            flags = ["--basis", "taylor", "--order", "2", "--tau", "0.95",
                     "--batch", "16", "--l1", "1e-3",
                     "--max-epochs", epochs, "--patience", epochs]
        else:
            flags = ["--basis", "chebyshev", "--order", "3", "--tau", "1.0",
                     "--lr", "1e-3", "--max-epochs", str(self.sizes.chebyshev_epochs)]
        return ["train", *flags, "--data", self.train_path, "--seed", str(self.seed),
                "--timing", "wall", "--out", out]

    def args(self, out: str) -> list[str]:
        if self.workload in TRAINING:
            return self.train_args(self.workload, out)
        return ["cross", "--data", self.heldout_path,
                "--model", os.path.join(self.model_dir, "model.json"),
                "--split", "all", "--seed", str(self.seed), "--out", out]

    def spawn(self, argv: list[str]) -> tuple[int, float, float]:
        """Run the CLI as a child; returns (exit code, wall s, peak RSS MB)."""
        out = argv[argv.index("--out") + 1]
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        with open(os.path.join(out, "stdout.txt"), "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "kanreg.cli", *argv],
                                    stdout=log, stderr=subprocess.STDOUT, env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss * 1024 / MB

    def run_in_process(self, out: str, tracer=None) -> tuple[int, float]:
        """Run the CLI's main() here, optionally traced; returns (code, s)."""
        import kanreg
        from kanreg import cli
        argv = self.args(out)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        with open(os.path.join(out, "stdout.txt"), "w", encoding="utf-8") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            if tracer is None:
                start = time.perf_counter()
                code = cli.main(argv)
                return code, time.perf_counter() - start
            tracer.install(kanreg)
            try:
                start = time.perf_counter()
                code = tracer.call("cli", cli.main, argv)
                return code, time.perf_counter() - start
            finally:
                tracer.uninstall()

    # -- output checks ------------------------------------------------------

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def check(self, workload: str, out: str) -> dict | None:
        """Check one invocation's files; returns its figures or None."""
        training = workload in TRAINING
        report = os.path.join(out, "report.csv" if training else "cross.csv")
        rows = _csv_rows(report)
        if rows is None or len(rows) != 1:
            self.fail(f"{report}: expected one data row")
            return None
        row = rows[0]
        quality = {"plcc": float(row["plcc"]), "srcc": float(row["srcc"])}
        floor = self.sizes.floors[workload]
        for key, value in quality.items():
            if not (math.isfinite(value) and value >= floor):
                self.fail(f"{workload}: {key} {value} is below the floor {floor}")
                return None
        if not training:
            return quality
        grid = _csv_rows(os.path.join(out, "lr_grid.csv"))
        expected = 8 if workload == "reduced-taylor" else 1
        if grid is None or len(grid) != expected:
            self.fail(f"{out}/lr_grid.csv: expected {expected} rows")
            return None
        ok = [g for g in grid if g["status"] == "ok"]
        seconds = sum(float(g["seconds"]) for g in ok)
        if not ok or seconds <= 0.0:
            self.fail(f"{out}/lr_grid.csv: no timed trial")
            return None
        from kanreg.data import split
        n_train = split(self.sizes.train_rows, self.seed).train.size
        quality["rows_per_s"] = sum(int(g["epochs"]) for g in ok) * n_train / seconds
        quality["model_mb"] = os.path.getsize(os.path.join(out, "model.json")) / MB
        return quality

    def digest(self, out: str) -> None:
        """Every run of one workload at one seed must write the same bytes."""
        name = "model.json" if self.workload in TRAINING else "cross.csv"
        with open(os.path.join(out, name), "rb") as fh:
            self.digests.add(hashlib.sha256(fh.read()).hexdigest())
        if len(self.digests) > 1:
            self.fail(f"{name} differs between runs at seed {self.seed}")

    def scored(self, wall: float) -> dict:
        """score-heldout: rows scored per second, size of the scored model."""
        return {"rows_per_s": self.sizes.heldout_rows / wall,
                "model_mb": os.path.getsize(os.path.join(self.model_dir, "model.json")) / MB}


def _csv_rows(path: str) -> list[dict] | None:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))
    except OSError:
        return None


def measure(bench: Bench, seconds: float) -> tuple[dict, int, int]:
    """Invoke the CLI for about ``seconds``; medians of the end-to-end figures."""
    samples: list[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        out = os.path.join(bench.work, f"run{attempted}")
        attempted += 1
        code, wall, rss = bench.spawn(bench.args(out))
        print(f"run {attempted}: exit {code}, {wall:.3f} s, {rss:.1f} MB peak RSS")
        figures = bench.check(bench.workload, out) if code == 0 else None
        if code != 0:
            bench.fail(f"exit status {code}; see {out}/stdout.txt")
        if figures is None:
            failed += 1
        else:
            bench.digest(out)
            if bench.workload not in TRAINING:
                figures.update(bench.scored(wall))
            samples.append(dict(figures, wall_s=wall, peak_rss_mb=rss))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / attempted > seconds or attempted >= 100:
            break
    keys = samples[0].keys() if samples else ()
    return ({k: statistics.median(s[k] for s in samples) for k in keys},
            attempted, failed)


def trace(bench: Bench) -> tuple[dict, int, int]:
    """Plain, traced, plain in-process runs; per-layer metrics.

    The traced run sits between two plain ones, so drift over the three
    (the first run in a process is the slowest) cancels out of
    trace.overhead_s.
    """
    from tracer import Tracer
    tracer = Tracer()
    runs = (("plain0", None), ("traced", tracer), ("plain1", None))
    failed = 0
    walls = []
    for name, tr in runs:
        out = os.path.join(bench.work, name)
        code, wall = bench.run_in_process(out, tr)
        print(f"{name}: exit {code}, {wall:.3f} s")
        walls.append(wall)
        if code != 0:
            bench.fail(f"{name} run: exit status {code}; see {out}/stdout.txt")
        if code != 0 or bench.check(bench.workload, out) is None:
            failed += 1
        else:
            bench.digest(out)
    tracer.write_spans(os.path.join(bench.work, "spans.csv"))
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = walls[1] - (walls[0] + walls[2]) / 2
    return metrics, len(runs), failed


UNITS = {"setup_s": "s", "wall_s": "s", "rows_per_s": "1/s",
         "peak_rss_mb": "MB", "model_mb": "MB", "plcc": "1", "srcc": "1"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith((".ms_p50", ".ms_p90")):
        return "ms"
    if name.endswith("_bytes") or name.endswith("bytes_read"):
        return "bytes"
    if name.endswith(("ratio", "coverage")):
        return "ratio"
    return "count"


def machine_record(bench: Bench) -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    s = bench.sizes
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": BLAS_THREADS,
        "KANREG_THREADS": os.environ.get("KANREG_THREADS", "unset"),
        "workload": bench.workload, "seed": bench.seed,
        "table": {"rows": s.train_rows + s.heldout_rows, "train_rows": s.train_rows,
                  "heldout_rows": s.heldout_rows, "dim": s.dim, "rank": s.rank},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the harness on toy tables (self-test)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kanreg", "cli.py")):
        print(f"perfbench: no kanreg package under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    # Serial program, one BLAS thread (<= nproc), set before NumPy loads.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("KANREG_THREADS", None)
    sys.path.insert(0, src)
    import kanreg
    if os.path.dirname(os.path.dirname(os.path.abspath(kanreg.__file__))) != src:
        print(f"perfbench: imported kanreg from {kanreg.__file__}, not {src}",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, TINY if args.size == "tiny" else FULL, root)
    setup_s = bench.set_up()
    if args.trace:
        metrics, attempted, failed = trace(bench)
        units = {name: layer_unit(name) for name in metrics}
    else:
        figures, attempted, failed = measure(bench, args.seconds)
        metrics = dict(figures, setup_s=setup_s)
        units = UNITS
    record = machine_record(bench)
    print("machine: " + json.dumps(record, sort_keys=True))
    for problem in bench.problems:
        print(f"check failed: {problem}")
    print(f"failed_ratio: {failed / attempted:.4f} ({failed} of {attempted} runs)")
    for name in sorted(metrics):
        print(f"{name}: {metrics[name]:.6g} {units[name]}")
    shown = {k: v for k, v in metrics.items() if k not in ("plcc", "srcc")}
    result = {
        "correct": not bench.problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(shown.items())},
    }
    with open(os.path.join(bench.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, machine=record, plcc=metrics.get("plcc"),
                       srcc=metrics.get("srcc")), fh, indent=2, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
