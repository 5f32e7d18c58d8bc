"""Self-test of the benchmark harness on toy tables (a few seconds).

Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at --size tiny with --trace 0 and 1,
and checks that the last stdout line is the result object with exactly the
metrics BENCHMARK.json declares. Then it copies BENCHMARK.json and the
benchmark's files into an otherwise empty directory and checks that the
benchmark exits non-zero there without printing a result. Exits 1 on the
first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def fail(message: str) -> None:
    print(f"selftest: FAIL {message}")
    sys.exit(1)


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(root, workload, trace)
            if proc.returncode != 0:
                fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} trace={trace}: keys {sorted(result)}")
            if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
                fail(f"{workload} trace={trace}: {proc.stdout}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != declared[trace]:
                fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                     f"{sorted(set(units) ^ set(declared[trace]))}")
            print(f"selftest: {workload} trace={trace} ok")

    bare = os.path.join(root, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        fail(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("selftest: bare directory refused ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
