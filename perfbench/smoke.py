"""Smoke tests of the benchmark itself.

    python3 perfbench/smoke.py

- every workload runs at a tiny size, untraced and traced, passes its
  checks, and prints exactly the metric names and units of BENCHMARK.json;
- the same seed gives identical inputs and another seed different ones;
- in a directory that holds only BENCHMARK.json and the benchmark's own
  files, ``run.py`` fails without printing a result.

Exits with 1 and names each failure if any test fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "out" / "smoke"


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_workload_output(bench: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny")
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-1500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or not result.get("attempted", 0) >= 1:
        problems.append(f"{where}: correct {result.get('correct')}, attempted {result.get('attempted')}, failed {result.get('failed')}")
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))} or units")
    bad = [k for k, v in result.get("metrics", {}).items() if not isinstance(v["value"], (int, float))]
    if bad:
        problems.append(f"{where}: values that are not numbers: {bad}")
    return problems


def test_inputs_follow_seed() -> list[str]:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS

    problems = []
    for name, cls in WORKLOADS.items():
        a, b, c = cls(5, False).inputs(), cls(5, False).inputs(), cls(6, False).inputs()
        if a != b:
            problems.append(f"{name}: seed 5 gave different inputs on two calls")
        if a == c:
            problems.append(f"{name}: seeds 5 and 6 gave the same inputs")
    return problems


def test_fails_without_program() -> list[str]:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        (SCRATCH / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        for path in HERE.glob("*"):
            if path.is_file():
                shutil.copy(path, SCRATCH / "perfbench")
        proc = run(SCRATCH, "--workload", "train", "--seed", "1", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            return [f"without the program: exit {proc.returncode}, output {proc.stdout[-300:]!r}"]
        return []
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = test_inputs_follow_seed() + test_fails_without_program()
    for w in bench["workloads"]:
        for trace in (0, 1):
            problems += test_workload_output(bench, w["name"], trace)
    for p in problems:
        print(f"FAIL {p}")
    print("smoke tests passed" if not problems else f"{len(problems)} smoke test failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
