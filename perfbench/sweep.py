"""Run every workload over a set of seeds and summarise the runs.

    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/out/runs/base
    python3 perfbench/sweep.py --seeds 1 --workloads train --trace 1

Each run is ``run.py`` in its own process, one after another, from the
root of the checkout; its standard output is kept as
``<out>/<workload>-s<seed>-t<trace>.out``. Every run prints its metrics
with units and its counts of operations attempted and failed. The
summary gives, per workload and metric, the median, the quartiles and
their distance as a share of the median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from compare import load_runs, quartiles, spec, spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out" / "runs" / time.strftime("%Y%m%d-%H%M%S"))
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.perf_counter() - t0
            (args.out / f"{workload}-s{seed}-t{args.trace}.out").write_text(proc.stdout, encoding="utf-8")
            if proc.returncode != 0:
                status = 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed} ({wall:.1f} s): correct {result['correct']}, "
                  f"attempted {result['attempted']}, failed {result['failed']}")
            for name, m in result["metrics"].items():
                print(f"    {name:34s} {m['value']:.6g} {m['unit']}")
            sys.stdout.flush()
    metrics = spec()
    print(f"\nsummary of {args.out}")
    for (workload, trace), runs in sorted(load_runs(args.out).items()):
        print(f"{workload} (trace {trace}), {len(runs)} runs")
        for name, m in metrics.items():
            vals = [r["result"]["metrics"][name]["value"] for r in runs.values() if name in r["result"]["metrics"]]
            if not vals:
                continue
            q1, q2, q3 = quartiles(vals)
            bound = m.get("bound")
            note = f"bound {bound:.2f}, spread/bound {spread(vals) / bound:.2f}" if bound else ""
            print(f"    {name:34s} median {q2:<11.5g} [{q1:.5g}, {q3:.5g}] spread {spread(vals):.3f}  {note}")
    return status


if __name__ == "__main__":
    sys.exit(main())
