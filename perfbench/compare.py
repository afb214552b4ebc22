"""Compare two sets of benchmark run outputs.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the standard output of runs of ``run.py``, one
``*.out`` file per run, as ``sweep.py`` writes them. For each workload
and metric the table shows each side's median and quartiles, the change
of the medians, whether the new side stays within the metric's bound
from BENCHMARK.json, and the pairs the new side won: runs are paired in
the order of their seeds (so by seed when both sets ran the same seeds),
and a tie counts for neither side. It also shows each side's share
of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict[str, dict]:
    """Metric name -> its entry in BENCHMARK.json, with ``kind`` added."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    out = {}
    for kind in ("end_to_end", "per_layer"):
        for m in bench[kind]:
            out[m["name"]] = {**m, "kind": kind}
    return out


def load_runs(directory: Path) -> dict[tuple[str, int], dict[int, dict]]:
    """(workload, trace) -> seed -> {"run": ..., "result": ...}."""
    runs: dict[tuple[str, int], dict[int, dict]] = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.out")):
        lines = [json.loads(x) for x in path.read_text(encoding="utf-8").splitlines() if x.startswith("{")]
        if len(lines) < 2 or "run" not in lines[-2]:
            print(f"skipping {path}: no result", file=sys.stderr)
            continue
        run = lines[-2]["run"]
        runs[(run["workload"], run["trace"])][run["seed"]] = {"run": run, "result": lines[-1]}
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def values(runs: dict[int, dict], metric: str) -> dict[int, float]:
    return {s: r["result"]["metrics"][metric]["value"] for s, r in runs.items() if metric in r["result"]["metrics"]}


def failed_share(runs: dict[int, dict]) -> str:
    att = sum(r["result"]["attempted"] for r in runs.values())
    fail = sum(r["result"]["failed"] for r in runs.values())
    return f"{fail}/{att}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    metrics = spec()
    base, new = load_runs(args.base), load_runs(args.new)
    regressions = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        print(f"\n{workload} (trace {trace}): failed {failed_share(base[key])} vs {failed_share(new[key])}")
        print(f"  {'metric':34s} {'base median [q1, q3]':>30s} {'new median [q1, q3]':>30s} {'change':>8s}  verdict  won")
        for name, m in metrics.items():
            a, b = values(base[key], name), values(new[key], name)
            if not a or not b:
                continue
            qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            lower = m.get("better") == "lower"
            worse = change if lower else -change
            verdict = "-"
            if "bound" in m:
                verdict = "ok" if worse <= m["bound"] else "WORSE"
                regressions += verdict == "WORSE"
            pairs = list(zip((a[s] for s in sorted(a)), (b[s] for s in sorted(b))))
            won = sum(1 for x, y in pairs if (y < x if lower else y > x))
            fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"  # noqa: E731
            print(f"  {name:34s} {fmt(qa):>30s} {fmt(qb):>30s} {100 * change:+7.1f}%  {verdict:7s}  {won}/{len(pairs)}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
