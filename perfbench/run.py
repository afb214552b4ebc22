"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there and nowhere else. With ``--trace 0`` the result holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run (see README.md). The line before the result records the
run and its environment.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from timing import Clock, stopwatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9
TRACE_DIR = HERE / "out" / "traces"


def blas_info() -> dict:
    """Name, version and thread count of the BLAS numpy loaded."""
    import ctypes

    import numpy as np

    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name", "unknown"), version=blas.get("version", "unknown"))
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


class Loop:
    """Whole rounds of a workload's operations, each call between probes.

    Keeps the first output of each operation and the work it did, and
    notes an operation whose later outputs differ from its first."""

    def __init__(self, workload, st, clock: Clock):
        self.workload, self.st, self.clock = workload, st, clock
        self.ops = workload.operations(st)
        self.outputs = [None] * len(self.ops)
        self.work: list[tuple[int, int] | None] = [None] * len(self.ops)
        self.differs: set[int] = set()
        self.attempted = self.failed = 0

    def round(self, kind: str = "op") -> None:
        for i, op in enumerate(self.ops):
            self.attempted += 1
            try:
                out = self.clock.between_probes((kind, i), lambda op=op: stopwatch(op))
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, the loop goes on
                self.failed += 1
                print(f"{self.workload.op} {i} failed: {exc!r}", file=sys.stderr)
                continue
            if self.work[i] is None:
                self.outputs[i] = out
                self.work[i] = self.workload.work(self.st, i, out)
            elif out != self.outputs[i]:
                self.differs.add(i)

    def done(self) -> list[int]:
        return [i for i, w in enumerate(self.work) if w is not None]

    def busy(self, kind: str = "op", raw: bool = False) -> float:
        """Seconds one round takes: the sum over the operations of each
        one's median time."""
        return sum(self.clock.median((kind, i), raw) for i in self.done())

    def total(self, field: int) -> int:
        return sum(self.work[i][field] for i in self.done())


def import_seconds(clock: Clock) -> None:
    """Time the import of the program and the workloads in a fresh
    interpreter that has already loaded numpy (numpy's own import is not
    the program's and would only add its noise), between probes run in
    that interpreter."""
    code = (
        "import json, sys, numpy; "
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
        "from timing import Clock, stopwatch; c = Clock(); "
        "c.between_probes('import', lambda: stopwatch(lambda: __import__('workloads'))); "
        "print(json.dumps(c.calls[0][1:]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True, timeout=120)
    clock.add("import", *json.loads(proc.stdout))


def set_up(workload, clock: Clock):
    """Imports and set-ups, each repeated; returns the last set-up's state."""
    for _ in range(SETUP_REPEATS):
        import_seconds(clock)
    for _ in range(SETUP_REPEATS):
        st = clock.between_probes("setup", lambda: stopwatch(workload.setup))
    return st


def run_loop(loop: Loop, seconds: float) -> None:
    """A warm-up round, not counted in the metrics, then whole rounds
    until ``seconds`` have passed."""
    loop.round("warm-up")
    t0 = time.perf_counter()
    while loop.attempted == len(loop.ops) or time.perf_counter() - t0 < seconds:
        loop.round()


def end_to_end(workload, seconds: float):
    clock = Clock()
    st = set_up(workload, clock)
    loop = Loop(workload, st, clock)
    run_loop(loop, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    busy = loop.busy()
    ops = [t for i in loop.done() for t in clock.corrected(("op", i))]
    metrics = {
        "setup_s": (clock.median("import") + clock.median("setup"), "s"),
        "samples_per_s": (loop.total(0) / busy, "samples/s"),
        "tokens_per_s": (loop.total(1) / busy, "tokens/s"),
        "latency_ms_p50": (1e3 * statistics.median(ops), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    raw_ops = [t for i in loop.done() for t in clock.raw(("op", i))]
    extra = {
        **clock.record(),
        "rounds": loop.attempted // len(loop.ops) - 1,
        "raw_setup_s": clock.median("import", raw=True) + clock.median("setup", raw=True),
        "raw_round_s": loop.busy(raw=True),
        "raw_latency_ms_p50": 1e3 * statistics.median(raw_ops),
    }
    return st, loop, metrics, extra


def per_layer(workload, seconds: float):
    """Rounds alternate untraced and traced, in whole pairs, so that drift
    of the machine's speed falls on both alike. The per-layer figures come
    from the traced rounds; the overhead compares the two kinds of round,
    each timed as in the untraced run."""
    from tracing import Tracer

    clock = Clock()
    st = workload.setup()
    loop = Loop(workload, st, clock)
    tracer = Tracer()
    loop.round("warm-up")
    t0 = time.perf_counter()
    traced = 0
    while not traced or time.perf_counter() - t0 < seconds:
        loop.round("plain")
        tracer.request = 2 * traced + 2  # rounds: warm-up 0, then untraced and traced in turn
        tracer.install()
        try:
            loop.round("traced")
        finally:
            tracer.uninstall()
        traced += 1
    samples = traced * loop.total(0)
    metrics = tracer.per_layer(samples)
    overhead = loop.busy("traced") / loop.busy("plain") - 1.0
    metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
    metrics["trace.spans_per_sample"] = (len(tracer.spans) / samples, "count/sample")
    path = TRACE_DIR / f"{workload.name}-{workload.seed}.jsonl"
    tracer.write(path)
    extra = {"trace_file": str(path.relative_to(ROOT)), "traced_rounds": traced, "not_traced": tracer.missing}
    return st, loop, metrics, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke tests")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "empgen" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import empgen
    import workloads

    if Path(empgen.__file__).resolve().parent != src / "empgen":
        print(f"error: empgen was imported from {empgen.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)

    run = per_layer if args.trace else end_to_end
    st, loop, metrics, extra = run(workload, args.seconds)
    problems = [f"{workload.op} {i}: rounds with the same inputs gave different outputs" for i in sorted(loop.differs)]
    try:
        problems += workload.check(st, loop.outputs)
    except Exception as exc:  # noqa: BLE001 - a check that cannot run is a failed check
        problems.append(f"the checks stopped: {exc!r}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "operation": workload.op,
        "inputs_digest": workloads.digest(workload.inputs()),
        "env": environment(),
        **extra,
    }
    print(json.dumps({"run": record}))
    result = {
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
