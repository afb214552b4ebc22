"""Re-measure the figures of the ROADMAP baseline table.

    python3 perfbench/baseline.py

Each single-operation row is the median of ``REPEATS`` timings on one
short dialogue of the seed-1 inputs, with the default model shape, each
timing corrected by the reference probe as in the benchmark
(``timing.py``). Tape on and tape off are timed in turn. The
BLAS rows run in child processes, with the default thread count and with
``OPENBLAS_NUM_THREADS=1`` set in the child's environment only. Training
throughput is measured in ``TRAIN_PAIRS`` pairs of ``train`` runs of
``TRAIN_SECONDS`` each; the side that runs first alternates from pair to
pair, so drift of the machine's speed favours neither side.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEATS = 15
TRAIN_SECONDS = 20
TRAIN_PAIRS = 3

MATMUL = """
import time, numpy as np
a, b = np.random.default_rng(0).random((608, 64)), np.random.default_rng(1).random((64, 64))
ts = []
for _ in range(2000):
    t = time.perf_counter(); a @ b; ts.append(time.perf_counter() - t)
ts.sort(); print(ts[len(ts) // 2] * 1e6)
"""


def median_ms(*fns) -> list[float]:
    """Median corrected milliseconds of each of ``fns``, timed in turn."""
    from timing import Clock, stopwatch

    clock = Clock()
    for fn in fns:
        fn()
    for _ in range(REPEATS):
        for i, fn in enumerate(fns):
            clock.between_probes(i, lambda fn=fn: stopwatch(fn))
    return [1e3 * clock.median(i) for i in range(len(fns))]


def child(args: list[str], threads: str | None) -> str:
    env = dict(os.environ)
    if threads:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run(args, cwd=ROOT, env=env, capture_output=True, text=True, check=True, timeout=600).stdout


def train_rate(threads: str | None) -> float:
    out = child(
        [sys.executable, str(HERE / "run.py"), "--workload", "train", "--seed", "1",
         "--seconds", str(TRAIN_SECONDS), "--trace", "0"],
        threads,
    )
    return json.loads(out.strip().splitlines()[-1])["metrics"]["samples_per_s"]["value"]


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    import empgen.model
    from workloads import Evaluate

    st = Evaluate(1, False).setup()
    model, vocab, plan = st["model"], st["vocab"], empgen.model.PLANS["full"]
    prep = empgen.model.prepare_samples(st["held_out"][:1], vocab, st["providers"], plan)[0]
    rng = np.random.default_rng(0)

    def step():
        fwd = model.forward_sample(prep, plan, rng)
        (fwd.nll_sum + fwd.emo_nll).backward()
        model.zero_grad()

    def greedy():
        return model.generate_response(prep, plan, vocab, "greedy", max_gen_len=32)

    rows = {
        "one sample, forward + backward (ms)": median_ms(step)[0],
        "one sample, forward only (ms)": median_ms(lambda: model.forward_sample(prep, plan, rng))[0],
        "context encode (ms)": median_ms(lambda: model.context_encoder.encode(prep.context_ids))[0],
        "encode of the 5 relation sequences (ms)": median_ms(
            lambda: [model.relation_encoder.encode(ids) for ids in prep.relation_ids]
        )[0],
        "greedy generation, 32 tokens (ms)": median_ms(greedy)[0],
        "beam-3 generation, 32 tokens (ms)": median_ms(
            lambda: model.generate_response(prep, plan, vocab, "beam", 3, 32)
        )[0],
        "(greedy reply length, tokens)": len(greedy().ids),
    }
    params = model.named_parameters().values()

    def tape(on: bool, fn):
        def run():
            for p in params:
                p.requires_grad = on
            try:
                return fn()
            finally:
                for p in params:
                    p.requires_grad = True

        return run

    forward = lambda: model.forward_sample(prep, plan)  # noqa: E731
    off, on = median_ms(tape(False, forward), tape(True, forward))
    rows["forward_sample, tape off (ms)"], rows["forward_sample, tape on (ms)"] = off, on
    off, on = median_ms(tape(False, greedy), tape(True, greedy))
    rows["greedy generation, tape off (ms)"], rows["greedy generation, tape on (ms)"] = off, on
    labels = {None: "default BLAS threads", "1": "OPENBLAS_NUM_THREADS=1"}
    for threads, label in labels.items():
        rows[f"(608,64)@(64,64) f64 matmul, {label} (us)"] = float(child([sys.executable, "-c", MATMUL], threads))
    for pair in range(TRAIN_PAIRS):
        order = (None, "1") if pair % 2 == 0 else ("1", None)
        for threads in order:
            first = "default" if order[0] is None else "1 thread"
            rows[f"training, pair {pair + 1} ({first} first), {labels[threads]} (samples/s)"] = train_rate(threads)
    for name, value in rows.items():
        print(f"{name:76s} {value:10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
