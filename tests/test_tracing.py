import json
import subprocess
import sys

import pytest

from empgen.training import TrainConfig, train

from .helpers import PERFBENCH_DIR, load_perfbench


def load_tracer():
    return load_perfbench("tracing").Tracer()


def test_benchmark_tracer_finds_every_function_it_wraps():
    # A renamed function would drop out of the traced run's metrics
    # without an error; the tracer lists it in ``missing`` instead.
    tracer = load_tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_benchmark_tracer_counts_the_tape_nodes_of_a_training_step(mini_samples, mini_vocab, providers):
    # The tracer counts a node whenever ``Tensor._node`` returns a Tensor
    # with truthy ``_parents``; were that ever falsy on a recorded op, the
    # traced run would read ``autodiff.nodes_per_sample`` as 0.
    config = TrainConfig(seed=5, d=16, layers=1, heads=2, ffn_mult=2, epochs=1, batch_size=4)
    tracer = load_tracer()
    try:
        tracer.install()
        result = train(config, mini_samples[:4], mini_vocab, providers)
    finally:
        tracer.uninstall()
    assert len(result.history) == 1
    assert tracer.counts["tape_nodes"] > 0


@pytest.mark.parametrize("workload", ["train", "evaluate", "generate_long"])
def test_each_benchmark_workload_runs_correct_at_a_tiny_size(workload):
    # The workloads build their models through TrainConfig and build_model,
    # so a changed setting or constructor would otherwise first show as a
    # failed benchmark run.
    args = ["--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "0", "--tiny"]
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH_DIR / "run.py"), *args],
        cwd=PERFBENCH_DIR.parent, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0) and result["attempted"] >= 1
