from empgen.training import TrainConfig, train

from .helpers import load_perfbench


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
