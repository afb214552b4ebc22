"""Joint optimization of the generation and emotion losses, with
deterministic batching and checkpointing."""

from __future__ import annotations

import json
import os
import time
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .corpus import DEFAULT_MAX_CONTEXT_LEN, Vocab
from .decoder import DEFAULT_MAX_GEN_LEN
from .encoder import DEFAULT_MAX_ANALYSIS_LEN
from .model import (
    PLANS, AblationPlan, EmpathyModel, PreparedSample, Providers, padded_rows, position_count, prepare_samples
)
from .util import canonical_json, sha256_hex, write_file

CHECKPOINT_VERSION = 1

# Padded encoder rows per micro-batch: four short dialogues, or one at the
# 256-token context cap. The tape of a micro-batch lives until its
# backward pass, so this bounds training's peak memory: at d=64 and 2
# layers a 735-row tape holds about 14.5 MB of arrays.
MICRO_BATCH_ROWS = 768

# Settings that are gone, each with the value the code now always uses. Old
# checkpoints and config files hold them and load when they hold that value.
RETIRED_SETTINGS = {"strict_sum": False, "share_relation_encoder": False, "classifier_bias": True,
                    "adam_beta1": 0.9, "adam_beta2": 0.999, "adam_eps": 1e-8}


# What a field of each annotated type accepts, named for a refusal. A bool
# is refused everywhere, although Python counts it as an int.
_FIELD_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"), "str": (str, "a string"),
                "float | None": ((int, float, type(None)), "a number or None")}


class TrainingDiverged(RuntimeError):
    pass


class CheckpointError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    seed: int = 0
    d: int = 64
    layers: int = 2
    heads: int = 4
    ffn_mult: int = 4
    dropout: float = 0.1
    learning_rate: float = 5e-5
    epochs: int = 5
    batch_size: int = 16
    grad_clip: float | None = None
    ablation: str = "full"
    max_context_len: int = DEFAULT_MAX_CONTEXT_LEN
    max_analysis_len: int = DEFAULT_MAX_ANALYSIS_LEN
    max_gen_len: int = DEFAULT_MAX_GEN_LEN
    num_emotions: int = 32

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            accepted, noun = _FIELD_TYPES[f.type]
            if isinstance(value, bool) or not isinstance(value, accepted):
                raise ValueError(f"{f.name} must be {noun}, got {value!r}")
        positive = (
            "d", "layers", "heads", "ffn_mult", "learning_rate", "epochs", "batch_size",
            "max_context_len", "max_analysis_len", "max_gen_len", "num_emotions",
        )
        for name in positive:
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be positive or None, got {self.grad_clip}")
        if self.d % self.heads:
            raise ValueError(f"d must be divisible by heads, got d={self.d} and heads={self.heads}")
        if self.ablation not in PLANS:
            raise ValueError(f"unknown ablation {self.ablation!r}; choose from {sorted(PLANS)}")
        if self.max_gen_len > self.positions:
            raise ValueError(
                f"max_gen_len must be at most the model's {self.positions} positions, got {self.max_gen_len}"
            )

    @property
    def positions(self) -> int:
        return position_count(self.max_context_len, self.max_analysis_len)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        data = {k: v for k, v in data.items() if k != "min_freq"}  # in old checkpoints; it never acted
        for name, value in RETIRED_SETTINGS.items():
            if name in data and data.pop(name) != value:
                raise ValueError(f"{name} is no longer a setting: the model always runs as {name}={value}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def fingerprint(self) -> str:
        return sha256_hex(canonical_json(self.to_dict()))

    def model_bytes(self, vocab_size: int, training: bool) -> dict[str, int]:
        """Estimated bytes of ``EmpathyModel``'s arrays, by the settings that
        size them: 8 per float64 parameter, 32 in training with its gradient
        and Adam's two moments, and the one position table all stacks share."""
        d, f, e, per = self.d, self.ffn_mult, self.num_emotions, 32 if training else 8
        # Two token embeddings and the output projection grow with the
        # vocabulary. Per layer: two encoder blocks and a decoder block; then
        # the fusion maps, the segment embedding and the emotion classifier.
        rest = self.layers * ((16 + 6 * f) * d * d + (29 + 3 * f) * d) + 3 * d * (d + 1) + (3 * d + 1) * e
        return {
            f"the vocabulary of {vocab_size} tokens": vocab_size * (3 * d + 1) * per,
            f"d={d}, layers={self.layers} and ffn_mult={f}": rest * per,
            f"max_context_len={self.max_context_len} and max_analysis_len={self.max_analysis_len}, "
            f"which give {self.positions} positions": self.positions * d * 8,
        }

    def check_memory(self, vocab_size: int, training: bool) -> None:
        """Refuse a model whose ``model_bytes`` are past the machine's
        physical memory, before any of its arrays is allocated."""
        parts = self.model_bytes(vocab_size, training)
        try:
            limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, ValueError, OSError):  # a system that does not say
            return
        if 0 < limit < sum(parts.values()):
            raise ValueError(
                f"the model needs an estimated {sum(parts.values()) / 2**30:.1f} GiB{' to train' * training}, more "
                f"than the machine's {limit / 2**30:.1f} GiB of memory; most is for {max(parts, key=parts.get)}"
            )

    def build_model(self, vocab_size: int, rng: np.random.Generator | None = None) -> EmpathyModel:
        return EmpathyModel(self, vocab_size, rng)


@dataclass
class LossBreakdown:
    """Per-step loss record; total is exactly nll + emo in the same floats.
    ``grad_norm`` is the global gradient norm before any clipping."""

    step: int
    epoch: int
    nll: float
    emo: float
    total: float
    token_count: int
    nll_sum: float
    grad_norm: float

    def to_dict(self) -> dict:
        return asdict(self)


class Adam:
    """Adam with bias correction; state is held per named parameter."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self, lr: float) -> None:
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.BETA1
            m += (1.0 - self.BETA1) * g
            v *= self.BETA2
            v += (1.0 - self.BETA2) * g * g
            p.data -= lr * (m / b1c) / (np.sqrt(v / b2c) + self.EPS)


def gradient_norm(params: dict[str, Tensor]) -> float:
    """Global L2 norm over every parameter's gradient."""
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad**2).sum())
    return float(np.sqrt(total))


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale the gradients down to ``max_norm`` if their global norm is
    larger; returns the norm before clipping."""
    norm = gradient_norm(params)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad *= scale
    return norm


@dataclass
class TrainResult:
    model: EmpathyModel
    history: list[LossBreakdown]
    prepared: list[PreparedSample]
    provider_calls: dict[str, int]


def micro_batches(batch: list[PreparedSample], plan: AblationPlan) -> list[list[PreparedSample]]:
    """Split a batch into runs of consecutive samples whose padded encoder
    rows stay within ``MICRO_BATCH_ROWS``; a sample over it runs alone."""
    runs: list[list[PreparedSample]] = [[]]
    for prep in batch:
        if runs[-1] and padded_rows(runs[-1] + [prep], plan) > MICRO_BATCH_ROWS:
            runs.append([])
        runs[-1].append(prep)
    return runs


def train(
    config: TrainConfig,
    samples,
    vocab: Vocab,
    providers: Providers | None = None,
    log_path: str | Path | None = None,
    timing_path: str | Path | None = None,
) -> TrainResult:
    """Run the joint objective over the samples, once the sample list is
    found not empty, the model's size is checked against the machine's
    memory (``TrainConfig.check_memory``) and every sample's sequence
    lengths against the position table.

    The generation loss enters the reported total as the batch sum divided
    by the batch token count. Each batch is sorted by its samples' own padded encoder
    rows (ties keep the shuffled order) and runs as a few padded
    micro-batches (``micro_batches``), one backward pass each, so samples
    of like length pad together; the gradients add up over the batch
    before the optimizer step. Both runs of the same config
    and seed produce identical histories: batch order, dropout, and
    initialization all draw from one seeded generator.

    ``log_path`` receives one JSON line per step (the ``LossBreakdown``),
    the same bytes on every run; ``timing_path`` receives each step's wall
    time in ms and target tokens per second, which differ from run to run,
    and its real and padded encoder rows summed over the micro-batches.
    Their directories are made after the checks.
    """
    if not samples:
        raise ValueError("train needs samples, got an empty sample list")
    config.check_memory(len(vocab), training=True)
    plan = PLANS[config.ablation]
    providers = providers or Providers()
    prepared = prepare_samples(
        samples, vocab, providers, plan, config.max_context_len, config.max_analysis_len
    )
    rng = np.random.default_rng(config.seed)
    model = config.build_model(len(vocab), rng)
    model.check_lengths(prepared, plan)
    params = model.named_parameters()
    own_rows = [padded_rows([p], plan) for p in prepared]
    opt = Adam(params)

    history: list[LossBreakdown] = []
    for path in filter(None, (log_path, timing_path)):
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    timing_fh = open(timing_path, "w", encoding="utf-8") if timing_path else None
    step = 0
    try:
        for epoch in range(1, config.epochs + 1):
            order = rng.permutation(len(prepared))
            for start in range(0, len(order), config.batch_size):
                began = time.perf_counter()
                ids = sorted(order[start : start + config.batch_size], key=own_rows.__getitem__)
                batch = [prepared[i] for i in ids]
                step += 1
                opt.zero_grad()
                batch_tokens = sum(len(p.target_ids) for p in batch)
                nll_sum_total = 0.0
                emo_total = 0.0
                drop_rng = rng if config.dropout > 0 else None
                micros = micro_batches(batch, plan)
                for micro in micros:
                    fwd = model.forward_batch(micro, plan, drop_rng)
                    loss = fwd.nll_sum.sum() * (1.0 / batch_tokens) + fwd.emo_nll.sum() * (1.0 / len(batch))
                    loss.backward()
                    for nll_value, emo_value in zip(fwd.nll_sum.data, fwd.emo_nll.data):
                        nll_sum_total += float(nll_value)
                        emo_total += float(emo_value)
                emo = emo_total / len(batch)
                nll = nll_sum_total / batch_tokens
                total = nll + emo
                if not np.isfinite(total):
                    raise TrainingDiverged(
                        f"non-finite loss at step {step} (epoch {epoch}, batch starting {start})"
                    )
                if config.grad_clip is not None:
                    norm = clip_gradients(params, config.grad_clip)
                else:
                    norm = gradient_norm(params)
                opt.step(config.learning_rate)
                record = LossBreakdown(step, epoch, nll, emo, total, batch_tokens, nll_sum_total, norm)
                history.append(record)
                if log_fh:
                    log_fh.write(json.dumps(record.to_dict()) + "\n")
                if timing_fh:
                    wall_s = time.perf_counter() - began
                    line = {
                        "step": step,
                        "wall_ms": round(1e3 * wall_s, 3),
                        "encoder_rows": padded_rows(batch, plan, padded=False),
                        "padded_encoder_rows": sum(padded_rows(m, plan) for m in micros),
                        "tokens_per_s": round(batch_tokens / wall_s, 1),
                    }
                    timing_fh.write(json.dumps(line) + "\n")
    finally:
        for fh in (log_fh, timing_fh):
            if fh:
                fh.close()
    return TrainResult(model, history, prepared, providers.call_counts())


# ----------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str | Path, model: EmpathyModel, config: TrainConfig, vocab: Vocab) -> None:
    """Write the model's parameters (``param/<name>``) and a ``meta`` entry
    with what rebuilds the model: the config and the vocabulary's size and
    fingerprint. The file is written beside its path and renamed onto it,
    so an interrupted save leaves the previous checkpoint in place."""
    arrays = {f"param/{name}": p.data for name, p in model.named_parameters().items()}
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "vocab_size": len(vocab),
        "vocab_fingerprint": vocab.fingerprint(),
    }
    arrays["meta"] = np.array(json.dumps(meta))
    write_file(path, lambda fh: np.savez(fh, **arrays))


@dataclass
class LoadedCheckpoint:
    model: EmpathyModel
    config: TrainConfig
    vocab_size: int


def _check_vocab(meta: dict, vocab: Vocab) -> None:
    """Refuse a vocabulary other than the one the checkpoint was trained on.
    A checkpoint that records no fingerprint is checked by size alone."""
    if len(vocab) != meta["vocab_size"]:
        raise CheckpointError(f"vocabulary of {len(vocab)} tokens; the checkpoint's has {meta['vocab_size']}")
    stored, ours = meta.get("vocab_fingerprint"), vocab.fingerprint()
    if stored is None:
        warnings.warn("checkpoint records no vocabulary fingerprint; only the vocabulary size was checked")
    elif stored != ours:
        raise CheckpointError(f"vocabulary fingerprint {ours} does not match the checkpoint's {stored}")


def _read_archive(path: Path) -> dict[str, np.ndarray]:
    """The ``meta`` and ``param/*`` members of the archive, each read in
    full, so that a damaged file fails here and not later."""
    # Not np.load(path): that leaves the file open when the archive is corrupt.
    # A damaged archive fails in zipfile or numpy's reader with any of
    # BadZipFile, EOFError, ValueError, NotImplementedError or RuntimeError
    # (a flipped "encrypted" flag bit), among others, hence the broad catch.
    with open(path, "rb") as fh:
        try:
            with np.load(fh, allow_pickle=False) as archive:
                return {k: archive[k] for k in archive.files if k == "meta" or k.startswith("param/")}
        except Exception as exc:
            raise CheckpointError(f"corrupt checkpoint ({path.stat().st_size} bytes on disk): {exc}") from exc


def _read_meta(arrays: dict[str, np.ndarray]) -> dict:
    """The metadata entry, refused unless it is a JSON object of this
    version with a config object, a positive integer vocabulary size and,
    if any, a string vocabulary fingerprint."""
    if "meta" not in arrays:
        raise CheckpointError("corrupt checkpoint: missing metadata entry")
    try:
        meta = json.loads(str(arrays["meta"]))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint: metadata is not JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise CheckpointError("corrupt checkpoint: metadata is not a JSON object")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {meta.get('version')} does not match supported version {CHECKPOINT_VERSION}"
        )
    size, fingerprint = meta.get("vocab_size"), meta.get("vocab_fingerprint")
    if not isinstance(meta.get("config"), dict):
        raise CheckpointError("corrupt checkpoint: metadata holds no config object")
    if type(size) is not int or size < 1:
        raise CheckpointError(f"corrupt checkpoint: vocab_size {size!r} is not a positive integer")
    if fingerprint is not None and not isinstance(fingerprint, str):
        raise CheckpointError(f"corrupt checkpoint: vocab_fingerprint {fingerprint!r} is not a string")
    return meta


def load_checkpoint(path: str | Path, vocab: Vocab | None = None) -> LoadedCheckpoint:
    """Read a checkpoint; with ``vocab``, first check that it is the
    vocabulary the checkpoint was trained on. Other members than ``meta``
    and ``param/*``, such as the optimizer and RNG state that older
    checkpoints hold, are not read."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    arrays = _read_archive(path)
    meta = _read_meta(arrays)
    if vocab is not None:
        _check_vocab(meta, vocab)
    try:
        config = TrainConfig.from_dict(meta["config"])
        config.check_memory(meta["vocab_size"], training=False)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path} holds a config that is refused: {exc}") from exc
    model = config.build_model(meta["vocab_size"])
    for name, p in model.named_parameters().items():
        stored = arrays.get(f"param/{name}")
        if stored is None:
            raise CheckpointError(f"corrupt checkpoint: missing array param/{name}")
        if stored.shape != p.data.shape:
            raise CheckpointError(f"shape mismatch for {name}: {stored.shape} vs {p.data.shape}")
        if stored.dtype != np.float64:
            raise CheckpointError(f"corrupt checkpoint: parameter {name} holds {stored.dtype}, not float64")
        if not np.isfinite(stored).all():
            raise CheckpointError(f"corrupt checkpoint: parameter {name} holds NaN or infinite values")
        p.data = stored
    return LoadedCheckpoint(model, config, meta["vocab_size"])
