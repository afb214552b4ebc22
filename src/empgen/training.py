"""Joint optimization of the generation and emotion losses, with
deterministic batching, gradient checking, and checkpointing."""

from __future__ import annotations

import io
import json
import os
import time
import warnings
import zipfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor, no_grad
from .corpus import Vocab
from .model import PLANS, AblationPlan, EmpathyModel, PreparedSample, Providers, padded_rows, prepare_samples
from .util import canonical_json, sha256_hex

CHECKPOINT_VERSION = 1

# Padded encoder rows per micro-batch: four short dialogues, or one at the
# 256-token context cap. The tape of a micro-batch lives until its
# backward pass, so this bounds training's peak memory.
MICRO_BATCH_ROWS = 768


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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    grad_clip: float | None = None
    ablation: str = "full"
    strict_sum: bool = False
    max_context_len: int = 256
    max_analysis_len: int = 128
    max_gen_len: int = 32
    num_emotions: int = 32
    share_relation_encoder: bool = False
    classifier_bias: bool = True

    def __post_init__(self):
        positive = (
            ("d", self.d),
            ("layers", self.layers),
            ("heads", self.heads),
            ("ffn_mult", self.ffn_mult),
            ("learning_rate", self.learning_rate),
            ("epochs", self.epochs),
            ("batch_size", self.batch_size),
        )
        for name, value in positive:
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be positive or None, got {self.grad_clip}")
        if self.ablation not in PLANS:
            raise ValueError(f"unknown ablation {self.ablation!r}; choose from {sorted(PLANS)}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        data = {k: v for k, v in data.items() if k != "min_freq"}  # in old checkpoints; it never acted
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)

    def fingerprint(self) -> str:
        return sha256_hex(canonical_json(self.to_dict()))

    def build_model(self, vocab_size: int, rng: np.random.Generator | None = None) -> EmpathyModel:
        return EmpathyModel(
            vocab_size=vocab_size,
            num_emotions=self.num_emotions,
            d=self.d,
            layers=self.layers,
            heads=self.heads,
            ffn_mult=self.ffn_mult,
            dropout=self.dropout,
            max_context_len=self.max_context_len,
            max_analysis_len=self.max_analysis_len,
            share_relation_encoder=self.share_relation_encoder,
            classifier_bias=self.classifier_bias,
            rng=rng,
            seed=self.seed,
        )


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

    def __init__(self, params: dict[str, Tensor], beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self, lr: float) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p.data -= lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


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
    rng: np.random.Generator = field(repr=False, default=None)
    optimizer: "Adam | None" = field(repr=False, default=None)


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
    initial_model: EmpathyModel | None = None,
    timing_path: str | Path | None = None,
) -> TrainResult:
    """Run the joint objective over the samples.

    The generation loss enters the reported total as the batch sum divided
    by the batch token count; ``strict_sum`` switches to the raw per-sample
    sum instead. Each batch is sorted by its samples' own padded encoder
    rows (ties keep the shuffled order) and runs as a few padded
    micro-batches (``micro_batches``), one backward pass each, so samples
    of like length pad together; the gradients add up over the batch
    before the optimizer step. Both runs of the same config
    and seed produce identical histories: batch order, dropout, and
    initialization all draw from one seeded generator. Pass
    ``initial_model`` to continue from a loaded checkpoint instead of a
    fresh initialization.

    ``log_path`` receives one JSON line per step (the ``LossBreakdown``),
    the same bytes on every run; ``timing_path`` receives each step's wall
    time in ms and target tokens per second, which differ from run to run,
    and its real and padded encoder rows summed over the micro-batches.
    """
    plan = PLANS[config.ablation]
    providers = providers or Providers()
    prepared = prepare_samples(
        samples, vocab, providers, plan, config.max_context_len, config.max_analysis_len
    )
    rng = np.random.default_rng(config.seed)
    model = config.build_model(len(vocab), rng) if initial_model is None else initial_model
    params = model.named_parameters()
    own_rows = [padded_rows([p], plan) for p in prepared]
    opt = Adam(params, config.adam_beta1, config.adam_beta2, config.adam_eps)

    history: list[LossBreakdown] = []
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
                    if config.strict_sum:
                        loss = (fwd.nll_sum.sum() + fwd.emo_nll.sum()) * (1.0 / len(batch))
                    else:
                        loss = fwd.nll_sum.sum() * (1.0 / batch_tokens) + fwd.emo_nll.sum() * (
                            1.0 / len(batch)
                        )
                    loss.backward()
                    for nll_value, emo_value in zip(fwd.nll_sum.data, fwd.emo_nll.data):
                        nll_sum_total += float(nll_value)
                        emo_total += float(emo_value)
                emo = emo_total / len(batch)
                nll = (nll_sum_total / len(batch)) if config.strict_sum else (nll_sum_total / batch_tokens)
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
    return TrainResult(model, history, prepared, providers.call_counts(), rng, opt)


# ----------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckEntry:
    name: str
    group: str
    max_rel_error: float
    checked: int


@dataclass
class GradCheckReport:
    entries: list[GradCheckEntry]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(e.max_rel_error < self.tolerance for e in self.entries)

    def group_errors(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for e in self.entries:
            out[e.group] = max(out.get(e.group, 0.0), e.max_rel_error)
        return out

    def summary(self) -> str:
        lines = [f"gradient check (tolerance {self.tolerance:g})"]
        for group, err in sorted(self.group_errors().items()):
            status = "ok" if err < self.tolerance else "FAIL"
            lines.append(f"  {group:<18} max rel err {err:.3e}  {status}")
        if not self.entries:
            lines.append("  (no parameters)")
        return "\n".join(lines)


def _entry_indices(size: int, limit: int) -> np.ndarray:
    if size <= limit:
        return np.arange(size)
    stride = size // limit
    return np.arange(0, size, stride)[:limit]


def check_gradients(
    loss_fn,
    params: dict[str, Tensor],
    analytic: dict[str, np.ndarray],
    h: float = 1e-5,
    tolerance: float = 1e-4,
    max_entries_per_param: int = 12,
    group_fn=None,
) -> GradCheckReport:
    """Compare supplied analytic gradients against central finite differences.

    Large tensors are probed on a deterministic stride of entries. The
    relative error denominator is floored at 1e-5 (so the criterion is
    |a-f| < tol * max(|a|, |f|, 1e-5), tighter than the usual rtol/atol
    gradcheck defaults), and pairs where both sides sit below 1e-8, under
    the cancellation noise of the central difference itself, count as
    equal.
    """
    group_fn = group_fn or (lambda name: name.split(".")[0])
    entries = []
    for name, p in params.items():
        flat = p.data.reshape(-1)
        grad = analytic[name].reshape(-1)
        idx = _entry_indices(flat.size, max_entries_per_param)
        worst = 0.0
        for i in idx:
            keep = flat[i]
            flat[i] = keep + h
            up = loss_fn()
            flat[i] = keep - h
            down = loss_fn()
            flat[i] = keep
            fd = (up - down) / (2.0 * h)
            if max(abs(fd), abs(grad[i])) < 1e-8:
                continue
            denom = max(abs(fd), abs(grad[i]), 1e-5)
            worst = max(worst, abs(fd - grad[i]) / denom)
        entries.append(GradCheckEntry(name, group_fn(name), worst, len(idx)))
    return GradCheckReport(entries, tolerance)


def micro_prepared_sample(vocab_size: int = 24) -> PreparedSample:
    """Hand-built tiny sample exercising every stream."""
    return PreparedSample(
        sample_id="micro",
        context_ids=[5, 7, 8, 4, 9, 10],
        target_ids=[7, 11, 2],
        emotion_index=1,
        cause_ids=[9, 10],
        relation_ids=[[5, 7], [5, 8], [5, 9], [5, 10], [5, 11]],
        analysis_ids=[5, 8, 11],
    )


def grad_check(
    config: TrainConfig | None = None,
    tolerance: float = 1e-4,
    h: float = 1e-5,
    max_entries_per_param: int = 12,
    preps: list[PreparedSample] | None = None,
) -> GradCheckReport:
    """Analytic vs central-difference gradients on a micro model (d=8, one
    layer, tiny vocab) through the full joint loss of ``preps`` as one
    padded batch (default: the one micro sample)."""
    config = config or TrainConfig(
        seed=3, d=8, layers=1, heads=2, ffn_mult=2, dropout=0.0, num_emotions=5, ablation="full"
    )
    vocab_size = 24
    plan = PLANS[config.ablation]
    preps = preps or [micro_prepared_sample(vocab_size)]
    model = config.build_model(vocab_size)
    params = model.named_parameters()

    def loss_value() -> float:
        with no_grad():  # the probes need no tape
            fwd = model.forward_batch(preps, plan)
        return float(fwd.nll_sum.data.sum() / fwd.token_count + fwd.emo_nll.data.sum())

    model.zero_grad()
    fwd = model.forward_batch(preps, plan)
    loss = fwd.nll_sum.sum() * (1.0 / fwd.token_count) + fwd.emo_nll.sum()
    loss.backward()
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }

    def group_fn(name: str) -> str:
        prefix = name.split(".")[0]
        return {
            "context_encoder": "encoder",
            "relation_encoder": "encoder",
            "fusion": "fusion",
            "decoder": "decoder",
            "classifier": "emotion",
        }.get(prefix, prefix)

    return check_gradients(
        loss_value, params, analytic, h, tolerance, max_entries_per_param, group_fn
    )


# ----------------------------------------------------------------------
# checkpoints


def save_checkpoint(
    path: str | Path,
    model: EmpathyModel,
    config: TrainConfig,
    vocab: Vocab,
    optimizer: Adam | None = None,
    epoch: int = 0,
    rng: np.random.Generator | None = None,
) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays: dict[str, np.ndarray] = {}
    for name, p in model.named_parameters().items():
        arrays[f"param/{name}"] = p.data
    if optimizer is not None:
        for name in optimizer.params:
            arrays[f"adam_m/{name}"] = optimizer.m[name]
            arrays[f"adam_v/{name}"] = optimizer.v[name]
    meta = {
        "version": CHECKPOINT_VERSION,
        "config": config.to_dict(),
        "vocab_size": len(vocab),
        "vocab_fingerprint": vocab.fingerprint(),
        "epoch": epoch,
        "adam_t": optimizer.t if optimizer is not None else 0,
        "rng_state": json.dumps(rng.bit_generator.state) if rng is not None else None,
    }
    arrays["meta"] = np.array(json.dumps(meta))
    # Written beside the final path and renamed onto it, so an interrupted
    # save leaves the previous checkpoint in place. The name gets np.savez's
    # ".npz" suffix as a direct np.savez(path) would.
    final = path if path.name.endswith(".npz") else path.with_name(path.name + ".npz")
    tmp = final.with_name(f".{final.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, final)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class LoadedCheckpoint:
    model: EmpathyModel
    config: TrainConfig
    vocab_size: int
    epoch: int
    optimizer: Adam | None
    rng_state: dict | None


def _check_vocab(meta: dict, vocab: Vocab) -> None:
    """Refuse a vocabulary other than the one the checkpoint was trained on.
    A checkpoint that records no fingerprint is checked by size alone."""
    if len(vocab) != int(meta["vocab_size"]):
        raise CheckpointError(f"vocabulary of {len(vocab)} tokens; the checkpoint's has {meta['vocab_size']}")
    stored, ours = meta.get("vocab_fingerprint"), vocab.fingerprint()
    if stored is None:
        warnings.warn("checkpoint records no vocabulary fingerprint; only the vocabulary size was checked")
    elif stored != ours:
        raise CheckpointError(f"vocabulary fingerprint {ours} does not match the checkpoint's {stored}")


def load_checkpoint(path: str | Path, vocab: Vocab | None = None) -> LoadedCheckpoint:
    """Read a checkpoint; with ``vocab``, first check that it is the
    vocabulary the checkpoint was trained on."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    # Not np.load(path): that leaves the file open when the archive is corrupt.
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
        except (zipfile.BadZipFile, ValueError, OSError, io.UnsupportedOperation) as exc:
            size = path.stat().st_size
            raise CheckpointError(f"corrupt checkpoint ({size} bytes on disk): {exc}") from exc
        if "meta" not in archive.files:
            raise CheckpointError("corrupt checkpoint: missing metadata entry")
        meta = json.loads(str(archive["meta"]))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint version {meta.get('version')} does not match "
                f"supported version {CHECKPOINT_VERSION}"
            )
        if vocab is not None:
            _check_vocab(meta, vocab)
        config = TrainConfig.from_dict(meta["config"])
        vocab_size = int(meta["vocab_size"])
        model = config.build_model(vocab_size)
        params = model.named_parameters()
        for name, p in params.items():
            key = f"param/{name}"
            if key not in archive.files:
                raise CheckpointError(f"corrupt checkpoint: missing array {key}")
            stored = archive[key]
            if stored.shape != p.data.shape:
                raise CheckpointError(
                    f"shape mismatch for {name}: {stored.shape} vs {p.data.shape}"
                )
            p.data = stored.astype(np.float64)
        optimizer = None
        if any(f.startswith("adam_m/") for f in archive.files):
            optimizer = Adam(params, config.adam_beta1, config.adam_beta2, config.adam_eps)
            optimizer.t = int(meta.get("adam_t", 0))
            for name in params:
                optimizer.m[name] = archive[f"adam_m/{name}"].astype(np.float64)
                optimizer.v[name] = archive[f"adam_v/{name}"].astype(np.float64)
        rng_state = json.loads(meta["rng_state"]) if meta.get("rng_state") else None
    return LoadedCheckpoint(model, config, vocab_size, int(meta.get("epoch", 0)), optimizer, rng_state)
