"""End-to-end model: wires the encoder streams, decoder, and emotion head
together under one of four ablation configurations.

Stream availability per configuration:

* ``vanilla``    - raw context only.
* ``self_pres``  - cause-fused context plus commonsense knowledge.
* ``analysis``   - raw context, commonsense knowledge, LLM analysis.
* ``full``       - everything.

Commonsense knowledge rides with any non-vanilla config; the two named
ablation axes strictly control the fusion stream and the analysis stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tensor, no_grad
from .corpus import (
    DialogueSample,
    Vocab,
    encode_cause_ids,
    encode_dialogue,
    encode_response_ids,
)
from .decoder import DecoderMemory, DecoderStack, GeneratedResponse, assemble_memory, generate, nll_loss
from .emotion import classify_emotion, emotion_nll, fuse_features, pool_knowledge
from .encoder import (
    EncoderStack,
    FusionParams,
    analysis_token_ids,
    encode_relations,
    fuse_sensible,
    relation_token_ids,
)
from .knowledge import AnalysisCache, CommonsenseProvider, LlmClient, build_analysis_prompt, query_analysis
from .layers import Linear, pad_ids, padding_mask
from .selectors import CauseDetector, SentimentPredictor


@dataclass(frozen=True)
class AblationPlan:
    name: str
    use_fusion: bool
    use_knowledge: bool
    use_analysis: bool


PLANS = {
    "vanilla": AblationPlan("vanilla", False, False, False),
    "self_pres": AblationPlan("self_pres", True, True, False),
    "analysis": AblationPlan("analysis", False, True, True),
    "full": AblationPlan("full", True, True, True),
}
ABLATION_ORDER = ["vanilla", "self_pres", "analysis", "full"]
ABLATION_ROW_LABELS = {
    "vanilla": "Vanilla",
    "self_pres": "Vanilla+Self-pres",
    "analysis": "Vanilla+Analysis",
    "full": "Full",
}


class ProviderError(RuntimeError):
    """A provider required by the active ablation plan is missing."""


@dataclass
class Providers:
    sentiment: SentimentPredictor | None = None
    cause: CauseDetector | None = None
    commonsense: CommonsenseProvider | None = None
    llm: LlmClient | None = None
    analysis_cache: AnalysisCache | None = None

    def call_counts(self) -> dict[str, int]:
        return {
            "sentiment": self.sentiment.calls if self.sentiment else 0,
            "cause": self.cause.calls if self.cause else 0,
            "commonsense": self.commonsense.calls if self.commonsense else 0,
            "llm": self.llm.calls if self.llm else 0,
        }

    def require(self, plan: AblationPlan) -> None:
        missing = []
        if (plan.use_fusion or plan.use_analysis) and self.sentiment is None:
            missing.append("sentiment")
        if plan.use_fusion and self.cause is None:
            missing.append("cause")
        if plan.use_knowledge and self.commonsense is None:
            missing.append("commonsense")
        if plan.use_analysis and self.llm is None:
            missing.append("llm")
        if missing:
            raise ProviderError(
                f"ablation {plan.name!r} needs providers {missing} that are not configured"
            )


@dataclass
class PreparedSample:
    """Tokenized views of one sample, ready for the differentiable passes."""

    sample_id: str
    context_ids: list[int]
    target_ids: list[int]
    emotion_index: int
    cause_ids: list[int] | None = None
    relation_ids: list[list[int]] | None = None
    analysis_ids: list[int] | None = None


def prepare_sample(
    sample: DialogueSample,
    vocab: Vocab,
    providers: Providers,
    plan: AblationPlan,
    max_context_len: int = 256,
    max_analysis_len: int = 128,
) -> PreparedSample:
    """Run the text-level pipeline for one sample: selection, knowledge,
    analysis. No model parameters are involved, so this happens once per
    run, not once per step."""
    prep = PreparedSample(
        sample_id=sample.id,
        context_ids=encode_dialogue(sample, vocab, max_context_len),
        target_ids=encode_response_ids(sample.gold_response, vocab),
        emotion_index=sample.gold_emotion.index,
    )
    label = None
    if plan.use_fusion or plan.use_analysis:
        label = providers.sentiment.predict(sample)
    if plan.use_fusion:
        cause_utts = providers.cause.detect(sample, label)
        prep.cause_ids = encode_cause_ids(cause_utts, vocab)
        if not prep.cause_ids:
            raise ValueError(f"sample {sample.id!r}: cause holds no word token to encode")
    if plan.use_knowledge:
        bundle = providers.commonsense.generate(sample.last_utterance.text)
        prep.relation_ids = relation_token_ids(bundle, vocab)
    if plan.use_analysis:
        prompt = build_analysis_prompt(sample, label)
        cache = providers.analysis_cache if providers.analysis_cache is not None else AnalysisCache()
        record = query_analysis(prompt, providers.llm, cache)
        prep.analysis_ids = analysis_token_ids(record.response, vocab, max_analysis_len)
    return prep


def prepare_samples(samples, vocab, providers, plan, max_context_len=256, max_analysis_len=128):
    providers.require(plan)
    return [
        prepare_sample(s, vocab, providers, plan, max_context_len, max_analysis_len)
        for s in samples
    ]


def stream_ids(prep: PreparedSample, plan: AblationPlan) -> dict[str, list]:
    """The id sequences the plan encodes or decodes for one sample, by
    stream name; the relations come as one list of five."""
    streams = {"context": [prep.context_ids], "target": [prep.target_ids]}
    if plan.use_fusion:
        streams["cause"] = [prep.cause_ids]
    if plan.use_knowledge:
        streams["relation"] = list(prep.relation_ids)
    if plan.use_analysis:
        streams["analysis"] = [prep.analysis_ids]
    return streams


def padded_rows(preps: list[PreparedSample], plan: AblationPlan, padded: bool = True) -> int:
    """Encoder rows of the samples as one padded batch: every encoded
    stream padded to its longest member. With ``padded=False``, the real
    rows alone."""
    streams = [stream_ids(p, plan) for p in preps]
    total = 0
    for name in ("context", "cause", "relation", "analysis"):
        lengths = [len(ids) for s in streams for ids in s.get(name, ())]
        total += len(lengths) * max(lengths, default=0) if padded else sum(lengths)
    return total


@dataclass
class SampleForward:
    """Losses and encodings of a padded batch: the losses are (B,) nodes,
    ``per_token_nll`` a list of per-sample arrays, and ``token_count`` the
    batch total. ``forward_sample`` unwraps the losses of a batch of one."""

    nll_sum: Tensor
    per_token_nll: np.ndarray | list[np.ndarray]
    emo_nll: Tensor
    token_count: int
    memory: DecoderMemory
    feature: Tensor


@dataclass
class Reply:
    """One sample's answer from ``EmpathyModel.respond``."""

    response: GeneratedResponse
    emotion_probs: np.ndarray
    per_token_nll: np.ndarray


class EmpathyModel:
    """Encoder streams + tri-stream decoder + emotion head."""

    def __init__(
        self,
        *,
        vocab_size: int,
        num_emotions: int = 32,
        d: int = 64,
        layers: int = 2,
        heads: int = 4,
        ffn_mult: int = 4,
        dropout: float = 0.1,
        max_context_len: int = 256,
        max_analysis_len: int = 128,
        rng: np.random.Generator | None = None,
        seed: int = 0,
    ):
        rng = rng if rng is not None else np.random.default_rng(seed)
        self.d = d
        max_len = max(max_context_len, max_analysis_len, 512)
        self.context_encoder = EncoderStack(
            rng, vocab_size, d, layers, heads, ffn_mult, dropout, max_len
        )
        self.relation_encoder = EncoderStack(rng, vocab_size, d, layers, heads, ffn_mult, dropout, max_len)
        self.fusion = FusionParams.create(rng, d)
        self.decoder = DecoderStack(
            rng,
            vocab_size,
            d,
            layers,
            heads,
            ffn_mult,
            dropout,
            max_len,
            token_embedding=self.context_encoder.token_embedding,
        )
        self.classifier = Linear(rng, 3 * d, num_emotions)

    def named_parameters(self) -> dict[str, Tensor]:
        """Flat name->tensor map; shared tensors appear exactly once."""
        out: dict[str, Tensor] = {}
        seen: set[int] = set()
        groups = [
            ("context_encoder", self.context_encoder.parameters()),
            ("relation_encoder", self.relation_encoder.parameters()),
            ("fusion", self.fusion.parameters()),
            ("decoder", self.decoder.parameters()),
            ("classifier", self.classifier.parameters()),
        ]
        for prefix, params in groups:
            for name, tensor in params.items():
                if id(tensor) in seen:
                    continue
                seen.add(id(tensor))
                out[f"{prefix}.{name}"] = tensor
        return out

    def zero_grad(self) -> None:
        for t in self.named_parameters().values():
            t.zero_grad()

    # ------------------------------------------------------------------

    def check_lengths(self, preps: list[PreparedSample], plan: AblationPlan) -> None:
        """Refuse, by sample id, any sequence longer than the position table."""
        limit = len(self.context_encoder.positions)
        for prep in preps:
            for name, seqs in stream_ids(prep, plan).items():
                for ids in seqs:
                    if len(ids) > limit:
                        raise ValueError(
                            f"sample {prep.sample_id!r}: {name} of {len(ids)} tokens is longer "
                            f"than the model's {limit} positions"
                        )

    def encode_batch(
        self, preps: list[PreparedSample], plan: AblationPlan, rng=None
    ) -> tuple[DecoderMemory, Tensor]:
        """The decoder memory and the emotion features of the samples, run
        as one padded batch: each stream padded to its longest member and
        masked where padded. A lone sample is a batch of one, unmasked."""
        self.check_lengths(preps, plan)

        def encode(seqs):
            ids, lengths = pad_ids(seqs)
            return self.context_encoder.encode_padded(ids, lengths, rng), lengths

        context, context_len = encode([p.context_ids for p in preps])
        if plan.use_fusion:
            cause, cause_len = encode([p.cause_ids for p in preps])
            context = fuse_sensible(
                context, cause, self.fusion, mask=padding_mask(cause_len, cause.shape[-2])
            )
        knowledge = knowledge_len = pooled = None
        if plan.use_knowledge:
            relations = [p.relation_ids for p in preps]
            knowledge = encode_relations(relations, self.relation_encoder, rng=rng)
            knowledge_len = np.array([sum(map(len, r)) for r in relations])
            pooled = pool_knowledge(knowledge, knowledge_len)
        analysis = analysis_len = None
        if plan.use_analysis:
            analysis, analysis_len = encode([p.analysis_ids for p in preps])
        feature = fuse_features(context, analysis, pooled, self.d)
        lengths = (context_len, knowledge_len, analysis_len)
        return assemble_memory(context, knowledge, analysis, lengths), feature

    def forward_batch(self, preps: list[PreparedSample], plan: AblationPlan, rng=None) -> SampleForward:
        """Teacher-forced losses of the samples, in one padded batch."""
        memory, feature = self.encode_batch(preps, plan, rng)
        nll_sum, per_token = nll_loss([p.target_ids for p in preps], memory, self.decoder, rng)
        return SampleForward(
            nll_sum=nll_sum,
            per_token_nll=per_token,
            emo_nll=emotion_nll(feature, self.classifier, [p.emotion_index for p in preps]),
            token_count=sum(len(p.target_ids) for p in preps),
            memory=memory,
            feature=feature,
        )

    def forward_sample(self, prep: PreparedSample, plan: AblationPlan, rng=None) -> SampleForward:
        """``forward_batch`` of the one sample, its losses unwrapped: 0-d
        ``nll_sum`` and ``emo_nll`` nodes and one ``per_token_nll`` array.
        The memory and the feature keep their batch axis of 1."""
        fwd = self.forward_batch([prep], plan, rng)
        return replace(
            fwd, nll_sum=fwd.nll_sum.sum(), per_token_nll=fwd.per_token_nll[0], emo_nll=fwd.emo_nll.sum()
        )

    def respond(
        self,
        preps: list[PreparedSample],
        plan: AblationPlan,
        vocab: Vocab,
        strategy: str = "greedy",
        beam_size: int = 3,
        max_gen_len: int = 32,
    ) -> list[Reply]:
        """Each sample's reply, emotion probabilities and per-token NLL, all
        from one encoding of the sample without the tape. The samples run
        one at a time, each as a batch of one."""
        replies = []
        with no_grad():
            for prep in preps:
                fwd = self.forward_sample(prep, plan)
                response = generate(fwd.memory, self.decoder, vocab, strategy, beam_size, max_gen_len)
                probs = classify_emotion(fwd.feature, self.classifier)[0]
                replies.append(Reply(response, probs, fwd.per_token_nll))
        return replies

    def generate_response(
        self,
        prep: PreparedSample,
        plan: AblationPlan,
        vocab: Vocab,
        strategy: str = "greedy",
        beam_size: int = 3,
        max_gen_len: int = 32,
    ):
        with no_grad():
            memory, _ = self.encode_batch([prep], plan)
            return generate(memory, self.decoder, vocab, strategy, beam_size, max_gen_len)

    def classify(self, prep: PreparedSample, plan: AblationPlan) -> np.ndarray:
        with no_grad():
            _, feature = self.encode_batch([prep], plan)
            return classify_emotion(feature, self.classifier)[0]
