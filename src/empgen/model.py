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

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, no_grad
from .corpus import (
    DialogueSample,
    Vocab,
    encode_cause_ids,
    encode_dialogue,
    encode_response_ids,
)
from .decoder import DecoderMemory, DecoderStack, assemble_memory, generate, nll_loss
from .emotion import ClassifierParams, classify_emotion, emotion_nll, fuse_features, pool_knowledge
from .encoder import (
    EncoderStack,
    FusionParams,
    analysis_token_ids,
    encode_relations,
    fuse_sensible,
    relation_token_ids,
)
from .knowledge import AnalysisCache, CommonsenseProvider, LlmClient, build_analysis_prompt, query_analysis
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


@dataclass
class SampleForward:
    nll_sum: Tensor
    per_token_nll: np.ndarray
    emo_nll: Tensor
    token_count: int
    memory: DecoderMemory
    feature: Tensor


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
        share_relation_encoder: bool = False,
        classifier_bias: bool = True,
        rng: np.random.Generator | None = None,
        seed: int = 0,
    ):
        rng = rng if rng is not None else np.random.default_rng(seed)
        self.d = d
        self.max_analysis_len = max_analysis_len
        max_len = max(max_context_len, max_analysis_len, 512)
        self.context_encoder = EncoderStack(
            rng, vocab_size, d, layers, heads, ffn_mult, dropout, max_len
        )
        if share_relation_encoder:
            self.relation_encoder = self.context_encoder
        else:
            self.relation_encoder = EncoderStack(
                rng, vocab_size, d, layers, heads, ffn_mult, dropout, max_len
            )
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
        self.classifier = ClassifierParams.create(rng, d, num_emotions, classifier_bias)
        self.share_relation_encoder = share_relation_encoder

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

    def encode_streams(
        self, prep: PreparedSample, plan: AblationPlan, rng=None
    ) -> tuple[Tensor, Tensor | None, Tensor | None]:
        context = self.context_encoder.encode(prep.context_ids, rng)
        if plan.use_fusion:
            cause = self.context_encoder.encode(prep.cause_ids, rng)
            context = fuse_sensible(context, cause, self.fusion)
        knowledge = None
        if plan.use_knowledge:
            knowledge = encode_relations(prep.relation_ids, self.relation_encoder, rng=rng)
        analysis = None
        if plan.use_analysis:
            analysis = self.context_encoder.encode(prep.analysis_ids, rng)
        return context, knowledge, analysis

    def encode_sample(self, prep: PreparedSample, plan: AblationPlan, rng=None) -> tuple[DecoderMemory, Tensor]:
        """The decoder memory and the emotion feature of one sample."""
        context, knowledge, analysis = self.encode_streams(prep, plan, rng)
        pooled = pool_knowledge(knowledge) if knowledge is not None else None
        feature = fuse_features(context, analysis, pooled, self.d)
        return assemble_memory(context, knowledge, analysis), feature

    def forward_sample(self, prep: PreparedSample, plan: AblationPlan, rng=None) -> SampleForward:
        memory, feature = self.encode_sample(prep, plan, rng)
        nll_sum, per_token = nll_loss(prep.target_ids, memory, self.decoder, rng)
        emo = emotion_nll(feature, self.classifier, prep.emotion_index)
        return SampleForward(
            nll_sum=nll_sum,
            per_token_nll=per_token,
            emo_nll=emo,
            token_count=len(prep.target_ids),
            memory=memory,
            feature=feature,
        )

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
            memory, _ = self.encode_sample(prep, plan)
            return generate(memory, self.decoder, vocab, strategy, beam_size, max_gen_len)

    def classify(self, prep: PreparedSample, plan: AblationPlan) -> np.ndarray:
        with no_grad():
            _, feature = self.encode_sample(prep, plan)
            return classify_emotion(feature, self.classifier)
