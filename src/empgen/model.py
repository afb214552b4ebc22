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
from typing import TYPE_CHECKING

import numpy as np

from .autodiff import Tensor, no_grad
from .corpus import (
    DEFAULT_MAX_CONTEXT_LEN,
    DialogueSample,
    Vocab,
    encode_cause_ids,
    encode_dialogue,
    encode_response_ids,
)
from .decoder import (
    DEFAULT_BEAM_SIZE, DEFAULT_MAX_GEN_LEN, DecoderMemory, DecoderStack, GeneratedResponse, assemble_memory,
    check_search, generate, nll_loss,
)
from .emotion import classify_emotion, emotion_nll, fuse_features, pool_knowledge
from .encoder import (
    DEFAULT_MAX_ANALYSIS_LEN,
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

if TYPE_CHECKING:
    from .training import TrainConfig


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


def position_count(max_context_len: int, max_analysis_len: int) -> int:
    """Rows of every stack's position table: the longest encoded stream,
    and never fewer than 512."""
    return max(max_context_len, max_analysis_len, 512)


class ProviderError(RuntimeError):
    """A provider required by the active ablation plan is missing."""


def plan_providers(plan: AblationPlan) -> list[str]:
    """The providers the plan calls, in pipeline order: the sentiment label
    feeds both the cause detector and the analysis prompt."""
    needed = {
        "sentiment": plan.use_fusion or plan.use_analysis,
        "cause": plan.use_fusion,
        "commonsense": plan.use_knowledge,
        "llm": plan.use_analysis,
    }
    return [name for name, used in needed.items() if used]


@dataclass
class Providers:
    sentiment: SentimentPredictor | None = None
    cause: CauseDetector | None = None
    commonsense: CommonsenseProvider | None = None
    llm: LlmClient | None = None
    analysis_cache: AnalysisCache | None = None

    def call_counts(self) -> dict[str, int]:
        providers = {name: getattr(self, name) for name in plan_providers(PLANS["full"])}
        return {name: p.calls if p else 0 for name, p in providers.items()}

    def require(self, plan: AblationPlan) -> None:
        missing = [name for name in plan_providers(plan) if getattr(self, name) is None]
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
    max_context_len: int = DEFAULT_MAX_CONTEXT_LEN,
    max_analysis_len: int = DEFAULT_MAX_ANALYSIS_LEN,
) -> PreparedSample:
    """Run the text-level pipeline for one sample: selection, knowledge,
    analysis. No model parameters are involved, so this happens once per
    run, not once per step. Like the context, the cause keeps the suffix
    of its ids that fits the position table."""
    prep = PreparedSample(
        sample_id=sample.id,
        context_ids=encode_dialogue(sample, vocab, max_context_len),
        target_ids=encode_response_ids(sample.gold_response, vocab),
        emotion_index=sample.gold_emotion.index,
    )
    label = providers.sentiment.predict(sample) if "sentiment" in plan_providers(plan) else None
    if plan.use_fusion:
        cause_utts = providers.cause.detect(sample, label)
        prep.cause_ids = encode_cause_ids(cause_utts, vocab)[-position_count(max_context_len, max_analysis_len) :]
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


def prepare_samples(samples, vocab, providers, plan, *caps):
    """``prepare_sample`` of each sample with the same length ``caps``, or
    its defaults, once the plan's providers are checked."""
    providers.require(plan)
    return [prepare_sample(s, vocab, providers, plan, *caps) for s in samples]


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

    def __init__(self, config: TrainConfig, vocab_size: int, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        d = config.d
        stack_args = (d, config.layers, config.heads, config.ffn_mult, config.dropout, config.positions)
        self.context_encoder = EncoderStack(rng, vocab_size, *stack_args)
        self.relation_encoder = EncoderStack(rng, vocab_size, *stack_args)
        self.fusion = FusionParams.create(rng, d)
        self.decoder = DecoderStack(rng, vocab_size, *stack_args, token_embedding=self.context_encoder.token_embedding)
        self.classifier = Linear(rng, 3 * d, config.num_emotions)

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
        feature = fuse_features(context, analysis, pooled)
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
        beam_size: int = DEFAULT_BEAM_SIZE,
        max_gen_len: int = DEFAULT_MAX_GEN_LEN,
    ) -> list[Reply]:
        """Each sample's reply, emotion probabilities and per-token NLL, all
        from one encoding of the sample without the tape. A sample with no
        target gets an empty NLL and no teacher-forced pass. The samples
        run one at a time, each as a batch of one, once ``check_search``
        allows the search."""
        check_search(self.decoder, strategy, beam_size, max_gen_len)
        replies = []
        with no_grad():
            for prep in preps:
                memory, feature = self.encode_batch([prep], plan)
                per_token = np.empty(0)
                if prep.target_ids:
                    per_token = nll_loss([prep.target_ids], memory, self.decoder)[1][0]
                response = generate(memory, self.decoder, vocab, strategy, beam_size, max_gen_len)
                probs = classify_emotion(feature, self.classifier)[0]
                replies.append(Reply(response, probs, per_token))
        return replies

    def generate_response(
        self,
        prep: PreparedSample,
        plan: AblationPlan,
        vocab: Vocab,
        strategy: str = "greedy",
        beam_size: int = DEFAULT_BEAM_SIZE,
        max_gen_len: int = DEFAULT_MAX_GEN_LEN,
    ):
        with no_grad():
            memory, _ = self.encode_batch([prep], plan)
            return generate(memory, self.decoder, vocab, strategy, beam_size, max_gen_len)

    def classify(self, prep: PreparedSample, plan: AblationPlan) -> np.ndarray:
        with no_grad():
            _, feature = self.encode_batch([prep], plan)
            return classify_emotion(feature, self.classifier)[0]
