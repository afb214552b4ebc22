"""Versioned test assets: a balanced synthetic mini-corpus over the 32
labels, plus deterministic selector/knowledge fixtures derived from it,
so the whole pipeline runs offline."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .corpus import LabelSet, parse_sample
from .knowledge import (
    ANALYSIS_FIXTURE,
    COMMONSENSE_FIXTURE,
    EchoLlmClient,
    FixtureCommonsenseProvider,
    TemplateCommonsenseProvider,
    build_analysis_prompt,
    prompt_cache_key,
)
from .selectors import SELECTOR_FIXTURE, HeuristicCauseDetector, load_lexicon
from .util import write_jsonl

_EVENTS = [
    "my exam",
    "the trip",
    "my new job",
    "the big game",
    "my old friend",
    "the news",
    "my family dinner",
    "the long meeting",
    "my neighbor",
    "the weekend plan",
]

_OPENERS = [
    "i felt so {w} when i thought about {e} . i guess i am {label} .",
    "honestly {e} left me feeling {w} all day , {label} even .",
    "talking about {e} makes me {w} again . call it {label} .",
]

_LISTENER_LINES = [
    "i hear you . why did {e} make you feel that way ?",
    "that makes sense . tell me more about {e} .",
    "i see . it sounds like {e} really mattered to you .",
]

_FOLLOWUPS = [
    "yeah , i am still {w} about it , i guess i am just {label} .",
    "right , deep down {e} makes me feel properly {label} .",
    "exactly , being {w} like this means i am {label} .",
]

_RESPONSES = [
    "it is natural to feel {w} about {e} . i am here for you .",
    "feeling {label} after {e} makes sense . thank you for sharing .",
    "i understand why {e} made you feel {w} . that sounds {label} .",
]


def label_words(lexicon: dict[str, list[str]], label: str) -> list[str]:
    return sorted(w for w, names in lexicon.items() if label in names)


def generate_mini_corpus(seed: int, size: int = 200) -> list[dict]:
    """Balanced, label-signaled dialogues as raw dataset records.

    Every label appears floor(size/32) or ceil(size/32) times; each
    dialogue plants lexicon words of its label so the heuristic selector
    and the classifier have learnable signal. Byte-identical output for a
    fixed seed.
    """
    labels = LabelSet.default()
    if size < len(labels):
        raise ValueError(f"size must be at least {len(labels)}")
    lexicon = load_lexicon(labels=labels)
    rng = np.random.default_rng(seed)
    base, extra = divmod(size, len(labels))
    records = []
    i = 0
    for index, name in enumerate(labels.names):
        count = base + (1 if index < extra else 0)
        words = label_words(lexicon, name)
        for _ in range(count):
            w1 = words[rng.integers(len(words))]
            w2 = words[rng.integers(len(words))]
            event = _EVENTS[rng.integers(len(_EVENTS))]
            opener = _OPENERS[rng.integers(len(_OPENERS))].format(w=w1, e=event, label=name)
            n_turns = [1, 3, 5][rng.integers(3)]
            history = [{"role": "speaker", "text": opener}]
            if n_turns >= 3:
                listener = _LISTENER_LINES[rng.integers(len(_LISTENER_LINES))].format(e=event)
                follow = _FOLLOWUPS[rng.integers(len(_FOLLOWUPS))].format(
                    w=w2, e=event, label=name
                )
                history += [{"role": "listener", "text": listener}, {"role": "speaker", "text": follow}]
            if n_turns == 5:
                history += [
                    {"role": "listener", "text": "that sounds important . how do you feel now ?"},
                    {
                        "role": "speaker",
                        "text": f"thinking of {event} , mostly i stay {w1} and {name} .",
                    },
                ]
            response = _RESPONSES[rng.integers(len(_RESPONSES))].format(
                w=w1, e=event, label=name
            )
            records.append(
                {
                    "id": f"mini-{i:04d}",
                    "history": history,
                    "emotion": name,
                    "response": response,
                }
            )
            i += 1
    return records


def write_selector_fixtures(records: list[dict], out_dir: str | Path) -> Path:
    """Authored sentiment labels and cause spans, one row per sample: the
    gold label, and the turns that ``HeuristicCauseDetector`` picks for it.

    A single file serves both the fixture sentiment backend (reads e_ano)
    and the fixture cause backend (reads cause_turn_indices).
    """
    labels = LabelSet.default()
    detector = HeuristicCauseDetector(load_lexicon(labels=labels))
    rows = []
    for r in records:
        sample = parse_sample(r, labels)
        turns = [u.turn_index for u in detector.detect(sample, sample.gold_emotion)]
        rows.append({"id": r["id"], "e_ano": r["emotion"], "cause_turn_indices": turns})
    path = Path(out_dir) / SELECTOR_FIXTURE
    write_jsonl(path, rows)
    return path


def write_knowledge_fixtures(records: list[dict], out_dir: str | Path) -> tuple[Path, Path]:
    """Deterministic commonsense and analysis fixture files for the corpus.

    Relation texts come from the template provider; analysis responses
    from the echo stub keyed by the rendered prompt. The built files feed
    the fixture backends so training runs with zero live providers.
    """
    labels = LabelSet.default()
    out_dir = Path(out_dir)
    template_provider = TemplateCommonsenseProvider()
    echo = EchoLlmClient()

    comet_rows = []
    seen_hashes = set()
    analysis_rows = []
    for r in records:
        sample = parse_sample(r, labels)
        last = sample.last_utterance.text
        h = FixtureCommonsenseProvider.utterance_hash(last)
        if h not in seen_hashes:
            seen_hashes.add(h)
            bundle = template_provider.generate(last)
            comet_rows.append({"hash": h, "utterance": last, "relations": bundle.relations})
        prompt = build_analysis_prompt(sample, sample.gold_emotion)
        analysis_rows.append(
            {"cache_key": prompt_cache_key(prompt), "prompt": prompt, "response": echo.complete(prompt)}
        )
    commonsense_path = out_dir / COMMONSENSE_FIXTURE
    analysis_path = out_dir / ANALYSIS_FIXTURE
    write_jsonl(commonsense_path, comet_rows)
    write_jsonl(analysis_path, analysis_rows)
    return commonsense_path, analysis_path
