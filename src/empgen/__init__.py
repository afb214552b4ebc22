"""Desk-scale empathetic dialogue response generation.

Sensible/rational context fusion, commonsense and LLM-analysis knowledge
streams, a tri-stream decoder, and joint response-generation plus
emotion-classification training, with a metrics suite and an ablation
harness.
"""

__version__ = "0.1.0"

from .corpus import DialogueSample, EmotionLabel, LabelSet, Utterance, Vocab
from .model import ABLATION_ORDER, PLANS, EmpathyModel, Providers
from .training import TrainConfig, load_checkpoint, save_checkpoint, train

__all__ = [
    "DialogueSample",
    "EmotionLabel",
    "LabelSet",
    "Utterance",
    "Vocab",
    "EmpathyModel",
    "Providers",
    "PLANS",
    "ABLATION_ORDER",
    "TrainConfig",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "__version__",
]
