"""Likelihood-supervised in-context example retrieval for ABSA, desk scale."""

from .config import Config, substream
from .corpus import (
    AspectLabel,
    Dataset,
    Polarity,
    Sample,
    Task,
    generate_synthetic,
    load_dataset,
    parse_output,
    save_dataset,
    serialize_label,
    to_atsc,
    with_task,
)
from .evaluation import AblationMode, Metrics, atsc_accuracy, k_sweep, run_inference, tuple_f1
from .retriever import init_retriever, retrieve
from .scorer import init_scorer, generate, score
from .template import atsc_input, candidate_text, load_templates, make_candidate, render

__all__ = [
    "AblationMode", "AspectLabel", "Config", "Dataset", "Metrics", "Polarity",
    "Sample", "Task", "atsc_accuracy", "atsc_input", "candidate_text",
    "generate", "generate_synthetic", "init_retriever", "init_scorer",
    "k_sweep", "load_dataset", "load_templates", "make_candidate",
    "parse_output", "render", "retrieve", "run_inference", "save_dataset",
    "score", "serialize_label", "substream", "to_atsc", "tuple_f1", "with_task",
]
