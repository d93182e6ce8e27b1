"""Two-stage grammatical error correction.

A sequence tagger flags erroneous token spans; a span-constrained corrector
rewrites only the flagged spans, which cuts decoding work roughly in
proportion to how much of the text is already correct.
"""

import importlib

from .alignment import (
    AlignOp,
    AlignmentPath,
    EditSpan,
    TokenSeq,
    align,
    apply_spans,
    detokenize,
    extract_edits,
    merge_edits,
    project_spans,
    tokenize,
    validate_spans,
)
from .annotation import (
    AnnotatedSentence,
    CorrectionOutput,
    annotate,
    merge_corrections,
    parse_annotation,
    parse_correction,
    render_correction,
)
from .datagen import (
    CorruptConfig,
    EscInstance,
    EsdInstance,
    corrupt,
    make_esc_gold,
    make_esc_sampled,
    make_esd_instance,
    sample_spans,
)
from .esc import (
    CorrectionResult,
    PhraseTableCorrector,
    count_full_decode_steps,
    oracle_correct,
    train_corrector,
)
from .metrics import (
    PRF,
    EfficiencyReport,
    correction_metrics,
    detection_metrics,
    efficiency_report,
    f_beta,
)

# Imported on first use (PEP 562): the detector needs numpy, the pipeline
# needs the detector, and code that never scores a sentence needs neither.
_LAZY = dict.fromkeys(("DecodeConfig", "EsdTagger", "decode_spans", "train_tagger"), "esd")
_LAZY.update(correct_sentence="pipeline", run_pipeline="pipeline", esd=None, pipeline=None)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name] or name}")
    return getattr(module, name) if _LAZY[name] else module


__version__ = "0.1.0"

__all__ = [
    "AlignOp",
    "AlignmentPath",
    "AnnotatedSentence",
    "CorrectionOutput",
    "CorrectionResult",
    "CorruptConfig",
    "DecodeConfig",
    "EditSpan",
    "EfficiencyReport",
    "EscInstance",
    "EsdInstance",
    "EsdTagger",
    "PRF",
    "PhraseTableCorrector",
    "TokenSeq",
    "align",
    "annotate",
    "apply_spans",
    "correct_sentence",
    "correction_metrics",
    "corrupt",
    "count_full_decode_steps",
    "decode_spans",
    "detection_metrics",
    "detokenize",
    "efficiency_report",
    "extract_edits",
    "f_beta",
    "make_esc_gold",
    "make_esc_sampled",
    "make_esd_instance",
    "merge_corrections",
    "merge_edits",
    "oracle_correct",
    "parse_annotation",
    "parse_correction",
    "project_spans",
    "render_correction",
    "run_pipeline",
    "sample_spans",
    "tokenize",
    "train_corrector",
    "train_tagger",
    "validate_spans",
]
