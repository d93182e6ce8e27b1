"""Two-stage grammatical error correction.

A sequence tagger flags erroneous token spans; a span-constrained corrector
rewrites only the flagged spans, which cuts decoding work roughly in
proportion to how much of the text is already correct.
"""

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
    SpanSampleConfig,
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
from .esd import DecodeConfig, EsdTagger, decode_spans, train_tagger
from .metrics import (
    PRF,
    EfficiencyReport,
    correction_metrics,
    detection_metrics,
    efficiency_report,
    f_beta,
)
from .pipeline import correct_sentence, run_pipeline

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
    "SpanSampleConfig",
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
