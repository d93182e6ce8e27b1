"""The two-stage pipeline: detect erroneous spans, correct only those spans
and merge the corrections back, for one sentence or a whole corpus."""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from . import esc, esd, metrics
from .alignment import TokenSeq, align, merge_edits
from .annotation import MAX_SPANS, annotate, merge_corrections
from .datagen import make_esd_instance

SWEEP_THRESHOLDS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


def correct_sentence(
    tokens: TokenSeq,
    tagger: esd.EsdTagger,
    corrector: esc.PhraseTableCorrector,
    decode_cfg: esd.DecodeConfig,
) -> tuple[TokenSeq, int]:
    """Detect, correct and merge one sentence: (corrected tokens, span
    decoding steps). An error-free sentence passes through untouched at zero
    steps. A sentence with more detected spans than the markers can number
    has its spans fused across ever wider gaps until they fit."""
    spans = esd.decode_spans(tagger.predict_probs(tokens), decode_cfg)
    if not spans:
        return tokens, 0
    gap = decode_cfg.merge_gap
    while len(spans) > MAX_SPANS:
        gap += 1
        spans = merge_edits(spans, gap)
    annotated = annotate(tokens, spans)
    result = corrector.correct(annotated)
    return merge_corrections(annotated, result.output), result.decode_steps


def run_pipeline(
    sentences: Iterable[TokenSeq],
    tagger: esd.EsdTagger,
    corrector: esc.PhraseTableCorrector,
    decode_cfg: esd.DecodeConfig,
    write: Optional[Callable[[TokenSeq], object]] = None,
) -> tuple[list[TokenSeq], metrics.EfficiencyReport]:
    """Correct every sentence; the report compares the span decoding steps
    with the steps a full-sentence decoder would take on the outputs. With
    `write`, each output goes there as it is made and the list stays empty."""
    outputs: list[TokenSeq] = []
    if write is None:
        write = outputs.append
    records: list[tuple[int, int]] = []
    for tokens in sentences:
        corrected, span_steps = correct_sentence(tokens, tagger, corrector, decode_cfg)
        write(corrected)
        records.append((span_steps, esc.count_full_decode_steps(corrected)))
    return outputs, metrics.efficiency_report(records)


def threshold_sweep(
    tagger: esd.EsdTagger,
    pairs: Sequence[tuple[TokenSeq, TokenSeq]],
    thresholds: Sequence[float] = SWEEP_THRESHOLDS,
) -> list[tuple[float, metrics.PRF]]:
    """Token-level detection P/R/F0.5 at each probability threshold."""
    gold_tags = [make_esd_instance(align(src, tgt)).tags for src, tgt in pairs]
    all_probs = [tagger.predict_probs(src) for src, _ in pairs]
    rows = []
    for threshold in thresholds:
        pred_tags = [
            [1 if p >= threshold else 0 for p in probs] for probs in all_probs
        ]
        rows.append((threshold, metrics.detection_metrics(pred_tags, gold_tags)))
    return rows
