"""The two-stage pipeline: detect erroneous spans, correct only those spans
and merge the corrections back, over a corpus of sentences."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import esc, esd, metrics
from .alignment import TokenSeq, align
from .annotation import annotate, merge_corrections
from .datagen import make_esd_instance

SWEEP_THRESHOLDS = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
# Tokens, plus one a sentence for its boundary, that the detector scores as
# one block; chosen by `run`'s peak RSS on the benchmark corpora.
_BLOCK_TOKENS = 4096


def _blocks(sentences: Iterable[TokenSeq]) -> Iterator[list[TokenSeq]]:
    """The sentences in blocks of about _BLOCK_TOKENS tokens. If reading a
    sentence raises, the block read so far comes out before the error."""
    block: list[TokenSeq] = []
    size = 0
    try:
        for tokens in sentences:
            block.append(tokens)
            size += len(tokens) + 1
            if size >= _BLOCK_TOKENS:
                yield block
                block, size = [], 0
    except Exception:
        if block:
            yield block
        raise
    if block:
        yield block


def _correct_scored(
    tokens: TokenSeq,
    probs: Sequence[float],
    corrector: esc.PhraseTableCorrector,
    decode_cfg: esd.DecodeConfig,
) -> tuple[TokenSeq, int]:
    """Correct one sentence given the detector's probabilities: (corrected
    tokens, span decoding steps). An error-free sentence passes through
    untouched at zero steps. More detected spans than the markers can number
    are fused by `fit_spans` until they fit."""
    spans = esd.decode_spans(probs, decode_cfg)
    if not spans:
        return tokens, 0
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
    with the steps a full-sentence decoder would take on the outputs, and a
    sentence counts as flagged iff the detector found a span in it. With
    `write`, each output goes there as it is made, a block at a time, and the
    list stays empty. Only running totals are kept for the report."""
    outputs: list[TokenSeq] = []
    if write is None:
        write = outputs.append
    n_sentences = n_flagged = span_total = full_total = 0
    for block in _blocks(sentences):
        for tokens, probs in zip(block, tagger.block_probs(block)):
            corrected, span_steps = _correct_scored(tokens, probs, corrector, decode_cfg)
            write(corrected)
            n_sentences += 1
            n_flagged += span_steps > 0
            span_total += span_steps
            full_total += esc.count_full_decode_steps(corrected)
    return outputs, metrics.EfficiencyReport(n_sentences, n_flagged, span_total, full_total)


def threshold_sweep(
    tagger: esd.EsdTagger,
    pairs: Sequence[tuple[TokenSeq, TokenSeq]],
    thresholds: Sequence[float] = SWEEP_THRESHOLDS,
) -> list[tuple[float, metrics.PRF]]:
    """Token-level detection P/R/F0.5 at each probability threshold."""
    gold_tags = [make_esd_instance(align(src, tgt)).tags for src, tgt in pairs]
    all_probs = [
        probs for block in _blocks(src for src, _ in pairs) for probs in tagger.block_probs(block)
    ]
    rows = []
    for threshold in thresholds:
        pred_tags = [[1 if p >= threshold else 0 for p in probs] for probs in all_probs]
        rows.append((threshold, metrics.detection_metrics(pred_tags, gold_tags)))
    return rows
