"""Training-data generation for the detector and the corrector.

Three flavours of instances come out of an aligned (source, target) pair:

* detector instances: per-token 0/1 tags marking edited spans;
* gold corrector instances: the true edit spans with their replacements;
* sampled corrector instances: random spans of geometric(_GEOMETRIC_P)
  lengths up to _MAX_SPAN_LEN, covering a _COVERAGE_BUDGET share of the
  tokens, each paired with its target-side projection, so the corrector
  also learns to copy text the detector flagged by mistake.

A separate corruption routine fabricates noisy sources from clean text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .alignment import (
    AlignmentPath,
    EditSpan,
    TokenSeq,
    extract_edits,
    project_spans,
)
from .annotation import AnnotatedSentence, CorrectionOutput, annotate, fit_spans

# Random-span sampling: geometric lengths, a length cap, a coverage budget.
_GEOMETRIC_P = 0.2
_MAX_SPAN_LEN = 10
_COVERAGE_BUDGET = 0.15


@dataclass(frozen=True)
class EsdInstance:
    """A tagged sentence: tags[i] is 1 iff token i lies in an edited span."""

    tokens: TokenSeq
    tags: tuple[int, ...]

    def __post_init__(self):
        if len(self.tokens) != len(self.tags):
            raise ValueError("tokens and tags must have equal length")
        if not set(self.tags) <= {0, 1}:
            raise ValueError("tags must be 0s and 1s")


@dataclass(frozen=True)
class EscInstance:
    """An annotated sentence plus the gold replacements for its spans."""

    annotated: AnnotatedSentence
    correction: CorrectionOutput


@dataclass(frozen=True)
class CorruptConfig:
    """Per-token corruption probabilities and the vocabulary to draw from."""

    p_insert: float = 0.0
    p_delete: float = 0.0
    p_replace: float = 0.0
    p_swap: float = 0.0
    vocab: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        for name in ("p_insert", "p_delete", "p_replace", "p_swap"):
            p = getattr(self, name)
            if not (0 <= p <= 1):
                raise ValueError(f"{name} must be in [0, 1]")
        total = self.p_insert + self.p_delete + self.p_replace + self.p_swap
        if total > 1 + 1e-12:
            raise ValueError("corruption probabilities must sum to at most 1")
        if (self.p_insert > 0 or self.p_replace > 0) and not self.vocab:
            raise ValueError("insert/replace corruption needs a non-empty vocab")


def make_esd_instance(
    path: AlignmentPath, spans: Optional[Sequence[EditSpan]] = None
) -> EsdInstance:
    """Tag source tokens: 1 inside any gold edit span, 0 elsewhere. spans,
    when given, must be extract_edits(path). An empty source has no tokens
    to tag, nor a token to anchor an edit to."""
    if not path.source:
        return EsdInstance(tokens=(), tags=())
    tags = [0] * len(path.source)
    for span in extract_edits(path) if spans is None else spans:
        for i in range(span.src_start, span.src_end):
            tags[i] = 1
    return EsdInstance(tokens=path.source, tags=tuple(tags))


def make_esc_from_spans(path: AlignmentPath, spans: Sequence[EditSpan]) -> EscInstance:
    """Build a corrector instance for the given spans, fitted by `fit_spans`,
    with projected replacements."""
    spans = fit_spans(spans)
    annotated = annotate(path.source, spans)
    segments = tuple(enumerate(project_spans(path, spans), start=1))
    return EscInstance(annotated=annotated, correction=CorrectionOutput(segments))


def make_esc_gold(
    path: AlignmentPath, spans: Optional[Sequence[EditSpan]] = None, merge_gap: int = 0
) -> EscInstance:
    """Corrector instance over the gold edit spans, fitted by `fit_spans` at
    merge_gap, with the replacements extract_edits made; spans, when given,
    must be extract_edits(path). Fused spans take projected replacements."""
    spans = extract_edits(path) if spans is None else spans
    fitted = fit_spans(spans, merge_gap)
    if len(fitted) < len(spans):
        return make_esc_from_spans(path, fitted)
    segments = tuple(enumerate((span.replacement for span in spans), start=1))
    return EscInstance(annotate(path.source, spans), CorrectionOutput(segments))


def sample_spans(tokens: Sequence[str], rng: random.Random) -> list[EditSpan]:
    """Draw non-overlapping random spans until the coverage budget is met.

    Lengths are geometric(_GEOMETRIC_P) clipped to _MAX_SPAN_LEN, starts are
    uniform; overlapping draws are rejected, and sampling stops after the
    budget is reached or 50 rejections. Deterministic given the rng state.
    Spans carry no replacement.
    """
    n = len(tokens)
    if n < 1:
        raise ValueError("cannot sample spans from an empty sentence")
    target_cover = _COVERAGE_BUDGET * n
    occupied = [False] * n
    covered = 0
    rejections = 0
    spans: list[EditSpan] = []
    while covered < target_cover and rejections < 50:
        length = 1
        while length < _MAX_SPAN_LEN and rng.random() >= _GEOMETRIC_P:
            length += 1
        length = min(length, n)
        start = rng.randrange(0, n - length + 1)
        if any(occupied[start : start + length]):
            rejections += 1
            continue
        for i in range(start, start + length):
            occupied[i] = True
        covered += length
        spans.append(EditSpan(start, start + length))
    spans.sort(key=lambda s: s.src_start)
    return spans


def make_esc_sampled(path: AlignmentPath, rng: random.Random) -> EscInstance:
    """Corrector instance over randomly sampled spans (robustness training)."""
    return make_esc_from_spans(path, sample_spans(path.source, rng))


def corrupt(
    sentence: Sequence[str], cfg: CorruptConfig, rng: random.Random
) -> TokenSeq:
    """Randomly insert, delete, replace and swap adjacent tokens.

    One categorical draw per token picks at most one operation; a swap at
    the last position is skipped. Deterministic given the rng state.
    """
    if len(sentence) < 1:
        raise ValueError("cannot corrupt an empty sentence")
    out: list[str] = []
    tokens = list(sentence)
    i = 0
    t_ins = cfg.p_insert
    t_del = t_ins + cfg.p_delete
    t_rep = t_del + cfg.p_replace
    t_swp = t_rep + cfg.p_swap
    while i < len(tokens):
        u = rng.random()
        if u < t_ins:
            out.append(tokens[i])
            out.append(rng.choice(cfg.vocab))
        elif u < t_del:
            pass
        elif u < t_rep:
            out.append(rng.choice(cfg.vocab))
        elif u < t_swp and i + 1 < len(tokens):
            out.append(tokens[i + 1])
            out.append(tokens[i])
            i += 2
            continue
        else:
            out.append(tokens[i])
        i += 1
    return tuple(out)


def sentence_rng(seed: int, index: int) -> random.Random:
    """Per-sentence RNG so corpus generation parallelizes deterministically."""
    return random.Random(seed ^ index)
