"""Detection, correction and efficiency metrics.

Detection is token-level micro-averaged P/R/F0.5; correction matches
hypothesis edits against gold edits exactly on (start, end, replacement),
both derived from the same alignment machinery. Efficiency compares
span-constrained decoding steps with the full-sentence baseline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .alignment import align, extract_edits
from .errors import LengthMismatchError


def f_beta(p: float, r: float, beta: float) -> float:
    """(1 + beta^2) p r / (beta^2 p + r), 0 when p = r = 0.

    Homogeneous of degree one, so it works on the 0-1 scale and the percent
    scale alike.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    denom = beta * beta * p + r
    if denom == 0:
        return 0.0
    return (1 + beta * beta) * p * r / denom


@dataclass(frozen=True)
class PRF:
    """Micro counts with precision, recall and F0.5 (0/0 counts as 0)."""

    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0

    @property
    def f_half(self) -> float:
        return f_beta(self.precision, self.recall, 0.5)

    def to_json(self) -> str:
        return json.dumps(
            {
                "precision": self.precision,
                "recall": self.recall,
                "f0_5": self.f_half,
                "tp": self.tp,
                "fp": self.fp,
                "fn": self.fn,
            }
        )

    def as_percent_row(self) -> str:
        """One-decimal percent formatting, mirroring published GEC tables."""
        return (
            f"{100 * self.precision:.1f}\t{100 * self.recall:.1f}"
            f"\t{100 * self.f_half:.1f}"
        )


def detection_metrics(pred_tags, gold_tags) -> PRF:
    """Token-level micro P/R/F0.5 over a corpus: one 0/1 tag sequence per
    sentence on each side."""
    if len(pred_tags) != len(gold_tags):
        raise LengthMismatchError("corpora have different sentence counts")
    tp = fp = fn = 0
    for pred, gold in zip(pred_tags, gold_tags):
        if len(pred) != len(gold):
            raise LengthMismatchError("tag sequences have different lengths")
        for p, g in zip(pred, gold):
            if p and g:
                tp += 1
            elif p and not g:
                fp += 1
            elif g and not p:
                fn += 1
    return PRF(tp=tp, fp=fp, fn=fn)


def _edit_set(source, other):
    if not source and other:  # no source token to anchor the insertion to
        return {(0, 0, tuple(other))}
    return {
        (s.src_start, s.src_end, s.replacement)
        for s in extract_edits(align(source, other))
    }


def correction_metrics(sources, hypotheses, gold_targets) -> PRF:
    """Edit-level micro P/R/F0.5: a hypothesis edit is correct iff a gold
    edit has the same source range and replacement, over parallel corpora
    of token sequences."""
    if not (len(sources) == len(hypotheses) == len(gold_targets)):
        raise LengthMismatchError("corpora have different sentence counts")
    tp = fp = fn = 0
    for src, hyp, gold in zip(sources, hypotheses, gold_targets):
        hyp_edits = _edit_set(src, hyp)
        gold_edits = _edit_set(src, gold)
        tp += len(hyp_edits & gold_edits)
        fp += len(hyp_edits - gold_edits)
        fn += len(gold_edits - hyp_edits)
    return PRF(tp=tp, fp=fp, fn=fn)


@dataclass(frozen=True)
class EfficiencyReport:
    """Decoding-step accounting for a pipeline run over a corpus."""

    n_sentences: int
    n_flagged: int
    span_decode_steps: int
    full_decode_steps: int

    @property
    def ratio(self) -> float:
        if self.full_decode_steps == 0:
            return 0.0
        return self.span_decode_steps / self.full_decode_steps

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_sentences": self.n_sentences,
                "n_flagged": self.n_flagged,
                "span_decode_steps": self.span_decode_steps,
                "full_decode_steps": self.full_decode_steps,
                "ratio": self.ratio,
            }
        )
