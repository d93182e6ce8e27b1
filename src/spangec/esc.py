"""Span correctors: a phrase-table memorizer and a gold oracle.

Both consume an annotated sentence and emit marker-wrapped replacements plus
the number of decoding steps a span-constrained decoder would spend (every
emitted token counts, markers included). The phrase table is the desk-scale
stand-in for a seq2seq model; the oracle replays gold replacements and backs
round-trip tests.

The phrase table is one table of counts, saved as it is held in one JSON
document: {"format": 1, "counts": {span: {context: {replacement: count}}}}.
Spans and replacements are detokenized, which loses nothing since tokens
hold no whitespace; the context is the token left of the span, "" at a
sentence start.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .alignment import TokenSeq, detokenize, tokenize
from .annotation import AnnotatedSentence, CorrectionOutput
from .datagen import EscInstance
from .errors import EmptyCorpusError, ModelFormatError

FORMAT = 1  # the layout version of a saved phrase table


@dataclass(frozen=True)
class CorrectionResult:
    """A correction plus its decoding-step count (tokens emitted, markers included)."""

    output: CorrectionOutput
    decode_steps: int


def _count_steps(output: CorrectionOutput) -> int:
    return sum(len(repl) + 2 for _, repl in output.segments)


class PhraseTableCorrector:
    """Frequency-based span corrector.

    Lookup tries (context, span), then backs off to the span's counts summed
    over its contexts, then copies the span unchanged. The most frequent
    replacement wins, ties broken by the smallest token sequence.
    """

    def __init__(self):
        self._counts: dict[str, dict[str, dict[str, int]]] = {}
        self._span_counts: dict[str, dict[str, int]] = {}

    def fit(self, instances: Iterable[EscInstance]) -> "PhraseTableCorrector":
        instances = list(instances)
        if not instances:
            raise EmptyCorpusError("no training instances")
        for inst in instances:
            by_number = dict(inst.correction.segments)
            source = inst.annotated.source
            for k, span in enumerate(inst.annotated.spans, start=1):
                if k not in by_number:
                    continue
                span_text = detokenize(source[span.src_start : span.src_end])
                ctx = source[span.src_start - 1] if span.src_start > 0 else ""
                repls = self._counts.setdefault(span_text, {}).setdefault(ctx, {})
                repl = detokenize(by_number[k])
                repls[repl] = repls.get(repl, 0) + 1
        self._sum_contexts()
        return self

    def _sum_contexts(self) -> None:
        """Sum each span's counts over its contexts, checking the table's shape."""
        self._span_counts = {}
        for span, contexts in self._counts.items():
            total: dict[str, int] = {}
            for repls in contexts.values():
                for repl, count in repls.items():
                    # bool is an int subclass, so index() takes True as 1.
                    if isinstance(count, bool) or operator.index(count) < 1:
                        raise ValueError(f"count {count!r} of {repl!r} for {span!r}")
                    total[repl] = total.get(repl, 0) + count
            self._span_counts[span] = total

    def lookup(self, ctx: Optional[str], span_tokens: TokenSeq) -> TokenSeq:
        span = detokenize(span_tokens)
        repls = self._counts.get(span, {}).get(ctx or "") or self._span_counts.get(span)
        if not repls:
            return span_tokens
        top = max(repls.values())
        # Token tuples, not texts: ("a", "b") < ("a\x01",) but "a b" > "a\x01".
        return min(tokenize(repl) for repl, count in repls.items() if count == top)

    def correct(self, annotated: AnnotatedSentence) -> CorrectionResult:
        """One segment per span, in order. Requires at least one span:
        error-free sentences are short-circuited before the corrector."""
        if not annotated.spans:
            raise ValueError("corrector requires at least one annotated span")
        segments = []
        for k, span in enumerate(annotated.spans, start=1):
            span_tokens = annotated.source[span.src_start : span.src_end]
            ctx = annotated.source[span.src_start - 1] if span.src_start > 0 else None
            segments.append((k, self.lookup(ctx, span_tokens)))
        output = CorrectionOutput(segments=tuple(segments))
        return CorrectionResult(output=output, decode_steps=_count_steps(output))

    def save(self, path: str) -> None:
        document = {"format": FORMAT, "counts": self._counts}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(document, ensure_ascii=False, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str) -> "PhraseTableCorrector":
        model = cls()
        with open(path, "r", encoding="utf-8") as fh:
            try:
                document = json.load(fh)
                if document["format"] != FORMAT:
                    raise ValueError(f"format {document['format']!r}")
                model._counts = document["counts"]
                model._sum_contexts()
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
                # ValueError: bad JSON (an older JSONL model too) or UTF-8.
                message = f"{path} is not a format-{FORMAT} corrector model: {exc!r}"
                raise ModelFormatError(message + "; retrain it with train-esc") from exc
        return model


def train_corrector(instances: Iterable[EscInstance]) -> PhraseTableCorrector:
    return PhraseTableCorrector().fit(instances)


def oracle_correct(instance: EscInstance) -> CorrectionResult:
    """Replay the instance's gold replacements; used for round-trip checks."""
    return CorrectionResult(
        output=instance.correction, decode_steps=_count_steps(instance.correction)
    )


def count_full_decode_steps(target: Sequence[str]) -> int:
    """Steps a full-sentence decoder would take: every token plus end-of-sequence."""
    return len(target) + 1
