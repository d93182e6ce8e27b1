"""Span correctors: a phrase-table memorizer and a gold oracle.

Both consume an annotated sentence and emit marker-wrapped replacements plus
the number of decoding steps a span-constrained decoder would spend (every
emitted token counts, markers included). The phrase table is the desk-scale
stand-in for a seq2seq model; the oracle replays gold replacements and backs
round-trip tests.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .alignment import TokenSeq, detokenize, tokenize
from .annotation import AnnotatedSentence, CorrectionOutput
from .datagen import EscInstance
from .errors import EmptyCorpusError, ModelFormatError


@dataclass(frozen=True)
class CorrectionResult:
    """A correction plus its decoding-step count (tokens emitted, markers included)."""

    output: CorrectionOutput
    decode_steps: int


def _count_steps(output: CorrectionOutput) -> int:
    return sum(len(repl) + 2 for _, repl in output.segments)


class PhraseTableCorrector:
    """Frequency-based span corrector.

    Lookup key is (left-context token, span tokens); backoff drops the
    context, then falls back to copying the span unchanged. The most
    frequent replacement wins, ties broken lexicographically.
    """

    def __init__(self):
        self._by_context: dict[tuple[Optional[str], TokenSeq], Counter] = {}
        self._by_span: dict[TokenSeq, Counter] = {}

    def fit(self, instances: Iterable[EscInstance]) -> "PhraseTableCorrector":
        instances = list(instances)
        if not instances:
            raise EmptyCorpusError("no training instances")
        for inst in instances:
            by_number = dict(inst.correction.segments)
            for k, span in enumerate(inst.annotated.spans, start=1):
                if k not in by_number:
                    continue
                span_tokens = inst.annotated.source[span.src_start : span.src_end]
                ctx = (
                    inst.annotated.source[span.src_start - 1]
                    if span.src_start > 0
                    else None
                )
                repl = by_number[k]
                key = (ctx, span_tokens)
                self._by_context.setdefault(key, Counter())[repl] += 1
                self._by_span.setdefault(span_tokens, Counter())[repl] += 1
        return self

    @staticmethod
    def _best(counter: Counter) -> TokenSeq:
        return min(counter, key=lambda repl: (-counter[repl], repl))

    def lookup(self, ctx: Optional[str], span_tokens: TokenSeq) -> TokenSeq:
        counter = self._by_context.get((ctx, span_tokens))
        if counter:
            return self._best(counter)
        counter = self._by_span.get(span_tokens)
        if counter:
            return self._best(counter)
        return span_tokens

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
        """Phrase-table JSONL: {"ctx", "span", "repl", "count"} per record."""
        records = []
        for (ctx, span_tokens), counter in self._by_context.items():
            for repl, count in counter.items():
                records.append(
                    {
                        "ctx": ctx,
                        "span": detokenize(span_tokens),
                        "repl": detokenize(repl),
                        "count": count,
                    }
                )
        records.sort(key=lambda r: (r["span"], r["ctx"] or "", r["repl"]))
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")

    @classmethod
    def load(cls, path: str) -> "PhraseTableCorrector":
        model = cls()
        with open(path, "r", encoding="utf-8") as fh:
            try:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    record = json.loads(line)
                    span_tokens = tokenize(record["span"])
                    repl = tokenize(record["repl"])
                    key = (record["ctx"], span_tokens)
                    count = int(record["count"])
                    model._by_context.setdefault(key, Counter())[repl] += count
                    model._by_span.setdefault(span_tokens, Counter())[repl] += count
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                # ValueError covers bad JSON, bad UTF-8 and a non-integer count;
                # the others a record of the wrong shape or field types.
                raise ModelFormatError(f"corrupt corrector model {path}: {exc}") from exc
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
