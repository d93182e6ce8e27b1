"""Numbered span markers: rendering, parsing and merging corrections back.

An annotated sentence looks like

    The law 's spirit <s1> also include the fairness . </s1>

and a corrector answers with marker-wrapped replacements only, e.g.

    <s1> also includes fairness . </s1>

Markers <s1>..</s64> are reserved tokens; a source that holds one literally
cannot be rendered, so what is written parses back unambiguously.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .alignment import EditSpan, TokenSeq, detokenize, tokenize, validate_spans
from .errors import DataError, MalformedMarkersError, OverlapError, ReservedTokenError

MAX_SPANS = 64


def fit_spans(spans: Sequence[EditSpan]) -> list[EditSpan]:
    """The spans unchanged if the markers can number them all; otherwise
    fused across the smallest gap, at least 1, that leaves at most
    MAX_SPANS. Fused spans carry no replacement; project_spans gives them."""
    if len(spans) <= MAX_SPANS:
        return list(spans)
    # Fusing at gap g leaves one span per original gap wider than g.
    gaps = sorted((b.src_start - a.src_end for a, b in zip(spans, spans[1:])), reverse=True)
    gap = max(gaps[MAX_SPANS - 1], 1)
    fused: list[EditSpan] = []
    for span in spans:
        if fused and span.src_start - fused[-1].src_end <= gap:
            fused[-1] = EditSpan(fused[-1].src_start, span.src_end)
        else:
            fused.append(EditSpan(span.src_start, span.src_end))
    return fused


def open_marker(k: int) -> str:
    return f"<s{k}>"


def close_marker(k: int) -> str:
    return f"</s{k}>"


# The reserved tokens <sK> and </sK> for K in 1..MAX_SPANS: (K, is_close).
_MARKERS = {open_marker(k): (k, False) for k in range(1, MAX_SPANS + 1)}
_MARKERS.update({close_marker(k): (k, True) for k in range(1, MAX_SPANS + 1)})


def check_no_reserved(tokens: Sequence[str]) -> None:
    """Reject text that uses a reserved marker token literally."""
    if not _MARKERS.keys().isdisjoint(tokens):  # one C-level scan; a hit is rare
        tok = next(tok for tok in tokens if tok in _MARKERS)
        raise ReservedTokenError(f"token {tok!r} is a reserved span marker")


@dataclass(frozen=True)
class AnnotatedSentence:
    """Source tokens plus spans; `rendered` puts the markers in."""

    source: TokenSeq
    spans: tuple[EditSpan, ...]

    @property
    def rendered(self) -> TokenSeq:
        """The source with <sK> ... </sK> around span K, numbered from 1; a
        source holding a reserved marker is rejected."""
        check_no_reserved(self.source)
        out: list[str] = []
        cursor = 0
        for k, span in enumerate(self.spans, start=1):
            out += self.source[cursor : span.src_start]
            out.append(open_marker(k))
            out += self.source[span.src_start : span.src_end]
            out.append(close_marker(k))
            cursor = span.src_end
        out += self.source[cursor:]
        return tuple(out)


@dataclass(frozen=True)
class CorrectionOutput:
    """Ordered (span number, replacement tokens) segments."""

    segments: tuple[tuple[int, TokenSeq], ...]


def annotate(source: Sequence[str], spans: Sequence[EditSpan]) -> AnnotatedSentence:
    """The source and its spans, which must be sorted, disjoint, in range
    and at most MAX_SPANS."""
    src = tuple(source)
    validate_spans(spans, len(src))
    if len(spans) > MAX_SPANS:
        raise OverlapError(f"at most {MAX_SPANS} spans per sentence")
    return AnnotatedSentence(source=src, spans=tuple(spans))


def _pieces(tokens: Sequence[str]) -> Iterator[tuple[Optional[int], TokenSeq]]:
    """The tokens cut at the markers, in order: (None, run) for each run
    outside marker pairs, empty runs included, and (K, inside) for each
    <sK> ... </sK>. Pairs may not nest, and every marker must be paired."""
    tokens = tuple(tokens)
    open_num: Optional[int] = None
    start = 0
    for i in [i for i, tok in enumerate(tokens) if tok in _MARKERS]:
        num, is_close = _MARKERS[tokens[i]]
        if not is_close:
            if open_num is not None:
                raise MalformedMarkersError(f"nested marker {tokens[i]!r}")
            yield None, tokens[start:i]
            open_num = num
        elif num == open_num:
            yield num, tokens[start:i]
            open_num = None
        else:
            raise MalformedMarkersError(f"unbalanced close marker {tokens[i]!r}")
        start = i + 1
    if open_num is not None:
        raise MalformedMarkersError(f"marker <s{open_num}> never closed")
    yield None, tokens[start:]


def parse_annotation(rendered: Sequence[str]) -> AnnotatedSentence:
    """Inverse of annotate: recover source tokens and span ranges.

    Markers must be non-nested, balanced and numbered 1..n left to right,
    and no span may be empty.
    """
    source: list[str] = []
    spans: list[EditSpan] = []
    for num, piece in _pieces(rendered):
        if num is not None:
            if num != len(spans) + 1:
                raise MalformedMarkersError(
                    f"expected marker <s{len(spans) + 1}>, found {open_marker(num)!r}"
                )
            if not piece:
                raise MalformedMarkersError(f"empty span {num}")
            spans.append(EditSpan(len(source), len(source) + len(piece)))
        source += piece
    return AnnotatedSentence(source=tuple(source), spans=tuple(spans))


def parse_correction(output_tokens: Sequence[str]) -> CorrectionOutput:
    """Extract marker-wrapped segments from a corrector's raw token output.

    Text outside any marker pair is ignored (a learned model may emit noise).
    A duplicated span number keeps its first occurrence.
    """
    segments: dict[int, TokenSeq] = {}
    for num, piece in _pieces(output_tokens):
        if num is not None:
            segments.setdefault(num, piece)
    return CorrectionOutput(segments=tuple(sorted(segments.items())))


def render_correction(corr: CorrectionOutput) -> TokenSeq:
    """Serialize a correction back to its marker-wrapped token form."""
    out: list[str] = []
    for k, repl in corr.segments:
        out.append(open_marker(k))
        out.extend(repl)
        out.append(close_marker(k))
    return tuple(out)


def merge_corrections(annotated: AnnotatedSentence, corr: CorrectionOutput) -> TokenSeq:
    """Substitute each span's tokens by its correction segment; a span
    without a segment stays unchanged (a no-op correction)."""
    by_number = dict(corr.segments)
    out: list[str] = []
    cursor = 0
    for k, span in enumerate(annotated.spans, start=1):
        out.extend(annotated.source[cursor : span.src_start])
        out.extend(by_number.get(k, annotated.source[span.src_start : span.src_end]))
        cursor = span.src_end
    out.extend(annotated.source[cursor:])
    return tuple(out)


def to_json_record(annotated: AnnotatedSentence, correction: CorrectionOutput) -> str:
    """One corrector training record: {"rendered", "correction"}."""
    record = {
        "rendered": detokenize(annotated.rendered),
        "correction": detokenize(render_correction(correction)),
    }
    return json.dumps(record, ensure_ascii=False)


def from_json_record(line: str) -> tuple[AnnotatedSentence, CorrectionOutput]:
    """Inverse of to_json_record; both fields must be strings."""
    record = json.loads(line)
    rendered, correction = record.get("rendered"), record.get("correction")
    if not (isinstance(rendered, str) and isinstance(correction, str)):
        raise DataError('a record needs string "rendered" and "correction" fields')
    return parse_annotation(tokenize(rendered)), parse_correction(tokenize(correction))
