"""Numbered span markers: rendering, parsing and merging corrections back.

An annotated sentence looks like

    The law 's spirit <s1> also include the fairness . </s1>

and a corrector answers with marker-wrapped replacements only, e.g.

    <s1> also includes fairness . </s1>

Markers <s1>..</s64> are reserved tokens; text containing them literally is
rejected at ingestion so parsing is unambiguous.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .alignment import EditSpan, TokenSeq, detokenize, merge_edits, tokenize, validate_spans
from .errors import DataError, MalformedMarkersError, OverlapError, ReservedTokenError

MAX_SPANS = 64


def fit_spans(spans: Sequence[EditSpan], merge_gap: int = 0) -> list[EditSpan]:
    """The spans fused across gaps of up to merge_gap tokens (nothing fuses
    at 0, not even adjacent spans), then across ever wider gaps until at
    most MAX_SPANS remain for the markers to number. After any merge pass no
    span carries a replacement; project_spans gives them."""
    if merge_gap < 0:
        raise ValueError("merge_gap must be non-negative")
    spans = merge_edits(spans, merge_gap) if merge_gap > 0 else list(spans)
    while len(spans) > MAX_SPANS:
        merge_gap += 1
        spans = merge_edits(spans, merge_gap)
    return spans


# <sK> or </sK> for K in 1..99; only K <= MAX_SPANS is reserved.
_MARKER = re.compile(r"<(/?)s([1-9][0-9]?)>")


def open_marker(k: int) -> str:
    return f"<s{k}>"


def close_marker(k: int) -> str:
    return f"</s{k}>"


def _marker_number(token: str) -> tuple[Optional[int], bool]:
    """Return (span number, is_close) or (None, False) for a normal token."""
    m = _MARKER.fullmatch(token)
    if m and int(m.group(2)) <= MAX_SPANS:
        return int(m.group(2)), m.group(1) == "/"
    return None, False


def check_no_reserved(tokens: Sequence[str]) -> None:
    """Reject text that uses a reserved marker token literally."""
    if any(map(_MARKER.fullmatch, tokens)):  # one C-level scan; a hit is rare
        for tok in tokens:
            if _marker_number(tok)[0] is not None:
                raise ReservedTokenError(f"token {tok!r} is a reserved span marker")


@dataclass(frozen=True)
class AnnotatedSentence:
    """Source tokens plus spans, with the marker-bearing rendering."""

    source: TokenSeq
    spans: tuple[EditSpan, ...]
    rendered: TokenSeq


@dataclass(frozen=True)
class CorrectionOutput:
    """Ordered (span number, replacement tokens) segments."""

    segments: tuple[tuple[int, TokenSeq], ...]


def annotate(source: Sequence[str], spans: Sequence[EditSpan]) -> AnnotatedSentence:
    """Insert open/close marker tokens around each span, K numbered from 1."""
    src = tuple(source)
    check_no_reserved(src)
    validate_spans(spans, len(src))
    if len(spans) > MAX_SPANS:
        raise OverlapError(f"at most {MAX_SPANS} spans per sentence")
    rendered: list[str] = []
    cursor = 0
    for k, span in enumerate(spans, start=1):
        rendered.extend(src[cursor : span.src_start])
        rendered.append(open_marker(k))
        rendered.extend(src[span.src_start : span.src_end])
        rendered.append(close_marker(k))
        cursor = span.src_end
    rendered.extend(src[cursor:])
    return AnnotatedSentence(source=src, spans=tuple(spans), rendered=tuple(rendered))


def parse_annotation(rendered: Sequence[str]) -> AnnotatedSentence:
    """Inverse of annotate: recover source tokens and span ranges.

    Markers must be non-nested, balanced and numbered 1..n left to right.
    """
    source: list[str] = []
    spans: list[EditSpan] = []
    open_num: Optional[int] = None
    span_start = 0
    expected = 1
    for tok in rendered:
        num, is_close = _marker_number(tok)
        if num is None:
            source.append(tok)
            continue
        if not is_close:
            if open_num is not None:
                raise MalformedMarkersError(f"nested marker {tok!r}")
            if num != expected:
                raise MalformedMarkersError(
                    f"expected marker <s{expected}>, found {tok!r}"
                )
            open_num = num
            span_start = len(source)
        else:
            if open_num != num:
                raise MalformedMarkersError(f"unbalanced close marker {tok!r}")
            if len(source) == span_start:
                raise MalformedMarkersError(f"empty span {num}")
            spans.append(EditSpan(span_start, len(source)))
            open_num = None
            expected = num + 1
    if open_num is not None:
        raise MalformedMarkersError(f"marker <s{open_num}> never closed")
    return AnnotatedSentence(
        source=tuple(source), spans=tuple(spans), rendered=tuple(rendered)
    )


def parse_correction(output_tokens: Sequence[str]) -> CorrectionOutput:
    """Extract marker-wrapped segments from a corrector's raw token output.

    Text outside any marker pair is ignored (a learned model may emit noise).
    A duplicated span number keeps its first occurrence.
    """
    segments: dict[int, TokenSeq] = {}
    open_num: Optional[int] = None
    buffer: list[str] = []
    for tok in output_tokens:
        num, is_close = _marker_number(tok)
        if num is None:
            if open_num is not None:
                buffer.append(tok)
            continue
        if not is_close:
            if open_num is not None:
                raise MalformedMarkersError(f"nested marker {tok!r}")
            open_num = num
            buffer = []
        else:
            if open_num != num:
                raise MalformedMarkersError(f"unbalanced close marker {tok!r}")
            segments.setdefault(num, tuple(buffer))
            open_num = None
    if open_num is not None:
        raise MalformedMarkersError(f"marker <s{open_num}> never closed")
    ordered = tuple(sorted(segments.items()))
    return CorrectionOutput(segments=ordered)


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
