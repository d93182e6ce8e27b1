"""The span and marker rules as they stood before `fit_spans` became the one
fusion routine, a table of the reserved tokens replaced the marker regex
and one walker read the markers, copied verbatim as oracles. Only the
return value of `reference_parse_annotation` differs: it gives (source,
spans, rendered), since `AnnotatedSentence` no longer stores the rendering,
and `reference_render` is `annotate`'s rendering loop on its own.
"""

from __future__ import annotations

import re
from typing import Optional, Sequence

from spangec.alignment import EditSpan, TokenSeq
from spangec.annotation import MAX_SPANS, CorrectionOutput, close_marker, open_marker
from spangec.errors import MalformedMarkersError

# <sK> or </sK> for K in 1..99; only K <= MAX_SPANS is reserved.
_MARKER = re.compile(r"<(/?)s([1-9][0-9]?)>")


def _marker_number(token: str) -> tuple[Optional[int], bool]:
    """Return (span number, is_close) or (None, False) for a normal token."""
    m = _MARKER.fullmatch(token)
    if m and int(m.group(2)) <= MAX_SPANS:
        return int(m.group(2)), m.group(1) == "/"
    return None, False


def reference_merge_edits(spans: Sequence[EditSpan], max_gap: int) -> list[EditSpan]:
    """Fuse the bounds of consecutive spans separated by at most max_gap
    unedited tokens. The result carries no replacements; project_spans
    gives them. max_gap=0 still fuses adjacent spans, where one ends at the
    next one's start; extract_edits can emit such spans, e.g. [0,1) and
    [1,2) for a b c -> x b y c.
    """
    if max_gap < 0:
        raise ValueError("max_gap must be non-negative")
    merged: list[EditSpan] = []
    for span in spans:
        if merged and span.src_start - merged[-1].src_end <= max_gap:
            merged[-1] = EditSpan(merged[-1].src_start, span.src_end)
        else:
            merged.append(EditSpan(span.src_start, span.src_end))
    return merged


def reference_render(src: TokenSeq, spans: Sequence[EditSpan]) -> TokenSeq:
    rendered: list[str] = []
    cursor = 0
    for k, span in enumerate(spans, start=1):
        rendered.extend(src[cursor : span.src_start])
        rendered.append(open_marker(k))
        rendered.extend(src[span.src_start : span.src_end])
        rendered.append(close_marker(k))
        cursor = span.src_end
    rendered.extend(src[cursor:])
    return tuple(rendered)


def reference_parse_annotation(rendered: Sequence[str]):
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
    return tuple(source), tuple(spans), tuple(rendered)


def reference_parse_correction(output_tokens: Sequence[str]) -> CorrectionOutput:
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
