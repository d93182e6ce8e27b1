import json
import re
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from span_references import (
    reference_merge_edits,
    reference_parse_annotation,
    reference_parse_correction,
    reference_render,
)
from spangec import annotation
from spangec.alignment import EditSpan, align, detokenize, extract_edits, tokenize
from spangec.annotation import (
    MAX_SPANS,
    AnnotatedSentence,
    CorrectionOutput,
    _MARKERS,
    annotate,
    check_no_reserved,
    fit_spans,
    from_json_record,
    merge_corrections,
    parse_annotation,
    parse_correction,
    render_correction,
    to_json_record,
)
from spangec.errors import (
    DataError,
    MalformedMarkersError,
    OverlapError,
    ReservedTokenError,
)

LAW_SOURCE = tokenize("The law 's spirit also include the fairness .")
LAW_SPAN = EditSpan(4, 9, tokenize("also includes fairness ."))


def test_annotate_single_span():
    ann = annotate(LAW_SOURCE, [LAW_SPAN])
    assert detokenize(ann.rendered) == (
        "The law 's spirit <s1> also include the fairness . </s1>"
    )


def test_annotate_no_spans_is_source():
    ann = annotate(LAW_SOURCE, [])
    assert ann.rendered == LAW_SOURCE


def test_annotate_two_spans():
    source = tokenize(
        "Personally I feel that we still should take our responsibility ."
    )
    spans = [EditSpan(0, 2), EditSpan(4, 7)]
    ann = annotate(source, spans)
    assert detokenize(ann.rendered) == (
        "<s1> Personally I </s1> feel that <s2> we still should </s2>"
        " take our responsibility ."
    )


def test_annotate_rejects_overlap():
    with pytest.raises(OverlapError):
        annotate(("a", "b", "c"), [EditSpan(0, 2), EditSpan(1, 3)])


def test_annotate_rejects_reserved_tokens():
    with pytest.raises(ReservedTokenError):
        annotate(tokenize("hello <s1> there"), [])


# Reference marker rule: the two-regex code that a single pattern, and then
# the table of reserved tokens, replaced, copied verbatim.
_OPEN_RE = re.compile(r"^<s([1-9][0-9]?)>$")
_CLOSE_RE = re.compile(r"^</s([1-9][0-9]?)>$")


def reference_marker_number(token: str) -> tuple[Optional[int], bool]:
    """Return (span number, is_close) or (None, False) for a normal token."""
    m = _OPEN_RE.match(token)
    if m and int(m.group(1)) <= MAX_SPANS:
        return int(m.group(1)), False
    m = _CLOSE_RE.match(token)
    if m and int(m.group(1)) <= MAX_SPANS:
        return int(m.group(1)), True
    return None, False


# Tokens as tokenize makes them, so never holding whitespace (the old `$`
# also matched before a trailing newline): marker look-alikes, the edge
# cases of the number rule, and arbitrary text.
_MARKER_LIKE = st.one_of(
    st.from_regex(r"<(/?)[sS]?[0-9]{0,3}>?", fullmatch=True),
    st.sampled_from(["<s1>", "</s1>", "<s64>", "</s64>", "<s65>", "</s65>",
                     "<s0>", "<s01>", "<s99>", "<s100>", "<s1>>", "<<s1>", "s1"]),
    st.text(min_size=1, max_size=6),
).filter(lambda tok: tok.split() == [tok])


@given(tokens=st.lists(_MARKER_LIKE, max_size=8))
@settings(max_examples=300, deadline=None)
def test_marker_rule_equals_reference(tokens):
    reference = [reference_marker_number(tok) for tok in tokens]
    assert [_MARKERS.get(tok, (None, False)) for tok in tokens] == reference
    if any(num is not None for num, _ in reference):
        with pytest.raises(ReservedTokenError):
            check_no_reserved(tokens)
    else:
        check_no_reserved(tokens)


def test_only_markers_up_to_max_spans_are_reserved():
    check_no_reserved(["<s65>", "</s65>", "<s0>", "<s01>", "<S1>", "s1"])
    for tok in ("<s1>", "</s1>", "<s64>", "</s64>"):
        with pytest.raises(ReservedTokenError):
            check_no_reserved(["a", tok, "<s65>"])


def test_parse_annotation_round_trip():
    ann = annotate(LAW_SOURCE, [LAW_SPAN])
    parsed = parse_annotation(ann.rendered)
    assert parsed.source == LAW_SOURCE
    assert [(s.src_start, s.src_end) for s in parsed.spans] == [(4, 9)]


def test_parse_annotation_marker_free():
    parsed = parse_annotation(("just", "plain", "text"))
    assert parsed.spans == ()
    assert parsed.source == ("just", "plain", "text")


def test_parse_annotation_numbering_must_start_at_one():
    with pytest.raises(MalformedMarkersError):
        parse_annotation(tokenize("<s2> x </s2>"))


def test_parse_annotation_rejects_unbalanced():
    with pytest.raises(MalformedMarkersError):
        parse_annotation(tokenize("<s1> x"))
    with pytest.raises(MalformedMarkersError):
        parse_annotation(tokenize("x </s1>"))
    with pytest.raises(MalformedMarkersError):
        parse_annotation(tokenize("<s1> a <s2> b </s2> </s1>"))


def test_parse_correction_single():
    corr = parse_correction(tokenize("<s1> also includes fairness . </s1>"))
    assert corr.segments == ((1, tokenize("also includes fairness .")),)


def test_parse_correction_two_segments():
    corr = parse_correction(
        tokenize("<s1> Personally , I </s1> <s2> we should still </s2>")
    )
    assert corr.segments == (
        (1, tokenize("Personally , I")),
        (2, tokenize("we should still")),
    )


def test_parse_correction_empty_replacement_is_deletion():
    corr = parse_correction(tokenize("<s1> </s1>"))
    assert corr.segments == ((1, ()),)


def test_parse_correction_ignores_stray_text():
    corr = parse_correction(tokenize("noise <s1> x </s1> more noise"))
    assert corr.segments == ((1, ("x",)),)


def test_parse_correction_keeps_first_duplicate():
    corr = parse_correction(tokenize("<s1> x </s1> <s1> y </s1>"))
    assert corr.segments == ((1, ("x",)),)


def test_parse_correction_unbalanced():
    with pytest.raises(MalformedMarkersError):
        parse_correction(tokenize("<s1> x </s2>"))


_SOUP_TOKENS = ["a", "b", "<s1>", "<s2>", "<s3>", "</s1>", "</s2>", "</s3>",
                "<s64>", "</s64>", "<s65>"]


def outcome(read, tokens):
    """What read gives for tokens, or the class of the exception it raises."""
    try:
        return read(tokens)
    except Exception as exc:
        return type(exc)


@given(st.lists(st.sampled_from(_SOUP_TOKENS), max_size=9))
@settings(max_examples=1000, deadline=None)
def test_marker_readers_equal_the_references(tokens):
    parsed = outcome(parse_annotation, tokens)
    if isinstance(parsed, AnnotatedSentence):
        parsed = (parsed.source, parsed.spans, parsed.rendered)
        source, spans, rendered = parsed
        assert annotate(source, spans).rendered == reference_render(source, spans) == rendered
    assert parsed == outcome(reference_parse_annotation, tokens)
    assert outcome(parse_correction, tokens) == outcome(reference_parse_correction, tokens)


def test_merge_corrections_table6():
    ann = annotate(LAW_SOURCE, [LAW_SPAN])
    corr = parse_correction(tokenize("<s1> also includes fairness . </s1>"))
    assert detokenize(merge_corrections(ann, corr)) == (
        "The law 's spirit also includes fairness ."
    )


def test_merge_corrections_no_spans():
    ann = annotate(("a", "b"), [])
    assert merge_corrections(ann, CorrectionOutput(())) == ("a", "b")


def test_merge_corrections_hotel_sentence():
    src = tokenize("is to my hotel .")
    ann = annotate(src, [EditSpan(0, 5)])
    corr = parse_correction(tokenize("<s1> my hotel is . </s1>"))
    assert detokenize(merge_corrections(ann, corr)) == "my hotel is ."


def test_merge_corrections_missing_span_copies_by_default():
    ann = annotate(("a", "b", "c"), [EditSpan(0, 1), EditSpan(2, 3)])
    corr = CorrectionOutput(((2, ("x",)),))
    assert merge_corrections(ann, corr) == ("a", "b", "x")


def test_json_record_round_trip():
    ann = annotate(LAW_SOURCE, [LAW_SPAN])
    corr = CorrectionOutput(((1, tokenize("also includes fairness .")),))
    line = to_json_record(ann, corr)
    assert json.loads(line).keys() == {"rendered", "correction"}
    back_ann, back_corr = from_json_record(line)
    assert back_ann.source == ann.source
    assert [(s.src_start, s.src_end) for s in back_ann.spans] == [(4, 9)]
    assert back_corr == corr


def test_json_record_null_or_missing_correction_rejected():
    for line in ('{"rendered": "a", "correction": null}', '{"rendered": "a"}'):
        with pytest.raises(DataError):
            from_json_record(line)


tokens_st = st.lists(
    st.sampled_from(["the", "a", "cat", "sat", "on", "mat", "."]),
    min_size=1,
    max_size=12,
)


@st.composite
def sentence_and_spans(draw):
    tokens = tuple(draw(tokens_st))
    spans = []
    cursor = 0
    while cursor < len(tokens):
        start = draw(st.integers(min_value=cursor, max_value=len(tokens)))
        if start >= len(tokens):
            break
        end = draw(st.integers(min_value=start + 1, max_value=len(tokens)))
        spans.append(EditSpan(start, end))
        cursor = end
        if draw(st.booleans()):
            break
    return tokens, spans


@given(sentence_and_spans())
@settings(max_examples=200)
def test_parse_annotation_inverts_annotate(case):
    tokens, spans = case
    ann = annotate(tokens, spans)
    parsed = parse_annotation(ann.rendered)
    assert parsed.source == tokens
    assert [(s.src_start, s.src_end) for s in parsed.spans] == [
        (s.src_start, s.src_end) for s in spans
    ]


@given(sentence_and_spans(), st.data())
@settings(max_examples=200)
def test_untouched_tokens_survive_merge(case, data):
    tokens, spans = case
    ann = annotate(tokens, spans)
    segments = []
    for k in range(1, len(spans) + 1):
        repl = tuple(
            data.draw(st.lists(st.sampled_from(["x", "y", "z"]), max_size=3))
        )
        segments.append((k, repl))
    merged = merge_corrections(ann, CorrectionOutput(tuple(segments)))
    # Tokens outside all spans appear in order, unmodified.
    outside = []
    cursor = 0
    for span in spans:
        outside.extend(tokens[cursor : span.src_start])
        cursor = span.src_end
    outside.extend(tokens[cursor:])
    it = iter(merged)
    for tok in outside:
        assert tok in it  # consumes the iterator: order-preserving containment


def test_gold_round_trip_with_alignment():
    src = tokenize("She go to school yesterday .")
    tgt = tokenize("She went to school yesterday .")
    spans = extract_edits(align(src, tgt))
    ann = annotate(src, spans)
    segments = tuple((k, s.replacement) for k, s in enumerate(spans, start=1))
    assert merge_corrections(ann, CorrectionOutput(segments)) == tgt


def test_render_correction_round_trip():
    corr = CorrectionOutput(((1, ("x", "y")), (2, ())))
    assert parse_correction(render_correction(corr)) == corr


def reference_fit(spans, merge_gap):
    """The fitting rule as it stood spread over decode_spans (the gap-0
    guard) and the pipeline's widening loop, copied verbatim."""
    if merge_gap > 0:
        spans = reference_merge_edits(spans, merge_gap)
    gap = merge_gap
    while len(spans) > MAX_SPANS:
        gap += 1
        spans = reference_merge_edits(spans, gap)
    return spans


@st.composite
def sorted_disjoint_spans(draw):
    """0 to 200 sorted, disjoint spans, some adjacent, some carrying a
    replacement, with gaps of 0 to 4 tokens between them."""
    rng = draw(st.randoms(use_true_random=False))
    spans, cursor = [], 0
    for _ in range(draw(st.integers(0, 200))):
        start = cursor + rng.randint(0, 4)
        cursor = start + rng.randint(1, 3)
        spans.append(EditSpan(start, cursor, rng.choice([None, ("x",)])))
    return spans


@given(sorted_disjoint_spans(), st.integers(0, 3))
@settings(max_examples=200, deadline=None)
def test_fit_spans_equals_the_widening_loop(spans, merge_gap):
    fitted = fit_spans(spans, merge_gap)
    assert fitted == reference_fit(spans, merge_gap)
    assert len(fitted) <= MAX_SPANS
    covered = {i for span in fitted for i in range(span.src_start, span.src_end)}
    assert all(i in covered for span in spans for i in range(span.src_start, span.src_end))
    if merge_gap == 0 and len(spans) <= MAX_SPANS:
        assert fitted == spans  # nothing fuses, replacements and all


def test_fit_spans_rejects_a_negative_gap():
    with pytest.raises(ValueError, match="merge_gap must be non-negative"):
        fit_spans([EditSpan(0, 1)], -1)


def test_fit_spans_fuses_bounds_only():
    spans = [EditSpan(0, 1, ("x",)), EditSpan(2, 3, ("y",)), EditSpan(6, 7)]
    assert fit_spans(spans, 1) == [EditSpan(0, 3), EditSpan(6, 7)]


def test_fit_spans_empty():
    assert fit_spans([], 3) == []
    assert fit_spans([], 0) == []


def test_fit_spans_sorts_gaps_only_beyond_max_spans(monkeypatch):
    def no_sorting(*args, **kwargs):
        raise AssertionError("sorted the gaps")

    monkeypatch.setattr(annotation, "sorted", no_sorting, raising=False)
    spans = [EditSpan(2 * i, 2 * i + 1) for i in range(MAX_SPANS)]
    assert fit_spans(spans) == spans
    assert len(fit_spans(spans, 1)) == 1
    with pytest.raises(AssertionError, match="sorted the gaps"):
        fit_spans(spans + [EditSpan(2 * MAX_SPANS, 2 * MAX_SPANS + 1)])
