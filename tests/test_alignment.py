import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spangec.alignment import (
    DELETE,
    INSERT,
    MATCH,
    SUBST,
    EditSpan,
    align,
    apply_spans,
    extract_edits,
    merge_edits,
    tokenize,
    validate_spans,
)
from spangec.errors import OverlapError


def oracle_cost(src, tgt):
    """Independent minimal edit distance: plain top-down recursion."""

    @functools.lru_cache(maxsize=None)
    def go(i, j):
        if i == len(src):
            return len(tgt) - j
        if j == len(tgt):
            return len(src) - i
        best = go(i + 1, j + 1) + (0 if src[i] == tgt[j] else 1)
        best = min(best, go(i + 1, j) + 1, go(i, j + 1) + 1)
        return best

    return go(0, 0)


def test_tokenize_table6_sentence():
    assert tokenize("The law 's spirit") == ("The", "law", "'s", "spirit")


def test_tokenize_empty():
    assert tokenize("") == ()


def test_tokenize_collapses_whitespace():
    assert tokenize("a  b") == ("a", "b")


def test_align_identity():
    path = align(["a", "b", "c"], ["a", "b", "c"])
    assert path.cost == 0
    assert [op.kind for op in path.ops] == [MATCH, MATCH, MATCH]


def test_align_substitution():
    path = align(["a", "b", "c"], ["a", "x", "c"])
    assert path.cost == 1
    assert [op.kind for op in path.ops] == [MATCH, SUBST, MATCH]
    assert path.ops[1].src_index == 1 and path.ops[1].tgt_index == 1


def test_align_insertion():
    path = align(["a", "c"], ["a", "b", "c"])
    assert path.cost == 1
    assert [op.kind for op in path.ops] == [MATCH, INSERT, MATCH]
    assert path.ops[1].tgt_index == 1


def test_align_op_index_contract():
    path = align(["a", "b"], ["x", "y", "z"])
    src_seen = [op.src_index for op in path.ops if op.src_index is not None]
    tgt_seen = [op.tgt_index for op in path.ops if op.tgt_index is not None]
    assert src_seen == [0, 1]
    assert tgt_seen == [0, 1, 2]
    for op in path.ops:
        if op.kind in (MATCH, SUBST):
            assert op.src_index is not None and op.tgt_index is not None
        elif op.kind == INSERT:
            assert op.src_index is None and op.tgt_index is not None
        else:
            assert op.kind == DELETE
            assert op.src_index is not None and op.tgt_index is None


def test_extract_substitution_span():
    path = align(["a", "b", "c"], ["a", "x", "c"])
    assert extract_edits(path) == [EditSpan(1, 2, ("x",))]


def test_extract_identity_is_empty():
    assert extract_edits(align(["a", "b"], ["a", "b"])) == []


def test_extract_pure_insertion_anchors_left():
    path = align(["a", "c"], ["a", "b", "c"])
    assert extract_edits(path) == [EditSpan(0, 1, ("a", "b"))]


def test_extract_insertion_at_start_anchors_right():
    path = align(["b"], ["a", "b"])
    assert extract_edits(path) == [EditSpan(0, 1, ("a", "b"))]


def test_extract_empty_source_rejected():
    with pytest.raises(ValueError):
        extract_edits(align([], ["a"]))


def test_hotel_example_reconstructs():
    # "is to my hotel ." edited into "my hotel is ."
    src = tokenize("is to my hotel .")
    tgt = tokenize("my hotel is .")
    spans = extract_edits(align(src, tgt))
    assert apply_spans(src, spans) == tgt
    merged = merge_edits(spans, 1, source=src)
    assert len(merged) == 1
    assert apply_spans(src, merged) == tgt


def test_merge_gap_one_copies_intervening_token():
    src = ("t0", "t1", "t2", "t3", "t4")
    spans = [EditSpan(1, 2, ("x",)), EditSpan(3, 4, ("y",))]
    merged = merge_edits(spans, 1, source=src)
    assert merged == [EditSpan(1, 4, ("x", "t2", "y"))]
    assert apply_spans(src, merged) == apply_spans(src, spans)


def test_merge_gap_zero_is_identity():
    spans = [EditSpan(1, 2, ("x",)), EditSpan(3, 4, ("y",))]
    assert merge_edits(spans, 0, source=("a",) * 5) == spans


def test_merge_gap_zero_fuses_adjacent_spans():
    src, tgt = tokenize("a b c"), tokenize("x b y c")
    spans = extract_edits(align(src, tgt))
    assert spans == [EditSpan(0, 1, ("x",)), EditSpan(1, 2, ("b", "y"))]
    merged = merge_edits(spans, 0, source=src)
    assert merged == [EditSpan(0, 2, ("x", "b", "y"))]
    assert apply_spans(src, merged) == tgt


def test_merge_empty():
    assert merge_edits([], 3) == []


def test_validate_spans_rejects_overlap():
    with pytest.raises(OverlapError):
        validate_spans([EditSpan(0, 2), EditSpan(1, 3)], 5)
    with pytest.raises(OverlapError):
        validate_spans([EditSpan(0, 9)], 5)


ALPHABET = ["a", "b", "c", "d", "e"]
sentences = st.lists(st.sampled_from(ALPHABET), min_size=0, max_size=8)


@given(sentences, sentences)
@settings(max_examples=300)
def test_align_cost_optimal(src, tgt):
    assert align(src, tgt).cost == oracle_cost(tuple(src), tuple(tgt))


@given(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=8), sentences)
@settings(max_examples=300)
def test_extract_edits_reconstruct(src, tgt):
    spans = extract_edits(align(src, tgt))
    validate_spans(spans, len(src))
    assert apply_spans(src, spans) == tuple(tgt)


@given(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=8), sentences,
       st.integers(min_value=0, max_value=4))
@settings(max_examples=200)
def test_merge_edits_preserves_reconstruction(src, tgt, gap):
    spans = extract_edits(align(src, tgt))
    merged = merge_edits(spans, gap, source=src)
    validate_spans(merged, len(src))
    assert apply_spans(src, merged) == tuple(tgt)


def test_align_deterministic():
    rng = random.Random(0)
    for _ in range(50):
        src = [rng.choice(ALPHABET) for _ in range(rng.randint(0, 8))]
        tgt = [rng.choice(ALPHABET) for _ in range(rng.randint(0, 8))]
        assert align(src, tgt) == align(src, tgt)
