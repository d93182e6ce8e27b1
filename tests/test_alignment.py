import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from span_references import reference_merge_edits
from spangec import alignment
from spangec.alignment import (
    DELETE,
    INSERT,
    MATCH,
    SUBST,
    AlignmentPath,
    AlignOp,
    EditSpan,
    TokenSeq,
    align,
    apply_spans,
    extract_edits,
    project_spans,
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


def merge_and_project(path, gap):
    """Fuse the gold spans' bounds, then project each fused span."""
    merged = reference_merge_edits(extract_edits(path), gap)
    return [
        EditSpan(span.src_start, span.src_end, repl)
        for span, repl in zip(merged, project_spans(path, merged))
    ]


def test_hotel_example_reconstructs():
    # "is to my hotel ." edited into "my hotel is ."
    src = tokenize("is to my hotel .")
    tgt = tokenize("my hotel is .")
    path = align(src, tgt)
    spans = extract_edits(path)
    assert apply_spans(src, spans) == tgt
    merged = merge_and_project(path, 1)
    assert len(merged) == 1
    assert apply_spans(src, merged) == tgt


def test_merge_gap_one_copies_intervening_token():
    src = ("t0", "t1", "t2", "t3", "t4")
    path = align(src, ("t0", "x", "t2", "y", "t4"))
    spans = extract_edits(path)
    assert spans == [EditSpan(1, 2, ("x",)), EditSpan(3, 4, ("y",))]
    merged = merge_and_project(path, 1)
    assert merged == [EditSpan(1, 4, ("x", "t2", "y"))]
    assert apply_spans(src, merged) == apply_spans(src, spans)


def test_merge_gap_zero_is_identity():
    path = align(("a",) * 5, ("a", "x", "a", "y", "a"))
    spans = [EditSpan(1, 2, ("x",)), EditSpan(3, 4, ("y",))]
    assert extract_edits(path) == spans
    assert merge_and_project(path, 0) == spans


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
    merged = merge_and_project(align(src, tgt), gap)
    validate_spans(merged, len(src))
    assert apply_spans(src, merged) == tuple(tgt)


def test_align_deterministic():
    rng = random.Random(0)
    for _ in range(50):
        src = [rng.choice(ALPHABET) for _ in range(rng.randint(0, 8))]
        tgt = [rng.choice(ALPHABET) for _ in range(rng.randint(0, 8))]
        assert align(src, tgt) == align(src, tgt)


# The span rules as first written, one walk over the ops per projected span,
# kept as oracles for extract_edits and project_spans.
def reference_extract_edits(path: AlignmentPath) -> list[EditSpan]:
    """Turn maximal runs of non-MATCH ops into edit spans.

    A run that only inserts is anchored to the source token just before the
    insertion point (or the following token when inserting at position 0),
    so every span encloses at least one real source token.
    """
    spans: list[EditSpan] = []
    run: list[AlignOp] = []

    def flush(run: list[AlignOp], point: int) -> None:
        """point is the number of source tokens consumed before the run."""
        if not run:
            return
        src_indices = [op.src_index for op in run if op.src_index is not None]
        tgt_tokens = [
            path.target[op.tgt_index] for op in run if op.tgt_index is not None
        ]
        if src_indices:
            spans.append(
                EditSpan(src_indices[0], src_indices[-1] + 1, tuple(tgt_tokens))
            )
            return
        # Pure insertion: anchor it to a source token beside the point.
        if not path.source:
            raise ValueError("cannot anchor an insertion in an empty source")
        if point > 0:
            anchor = point - 1
            if spans and spans[-1].src_end > anchor:
                # The anchor token is already claimed: insertions sit on both
                # sides of a single matched token (e.g. [b] -> [a, b, a]).
                # Extend the previous span instead of emitting an overlap.
                prev = spans[-1]
                spans[-1] = EditSpan(
                    prev.src_start, point, prev.replacement + tuple(tgt_tokens)
                )
                return
            repl = (path.source[anchor],) + tuple(tgt_tokens)
            spans.append(EditSpan(anchor, point, repl))
        else:
            repl = tuple(tgt_tokens) + (path.source[0],)
            spans.append(EditSpan(0, 1, repl))

    point = 0
    for op in path.ops:
        if op.kind == MATCH:
            flush(run, point)
            run = []
        else:
            run.append(op)
        if op.src_index is not None:
            point = op.src_index + 1
    flush(run, point)
    return spans


def reference_project_replacement(path: AlignmentPath, span: EditSpan) -> TokenSeq:
    """Target-side projection of a source span under an alignment path.

    Collects, in path order, the target tokens of MATCH/SUBST ops whose
    source index falls in the span, plus INSERT ops whose insertion point
    belongs to the span: an insert between tokens p-1 and p goes with the
    span containing p-1 (insertions at position 0 go with a span starting
    at 0). A span containing no edits therefore projects to itself.
    """
    out: list[str] = []
    point = 0
    for op in path.ops:
        if op.kind == INSERT:
            anchor = point - 1 if point > 0 else 0
            if span.src_start <= anchor < span.src_end:
                out.append(path.target[op.tgt_index])
            continue
        if op.src_index is not None:
            point = op.src_index + 1
        if op.kind in (MATCH, SUBST) and span.src_start <= op.src_index < span.src_end:
            out.append(path.target[op.tgt_index])
    return tuple(out)


@given(st.lists(st.sampled_from(ALPHABET), min_size=1, max_size=10),
       st.lists(st.sampled_from(ALPHABET), min_size=0, max_size=10),
       st.data())
@settings(max_examples=500)
def test_extract_and_project_match_reference(src, tgt, data):
    path = align(src, tgt)
    spans = extract_edits(path)
    assert spans == reference_extract_edits(path)
    # Any sorted, disjoint spans, e.g. sampled ones, project as before.
    cuts = sorted(data.draw(st.lists(st.integers(0, len(src)), max_size=6)))
    sampled = [EditSpan(a, b) for a, b in zip(cuts[::2], cuts[1::2]) if a < b]
    for some in (spans, sampled):
        expected = [reference_project_replacement(path, span) for span in some]
        assert project_spans(path, some) == expected


# The full-grid DP as first written, kept as the oracle for the banded align.
def reference_align(source, target) -> AlignmentPath:
    """Minimal-cost token alignment under unit edit costs.

    The backtrace prefers DELETE over INSERT over SUBST over MATCH at equal
    cost, walking backward from the end, which makes the path deterministic.
    """
    src = tuple(source)
    tgt = tuple(target)
    n, m = len(src), len(tgt)

    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        row = dist[i]
        prev = dist[i - 1]
        s_tok = src[i - 1]
        for j in range(1, m + 1):
            sub = prev[j - 1] + (0 if s_tok == tgt[j - 1] else 1)
            dele = prev[j] + 1
            ins = row[j - 1] + 1
            row[j] = sub if sub <= dele else dele
            if ins < row[j]:
                row[j] = ins

    ops: list[AlignOp] = []
    i, j = n, m
    while i > 0 or j > 0:
        here = dist[i][j]
        if i > 0 and dist[i - 1][j] + 1 == here:
            i -= 1
            ops.append(AlignOp(DELETE, src_index=i))
        elif j > 0 and dist[i][j - 1] + 1 == here:
            j -= 1
            ops.append(AlignOp(INSERT, tgt_index=j))
        elif i > 0 and j > 0 and src[i - 1] != tgt[j - 1]:
            i -= 1
            j -= 1
            ops.append(AlignOp(SUBST, src_index=i, tgt_index=j))
        else:
            i -= 1
            j -= 1
            ops.append(AlignOp(MATCH, src_index=i, tgt_index=j))
    ops.reverse()
    return AlignmentPath(source=src, target=tgt, ops=tuple(ops), cost=dist[n][m])


def assert_align_matches_reference(src, tgt, start_slack):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(alignment, "_START_SLACK", start_slack)
        path = align(src, tgt)
    expected = reference_align(src, tgt)
    assert path.ops == expected.ops
    assert path.cost == expected.cost


# Start slack 2 is the shipped one; 0 and 1 send more pairs to the second pass.
START_SLACKS = [2, 0, 1]

# Few letters make many equal-cost paths, so the backtrace's tie-breaking
# runs through cells at the band's edge.
_tiny_alphabets = st.sampled_from([("a", "b"), ("a", "b", "c")])
_short_pairs = _tiny_alphabets.flatmap(
    lambda abc: st.tuples(
        st.lists(st.sampled_from(abc), max_size=8),
        st.lists(st.sampled_from(abc), max_size=8),
    )
)


@pytest.mark.parametrize("start_slack", START_SLACKS)
@given(_short_pairs)
@settings(max_examples=300, deadline=None)
def test_banded_align_equals_full_grid_on_short_pairs(start_slack, pair):
    assert_align_matches_reference(*pair, start_slack)


_WORDS = [f"w{k}" for k in range(12)]
# An edit: its kind, where it lands (0.0 and 1.0 are the two ends) and the
# token it puts in.
_edits = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "subst"]),
        st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
        st.sampled_from(_WORDS + ["new"]),
    ),
    max_size=6,
)


@st.composite
def _edited_sentences(draw):
    src = draw(st.lists(st.sampled_from(_WORDS), min_size=30, max_size=60))
    tgt = list(src)
    for kind, where, token in draw(_edits):
        if kind == "insert":
            tgt.insert(round(where * len(tgt)), token)
        elif tgt:
            k = min(round(where * len(tgt)), len(tgt) - 1)
            if kind == "delete":
                del tgt[k]
            else:
                tgt[k] = token
    return src, tgt


@pytest.mark.parametrize("start_slack", START_SLACKS)
@given(_edited_sentences())
@settings(max_examples=100, deadline=None)
def test_banded_align_equals_full_grid_on_edited_sentences(start_slack, pair):
    assert_align_matches_reference(*pair, start_slack)


# Disjoint vocabularies: the cost is the longer length, which exceeds the
# first band's reach once the shorter side has five tokens.
_unrelated_pairs = st.tuples(
    st.lists(st.sampled_from(["a", "b", "c"]), min_size=5, max_size=40),
    st.lists(st.sampled_from(["x", "y", "z"]), min_size=5, max_size=40),
)


@pytest.mark.parametrize("start_slack", START_SLACKS)
@given(_unrelated_pairs)
@settings(max_examples=100, deadline=None)
def test_banded_align_equals_full_grid_on_unrelated_pairs(start_slack, pair):
    src, tgt = pair
    assert max(len(src), len(tgt)) > abs(len(src) - len(tgt)) + 2 * start_slack
    assert_align_matches_reference(src, tgt, start_slack)
