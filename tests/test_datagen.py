import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spangec.alignment import (
    EditSpan,
    align,
    apply_spans,
    extract_edits,
    project_spans,
    tokenize,
)
from spangec.annotation import merge_corrections
from spangec.datagen import (
    CorruptConfig,
    EsdInstance,
    SpanSampleConfig,
    corrupt,
    make_esc_from_spans,
    make_esc_gold,
    make_esc_sampled,
    make_esd_instance,
    sample_spans,
    sentence_rng,
)


def test_esd_instance_identity_all_zero():
    inst = make_esd_instance(align(("a", "b"), ("a", "b")))
    assert inst.tags == (0, 0)


def test_esd_instance_substitution():
    inst = make_esd_instance(align(("a", "b", "c"), ("a", "x", "c")))
    assert inst.tags == (0, 1, 0)


def test_esd_instance_hotel_fragment():
    # insert run anchors to "hotel", deletions cover "is to"
    src = tokenize("is to my hotel .")
    inst = make_esd_instance(align(src, tokenize("my hotel is .")))
    assert inst.tags == (1, 1, 0, 1, 0)


def test_esc_gold_identity_pair():
    inst = make_esc_gold(align(("a", "b"), ("a", "b")))
    assert inst.annotated.spans == ()
    assert inst.correction.segments == ()


def test_esc_gold_table6_row():
    src = tokenize("The law 's spirit also include the fairness .")
    tgt = tokenize("The law 's spirit also includes fairness .")
    inst = make_esc_gold(align(src, tgt))
    assert merge_corrections(inst.annotated, inst.correction) == tgt


def test_esc_gold_matches_extracted_replacements():
    src = tokenize("She go to school yesterday")
    tgt = tokenize("She went to the school")
    path = align(src, tgt)
    inst = make_esc_gold(path)
    spans = extract_edits(path)
    assert tuple(r for _, r in inst.correction.segments) == tuple(
        s.replacement for s in spans
    )


def test_esd_esc_consistency():
    src = tokenize("a b c d e f")
    tgt = tokenize("a x c f g")
    path = align(src, tgt)
    esd = make_esd_instance(path)
    esc = make_esc_gold(path)
    tagged = {i for i, t in enumerate(esd.tags) if t == 1}
    in_spans = {
        i
        for span in esc.annotated.spans
        for i in range(span.src_start, span.src_end)
    }
    assert tagged == in_spans


def test_sample_spans_zero_budget():
    cfg = SpanSampleConfig(coverage_budget=0.0)
    assert sample_spans(("a", "b", "c"), cfg, random.Random(0)) == []


def test_sample_spans_length_one_sentence():
    cfg = SpanSampleConfig(coverage_budget=0.9)
    spans = sample_spans(("only",), cfg, random.Random(1))
    assert spans == [EditSpan(0, 1)]


def test_sample_spans_golden_seed42():
    # Frozen once from this implementation's own RNG stream.
    tokens = tuple(f"t{i}" for i in range(20))
    cfg = SpanSampleConfig(geometric_p=0.2, max_span_len=10, coverage_budget=0.15)
    spans = sample_spans(tokens, cfg, random.Random(42))
    assert [(s.src_start, s.src_end) for s in spans] == [(3, 5), (8, 10)]


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200)
def test_sample_spans_valid_and_within_budget_logic(n, seed):
    tokens = tuple(f"t{i}" for i in range(n))
    cfg = SpanSampleConfig(geometric_p=0.3, max_span_len=5, coverage_budget=0.4)
    spans = sample_spans(tokens, cfg, random.Random(seed))
    prev_end = 0
    for span in spans:
        assert prev_end <= span.src_start < span.src_end <= n
        assert span.src_end - span.src_start <= cfg.max_span_len
        prev_end = span.src_end


def test_sample_spans_deterministic():
    tokens = tuple(f"t{i}" for i in range(15))
    cfg = SpanSampleConfig()
    assert sample_spans(tokens, cfg, random.Random(9)) == sample_spans(
        tokens, cfg, random.Random(9)
    )


def test_projection_copy_for_unedited_span():
    src = tokenize("a b c d e")
    tgt = tokenize("a b c d x")  # only the last token edited
    path = align(src, tgt)
    assert project_spans(path, [EditSpan(1, 3)]) == [("b", "c")]


def test_projection_of_gold_span_equals_gold_replacement():
    src = tokenize("is to my hotel .")
    tgt = tokenize("my hotel is .")
    path = align(src, tgt)
    spans = extract_edits(path)
    assert project_spans(path, spans) == [span.replacement for span in spans]


def test_sampled_with_gold_spans_reproduces_gold():
    src = tokenize("She go to school yesterday .")
    tgt = tokenize("She went to the school .")
    path = align(src, tgt)
    gold_spans = extract_edits(path)
    injected = make_esc_from_spans(path, gold_spans)
    assert injected == make_esc_gold(path)


def test_full_cover_span_projects_to_target():
    src = tokenize("a b c d")
    tgt = tokenize("x b d e")
    inst = make_esc_from_spans(align(src, tgt), [EditSpan(0, 4)])
    assert inst.correction.segments == ((1, tgt),)
    assert merge_corrections(inst.annotated, inst.correction) == tgt


@given(
    st.lists(st.sampled_from("abcde"), min_size=2, max_size=8),
    st.lists(st.sampled_from("abcde"), min_size=0, max_size=8),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=200)
def test_sampled_instance_round_trip_when_spans_cover_edits(src, tgt, seed):
    # A span set that nests every gold span reconstructs the target exactly.
    src = tuple(src)
    tgt = tuple(tgt)
    path = align(src, tgt)
    gold = extract_edits(path)
    inst = make_esc_from_spans(path, [EditSpan(0, len(src))])
    assert merge_corrections(inst.annotated, inst.correction) == tgt
    # Partial coverage: apply the projected replacement of each gold span.
    inst2 = make_esc_from_spans(path, gold)
    assert merge_corrections(inst2.annotated, inst2.correction) == tgt


def test_make_esc_sampled_deterministic():
    src = tokenize("a b c d e f g h")
    tgt = tokenize("a b x d e f h")
    cfg = SpanSampleConfig(coverage_budget=0.3)
    a = make_esc_sampled(align(src, tgt), cfg, random.Random(3))
    b = make_esc_sampled(align(src, tgt), cfg, random.Random(3))
    assert a == b


def test_corrupt_zero_probabilities_is_identity():
    cfg = CorruptConfig()
    sent = tokenize("nothing changes here")
    assert corrupt(sent, cfg, random.Random(0)) == sent


def test_corrupt_all_delete_empties():
    cfg = CorruptConfig(p_delete=1.0)
    assert corrupt(("a", "b", "c"), cfg, random.Random(0)) == ()


def test_corrupt_golden_seed7():
    # Frozen once from this implementation's own RNG stream.
    sent = tokenize("the quick brown fox jumps over the lazy dog .")
    cfg = CorruptConfig(
        p_insert=0.1,
        p_delete=0.1,
        p_replace=0.1,
        p_swap=0.1,
        vocab=("alpha", "beta", "gamma"),
    )
    assert corrupt(sent, cfg, random.Random(7)) == (
        "quick", "the", "fox", "jumps", "gamma", "over", "gamma",
        "the", "gamma", "alpha", "dog", ".", "alpha",
    )


def test_corrupt_swap_skipped_at_last_position():
    cfg = CorruptConfig(p_swap=1.0)
    assert corrupt(("a",), cfg, random.Random(0)) == ("a",)
    assert corrupt(("a", "b", "c"), cfg, random.Random(0)) == ("b", "a", "c")


def test_corrupt_deterministic_given_seed():
    sent = tuple(f"w{i}" for i in range(30))
    cfg = CorruptConfig(p_insert=0.05, p_delete=0.05, p_replace=0.1, p_swap=0.05,
                        vocab=("x", "y"))
    a = corrupt(sent, cfg, sentence_rng(11, 4))
    b = corrupt(sent, cfg, sentence_rng(11, 4))
    assert a == b


@given(
    st.lists(st.sampled_from(["u", "v", "w"]), min_size=1, max_size=12),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=200)
def test_corrupt_pairs_align_and_reconstruct(sent, seed):
    sent = tuple(sent)
    cfg = CorruptConfig(p_insert=0.1, p_delete=0.1, p_replace=0.15, p_swap=0.1,
                        vocab=("p", "q", "r"))
    noisy = corrupt(sent, cfg, random.Random(seed))
    if not noisy:
        return  # fully deleted; nothing to align against
    inst = make_esd_instance(align(noisy, sent))
    assert any(inst.tags) == (noisy != sent)
    spans = extract_edits(align(noisy, sent))
    assert apply_spans(noisy, spans) == sent


@pytest.mark.parametrize("tokens, tags", [(("a",), (2,)), (("a", "b"), (0, -1)), (("a",), (0, 1))])
def test_esd_instance_rejects_bad_tags(tokens, tags):
    with pytest.raises(ValueError):
        EsdInstance(tokens, tags)


def test_config_validation():
    with pytest.raises(ValueError):
        SpanSampleConfig(geometric_p=0.0)
    with pytest.raises(ValueError):
        CorruptConfig(p_insert=0.6, p_delete=0.6)
    with pytest.raises(ValueError):
        CorruptConfig(p_replace=0.5)  # no vocab to draw from
