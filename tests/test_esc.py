import json
import os
import tempfile
from collections import Counter
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spangec.alignment import EditSpan, TokenSeq, align, tokenize
from spangec.annotation import CorrectionOutput, annotate, merge_corrections, parse_correction
from spangec.datagen import EscInstance, make_esc_gold
from spangec.errors import EmptyCorpusError
from spangec.esc import (
    PhraseTableCorrector,
    count_full_decode_steps,
    oracle_correct,
    train_corrector,
)

LAW_SRC = tokenize("The law 's spirit also include the fairness .")
LAW_TGT = tokenize("The law 's spirit also includes fairness .")


def law_instance():
    src = tokenize("The law 's spirit also include the fairness .")
    spans = [EditSpan(4, 9, tokenize("also includes fairness ."))]
    annotated = annotate(src, spans)
    from spangec.annotation import CorrectionOutput

    return annotated, CorrectionOutput(((1, tokenize("also includes fairness .")),))


def make_training_corpus():
    # "also include" -> "also includes" three times, plus a distractor.
    pairs = [
        ("we also include the report .", "we also includes the report ."),
        ("they also include more data .", "they also includes more data ."),
        ("you also include every file .", "you also includes every file ."),
        ("he walk fast .", "he walks fast ."),
    ]
    return [make_esc_gold(align(tokenize(s), tokenize(t))) for s, t in pairs]


def test_phrase_table_learns_frequent_pattern():
    model = train_corrector(make_training_corpus())
    assert model.lookup("we", ("include",)) == ("includes",)
    # backoff: unseen context, seen span
    assert model.lookup("never-seen", ("include",)) == ("includes",)


def test_unseen_span_copies():
    model = train_corrector(make_training_corpus())
    assert model.lookup(None, ("unknown", "span")) == ("unknown", "span")


def test_training_deterministic(tmp_path):
    p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    train_corrector(make_training_corpus()).save(p1)
    train_corrector(make_training_corpus()).save(p2)
    assert open(p1).read() == open(p2).read()


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpusError):
        train_corrector([])


def test_empty_iterator_rejected():
    with pytest.raises(EmptyCorpusError):
        PhraseTableCorrector().fit(iter([]))


def test_correct_table6_pattern_and_decode_steps():
    from spangec.datagen import make_esc_from_spans

    # train on the full annotated span, as sampled-span instances would
    instance = make_esc_from_spans(
        align(LAW_SRC, LAW_TGT), [EditSpan(4, 9, tokenize("also includes fairness ."))]
    )
    model = train_corrector([instance])
    annotated, _ = law_instance()
    result = model.correct(annotated)
    assert result.output.segments == ((1, tokenize("also includes fairness .")),)
    # 4 replacement tokens + 2 markers
    assert result.decode_steps == 6
    assert merge_corrections(annotated, result.output) == LAW_TGT


def test_correct_unseen_single_token_span_copy_steps():
    model = train_corrector(make_training_corpus())
    annotated = annotate(("alpha", "beta"), [EditSpan(0, 1)])
    result = model.correct(annotated)
    assert result.output.segments == ((1, ("alpha",)),)
    assert result.decode_steps == 3  # marker + token + marker


def test_correct_requires_spans():
    model = train_corrector(make_training_corpus())
    with pytest.raises(ValueError):
        model.correct(annotate(("a", "b"), []))


def test_copy_through_safety():
    model = train_corrector(make_training_corpus())
    source = tokenize("completely novel text nothing matches")
    annotated = annotate(source, [EditSpan(1, 3)])
    result = model.correct(annotated)
    assert merge_corrections(annotated, result.output) == source


def test_decode_steps_match_serialized_token_count():
    from spangec.annotation import render_correction

    model = train_corrector(make_training_corpus())
    annotated = annotate(tokenize("we also include the report ."), [EditSpan(2, 3)])
    result = model.correct(annotated)
    assert result.decode_steps == len(render_correction(result.output))


def test_tie_broken_lexicographically():
    pairs = [("x a y", "x b y"), ("x a y", "x c y")]
    model = train_corrector(
        [make_esc_gold(align(tokenize(s), tokenize(t))) for s, t in pairs]
    )
    assert model.lookup("x", ("a",)) == ("b",)


def test_oracle_round_trip():
    instance = make_esc_gold(align(LAW_SRC, LAW_TGT))
    result = oracle_correct(instance)
    assert merge_corrections(instance.annotated, result.output) == LAW_TGT


def test_oracle_hotel_rendering():
    src = tokenize("is to my hotel .")
    tgt = tokenize("my hotel is .")
    instance = make_esc_gold(align(src, tgt))
    result = oracle_correct(instance)
    assert merge_corrections(instance.annotated, result.output) == tgt


def test_oracle_empty_replacement_deletes():
    instance = make_esc_gold(align(tokenize("a b c"), tokenize("a c")))
    result = oracle_correct(instance)
    assert merge_corrections(instance.annotated, result.output) == ("a", "c")


def test_count_full_decode_steps():
    assert count_full_decode_steps(()) == 1
    assert count_full_decode_steps(tuple("abcdefghij")) == 11


def test_save_load_round_trip(tmp_path):
    model = train_corrector(make_training_corpus())
    path = str(tmp_path / "table.jsonl")
    model.save(path)
    loaded = PhraseTableCorrector.load(path)
    annotated = annotate(tokenize("we also include the report ."), [EditSpan(2, 3)])
    assert loaded.correct(annotated) == model.correct(annotated)


def test_correction_output_parse_against_markers():
    # model output in surface form round-trips through the parser
    corr = parse_correction(tokenize("<s1> to </s1> <s2> my hotel is . </s2>"))
    assert corr.segments == ((1, ("to",)), (2, tokenize("my hotel is .")))


class TwoTableCorrector:
    """The phrase table as it was kept before the one-table layout: a table
    keyed by (context, span) and a span-only table, both filled by fit. The
    reference that the one table must answer like."""

    def __init__(self):
        self._by_context: dict[tuple[Optional[str], TokenSeq], Counter] = {}
        self._by_span: dict[TokenSeq, Counter] = {}

    def fit(self, instances):
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


# "\x01" sorts below the space that joins tokens, so a tie broken on joined
# texts would differ from one broken on token tuples.
_TOKEN = st.sampled_from(["a", "b", "a\x01", "\x01", "ab", "é"])


@st.composite
def _instance(draw):
    source = tuple(draw(st.lists(_TOKEN, min_size=1, max_size=6)))
    points = sorted(set(draw(st.lists(st.integers(0, len(source)), max_size=6))))
    spans = [EditSpan(start, end) for start, end in zip(points[::2], points[1::2])]
    segments = tuple(
        (k, tuple(draw(st.lists(_TOKEN, max_size=2))))  # empty: a deletion
        for k in range(1, len(spans) + 1)
        if draw(st.booleans())  # a span may have no segment
    )
    return EscInstance(annotate(source, spans), CorrectionOutput(segments))


def _queries(instances):
    """Every (context, span) the instances hold, and an unseen context and
    an unseen span for each."""
    seen = set()
    for inst in instances:
        source = inst.annotated.source
        for span in inst.annotated.spans:
            ctx = source[span.src_start - 1] if span.src_start > 0 else None
            seen.add((ctx, source[span.src_start : span.src_end]))
    return seen | {("zz", span) for _, span in seen} | {(ctx, ("zz",)) for ctx, _ in seen}


@given(st.lists(_instance(), min_size=1, max_size=8), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_saved_and_loaded_table_answers_like_the_two_table_reference(instances, repeat):
    instances = instances * repeat + instances[:1]  # more ties, and counts above 1
    reference = TwoTableCorrector().fit(instances)
    model = train_corrector(instances)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.esc")
        model.save(path)
        loaded = PhraseTableCorrector.load(path)
        loaded.save(path + "2")
        with open(path, "rb") as a, open(path + "2", "rb") as b:
            assert a.read() == b.read()
    for ctx, span in _queries(instances):
        expected = reference.lookup(ctx, span)
        assert model.lookup(ctx, span) == expected
        assert loaded.lookup(ctx, span) == expected


def test_tie_is_broken_on_token_tuples_not_joined_texts():
    source = ("x", "s")
    instances = [
        EscInstance(annotate(source, [EditSpan(1, 2)]), CorrectionOutput(((1, repl),)))
        for repl in (("a\x01",), ("a", "b"))
    ]
    assert train_corrector(instances).lookup("x", ("s",)) == ("a", "b")
    assert TwoTableCorrector().fit(instances).lookup("x", ("s",)) == ("a", "b")


def test_span_backoff_sums_the_counts_over_contexts(tmp_path):
    """p is seen once in each of two contexts, q twice in a third: summed,
    they tie at 2 and p wins the tie; by the largest single count q would."""
    def instance(ctx, repl):
        correction = CorrectionOutput(((1, (repl,)),))
        return EscInstance(annotate((ctx, "s"), [EditSpan(1, 2)]), correction)

    instances = [instance("x", "p"), instance("y", "p"), instance("z", "q"), instance("z", "q")]
    path = str(tmp_path / "model.esc")
    train_corrector(instances).save(path)
    assert PhraseTableCorrector.load(path).lookup("w", ("s",)) == ("p",)
    assert TwoTableCorrector().fit(instances).lookup("w", ("s",)) == ("p",)


def test_saved_model_is_one_format_1_document(tmp_path):
    path = tmp_path / "model.esc"
    train_corrector(make_training_corpus()).save(str(path))
    document = json.loads(path.read_text(encoding="utf-8"))
    assert document["format"] == 1
    assert document["counts"]["include"]["also"] == {"includes": 3}
    assert document["counts"]["walk"]["he"] == {"walks": 1}
