import pytest

from spangec.alignment import EditSpan, align, tokenize
from spangec.annotation import annotate, merge_corrections, parse_correction
from spangec.datagen import make_esc_gold
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
