import random

import pytest

from spangec.alignment import EditSpan
from spangec.datagen import EsdInstance
from spangec.errors import EmptyCorpusError, ModelFormatError
from spangec.esd import DecodeConfig, EsdTagger, decode_spans, train_tagger


def make_instances():
    """Small corpus where 'teh' is always an error and 'the' never is."""
    rng = random.Random(0)
    filler = ["cat", "dog", "sat", "ran", "here", "now"]
    instances = []
    for _ in range(60):
        tokens, tags = [], []
        for _ in range(rng.randint(3, 7)):
            if rng.random() < 0.3:
                tokens.append("teh")
                tags.append(1)
            else:
                tokens.append(rng.choice(["the"] + filler))
                tags.append(0)
        instances.append(EsdInstance(tuple(tokens), tuple(tags)))
    return instances


def test_all_negative_single_instance():
    inst = EsdInstance(("a", "b", "c"), (0, 0, 0))
    model = train_tagger([inst], epochs=1, seed=0)
    assert all(p < 0.5 for p in model.predict_probs(inst.tokens))


def test_learns_lexical_error_signal():
    model = train_tagger(make_instances(), epochs=3, seed=1)
    p_teh = model.predict_probs(("teh",))[0]
    p_the = model.predict_probs(("the",))[0]
    assert p_teh > p_the


def test_probs_in_range_and_empty_input():
    model = train_tagger(make_instances(), epochs=2, seed=0)
    assert model.predict_probs(()) == []
    probs = model.predict_probs(("some", "unseen", "teh", "words"))
    assert all(0.0 <= p <= 1.0 for p in probs)


def test_training_deterministic():
    a = train_tagger(make_instances(), epochs=3, seed=7)
    b = train_tagger(make_instances(), epochs=3, seed=7)
    assert (a.weights == b.weights).all()
    assert a.temperature == b.temperature


def test_empty_corpus_rejected():
    with pytest.raises(EmptyCorpusError):
        train_tagger([], epochs=1, seed=0)


def test_empty_iterator_rejected():
    with pytest.raises(EmptyCorpusError):
        EsdTagger(epochs=1).fit(iter([]))


def test_fit_on_generator_saves_same_bytes_as_on_list(tmp_path):
    from_list = tmp_path / "list.bin"
    from_generator = tmp_path / "generator.bin"
    train_tagger(make_instances(), epochs=2, seed=3).save(str(from_list))
    train_tagger((inst for inst in make_instances()), epochs=2, seed=3).save(
        str(from_generator)
    )
    assert from_list.read_bytes() == from_generator.read_bytes()


def test_predict_before_fit_rejected():
    with pytest.raises(ModelFormatError):
        EsdTagger().predict_probs(("a",))


def test_serialization_round_trip(tmp_path):
    model = train_tagger(make_instances(), epochs=3, seed=2)
    path = str(tmp_path / "model.bin")
    model.save(path)
    loaded = EsdTagger.load(path)
    assert (loaded.weights == model.weights).all()
    assert loaded.temperature == model.temperature
    probe = ("teh", "the", "dog", "zzz")
    assert loaded.predict_probs(probe) == model.predict_probs(probe)


def test_serialization_idempotent_bytes(tmp_path):
    p1 = str(tmp_path / "a.bin")
    p2 = str(tmp_path / "b.bin")
    train_tagger(make_instances(), epochs=2, seed=5).save(p1)
    train_tagger(make_instances(), epochs=2, seed=5).save(p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ModelFormatError):
        EsdTagger.load(str(path))


def test_decode_spans_basic():
    spans = decode_spans([0.1, 0.9, 0.8, 0.2], DecodeConfig(threshold=0.5))
    assert spans == [EditSpan(1, 3)]


def test_decode_threshold_zero_covers_everything():
    spans = decode_spans([0.3, 0.4, 0.5], DecodeConfig(threshold=0.0))
    assert spans == [EditSpan(0, 3)]


def test_decode_threshold_one_empty():
    assert decode_spans([0.9, 0.99], DecodeConfig(threshold=1.0)) == []


def test_decode_merge_gap():
    probs = [0.9, 0.1, 0.9, 0.1, 0.1, 0.9]
    assert decode_spans(probs, DecodeConfig(threshold=0.5, merge_gap=1)) == [
        EditSpan(0, 3),
        EditSpan(5, 6),
    ]
    assert decode_spans(probs, DecodeConfig(threshold=0.5, merge_gap=2)) == [
        EditSpan(0, 6)
    ]


def test_threshold_monotonicity_nested_positive_sets():
    model = train_tagger(make_instances(), epochs=3, seed=3)
    probe = ("teh", "the", "cat", "teh", "zzz", "now")
    probs = model.predict_probs(probe)
    previous = None
    for threshold in (0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
        positive = {i for i, p in enumerate(probs) if p >= threshold}
        if previous is not None:
            assert positive <= previous
        previous = positive


def test_decode_spans_always_valid():
    rng = random.Random(0)
    for _ in range(100):
        probs = [rng.random() for _ in range(rng.randint(0, 20))]
        cfg = DecodeConfig(threshold=rng.random(), merge_gap=rng.randint(0, 3))
        spans = decode_spans(probs, cfg)
        prev_end = -1
        for span in spans:
            assert 0 <= span.src_start < span.src_end <= len(probs)
            assert span.src_start > prev_end
            prev_end = span.src_end
