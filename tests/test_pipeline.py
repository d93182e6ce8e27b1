import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spangec import pipeline
from spangec.alignment import align
from spangec.datagen import EsdInstance, make_esc_gold
from spangec.esc import PhraseTableCorrector, train_corrector
from spangec.esd import DecodeConfig, train_tagger
from spangec.metrics import EfficiencyReport
from spangec.pipeline import correct_sentence, run_pipeline, threshold_sweep


class AlternatingTagger:
    """Flags every other token, so an n-token line has ceil(n/2) spans."""

    def predict_probs(self, tokens):
        return [1.0 if i % 2 == 0 else 0.0 for i in range(len(tokens))]

    def block_probs(self, sentences):
        return [self.predict_probs(tokens) for tokens in sentences]


@pytest.mark.parametrize(
    "n_tokens, span_steps",
    [
        (127, 64 * 3),  # 64 one-token spans fit the markers and stay apart
        (129, 129 + 2),  # 65 spans do not: they fuse into one
    ],
)
def test_more_spans_than_markers_are_fused(n_tokens, span_steps):
    tokens = tuple(f"t{i}" for i in range(n_tokens))
    # An empty phrase table copies every span unchanged.
    corrected, steps = correct_sentence(
        tokens, AlternatingTagger(), PhraseTableCorrector(), DecodeConfig()
    )
    assert corrected == tokens
    assert steps == span_steps


def test_streamed_outputs_equal_collected_outputs():
    sentences = [tuple(f"t{i}" for i in range(n)) for n in (1, 4, 9)]
    args = (AlternatingTagger(), PhraseTableCorrector(), DecodeConfig())
    collected, report = run_pipeline(sentences, *args)
    streamed = []
    rest, streamed_report = run_pipeline(sentences, *args, write=streamed.append)
    assert streamed == collected == sentences
    assert rest == []
    assert streamed_report == report


class FixedTagger:
    """Returns the same probabilities whatever the tokens."""

    def __init__(self, probs):
        self.probs = probs

    def predict_probs(self, tokens):
        return self.probs

    def block_probs(self, sentences):
        return [self.probs for _ in sentences]


@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=300),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=200, deadline=None)
def test_any_probabilities_pass_through_an_empty_phrase_table(probs, threshold, gap):
    tokens = tuple(f"t{i}" for i in range(len(probs)))
    corrected, _ = correct_sentence(
        tokens, FixedTagger(probs), PhraseTableCorrector(), DecodeConfig(threshold, gap)
    )
    assert corrected == tokens



def test_blocks_come_out_before_a_reading_error():
    def sentences():
        yield ("a", "b", "c")
        yield ()
        yield ("d",)
        raise ValueError("bad line")

    blocks = []
    with mock.patch.object(pipeline, "_BLOCK_TOKENS", 5), pytest.raises(ValueError):
        for block in pipeline._blocks(sentences()):
            blocks.append(block)
    assert blocks == [[("a", "b", "c"), ()], [("d",)]]


def _pairs(n, seed):
    """Pairs whose sources have a 'teh' where the target has 'the'."""
    rng = random.Random(seed)
    words = ["the", "cat", "dog", "sat", "ran", "here", "now", "a", "big"]
    pairs = []
    for _ in range(n):
        target = tuple(rng.choice(words) for _ in range(rng.randint(0, 9)))
        source = tuple("teh" if tok == "the" and rng.random() < 0.5 else tok for tok in target)
        pairs.append((source, target))
    return pairs


@pytest.mark.parametrize("block_tokens", [1, 7, 4096])
def test_block_scoring_equals_one_sentence_at_a_time(block_tokens):
    train, test = _pairs(200, seed=1), _pairs(60, seed=2)
    tagger = train_tagger(
        [EsdInstance(s, tuple(int(tok == "teh") for tok in s)) for s, _ in train], epochs=2
    )
    corrector = train_corrector([make_esc_gold(align(s, t)) for s, t in train if s])
    cfg = DecodeConfig(threshold=0.3)
    sources = [s for s, _ in test]
    one_at_a_time = [correct_sentence(s, tagger, corrector, cfg) for s, _ in test]
    with mock.patch.object(pipeline, "_BLOCK_TOKENS", block_tokens):
        outputs, report = run_pipeline(sources, tagger, corrector, cfg)
        rows = threshold_sweep(tagger, test, (0.3, 0.5))
    assert outputs == [corrected for corrected, _ in one_at_a_time]
    assert report == EfficiencyReport(
        n_sentences=len(test),
        n_flagged=sum(1 for _, steps in one_at_a_time if steps),
        span_decode_steps=sum(steps for _, steps in one_at_a_time),
        full_decode_steps=sum(len(corrected) + 1 for corrected, _ in one_at_a_time),
    )
    assert any(steps for _, steps in one_at_a_time)
    assert rows == pipeline.threshold_sweep(tagger, test, (0.3, 0.5))
