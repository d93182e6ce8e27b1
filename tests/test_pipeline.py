import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spangec.esc import PhraseTableCorrector
from spangec.esd import DecodeConfig
from spangec.pipeline import correct_sentence, run_pipeline


class AlternatingTagger:
    """Flags every other token, so an n-token line has ceil(n/2) spans."""

    def predict_probs(self, tokens):
        return [1.0 if i % 2 == 0 else 0.0 for i in range(len(tokens))]


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

