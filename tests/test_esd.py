import contextlib
import functools
import math
import random
import sys
from typing import Sequence
from unittest import mock
from zlib import crc32

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from spangec import esd
from spangec.alignment import EditSpan
from spangec.datagen import EsdInstance
from spangec.errors import EmptyCorpusError, ModelFormatError
from spangec.esd import (
    _BIN_EDGES,
    _PAD,
    _SEP,
    DecodeConfig,
    EsdTagger,
    _count_bins,
    decode_spans,
    token_shape,
    train_tagger,
)


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


# Reference hashing and binning: the scalar code that `esd._buckets` and
# `esd._count_bins` replaced, copied verbatim.
_BUCKET_MASK = esd.N_BUCKETS - 1


def _bucket(feature: str) -> int:
    h = crc32(feature.encode("utf-8"))
    return ((h * esd._MIX) >> 44) & _BUCKET_MASK


def _count_bin(count: int) -> int:
    for b, edge in enumerate(_BIN_EDGES):
        if count <= edge:
            return b
    return len(_BIN_EDGES)


def _unigram_key(tok: str) -> int:
    return _bucket("u=" + tok)


def _bigram_key(left: str, right: str) -> int:
    return _bucket("b=" + left + _SEP + right)


def _tiny_bucket(feature: str) -> int:
    """Five buckets: every row repeats ids, as the update must count."""
    return crc32(feature.encode("utf-8")) % 5


@contextlib.contextmanager
def hashing(bucket):
    """Hash features with the scalar `bucket` in the detector's vectorised
    seam, `esd._buckets`, and in the references here. With the reference
    `_bucket` the detector keeps its own hashing. The bin tables were hashed
    at import, on both sides, and keep the real buckets."""
    if bucket is _bucket:
        yield
        return

    def buckets(features, n):
        return np.fromiter(map(bucket, features), np.int32, n)

    with mock.patch.object(esd, "_buckets", buckets), mock.patch.object(
        sys.modules[__name__], "_bucket", bucket
    ):
        yield


@given(st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)))
def test_buckets_equal_scalar_bucket(features):
    buckets = esd._buckets(iter(features), len(features))
    assert buckets.dtype == np.int32
    assert buckets.tolist() == [_bucket(f) for f in features]


# Reference feature extraction: the per-token code that the per-type builder
# replaced, copied verbatim. Its ids and margins must equal the builder's.
_UF_BINS = tuple(_bucket(f"uf={b}") for b in range(len(_BIN_EDGES) + 1))
_BFL_BINS = tuple(_bucket(f"bfl={b}") for b in range(len(_BIN_EDGES) + 1))
_BFR_BINS = tuple(_bucket(f"bfr={b}") for b in range(len(_BIN_EDGES) + 1))
_BFLR_BINS = tuple(
    tuple(_bucket(f"bflr={bl},{br}") for br in range(len(_BIN_EDGES) + 1))
    for bl in range(len(_BIN_EDGES) + 1)
)


def token_features(tokens: Sequence[str], i: int) -> list[str]:
    """Count-independent features for token i: identity, casing, affixes,
    shape, and the adjacent bigrams. Context enters only through bigrams
    (identity here, frequency bins in the tagger): raw neighbour-identity
    features measurably hurt generalisation by memorising training noise."""
    tok = tokens[i]
    prev1 = tokens[i - 1] if i >= 1 else _PAD
    next1 = tokens[i + 1] if i + 1 < len(tokens) else _PAD
    return [
        "b=",
        "w=" + tok,
        "lw=" + tok.lower(),
        "sh=" + token_shape(tok),
        "p1=" + tok[:1],
        "p2=" + tok[:2],
        "p3=" + tok[:3],
        "s1=" + tok[-1:],
        "s2=" + tok[-2:],
        "s3=" + tok[-3:],
        "bg-=" + prev1 + _SEP + tok,
        "bg+=" + tok + _SEP + next1,
    ]


def reference_feature_ids(self, tokens: Sequence[str]) -> list[np.ndarray]:
    ids: list[np.ndarray] = []
    n = len(tokens)
    for i in range(n):
        feats = [_bucket(f) for f in token_features(tokens, i)]
        uf = _count_bin(int(self._unigram_counts[_unigram_key(tokens[i])]))
        feats.append(_UF_BINS[uf])
        left = tokens[i - 1] if i >= 1 else _PAD
        right = tokens[i + 1] if i + 1 < n else _PAD
        bl = _count_bin(int(self._bigram_counts[_bigram_key(left, tokens[i])]))
        br = _count_bin(int(self._bigram_counts[_bigram_key(tokens[i], right)]))
        feats.append(_BFL_BINS[bl])
        feats.append(_BFR_BINS[br])
        feats.append(_BFLR_BINS[bl][br])
        ids.append(np.array(feats, dtype=np.int64))
    return ids


_POOL = ["the", "The", "THE", "teh", "cat", "dog", "now", "a1", "42", "Word12",
         "é", "Ünïcode", "straße", "中文", "x-y", _PAD]


@functools.lru_cache(maxsize=None)
def _reference_tagger() -> EsdTagger:
    """A tagger whose counts put pool tokens and bigrams in every count bin."""
    rng = random.Random(5)
    extra = []
    for repeats in (1, 2, 5, 12):
        sentence = tuple(rng.sample(_POOL, 4))
        extra += [EsdInstance(sentence, (0, 1, 0, 0))] * repeats
    return train_tagger(make_instances() + extra, epochs=2, seed=1)


_TOKENS = st.lists(
    st.one_of(
        st.sampled_from(_POOL),
        st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8),
    ),
    max_size=40,
)


@pytest.mark.parametrize("max_block", [4096, 1, 2])
@given(sentences=st.lists(_TOKENS, max_size=12), data=st.data())
@settings(max_examples=150, deadline=None)
def test_feature_ids_and_margins_equal_reference(max_block, sentences, data):
    """Split into random blocks of at most max_block sentences, every
    block's rows, margins and probabilities equal the per-token reference's;
    one-sentence queries equal their one-sentence block."""
    tagger = _reference_tagger()
    start = 0
    while start < len(sentences):
        block = sentences[start : start + data.draw(st.integers(1, max_block))]
        start += len(block)
        reference = [reference_feature_ids(tagger, tokens) for tokens in block]
        rows = tagger._corpus_rows(block, count=False)
        margins = tagger._block_margins(block)
        probs = tagger.block_probs(block)
        assert rows.shape == (sum(map(len, block)), 16)
        assert rows.tolist() == [row.tolist() for ref in reference for row in ref]
        assert margins == [[float(tagger.weights[row].sum()) for row in ref] for ref in reference]
        assert probs == [[esd._sigmoid(m / tagger.temperature) for m in ms] for ms in margins]
        if len(block) == 1:
            assert tagger.decision_margins(block[0]) == margins[0]
            assert tagger.predict_probs(block[0]) == probs[0]


def test_refit_equals_fresh_fit(tmp_path):
    """Count bins from an earlier fit must not leak into the next."""
    small, full = make_instances()[:5], make_instances()
    refit = train_tagger(small, epochs=2, seed=4)
    for inst in full:
        refit.predict_probs(inst.tokens)
    refit.fit(full)
    fresh = train_tagger(full, epochs=2, seed=4)
    for inst in full:
        assert refit.predict_probs(inst.tokens) == fresh.predict_probs(inst.tokens)
    refit.save(str(tmp_path / "refit.bin"))
    fresh.save(str(tmp_path / "fresh.bin"))
    assert (tmp_path / "refit.bin").read_bytes() == (tmp_path / "fresh.bin").read_bytes()


# Reference training: the per-token perceptron loop, the per-occurrence
# counting and the per-sentence calibration that the windowed loop and the
# per-type tables replaced, copied verbatim. The fit must equal it exactly.
def reference_count_corpus(self, instances: Sequence[EsdInstance]) -> None:
    for inst in instances:
        toks = inst.tokens
        prev = _PAD
        for tok in toks:
            self._unigram_counts[_unigram_key(tok)] += 1
            self._bigram_counts[_bigram_key(prev, tok)] += 1
            prev = tok
        if toks:
            self._bigram_counts[_bigram_key(prev, _PAD)] += 1


def reference_fit(self, instances) -> "EsdTagger":
    instances = list(instances)
    if not instances:
        raise EmptyCorpusError("no training instances")
    n_cal = len(instances) // 10 if len(instances) >= 10 else 0
    train = instances[: len(instances) - n_cal] if n_cal else instances
    calib = instances[len(instances) - n_cal :] if n_cal else instances

    self._unigram_counts = np.zeros(esd.N_BUCKETS, dtype=np.uint32)
    self._bigram_counts = np.zeros(esd.N_BUCKETS, dtype=np.uint32)
    reference_count_corpus(self, train)

    feats = [reference_feature_ids(self, inst.tokens) for inst in train]
    labels = [inst.tags for inst in train]

    w = np.zeros(esd.N_BUCKETS, dtype=np.float64)
    u = np.zeros(esd.N_BUCKETS, dtype=np.float64)
    c = 1
    rng = random.Random(self.seed)
    order = list(range(len(train)))
    for _ in range(self.epochs):
        rng.shuffle(order)
        for idx in order:
            for ids, tag in zip(feats[idx], labels[idx]):
                score = w[ids].sum()
                pred = 1 if score >= 0 else 0
                if pred != tag:
                    y = 1.0 if tag == 1 else -1.0
                    np.add.at(w, ids, y)
                    np.add.at(u, ids, c * y)
                c += 1
    self.weights = w - u / c
    self.temperature = reference_fit_temperature(self, calib)
    return self


def reference_fit_temperature(self, instances: Sequence[EsdInstance]) -> float:
    margins: list[float] = []
    tags: list[int] = []
    for inst in instances:
        rows = reference_feature_ids(self, inst.tokens)
        margins.extend(float(self.weights[ids].sum()) for ids in rows)
        tags.extend(inst.tags)
    best_t, best_nll = 1.0, math.inf
    for t in esd._TEMPERATURE_GRID:
        nll = 0.0
        for m, tag in zip(margins, tags):
            p = esd._sigmoid(m / t)
            p = min(max(p, 1e-12), 1 - 1e-12)
            nll -= math.log(p) if tag == 1 else math.log(1 - p)
        if nll < best_nll:
            best_t, best_nll = t, nll
    return best_t


_TRAIN_POOL = ["the", "teh", "cat", "dog", "sat", "Ran", "a1", "é", "x-y", _PAD]
_CORPORA = st.lists(
    st.lists(st.tuples(st.sampled_from(_TRAIN_POOL), st.integers(0, 1)), max_size=9).map(
        lambda pairs: EsdInstance(tuple(t for t, _ in pairs), tuple(g for _, g in pairs))
    ),
    min_size=1,
    max_size=30,
)


@pytest.mark.parametrize(
    "window, bucket", [(esd._WINDOW, _bucket), (1, _bucket), (2, _bucket),
                       (esd._WINDOW, _tiny_bucket), (2, _tiny_bucket)]
)
@given(corpus=_CORPORA, epochs=st.integers(1, 3), seed=st.integers(0, 3))
# No shrink phase: each example runs two full fits, and shrinking a failure
# took over ten minutes before anything was reported.
@settings(
    max_examples=40,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
)
def test_fit_equals_per_token_reference(tmp_path_factory, window, bucket, corpus, epochs, seed):
    root = tmp_path_factory.mktemp("fit")
    paths = root / "fast.esd", root / "reference.esd"
    with mock.patch.object(esd, "_WINDOW", window), hashing(bucket):
        fast = EsdTagger(epochs=epochs, seed=seed).fit(corpus)
        reference = reference_fit(EsdTagger(epochs=epochs, seed=seed), corpus)
    fast.save(str(paths[0]))
    reference.save(str(paths[1]))
    assert (fast.weights == reference.weights).all()
    assert (fast._unigram_counts == reference._unigram_counts).all()
    assert (fast._bigram_counts == reference._bigram_counts).all()
    assert fast.temperature == reference.temperature
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_fit_on_sentences_without_tokens_saves_a_model(tmp_path):
    path = str(tmp_path / "empty.esd")
    train_tagger([EsdInstance((), ())] * 12, epochs=2, seed=0).save(path)
    model = EsdTagger.load(path)
    assert not model.weights.any()
    assert model.predict_probs(()) == []
    assert len(model.predict_probs(("a", "b"))) == 2


def test_epoch_mistakes_count_each_epoch_of_the_last_fit(tmp_path):
    model = train_tagger(make_instances(), epochs=3, seed=1)
    assert len(model.epoch_mistakes) == 3 and model.epoch_mistakes[0] > 0
    model.fit(make_instances()[:5])
    assert len(model.epoch_mistakes) == 3
    model.save(str(tmp_path / "m.esd"))
    assert EsdTagger.load(str(tmp_path / "m.esd")).epoch_mistakes == []


_PROBES = st.lists(
    st.lists(
        st.one_of(
            st.sampled_from(_TRAIN_POOL + ["new", "中文"]),
            st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4),
        ),
        max_size=9,
    ),
    max_size=8,
)


@pytest.mark.parametrize("bucket", [_bucket, _tiny_bucket])
@given(corpus=_CORPORA, probes=_PROBES)
@settings(max_examples=80, deadline=None)
def test_corpus_rows_equal_inference_rows(bucket, corpus, probes):
    """The per-type builder gives the rows and counts of the per-token
    reference, counting and not, also when distinct types share buckets."""
    sentences = [inst.tokens for inst in corpus] + probes
    with hashing(bucket):
        counted = EsdTagger()
        counted_rows = counted._corpus_rows(sentences, count=True)
        reference = EsdTagger()
        reference_count_corpus(reference, [EsdInstance(tuple(s), (0,) * len(s)) for s in sentences])
        fitted = EsdTagger(epochs=1, seed=0).fit(corpus)
        counts = fitted._unigram_counts.copy(), fitted._bigram_counts.copy()
        rows = fitted._corpus_rows(sentences, count=False)
        expected = [
            [row.tolist() for tokens in sentences for row in reference_feature_ids(tagger, tokens)]
            for tagger in (counted, fitted)
        ]
    assert (counted._unigram_counts == reference._unigram_counts).all()
    assert (counted._bigram_counts == reference._bigram_counts).all()
    assert (fitted._unigram_counts == counts[0]).all()
    assert (fitted._bigram_counts == counts[1]).all()
    assert counted_rows.dtype == rows.dtype == np.int32
    assert counted_rows.tolist() == expected[0]
    assert rows.tolist() == expected[1]
    # The five-bucket hash reached the builder: identity ids are all below 5.
    assert bucket is _bucket or rows[:, :12].max(initial=0) < 5


def test_count_bins_equal_count_bin():
    counts = np.arange(21, dtype=np.uint32)
    assert _count_bins(counts).tolist() == [_count_bin(c) for c in range(21)]
