"""Erroneous-span detector: a hashed averaged-perceptron token tagger.

The tagger scores each token with window features hashed into 2^20 buckets,
squashes the margin through a temperature-calibrated logistic to get an
error probability, and turns thresholded probabilities into spans. Besides
identity/affix/shape features it uses corpus-frequency bins of the token and
its adjacent bigrams (counted over the training sources and stored with the
model), which is what lets a linear model flag novel token juxtapositions it
has never seen verbatim. It is a deliberately small, deterministic stand-in
for a fine-tuned encoder: the estimator interface (fit / block_probs) is
the seam where a stronger model plugs in. One builder makes the feature rows
for training and inference: it hashes each distinct token and bigram of a
batch of sentences once, into transient per-type tables, and gathers the
rows from them. `fit` runs it over the whole training corpus, queries over a
block of sentences (`block_probs`). A literal "<pad>" token shares the
sentence-boundary bigram features; changing that needs a new template version.
"""

from __future__ import annotations

import math
import os
import random
import struct
from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Iterable, Sequence
from zlib import crc32

import numpy as np

from .alignment import EditSpan
from .annotation import fit_spans
from .datagen import EsdInstance
from .errors import EmptyCorpusError, ModelFormatError

N_BUCKETS = 1 << 20
# Fixed multiply-shift constant (odd, 64-bit golden-ratio derived).
_MIX = 0x9E3779B97F4A7C15
TEMPLATE_VERSION = 1
_MAGIC = b"ESD1"
# Header after the magic: template version, bucket count, epochs, seed,
# temperature and the record count of each section.
_HEADER = struct.Struct("<IIIqdQQQ")
# Sparse section records, (bucket, value): weights, then unigram and bigram counts.
_WEIGHT_RECORD = np.dtype([("idx", "<u4"), ("value", "<f8")])
_COUNT_RECORD = np.dtype([("idx", "<u4"), ("value", "<u4")])
_SECTIONS = (_WEIGHT_RECORD, _COUNT_RECORD, _COUNT_RECORD)
_TEMPERATURE_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
_PAD = "<pad>"
_SEP = "\x1f"

# Count-bin edges for frequency features: 0, 1-2, 3-8, 9+.
_BIN_EDGES = (0, 2, 8)
# Tokens the perceptron scores with one gather before it looks for the first
# mistake among them; chosen by timing train-esd on the benchmark corpora.
_WINDOW = 48
# Distinct bigrams `_corpus_rows` hashes per batch: bounds its transient strings.
_HASH_CHUNK = 4096


def _buckets(features: Iterable[str], n: int) -> np.ndarray:
    """The buckets of n feature strings, as int32: the top 20 bits (one of
    N_BUCKETS) of the 64-bit product of the crc32 of each string's UTF-8
    bytes and _MIX. The multiply wraps mod 2**64, which keeps those bits."""
    h = np.fromiter(map(crc32, map(str.encode, features)), np.uint64, n)
    return (h * np.uint64(_MIX) >> np.uint64(44)).astype(np.int32)


def _count_bins(counts: np.ndarray) -> np.ndarray:
    """The frequency bin of each count: 0 for 0, 1 for 1-2, 2 for 3-8, 3 above."""
    return np.searchsorted(_BIN_EDGES, counts)


def token_shape(tok: str) -> str:
    """Compressed character-class signature, e.g. 'Word12' -> 'Xxd'."""
    shape = []
    for ch in tok:
        if ch.isupper():
            c = "X"
        elif ch.islower():
            c = "x"
        elif ch.isdigit():
            c = "d"
        else:
            c = "o"
        if not shape or shape[-1] != c:
            shape.append(c)
    return "".join(shape)


# Frequency-bin feature buckets are a small closed set, indexed by bin: the
# unigram bin, and for each (left bin, right bin) the left, right and joint
# bigram-bin features.
_N_BINS = len(_BIN_EDGES) + 1
_UNIGRAM_BIN_TABLE = _buckets((f"uf={b}" for b in range(_N_BINS)), _N_BINS)
_BIGRAM_BIN_TABLE = _buckets(
    (
        feature
        for bl in range(_N_BINS)
        for br in range(_N_BINS)
        for feature in (f"bfl={bl}", f"bfr={br}", f"bflr={bl},{br}")
    ),
    3 * _N_BINS * _N_BINS,
).reshape(_N_BINS, _N_BINS, 3)


def _count_free_features(tok: str) -> tuple[str, ...]:
    """A token's ten count-free features: bias, identity, casing, shape and
    affixes. Context enters only through bigrams (identity and frequency
    bins, see `EsdTagger._corpus_rows`): raw neighbour-identity features
    measurably hurt generalisation by memorising training noise."""
    return (
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
    )


class EsdTagger:
    """Binary token tagger with averaged-perceptron training.

    Parameters are plain constructor arguments; fit() consumes EsdInstance
    objects and freezes the model. `block_probs` scores a block of sentences
    with one feature build and one weight gather; `predict_probs` scores one
    sentence as a one-sentence block, which costs up to ten times more per
    token on short sentences.
    """

    def __init__(self, epochs: int = 5, seed: int = 0):
        # The saved header holds epochs as uint32 and the seed as int64.
        if not 0 <= epochs < 2**32:
            raise ValueError("epochs must be in [0, 2**32)")
        if not -(2**63) <= seed < 2**63:
            raise ValueError("seed must be in [-2**63, 2**63)")
        self.epochs = epochs
        self.seed = seed
        self.weights: np.ndarray | None = None
        self.temperature: float = 1.0
        # Perceptron mistakes in each epoch of the last fit; not saved.
        self.epoch_mistakes: list[int] = []
        self._unigram_counts = np.zeros(N_BUCKETS, dtype=np.uint32)
        self._bigram_counts = np.zeros(N_BUCKETS, dtype=np.uint32)

    def _corpus_rows(self, sentences: Sequence[Sequence[str]], count: bool) -> np.ndarray:
        """An (n, 16) int32 array of bucket ids, one row per token of the
        sentences in order: the ten count-free ids, the left bigram's bg-= id,
        the right bigram's bg+= id, then the unigram bin and the left, right
        and joint bigram bins. Each distinct token and bigram is hashed once,
        and the rows are gathered from those per-type tables. With count, the
        sentences' tokens and bigrams are first added to the count tables that
        the bins read.

        Keep the row order: numpy sums 16 values pairwise (element j with
        j+8), so reordering the row changes margins, and calibration's, in the
        last bit. The perceptron does not depend on it, since its scores are
        exact integers (see `fit`)."""
        index = {tok: i for i, tok in enumerate(dict.fromkeys(chain.from_iterable(sentences)))}
        # Type ids; the boundary gets its own id after every token's, so a
        # literal _PAD token keeps its own counts but hashes to the same bigrams.
        names = [*index, _PAD]
        boundary = len(index)
        codes = np.fromiter(
            map(index.__getitem__, chain.from_iterable(sentences)),
            np.int64,
            sum(map(len, sentences)),
        )
        lengths = np.fromiter(map(len, sentences), np.int64, len(sentences))
        lengths = lengths[lengths > 0]
        # Nonempty sentences in a row between boundaries: the left bigram of
        # token i of the k-th of them is number i + k, its right one i + k + 1.
        left = np.arange(len(codes)) + np.repeat(np.arange(len(lengths)), lengths)
        padded = np.full(len(codes) + len(lengths) + 1, boundary, np.int64)
        padded[left + 1] = codes
        pairs, bigram = np.unique(padded[:-1] * len(names) + padded[1:], return_inverse=True)

        free = _buckets(
            chain.from_iterable(map(_count_free_features, names[:-1])), 10 * boundary
        ).reshape(boundary, 10)
        unigram_keys = _buckets(map("u=".__add__, names[:-1]), boundary)
        # Each distinct bigram's b= (count), bg-= and bg+= ids, hashed in
        # chunks so that no list of strings grows with the corpus.
        bigram_ids = np.empty((len(pairs), 3), np.int32)
        for lo in range(0, len(pairs), _HASH_CHUNK):
            a, b = np.divmod(pairs[lo : lo + _HASH_CHUNK], len(names))
            joined = [names[i] + _SEP + names[j] for i, j in zip(a.tolist(), b.tolist())]
            features = (key + j for j in joined for key in ("b=", "bg-=", "bg+="))
            bigram_ids[lo : lo + len(joined)] = _buckets(features, 3 * len(joined)).reshape(-1, 3)
        if count:
            occurrences = np.bincount(codes, minlength=boundary).astype(np.uint32)
            np.add.at(self._unigram_counts, unigram_keys, occurrences)
            occurrences = np.bincount(bigram, minlength=len(pairs)).astype(np.uint32)
            np.add.at(self._bigram_counts, bigram_ids[:, 0], occurrences)
        unigram_bins = _count_bins(self._unigram_counts[unigram_keys])
        bigram_bins = _count_bins(self._bigram_counts[bigram_ids[:, 0]])

        rows = np.empty((len(codes), 16), np.int32)
        rows[:, :10] = free[codes]
        right = bigram[left + 1]
        left = bigram[left]
        rows[:, 10] = bigram_ids[left, 1]
        rows[:, 11] = bigram_ids[right, 2]
        rows[:, 12] = _UNIGRAM_BIN_TABLE[unigram_bins[codes]]
        rows[:, 13:] = _BIGRAM_BIN_TABLE[bigram_bins[left], bigram_bins[right]]
        return rows

    def fit(self, instances: Iterable[EsdInstance]) -> "EsdTagger":
        """Count the training part, run the averaged perceptron over it, then
        calibrate the temperature on the last tenth (or all of a corpus under
        ten instances).

        Training builds the rows of the whole corpus with `_corpus_rows`,
        whose per-type tables `fit` frees when it returns; inference runs the
        same builder a block at a time. Calibration scores the held-out tenth
        the same way, against the counts just fitted.

        Each epoch visits the tokens in a shuffled sentence order. It scores a
        window of upcoming tokens with one gather, skips the correct ones,
        updates at the first mistake and starts the next window after it.
        Every decision, update and step count c is still that of a loop that
        scores one token at a time: w only ever receives +-1 and u +-c, so both
        hold integers far below 2**53 and every score is exact in any
        summation order, whichever weights are gathered together."""
        instances = list(instances)
        if not instances:
            raise EmptyCorpusError("no training instances")
        n_cal = len(instances) // 10 if len(instances) >= 10 else 0
        train = instances[: len(instances) - n_cal] if n_cal else instances
        calib = instances[len(instances) - n_cal :] if n_cal else instances

        self._unigram_counts.fill(0)
        self._bigram_counts.fill(0)
        feats = self._corpus_rows([inst.tokens for inst in train], count=True)

        lengths = np.array([len(inst.tokens) for inst in train], dtype=np.int64)
        starts = np.cumsum(lengths) - lengths
        total = len(feats)
        tags = np.fromiter(chain.from_iterable(inst.tags for inst in train), bool, total)

        w = np.zeros(N_BUCKETS, dtype=np.float64)
        u = np.zeros(N_BUCKETS, dtype=np.float64)
        c = 1
        rng = random.Random(self.seed)
        order = list(range(len(train)))
        self.epoch_mistakes = []
        for _ in range(self.epochs):
            rng.shuffle(order)
            # Row of feats for each token of the epoch, in the shuffled order.
            run = lengths[order]
            visit = np.arange(total) + np.repeat(starts[order] - (np.cumsum(run) - run), run)
            mistakes = 0
            k = 0
            while k < total:
                win = visit[k : k + _WINDOW]
                rows = feats[win]
                wrong = np.flatnonzero((w[rows].sum(axis=1) >= 0) != tags[win])
                step = len(win)
                if len(wrong):
                    j = int(wrong[0])
                    y = 1.0 if tags[win[j]] else -1.0
                    np.add.at(w, rows[j], y)
                    np.add.at(u, rows[j], (c + j) * y)
                    mistakes += 1
                    step = j + 1
                k += step
                c += step
            self.epoch_mistakes.append(mistakes)
        u /= c
        w -= u
        self.weights = w
        if n_cal:
            feats = self._corpus_rows([inst.tokens for inst in calib], count=False)
        margins = self.weights[feats].sum(axis=1).tolist()
        self.temperature = _fit_temperature(margins, [t for inst in calib for t in inst.tags])
        return self

    def _block_margins(self, sentences: Sequence[Sequence[str]]) -> list[list[float]]:
        """Each sentence's per-token margins, from one row build and one
        weight gather over the whole block."""
        if self.weights is None:
            raise ModelFormatError("tagger is not trained")
        margins = self.weights[self._corpus_rows(sentences, count=False)].sum(axis=1).tolist()
        ends = accumulate(map(len, sentences))
        return [margins[end - len(tokens) : end] for tokens, end in zip(sentences, ends)]

    def block_probs(self, sentences: Sequence[Sequence[str]]) -> list[list[float]]:
        """Per-token error probabilities in [0, 1] of each sentence of the block."""
        return [
            [_sigmoid(m / self.temperature) for m in margins]
            for margins in self._block_margins(sentences)
        ]

    def predict_probs(self, tokens: Sequence[str]) -> list[float]:
        """Per-token error probabilities in [0, 1]: a one-sentence block."""
        return self.block_probs([tokens])[0]

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.weights, self._unigram_counts, self._bigram_counts

    def save(self, path: str) -> None:
        """Versioned binary format: magic, template version, bucket count,
        training metadata, temperature, then three sparse little-endian
        sections (weights, unigram counts, bigram counts)."""
        if self.weights is None:
            raise ModelFormatError("tagger is not trained")
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(
                _HEADER.pack(
                    TEMPLATE_VERSION,
                    N_BUCKETS,
                    self.epochs,
                    self.seed,
                    self.temperature,
                    *(np.count_nonzero(array) for array in self._arrays()),
                )
            )
            for dtype, array in zip(_SECTIONS, self._arrays()):
                idx = np.flatnonzero(array)
                records = np.empty(len(idx), dtype=dtype)
                records["idx"] = idx
                records["value"] = array[idx]
                fh.write(records)

    @classmethod
    def load(cls, path: str) -> "EsdTagger":
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            magic = fh.read(len(_MAGIC))
            if magic != _MAGIC:
                raise ModelFormatError(f"bad magic {magic!r}, expected {_MAGIC!r}")
            header = fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise ModelFormatError("truncated model header")
            version, buckets, epochs, seed, temperature, *counts = _HEADER.unpack(header)
            if version != TEMPLATE_VERSION:
                raise ModelFormatError(f"unsupported template version {version}")
            if buckets != N_BUCKETS:
                raise ModelFormatError(f"unsupported bucket count {buckets}")
            if not 0 < temperature < math.inf:
                raise ModelFormatError(f"temperature {temperature} is not finite and positive")
            model = cls(epochs=epochs, seed=seed)
            model.temperature = temperature
            model.weights = np.zeros(N_BUCKETS, dtype=np.float64)
            for dtype, n, array in zip(_SECTIONS, counts, model._arrays()):
                # Compare sizes as Python ints: a huge count must not reach numpy.
                if n * dtype.itemsize > size - fh.tell():
                    raise ModelFormatError("truncated model file")
                records = np.frombuffer(fh.read(n * dtype.itemsize), dtype=dtype)
                if n and records["idx"].max() >= N_BUCKETS:
                    raise ModelFormatError(f"bucket index {records['idx'].max()} out of range")
                array[records["idx"]] = records["value"]
            if fh.read(1):
                raise ModelFormatError("trailing bytes after the last model record")
        return model


def _fit_temperature(margins: list[float], tags: list[int]) -> float:
    """The grid temperature with the least log loss of the tags."""
    best_t, best_nll = 1.0, math.inf
    for t in _TEMPERATURE_GRID:
        nll = 0.0
        for m, tag in zip(margins, tags):
            p = _sigmoid(m / t)
            p = min(max(p, 1e-12), 1 - 1e-12)
            nll -= math.log(p) if tag == 1 else math.log(1 - p)
        if nll < best_nll:
            best_t, best_nll = t, nll
    return best_t


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def train_tagger(
    instances: Iterable[EsdInstance], epochs: int = 5, seed: int = 0
) -> EsdTagger:
    return EsdTagger(epochs=epochs, seed=seed).fit(instances)


@dataclass(frozen=True)
class DecodeConfig:
    """Probability cutoff for span decoding."""

    threshold: float = 0.5

    def __post_init__(self):
        if not (0 <= self.threshold <= 1):
            raise ValueError("threshold must be in [0, 1]")


def decode_spans(probs: Sequence[float], cfg: DecodeConfig) -> list[EditSpan]:
    """Maximal runs of tokens with prob >= threshold become spans, fitted by
    `fit_spans`. No spans means error-free."""
    spans: list[EditSpan] = []
    start = None
    for i, p in enumerate(probs):
        if p >= cfg.threshold:
            if start is None:
                start = i
        elif start is not None:
            spans.append(EditSpan(start, i))
            start = None
    if start is not None:
        spans.append(EditSpan(start, len(probs)))
    return fit_spans(spans)
