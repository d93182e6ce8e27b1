"""Seeded synthetic corpora for the benchmark workloads.

Each workload fixes a language: a vocabulary and a bigram successor table,
built from a constant language seed, so the detector's task is the same on
every run. The run's ``--seed`` draws the sentences and their corruption.
Corruption is done here rather than by the program, so the benchmark knows
which source tokens it made wrong and the program receives only the
generated files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """Make-up of one workload's corpus and the threshold it runs at."""

    name: str
    vocab_size: int       # content types
    branching: int        # successors per content type
    n_function: int       # frequent function types (0: closed bigram language)
    p_function: float     # chance a position holds a function type
    min_len: int
    max_len: int
    error_rate: float     # per-token corruption probability, split over 4 ops
    n_train: int
    n_test: int
    threshold: float
    language_seed: int


# sparse and dense share a closed bigram language and differ in error rate
# and threshold; longtail has a large vocabulary and long sentences. Why
# each exists is in BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse",
            vocab_size=400, branching=6, n_function=0, p_function=0.0,
            min_len=6, max_len=14, error_rate=0.02,
            n_train=6000, n_test=6000, threshold=0.5, language_seed=101,
        ),
        Workload(
            name="dense",
            vocab_size=400, branching=6, n_function=0, p_function=0.0,
            min_len=6, max_len=14, error_rate=0.15,
            n_train=6000, n_test=4000, threshold=0.2, language_seed=202,
        ),
        Workload(
            name="longtail",
            vocab_size=20000, branching=8, n_function=40, p_function=0.3,
            min_len=30, max_len=60, error_rate=0.06,
            n_train=1800, n_test=1200, threshold=0.3, language_seed=303,
        ),
    )
}


# Spurious tokens a closed language never uses, like stray articles.
FILLERS = tuple(f"x{i}" for i in range(8))


def variant(tok: str) -> str:
    """Misspelt or misinflected form of a token; never valid text."""
    return tok + "s"


@dataclass(frozen=True)
class Language:
    content: tuple[str, ...]
    function: tuple[str, ...]
    successors: dict[str, tuple[str, ...]]


def make_language(w: Workload) -> Language:
    rng = random.Random(w.language_seed)
    content = tuple(f"w{i:05d}" for i in range(w.vocab_size))
    function = tuple(f"f{i:02d}" for i in range(w.n_function))
    successors = {tok: tuple(rng.sample(content, w.branching)) for tok in content}
    return Language(content, function, successors)


def gen_sentence(lang: Language, w: Workload, rng: random.Random) -> tuple[str, ...]:
    """A walk on the successor table; function types interleave without
    breaking the walk, as articles and prepositions do in real text."""
    length = rng.randint(w.min_len, w.max_len)
    content = rng.choice(lang.content)
    sent = [content]
    while len(sent) < length:
        if lang.function and rng.random() < w.p_function:
            sent.append(rng.choice(lang.function))
        else:
            content = rng.choice(lang.successors[content])
            sent.append(content)
    return tuple(sent)


def corrupt(
    clean: tuple[str, ...], lang: Language, w: Workload, rng: random.Random
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """Noisy copy of a clean sentence and a 0/1 tag per noisy token.

    One draw per clean token picks insert, delete, replace or swap with
    error_rate/4 each. Wrong tokens get tag 1; a deletion tags the noisy
    token before the gap (the first one at the start of the sentence).
    A replacement is the token's variant form. An insertion is a function
    type when the language has them, where real writers err, else a filler.
    """
    pool = lang.function or FILLERS
    p = w.error_rate / 4
    noisy: list[str] = []
    tags: list[int] = []
    tag_next = False
    i = 0

    def emit(tok: str, tag: int) -> None:
        nonlocal tag_next
        noisy.append(tok)
        tags.append(1 if tag or tag_next else 0)
        tag_next = False

    while i < len(clean):
        u = rng.random()
        tok = clean[i]
        if u < p:
            emit(tok, 0)
            emit(rng.choice(pool), 1)
        elif u < 2 * p:
            if noisy:
                tags[-1] = 1
            else:
                tag_next = True
        elif u < 3 * p:
            emit(variant(tok), 1)
        elif u < 4 * p and i + 1 < len(clean):
            swapped = int(clean[i + 1] != tok)
            emit(clean[i + 1], swapped)
            emit(tok, swapped)
            i += 2
            continue
        else:
            emit(tok, 0)
        i += 1
    if not noisy:  # every token deleted: keep the sentence clean
        return clean, (0,) * len(clean)
    return tuple(noisy), tuple(tags)


@dataclass(frozen=True)
class Corpus:
    train: list[tuple[tuple[str, ...], tuple[str, ...]]]  # (noisy, clean)
    test: list[tuple[tuple[str, ...], tuple[str, ...]]]
    test_tags: list[tuple[int, ...]]


def make_corpus(w: Workload, seed: int) -> Corpus:
    lang = make_language(w)
    rng = random.Random(f"{w.name}:{seed}")
    pairs, tags = [], []
    for _ in range(w.n_train + w.n_test):
        clean = gen_sentence(lang, w, rng)
        noisy, noisy_tags = corrupt(clean, lang, w, rng)
        pairs.append((noisy, clean))
        tags.append(noisy_tags)
    return Corpus(
        train=pairs[: w.n_train],
        test=pairs[w.n_train :],
        test_tags=tags[w.n_train :],
    )


def write_corpus(corpus: Corpus, paths) -> None:
    """Write train.tsv, test.tsv, test.src, test.tgt and probe.src."""

    def line(tokens) -> str:
        return " ".join(tokens)

    with open(paths.train_tsv, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line(s)}\t{line(t)}\n" for s, t in corpus.train)
    with open(paths.test_tsv, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line(s)}\t{line(t)}\n" for s, t in corpus.test)
    with open(paths.test_src, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line(s)}\n" for s, _ in corpus.test)
    with open(paths.test_tgt, "w", encoding="utf-8") as fh:
        fh.writelines(f"{line(t)}\n" for _, t in corpus.test)
    with open(paths.probe_src, "w", encoding="utf-8") as fh:
        fh.write(line(corpus.test[0][0]) + "\n")
