"""Synthetic clean corpora for pipeline tests.

Sentences follow a fixed bigram chain: each token allows only a handful of
successors, so corruption (random inserts, replacements, deletions, swaps)
breaks local statistics in a way a window-feature tagger can learn.
"""

import random

from spangec.datagen import CorruptConfig, corrupt, sentence_rng


def make_vocab(size, cjk=False):
    if cjk:
        # single CJK characters, mirroring character-tokenized Chinese
        return tuple(chr(0x4E00 + i) for i in range(size))
    return tuple(f"w{i:04d}" for i in range(size))


def make_language(vocab, branching=6, seed=0):
    rng = random.Random(seed)
    return {tok: rng.sample(vocab, branching) for tok in vocab}


def gen_sentence(vocab, successors, length, rng):
    tok = rng.choice(vocab)
    sent = [tok]
    for _ in range(length - 1):
        tok = rng.choice(successors[tok])
        sent.append(tok)
    return tuple(sent)


def gen_clean_corpus(n_sentences, vocab, successors, seed=0, min_len=6, max_len=14):
    rng = random.Random(seed)
    return [
        gen_sentence(vocab, successors, rng.randint(min_len, max_len), rng)
        for _ in range(n_sentences)
    ]


def corrupt_corpus(clean, vocab, error_rate, seed=0):
    """Noisy/clean pairs with the per-token error rate split across the four ops."""
    p = error_rate / 4
    cfg = CorruptConfig(p_insert=p, p_delete=p, p_replace=p, p_swap=p, vocab=vocab)
    pairs = []
    for index, sent in enumerate(clean):
        noisy = corrupt(sent, cfg, sentence_rng(seed, index))
        if not noisy:
            continue  # all tokens deleted; nothing for the pipeline to consume
        pairs.append((noisy, sent))
    return pairs
