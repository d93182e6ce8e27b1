"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see them).

Criteria, in order:
  1. f_beta reproduces externally reported P/R -> F0.5 operating points.
  2. Alignment cost is minimal against a brute-force oracle (10,000 pairs).
  3. Annotate -> gold-correct -> merge round-trips a 5,000-pair noisy corpus.
  4. Raising the decode threshold gives nested positive sets and
     non-increasing recall.
  5. A tagger trained on 20,000 synthetic instances clearly beats a random
     tagger at matched positive rate.
  6. Span-constrained decoding costs less than half of full decoding, and the
     cost ratio grows with the corpus error rate.
  7. Criteria 2-3 hold unchanged on single-character CJK tokens.
  8. Identical seeds give byte-identical CLI outputs, three runs in a row.
"""

import functools
import random
import time

import pytest

import synthlang
from spangec.alignment import align, detokenize, tokenize
from spangec.annotation import annotate, merge_corrections
from spangec.cli import main
from spangec.datagen import make_esc_gold, make_esd_instance
from spangec.esc import oracle_correct, train_corrector
from spangec.esd import DecodeConfig, train_tagger
from spangec.metrics import detection_metrics, f_beta
from spangec.pipeline import run_pipeline


def _report(number: int, name: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")


# Reference (precision, recall, F0.5) operating points from published GEC
# system evaluations, on the percent scale, used as arithmetic anchors.
ANCHOR_TRIPLES = [
    (64.9, 26.6, 50.4),
    (57.3, 41.5, 53.2),
    (39.9, 24.4, 35.4),
    (32.2, 39.2, 33.4),
    (53.1, 23.6, 42.5),
    (45.5, 37.0, 43.5),
    (50.9, 26.9, 43.2),
    (53.4, 38.5, 49.6),
    (66.0, 24.7, 49.5),
    (62.7, 38.6, 55.7),
    (69.4, 42.5, 61.5),
    (66.7, 61.3, 65.5),
    (67.9, 44.1, 61.3),
    (65.5, 59.4, 64.2),
    (66.1, 43.0, 59.7),
    (58.0, 53.1, 56.9),
    (72.6, 37.2, 61.0),
    (70.4, 55.9, 66.9),
    (69.2, 45.6, 62.6),
    (67.1, 60.1, 65.6),
    (72.6, 46.4, 65.2),
    (72.3, 61.4, 69.8),
    (72.4, 46.1, 65.0),
    (72.1, 61.8, 69.8),
    (72.3, 60.1, 69.5),
    (62.4, 27.4, 49.7),
    (63.8, 26.8, 50.0),
    (64.8, 25.6, 49.6),
    (66.2, 23.4, 48.4),
    (67.0, 21.7, 47.2),
]

# One anchor's reported F0.5 is inconsistent with its reported P/R even after
# allowing every figure to be a one-decimal rounding (the implied interval is
# [62.657, 62.761]); it is excluded from the rounding-aware check below and
# the exclusion itself is asserted.
INCONSISTENT_ANCHORS = {(69.2, 45.6, 62.6)}


@pytest.mark.xfail(
    strict=True,
    reason="four anchors deviate by up to 0.11 because the reported figures "
    "are rounded to one decimal; see the rounding-aware companion test",
)
def test_criterion_1_fbeta_anchors_literal():
    failures = [
        (p, r, f, f_beta(p, r, 0.5))
        for p, r, f in ANCHOR_TRIPLES
        if abs(f_beta(p, r, 0.5) - f) > 0.05
    ]
    _report(1, "f-beta anchors (literal +/-0.05)", not failures)
    assert not failures, failures


def test_criterion_1_fbeta_anchors_rounding_aware():
    """Every anchor must be explainable by one-decimal rounding of its inputs:
    reported F0.5 within [f(P-.05, R-.05) - .05, f(P+.05, R+.05) + .05]."""
    unexplained = set()
    for p, r, f in ANCHOR_TRIPLES:
        lo = f_beta(p - 0.05, r - 0.05, 0.5) - 0.05
        hi = f_beta(p + 0.05, r + 0.05, 0.5) + 0.05
        if not lo <= f <= hi:
            unexplained.add((p, r, f))
    ok = unexplained == INCONSISTENT_ANCHORS
    _report(1, "f-beta anchors (rounding-aware)", ok)
    assert unexplained == INCONSISTENT_ANCHORS


@functools.cache
def _oracle_cost(src: tuple, tgt: tuple) -> int:
    if not src:
        return len(tgt)
    if not tgt:
        return len(src)
    best = min(_oracle_cost(src[1:], tgt), _oracle_cost(src, tgt[1:])) + 1
    sub = _oracle_cost(src[1:], tgt[1:]) + (0 if src[0] == tgt[0] else 1)
    return min(best, sub)


def _check_alignment_optimality(alphabet, n_pairs, seed):
    rng = random.Random(seed)
    for _ in range(n_pairs):
        src = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        tgt = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        assert align(src, tgt).cost == _oracle_cost(src, tgt), (src, tgt)


def test_criterion_2_alignment_optimality():
    start = time.monotonic()
    _check_alignment_optimality(tuple("abcde"), 10_000, seed=0)
    elapsed = time.monotonic() - start
    _report(2, f"alignment optimality, 10,000 pairs ({elapsed:.1f}s)", True)
    assert elapsed < 30


def _round_trip_corpus(vocab_size, cjk, seed):
    vocab = synthlang.make_vocab(vocab_size, cjk=cjk)
    lang = synthlang.make_language(vocab, seed=seed)
    clean = synthlang.gen_clean_corpus(5_000, vocab, lang, seed=seed + 1)
    pairs = synthlang.corrupt_corpus(clean, vocab, error_rate=0.1, seed=seed + 2)
    for noisy, target in pairs:
        instance = make_esc_gold(align(noisy, target))
        merged = merge_corrections(instance.annotated, oracle_correct(instance).output)
        assert merged == target, (noisy, target, merged)
    return len(pairs)


def test_criterion_3_round_trip_reconstruction():
    start = time.monotonic()
    n = _round_trip_corpus(vocab_size=400, cjk=False, seed=10)
    elapsed = time.monotonic() - start
    _report(3, f"round-trip reconstruction, {n} pairs ({elapsed:.1f}s)", True)
    assert elapsed < 30


@pytest.fixture(scope="module")
def trained_setup():
    """Vocab-1000 corpus at error rate 0.1 with a tagger trained on 20,000
    instances and 2,000 held-out instances; shared by criteria 4 and 5."""
    vocab = synthlang.make_vocab(1000)
    lang = synthlang.make_language(vocab, branching=6, seed=1)
    clean = synthlang.gen_clean_corpus(22_000, vocab, lang, seed=2)
    pairs = synthlang.corrupt_corpus(clean, vocab, error_rate=0.1, seed=3)
    instances = [make_esd_instance(align(noisy, target)) for noisy, target in pairs]
    tagger = train_tagger(instances[:20_000], epochs=5, seed=0)
    return tagger, instances[20_000:22_000]


def test_criterion_4_threshold_monotonicity(trained_setup):
    tagger, held_out = trained_setup
    thresholds = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    probs = [tagger.predict_probs(inst.tokens) for inst in held_out]
    gold = [list(inst.tags) for inst in held_out]
    previous_set = None
    previous_recall = None
    lines = []
    for thr in thresholds:
        positives = {
            (i, j) for i, ps in enumerate(probs) for j, p in enumerate(ps) if p >= thr
        }
        pred = [[1 if p >= thr else 0 for p in ps] for ps in probs]
        m = detection_metrics(pred, gold)
        lines.append(f"  thr {thr}: P {m.precision:.3f} R {m.recall:.3f}")
        if previous_set is not None:
            assert positives <= previous_set
            assert m.recall <= previous_recall + 1e-12
        previous_set = positives
        previous_recall = m.recall
    _report(4, "threshold monotonicity 0.2-0.7", True)
    print("\n".join(lines))


def test_criterion_5_learning_signal(trained_setup):
    start = time.monotonic()
    tagger, held_out = trained_setup
    gold = [list(inst.tags) for inst in held_out]
    pred = [
        [1 if p >= 0.2 else 0 for p in tagger.predict_probs(inst.tokens)]
        for inst in held_out
    ]
    trained = detection_metrics(pred, gold)

    n_pos = sum(sum(tags) for tags in gold)
    n_tok = sum(len(tags) for tags in gold)
    rate = n_pos / n_tok
    rng = random.Random(0)
    random_pred = [[1 if rng.random() < rate else 0 for _ in tags] for tags in gold]
    baseline = detection_metrics(random_pred, gold)

    elapsed = time.monotonic() - start
    ok = trained.f_half >= 0.60 and baseline.f_half <= 0.15
    _report(
        5,
        f"learning signal: trained F0.5 {trained.f_half:.3f} >= 0.60, "
        f"random {baseline.f_half:.3f} <= 0.15 ({elapsed:.1f}s)",
        ok,
    )
    assert trained.f_half >= 0.60
    assert baseline.f_half <= 0.15
    assert elapsed < 120


def test_criterion_6_efficiency_accounting():
    start = time.monotonic()
    vocab = synthlang.make_vocab(400)
    lang = synthlang.make_language(vocab, branching=6, seed=1)
    clean = synthlang.gen_clean_corpus(4_400, vocab, lang, seed=2)
    ratios = {}
    for rate in (0.02, 0.1, 0.3):
        pairs = synthlang.corrupt_corpus(clean, vocab, error_rate=rate, seed=3)
        train, test = pairs[:4_000], pairs[4_000:]
        tagger = train_tagger(
            [make_esd_instance(align(s, t)) for s, t in train], epochs=5, seed=0
        )
        corrector = train_corrector(make_esc_gold(align(s, t)) for s, t in train)
        _, report = run_pipeline(
            [s for s, _ in test], tagger, corrector, DecodeConfig(threshold=0.2)
        )
        ratios[rate] = report.ratio
    elapsed = time.monotonic() - start
    ok = all(r < 0.5 for r in ratios.values()) and (
        ratios[0.02] < ratios[0.1] < ratios[0.3]
    )
    summary = ", ".join(f"{rate}: {ratio:.3f}" for rate, ratio in ratios.items())
    _report(6, f"efficiency ratio < 0.5 and monotone ({summary}, {elapsed:.1f}s)", ok)
    assert all(r < 0.5 for r in ratios.values()), ratios
    assert ratios[0.02] < ratios[0.1] < ratios[0.3], ratios
    assert elapsed < 60


def test_criterion_7_language_independence():
    start = time.monotonic()
    cjk_alphabet = synthlang.make_vocab(5, cjk=True)
    _check_alignment_optimality(cjk_alphabet, 2_000, seed=7)
    n = _round_trip_corpus(vocab_size=400, cjk=True, seed=20)
    elapsed = time.monotonic() - start
    _report(7, f"CJK alignment + round trip, {n} pairs ({elapsed:.1f}s)", True)
    assert elapsed < 60


def test_criterion_8_determinism(tmp_path):
    vocab = synthlang.make_vocab(50)
    lang = synthlang.make_language(vocab, seed=1)
    clean = synthlang.gen_clean_corpus(200, vocab, lang, seed=2)
    pairs = synthlang.corrupt_corpus(clean, vocab, error_rate=0.1, seed=3)
    tsv = tmp_path / "corpus.tsv"
    tsv.write_text(
        "".join(f"{detokenize(s)}\t{detokenize(t)}\n" for s, t in pairs),
        encoding="utf-8",
    )
    src = tmp_path / "clean.txt"
    src.write_text(
        "".join(detokenize(s) + "\n" for s in clean[:100]), encoding="utf-8"
    )

    def run_all(tag: str) -> dict[str, bytes]:
        out = {}
        corrupted = tmp_path / f"corrupted-{tag}.tsv"
        assert (
            main(
                [
                    "corrupt",
                    str(src),
                    "--output", str(corrupted),
                    "--p-insert", "0.025",
                    "--p-delete", "0.025",
                    "--p-replace", "0.025",
                    "--p-swap", "0.025",
                    "--seed", "5",
                ]
            )
            == 0
        )
        out["corrupt"] = corrupted.read_bytes()
        esd_data = tmp_path / f"esd-{tag}.jsonl"
        esc_data = tmp_path / f"esc-{tag}.jsonl"
        assert (
            main(
                [
                    "make-data",
                    str(tsv),
                    "--esd-out", str(esd_data),
                    "--esc-out", str(esc_data),
                    "--seed", "5",
                ]
            )
            == 0
        )
        out["esd-data"] = esd_data.read_bytes()
        out["esc-data"] = esc_data.read_bytes()
        model = tmp_path / f"model-{tag}.esd"
        assert (
            main(
                [
                    "train-esd",
                    str(esd_data),
                    "--model-out", str(model),
                    "--epochs", "2",
                    "--seed", "5",
                ]
            )
            == 0
        )
        out["esd-model"] = model.read_bytes()
        return out

    runs = [run_all(f"run{i}") for i in range(3)]
    ok = runs[0] == runs[1] == runs[2]
    _report(8, "determinism: 3 identical-seed runs byte-identical", ok)
    assert runs[0] == runs[1] == runs[2]
