import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spangec.alignment import tokenize
from spangec.errors import LengthMismatchError
from spangec.metrics import (
    PRF,
    EfficiencyReport,
    correction_metrics,
    detection_metrics,
    f_beta,
)


def test_f_beta_table1_anchor():
    assert abs(f_beta(66.0, 24.7, 0.5) - 49.5) <= 0.05


def test_f_beta_table1_pretrained_anchor():
    assert abs(f_beta(72.6, 37.2, 0.5) - 61.0) <= 0.05


def test_f_beta_fixed_point():
    for x in (0.0, 0.3, 55.5, 100.0):
        for beta in (0.5, 1.0, 2.0):
            assert math.isclose(f_beta(x, x, beta), x, abs_tol=1e-12)


def test_f_beta_zero_when_both_zero():
    assert f_beta(0.0, 0.0, 0.5) == 0.0


def test_f_beta_monotone():
    rng = random.Random(0)
    for _ in range(200):
        p = rng.uniform(0.01, 1.0)
        r = rng.uniform(0.01, 1.0)
        dp = rng.uniform(0.001, 0.2)
        assert f_beta(p + dp, r, 0.5) > f_beta(p, r, 0.5)
        assert f_beta(p, r + dp, 0.5) > f_beta(p, r, 0.5)


def test_f_beta_rejects_bad_beta():
    with pytest.raises(ValueError):
        f_beta(0.5, 0.5, 0.0)


def test_detection_metrics_hand_count():
    prf = detection_metrics([[0, 1, 0, 0]], [[0, 1, 1, 0]])
    assert (prf.tp, prf.fp, prf.fn) == (1, 0, 1)
    assert prf.precision == 1.0
    assert prf.recall == 0.5
    assert math.isclose(prf.f_half, f_beta(1.0, 0.5, 0.5))
    assert math.isclose(prf.f_half, 0.833333333, rel_tol=1e-6)


def test_detection_metrics_perfect_and_empty():
    prf = detection_metrics([[1, 0, 1]], [[1, 0, 1]])
    assert prf.precision == prf.recall == 1.0
    prf = detection_metrics([[0, 0]], [[0, 0]])
    assert prf.precision == prf.recall == prf.f_half == 0.0


def test_detection_metrics_all_missed():
    prf = detection_metrics([[0, 0, 0]], [[1, 1, 0]])
    assert prf.recall == 0.0 and prf.f_half == 0.0


def test_detection_metrics_corpus_micro():
    prf = detection_metrics([[1, 0], [0, 1]], [[1, 0], [1, 1]])
    assert (prf.tp, prf.fp, prf.fn) == (2, 0, 1)


def test_detection_metrics_length_mismatch():
    with pytest.raises(LengthMismatchError):
        detection_metrics([[0, 1]], [[0, 1, 1]])


def test_detection_metrics_numpy_corpus():
    pred = np.array([[1, 0], [0, 1]])
    gold = [np.array([1, 0], dtype=np.int64), np.array([1, 1], dtype=np.int64)]
    prf = detection_metrics(pred, gold)
    assert (prf.tp, prf.fp, prf.fn) == (2, 0, 1)


def test_detection_permutation_invariant():
    sents_pred = [[1, 0], [0, 0, 1], [1, 1]]
    sents_gold = [[1, 1], [0, 0, 1], [0, 1]]
    a = detection_metrics(sents_pred, sents_gold)
    order = [2, 0, 1]
    b = detection_metrics(
        [sents_pred[i] for i in order], [sents_gold[i] for i in order]
    )
    assert a == b


def test_correction_metrics_exact_hypothesis():
    src = tokenize("she go home")
    gold = tokenize("she went home")
    prf = correction_metrics([src], [gold], [gold])
    assert prf.precision == 1.0 and prf.recall == 1.0


def test_correction_metrics_no_correction_attempted():
    src = tokenize("a b c")
    gold = tokenize("a x y")
    prf = correction_metrics([src], [src], [gold])
    assert prf.tp == 0 and prf.precision == 0.0 and prf.recall == 0.0
    assert prf.fn >= 1


def test_correction_metrics_half_applied():
    src = tokenize("t0 a t2 b t4")
    gold = tokenize("t0 x t2 y t4")
    hyp = tokenize("t0 x t2 b t4")  # only the first of two edits applied
    prf = correction_metrics([src], [hyp], [gold])
    assert prf.precision == 1.0
    assert prf.recall == 0.5
    assert math.isclose(prf.f_half, 0.833333333, rel_tol=1e-6)


def test_correction_metrics_corpus_permutation_invariant():
    srcs = [tokenize("a b"), tokenize("c d e")]
    hyps = [tokenize("a x"), tokenize("c d e")]
    golds = [tokenize("a x"), tokenize("c q e")]
    a = correction_metrics(srcs, hyps, golds)
    b = correction_metrics(srcs[::-1], hyps[::-1], golds[::-1])
    assert a == b


def brute_force_edit_prf(src, hyp, gold):
    """Independent re-count of exact-match edit scoring via raw edit sets."""
    from spangec.alignment import align, extract_edits

    def edits(a, b):
        return {
            (s.src_start, s.src_end, s.replacement) for s in extract_edits(align(a, b))
        }

    h, g = edits(src, hyp), edits(src, gold)
    return len(h & g), len(h - g), len(g - h)


@given(
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=8),
    st.lists(st.sampled_from("abcd"), min_size=0, max_size=8),
    st.lists(st.sampled_from("abcd"), min_size=0, max_size=8),
)
@settings(max_examples=150)
def test_correction_metrics_agree_with_brute_force(src, hyp, gold):
    src, hyp, gold = tuple(src), tuple(hyp), tuple(gold)
    prf = correction_metrics([src], [hyp], [gold])
    assert (prf.tp, prf.fp, prf.fn) == brute_force_edit_prf(src, hyp, gold)


def test_efficiency_report_all_clean():
    report = EfficiencyReport(n_sentences=2, n_flagged=0, span_decode_steps=0,
                              full_decode_steps=13)
    assert report.ratio == 0.0
    assert json.loads(report.to_json()) == {
        "n_sentences": 2, "n_flagged": 0, "span_decode_steps": 0,
        "full_decode_steps": 13, "ratio": 0.0,
    }
    assert EfficiencyReport(0, 0, 0, 0).ratio == 0.0


def test_efficiency_report_single_sentence():
    # one 2-token span corrected with 2 tokens -> 4 span steps; 10-token output
    report = EfficiencyReport(n_sentences=1, n_flagged=1, span_decode_steps=4,
                              full_decode_steps=11)
    assert math.isclose(report.ratio, 4 / 11)
    assert json.loads(report.to_json())["ratio"] == report.ratio


def test_efficiency_report_reference_ratio_documented():
    # scale anchor from the decoding-step analysis: 7647 span steps vs 21065
    report = EfficiencyReport(1, 1, 7647, 21065)
    assert math.isclose(report.ratio, 0.363, abs_tol=0.0005)


def test_prf_json_and_table_output():
    prf = PRF(tp=3, fp=1, fn=2)
    payload = json.loads(prf.to_json())
    assert payload["tp"] == 3 and payload["precision"] == 0.75
    assert payload["f0_5"] == pytest.approx(prf.f_half)
    row = prf.as_percent_row().split("\t")
    assert row[0] == "75.0"
