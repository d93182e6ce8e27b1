"""Tests of the benchmark's own checks and corpus generator.

Each check must reject a deliberately broken output; the generator must
give identical files for identical seeds.

    python3 -m pytest bench/test_bench_checks.py
"""

import json
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import corpus  # noqa: E402
import traced  # noqa: E402

PAIRS = [
    (("a", "b", "c"), ("a", "b", "c")),
    (("a", "x", "c"), ("a", "b", "c")),
    (("a", "c"), ("a", "b", "c")),
]
# What make-data writes for PAIRS with gold spans only.
GOLD_ESC = [
    {"rendered": "a b c", "correction": ""},
    {"rendered": "a <s1> x </s1> c", "correction": "<s1> b </s1>"},
    {"rendered": "<s1> a </s1> c", "correction": "<s1> a b </s1>"},
]
ESD = [
    {"tokens": ["a", "b", "c"], "tags": [0, 0, 0]},
    {"tokens": ["a", "x", "c"], "tags": [0, 1, 0]},
    {"tokens": ["a", "c"], "tags": [1, 0]},
]
OUTPUT = ["a b c", "a b c", "a b c"]
REPORT = {"n_sentences": 3, "n_flagged": 2, "span_decode_steps": 6, "full_decode_steps": 12}


def lines(records):
    return [json.dumps(r) for r in records]


def test_run_check_accepts_a_good_run():
    assert checks.check_run_output(3, OUTPUT, REPORT, True) == []


def test_run_check_rejects_a_dropped_line():
    dropped = dict(REPORT, n_sentences=2, full_decode_steps=8)
    assert checks.check_run_output(3, OUTPUT[:2], dropped, True)


def test_run_check_rejects_altered_report_counts():
    assert checks.check_run_output(3, OUTPUT, dict(REPORT, n_sentences=4), True)
    assert checks.check_run_output(3, OUTPUT, dict(REPORT, full_decode_steps=13), True)
    assert checks.check_run_output(3, OUTPUT, dict(REPORT, span_decode_steps=12), True)


def test_one_line_may_cost_as_much_as_full_decoding():
    # Corrected to "a b c d e" through the segments "<s1> b </s1>" and
    # "<s2> d e </s2>": 3 + 4 span steps against 6 full steps. Only a whole
    # file must come out below full decoding.
    line = ["a b c d e"]
    report = {"n_sentences": 1, "span_decode_steps": 7, "full_decode_steps": 6}
    assert checks.check_run_output(1, line, report, False) == []
    assert checks.check_run_output(1, line, report, True)
    assert checks.check_run_output(1, line, dict(report, full_decode_steps=7), False)


def test_gold_check_accepts_gold_records():
    assert checks.check_gold_records(lines(GOLD_ESC), PAIRS) == []


def test_gold_check_rejects_corrupted_records():
    wrong_replacement = [dict(GOLD_ESC[1], correction="<s1> y </s1>")]
    assert checks.check_gold_records(lines(wrong_replacement), PAIRS[1:2])
    missing_segment = [dict(GOLD_ESC[1], correction="")]
    assert checks.check_gold_records(lines(missing_segment), PAIRS[1:2])
    moved_span = [dict(GOLD_ESC[1], rendered="<s1> a </s1> x c")]
    assert checks.check_gold_records(lines(moved_span), PAIRS[1:2])
    unclosed = [dict(GOLD_ESC[1], rendered="a <s1> x c")]
    assert checks.check_gold_records(lines(unclosed), PAIRS[1:2])
    assert checks.check_gold_records(lines(GOLD_ESC[:2]), PAIRS)


def test_esd_check_accepts_good_tags():
    assert checks.check_esd_records(lines(ESD), PAIRS) == []


def test_esd_check_rejects_wrong_tags():
    tagged_clean = [dict(ESD[0], tags=[0, 1, 0])] + ESD[1:]
    assert checks.check_esd_records(lines(tagged_clean), PAIRS)
    untagged_error = ESD[:1] + [dict(ESD[1], tags=[0, 0, 0])] + ESD[2:]
    assert checks.check_esd_records(lines(untagged_error), PAIRS)
    assert checks.check_esd_records(lines(ESD[:2]), PAIRS)


def test_detection_check_needs_more_than_chance():
    gold = [(0, 1, 0, 0)] * 10  # 25% of tokens are wrong
    # Flagging every token: P = 0.25, R = 1, which is what chance gives.
    everything = {"precision": 0.25, "recall": 1.0, "f0_5": checks.f_half(0.25, 1.0)}
    assert checks.check_detection(everything, gold)
    good = {"precision": 0.8, "recall": 0.5, "f0_5": checks.f_half(0.8, 0.5)}
    assert checks.check_detection(good, gold) == []
    nothing = {"precision": 0.0, "recall": 0.0, "f0_5": 0.0}
    assert checks.check_detection(nothing, gold)


def corpus_bytes(tmp_path, name, seed):
    work = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
    work.mkdir()
    files = SimpleNamespace(
        **{k: work / k for k in ("train_tsv", "test_tsv", "test_src", "test_tgt", "probe_src")}
    )
    small = replace(corpus.WORKLOADS[name], n_train=50, n_test=20)
    corpus.write_corpus(corpus.make_corpus(small, seed), files)
    return {k: p.read_bytes() for k, p in vars(files).items()}


def test_corpus_is_a_function_of_the_seed(tmp_path):
    for name in corpus.WORKLOADS:
        first = corpus_bytes(tmp_path, name, 7)
        assert corpus_bytes(tmp_path, name, 7) == first
        assert corpus_bytes(tmp_path, name, 8) != first


def test_corruption_tags_mark_exactly_the_changed_sentences():
    for name, workload in corpus.WORKLOADS.items():
        made = corpus.make_corpus(replace(workload, n_train=0, n_test=300), 3)
        for (noisy, clean), tags in zip(made.test, made.test_tags):
            assert len(tags) == len(noisy)
            assert (noisy != clean) == any(tags), name


def test_library_time_counts_calls_made_from_cli_code(tmp_path):
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["esd.predict_probs", 1.0, 5.0, 0, 7],
        ["esd.decision_margins", 2.0, 4.0, 1, 0],
        ["cli.run_pipeline", 6.0, 9.0, 0, 0],
        ["esd.predict_probs", 7.0, 8.0, 3, 5],
        ["esc.load", 9.5, 9.75, -1, 0],
    ]
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({"tracer_s": 0.5, "spans": spans}))
    totals, library_s, tracer_s, n = traced.summarize(path)
    assert n == 6
    assert totals["esd.predict_probs"] == {"calls": 2, "s": 5.0, "count": 12}
    assert library_s == 4.0 + 1.0 + 0.25
    assert tracer_s == 0.5
