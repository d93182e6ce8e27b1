import argparse
import json
import logging
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import synthlang
from spangec import datagen, pipeline
from spangec.alignment import align, detokenize, extract_edits, tokenize
from spangec.annotation import (
    fit_spans,
    from_json_record,
    merge_corrections,
    parse_annotation,
    to_json_record,
)
from spangec.cli import build_parser, main
from spangec.datagen import EsdInstance, make_esc_from_spans, make_esc_gold, make_esd_instance
from spangec.esc import train_corrector
from spangec.esd import N_BUCKETS, DecodeConfig, decode_spans, train_tagger


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small corrupted corpus with trained models, built through the CLI."""
    root = tmp_path_factory.mktemp("cli")
    vocab = synthlang.make_vocab(120)
    successors = synthlang.make_language(vocab, seed=1)
    clean = synthlang.gen_clean_corpus(400, vocab, successors, seed=2)
    write_lines(root / "clean.txt", [detokenize(s) for s in clean])

    rc = main(
        [
            "corrupt",
            str(root / "clean.txt"),
            "-o",
            str(root / "pairs.tsv"),
            "--p-replace",
            "0.04",
            "--p-delete",
            "0.02",
            "--p-insert",
            "0.02",
            "--p-swap",
            "0.02",
            "--seed",
            "13",
        ]
    )
    assert rc == 0
    rc = main(
        [
            "make-data",
            str(root / "pairs.tsv"),
            "--esd-out",
            str(root / "esd.jsonl"),
            "--esc-out",
            str(root / "esc.jsonl"),
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    rc = main(
        [
            "train-esd",
            str(root / "esd.jsonl"),
            "--model-out",
            str(root / "esd.model"),
            "--epochs",
            "3",
            "--seed",
            "0",
        ]
    )
    assert rc == 0
    rc = main(
        ["train-esc", str(root / "esc.jsonl"), "--model-out", str(root / "esc.model")]
    )
    assert rc == 0
    return root


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["run"])  # missing required arguments
    assert exc.value.code == 1


def test_unknown_command_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def gold_records(pairs, *options):
    """make-data's argv for the gold-span corrector records of pairs alone."""
    return ["make-data", str(pairs), "--sampled-ratio", "0", "--esd-out", os.devnull, *options]


def test_extract_identity_pairs(tmp_path):
    """Gold-span extraction in make-data finds no span in identical pairs."""
    write_lines(tmp_path / "pairs.tsv", ["a b c\ta b c", "x y\tx y"])
    assert main(gold_records(tmp_path / "pairs.tsv", "--esc-out", str(tmp_path / "out.jsonl"))) == 0
    records = [json.loads(l) for l in (tmp_path / "out.jsonl").read_text().splitlines()]
    assert all(parse_annotation(tokenize(r["rendered"])).spans == () for r in records)
    assert records[0]["rendered"] == "a b c"


def test_extract_table6_pair(tmp_path):
    write_lines(
        tmp_path / "pairs.tsv",
        [
            "The law 's spirit also include the fairness .\t"
            "The law 's spirit also includes fairness ."
        ],
    )
    argv = gold_records(tmp_path / "pairs.tsv", "--esc-out", str(tmp_path / "o.jsonl"))
    assert main(argv + ["--merge-gap", "1"]) == 0
    record = json.loads((tmp_path / "o.jsonl").read_text())
    assert "<s1>" in record["rendered"]
    assert record["correction"].startswith("<s1>")


def test_extract_bad_tsv_exit_code(tmp_path):
    write_lines(tmp_path / "bad.tsv", ["only one field"])
    assert main(gold_records(tmp_path / "bad.tsv", "--esc-out", str(tmp_path / "o.jsonl"))) == 2


def test_reserved_marker_in_input_is_data_error(tmp_path):
    write_lines(tmp_path / "bad.tsv", ["hello <s1> there\thello there"])
    assert main(gold_records(tmp_path / "bad.tsv", "--esc-out", str(tmp_path / "o.jsonl"))) == 2


def test_corrupt_zero_probabilities_identity(tmp_path):
    write_lines(tmp_path / "clean.txt", ["a b c", "d e"])
    assert main(["corrupt", str(tmp_path / "clean.txt"), "-o", str(tmp_path / "p.tsv")]) == 0
    for line in (tmp_path / "p.tsv").read_text().splitlines():
        src, tgt = line.split("\t")
        assert src == tgt


@pytest.mark.parametrize("option", ["--p-insert", "--p-replace"])
@pytest.mark.parametrize("vocab_from", ["input", "vocab-file"])
def test_corrupt_with_an_empty_vocabulary_is_data_error(tmp_path, capsys, option, vocab_from):
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    write_lines(tmp_path / "clean.txt", ["a b c"])
    out = tmp_path / "out.tsv"
    if vocab_from == "input":
        argv = [str(empty)]
    else:
        argv = [str(tmp_path / "clean.txt"), "--vocab-file", str(empty)]
    assert main(["corrupt", *argv, option, "0.1", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"spangec: data error: {empty}: " in err and "non-empty vocab" in err
    assert not out.exists()


def test_train_esd_logs_the_mistakes_of_each_epoch(corpus, tmp_path, caplog):
    with caplog.at_level(logging.INFO, logger="spangec"):
        argv = ["train-esd", str(corpus / "esd.jsonl"), "--model-out", str(tmp_path / "m")]
        assert main(argv + ["--epochs", "3", "--seed", "2"]) == 0
    records = [json.loads(line) for line in (corpus / "esd.jsonl").read_text().splitlines()]
    tagger = train_tagger(
        [EsdInstance(tuple(r["tokens"]), tuple(r["tags"])) for r in records], epochs=3, seed=2
    )
    logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("detector")]
    assert logged == [
        f"detector epoch {epoch}/3: {n} perceptron mistakes"
        for epoch, n in enumerate(tagger.epoch_mistakes, start=1)
    ]


def test_corrupt_deterministic(tmp_path):
    write_lines(tmp_path / "clean.txt", [f"w{i} w{i+1} w{i+2} w{i+3}" for i in range(30)])
    args = ["corrupt", str(tmp_path / "clean.txt"), "--p-replace", "0.2", "--seed", "9"]
    for out in ("a.tsv", "b.tsv", "c.tsv"):
        assert main(args + ["-o", str(tmp_path / out)]) == 0
    assert (
        (tmp_path / "a.tsv").read_bytes()
        == (tmp_path / "b.tsv").read_bytes()
        == (tmp_path / "c.tsv").read_bytes()
    )


def test_make_data_deterministic(corpus, tmp_path):
    for suffix in ("1", "2"):
        assert main(
            [
                "make-data",
                str(corpus / "pairs.tsv"),
                "--esd-out",
                str(tmp_path / f"esd{suffix}.jsonl"),
                "--esc-out",
                str(tmp_path / f"esc{suffix}.jsonl"),
                "--seed",
                "3",
            ]
        ) == 0
    assert (tmp_path / "esd1.jsonl").read_bytes() == (tmp_path / "esd2.jsonl").read_bytes()
    assert (tmp_path / "esc1.jsonl").read_bytes() == (tmp_path / "esc2.jsonl").read_bytes()


def test_make_data_gold_only_and_sampled_only(corpus, tmp_path):
    write_lines(tmp_path / "pairs.tsv", ["a b c d\ta x c d"])
    for ratio, expect_gold in (("0", True), ("1", False)):
        with mock.patch.object(datagen, "_COVERAGE_BUDGET", 0.5):
            assert main(
                [
                    "make-data",
                    str(tmp_path / "pairs.tsv"),
                    "--esd-out",
                    str(tmp_path / "esd.jsonl"),
                    "--esc-out",
                    str(tmp_path / "esc.jsonl"),
                    "--sampled-ratio",
                    ratio,
                    "--seed",
                    "1",
                ]
            ) == 0
        record = json.loads((tmp_path / "esc.jsonl").read_text())
        if expect_gold:
            spans = parse_annotation(tokenize(record["rendered"])).spans
            assert [(s.src_start, s.src_end) for s in spans] == [(1, 2)]


def test_make_data_extracts_gold_spans_once_per_pair(corpus, tmp_path):
    n_pairs = len((corpus / "pairs.tsv").read_text(encoding="utf-8").splitlines())
    counting = mock.Mock(wraps=extract_edits)
    with mock.patch("spangec.alignment.extract_edits", counting), mock.patch(
        "spangec.datagen.extract_edits", counting
    ):
        assert main(
            [
                "make-data",
                str(corpus / "pairs.tsv"),
                "--esd-out",
                str(tmp_path / "esd.jsonl"),
                "--esc-out",
                str(tmp_path / "esc.jsonl"),
                "--sampled-ratio",
                "0",
            ]
        ) == 0
    assert counting.call_count == n_pairs


def test_train_esd_empty_corpus_exit_code(tmp_path):
    (tmp_path / "empty.jsonl").write_text("")
    assert main(
        ["train-esd", str(tmp_path / "empty.jsonl"), "--model-out", str(tmp_path / "m")]
    ) == 2


@pytest.mark.parametrize(
    "command, record",
    [
        ("train-esd", '{"tokens": 5, "tags": [0]}'),
        ("train-esd", "[1, 2]"),
        ("train-esd", '{"tokens": [1, "b"], "tags": [0, 1]}'),
        ("train-esd", '{"tokens": "ab", "tags": [0, 1]}'),
        ("train-esd", '{"tokens": ["a", "b"], "tags": [0, 7]}'),
        ("train-esd", '{"tokens": ["a", "b"], "tags": [true, 0]}'),
        ("train-esd", '{"tokens": ["a", "b"], "tags": [0, 1.0]}'),
        ("train-esc", '{"rendered": 5, "correction": "<s1> a </s1>"}'),
        ("train-esc", "[1]"),
    ],
    ids=[
        "tokens_not_list",
        "esd_not_an_object",
        "token_not_string",
        "tokens_a_string",
        "tag_not_0_or_1",
        "tag_a_boolean",
        "tag_a_float",
        "rendered_not_string",
        "esc_not_an_object",
    ],
)
def test_bad_training_record_exit_code(tmp_path, command, record):
    write_lines(tmp_path / "train.jsonl", [record])
    assert main(
        [command, str(tmp_path / "train.jsonl"), "--model-out", str(tmp_path / "m")]
    ) == 2


@pytest.mark.parametrize(
    "command", ["make-data", "corrupt", "train-esd", "train-esc", "run", "eval"]
)
def test_invalid_utf8_exit_code(small_models, tmp_path, command):
    bad = str(tmp_path / "bad.txt")
    (tmp_path / "bad.txt").write_bytes(b"a \xff b\n")
    out = str(tmp_path / "out")
    argv = {
        "make-data": [bad, "--esd-out", out, "--esc-out", out + "2"],
        "corrupt": [bad, "-o", out],
        "train-esd": [bad, "--model-out", out],
        "train-esc": [bad, "--model-out", out],
        "run": [bad, "--esd-model", str(small_models / "esd"),
                "--esc-model", str(small_models / "esc"), "-o", out],
        "eval": ["--source", bad, "--hypothesis", bad, "--gold", bad],
    }[command]
    assert main([command, *argv]) == 2


@pytest.mark.parametrize("bad_input", ["--source", "--hypothesis", "--gold"])
def test_invalid_utf8_error_names_file_and_line(tmp_path, capsys, bad_input):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    write_lines(good, ["a b", "c d"])
    bad.write_bytes(b"a b\nc \xff d\n")
    argv = ["eval"]
    for flag in ("--source", "--hypothesis", "--gold"):
        argv += [flag, str(bad if flag == bad_input else good)]
    assert main(argv) == 2
    assert f"{bad}:2: invalid UTF-8 byte 0xff" in capsys.readouterr().err


def test_invalid_utf8_on_stdin_names_line(tmp_path, capsys, monkeypatch):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    write_lines(good, ["a b", "c d", "e f"])
    bad.write_bytes("a b\nc é d\n".encode() + b"e \xfe f\n")
    with open(bad, "rb") as stdin:
        monkeypatch.setattr("sys.stdin", stdin)
        argv = ["eval", "--source", "-", "--hypothesis", str(good), "--gold", str(good)]
        assert main(argv) == 2
    assert "<stdin>:3: invalid UTF-8 byte 0xfe" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("run", "--threshold", "1.5"),
        ("run", "--merge-gap", "-1"),
        ("sweep", "--thresholds", "abc"),
        ("sweep", "--thresholds", "5"),
        ("make-data", "--sampled-ratio", "7"),
        ("corrupt", "--p-insert", "2"),
        ("train-esd", "--epochs", "-1"),
        ("train-esd", "--epochs", str(2**32)),
        ("train-esd", "--seed", str(2**63)),
        ("make-data", "--merge-gap", "-1"),
    ],
)
def test_bad_option_value_is_usage_error(small_models, tmp_path, capsys, command, option, value):
    write_lines(tmp_path / "pairs.tsv", ["a b\ta c"])
    write_lines(tmp_path / "esd.jsonl", ['{"tokens": ["a", "b"], "tags": [0, 1]}'])
    out = tmp_path / "out"
    models = ["--esd-model", str(small_models / "esd"), "--esc-model", str(small_models / "esc")]
    argv = {
        "run": [str(small_models / "in.txt"), *models, "-o", str(out)],
        "sweep": [str(tmp_path / "pairs.tsv"), models[0], models[1], "-o", str(out)],
        "make-data": [str(tmp_path / "pairs.tsv"), "--esd-out", str(out), "--esc-out", str(out)],
        "corrupt": [str(small_models / "in.txt"), "-o", str(out)],
        "train-esd": [str(tmp_path / "esd.jsonl"), "--model-out", str(out)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, option, value])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


def test_train_esd_deterministic(corpus, tmp_path):
    for name in ("m1", "m2", "m3"):
        assert main(
            [
                "train-esd",
                str(corpus / "esd.jsonl"),
                "--model-out",
                str(tmp_path / name),
                "--epochs",
                "2",
                "--seed",
                "4",
            ]
        ) == 0
    assert (
        (tmp_path / "m1").read_bytes()
        == (tmp_path / "m2").read_bytes()
        == (tmp_path / "m3").read_bytes()
    )


def test_run_missing_model_exit_code(corpus, tmp_path):
    write_lines(tmp_path / "in.txt", ["a b"])
    assert main(
        [
            "run",
            str(tmp_path / "in.txt"),
            "--esd-model",
            str(tmp_path / "nope.model"),
            "--esc-model",
            str(corpus / "esc.model"),
        ]
    ) == 3


def test_run_bad_model_format_exit_code(corpus, tmp_path):
    bad = tmp_path / "bad.model"
    bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNK")
    write_lines(tmp_path / "in.txt", ["a b"])
    assert main(
        [
            "run",
            str(tmp_path / "in.txt"),
            "--esd-model",
            str(bad),
            "--esc-model",
            str(corpus / "esc.model"),
        ]
    ) == 3


def run_one_line(tmp_path, esd_model, esc_model):
    write_lines(tmp_path / "in.txt", ["a b"])
    return main(
        [
            "run",
            str(tmp_path / "in.txt"),
            "--esd-model",
            str(esd_model),
            "--esc-model",
            str(esc_model),
        ]
    )


@pytest.mark.parametrize("damage", ["truncated", "index_out_of_range", "trailing_bytes"])
def test_run_damaged_detector_model_exit_code(corpus, tmp_path, damage):
    data = bytearray((corpus / "esd.model").read_bytes())
    first_record = 4 + struct.calcsize("<IIIqdQQQ")  # magic, then the header
    if damage == "truncated":
        data = data[:200]
    elif damage == "index_out_of_range":
        data[first_record : first_record + 4] = struct.pack("<I", N_BUCKETS)
    else:
        data += b"\x00"
    bad = tmp_path / "bad.model"
    bad.write_bytes(bytes(data))
    assert run_one_line(tmp_path, bad, corpus / "esc.model") == 3


_OLDER_JSONL_MODEL = (
    '{"ctx": null, "span": "a", "repl": "b", "count": 1}\n'
    '{"ctx": "x", "span": "a", "repl": "c", "count": 2}'
)


@pytest.mark.parametrize(
    "document",
    [
        '{"format": 1, "counts": {"a": {"": {"b": "x"}}}}',
        '{"format": 1, "counts": {"a": {"": {"b": 1.5}}}}',
        '{"format": 1, "counts": {"b": {"a": {"x": -2, "y": 1}}}}',
        '{"format": 1, "counts": {"b": {"a": {"x": 0}}}}',
        '{"format": 1, "counts": {"b": {"a": {"x": 1, "y": true}}}}',
        '{"format": 1, "counts": {"a": [{"b": 1}]}}',
        '{"format": 1, "counts": {"a": {"": "b"}}}',
        '{"format": 1, "counts": ["a"]}',
        '["a", "b"]',
        '{"counts": {}}',
        '{"format": 2, "counts": {}}',
        _OLDER_JSONL_MODEL,
    ],
    ids=[
        "count_not_integer",
        "count_a_float",
        "count_negative",
        "count_zero",
        "count_a_boolean",
        "context_level_a_list",
        "count_level_a_string",
        "counts_not_an_object",
        "not_an_object",
        "format_missing",
        "format_wrong",
        "older_jsonl_model",
    ],
)
def test_run_bad_corrector_record_exit_code(corpus, tmp_path, capsys, document):
    bad = tmp_path / "bad.esc"
    write_lines(bad, [document])
    assert run_one_line(tmp_path, corpus / "esd.model", bad) == 3
    assert "is not a format-1 corrector model" in capsys.readouterr().err


def test_run_with_an_empty_count_object_copies_the_span(small_models):
    assert run_damaged(small_models, "esc", (small_models / "esc").read_bytes()) == 0
    assert (small_models / "out.txt").read_text().splitlines() == ["a c", "a c"]
    empty = b'{"format": 1, "counts": {"b": {"a": {}}}}'
    assert run_damaged(small_models, "esc", empty) == 0
    assert (small_models / "out.txt").read_text().splitlines() == ["a c", "a b"]


def test_train_esc_and_run_are_byte_identical_under_two_hash_seeds(corpus, tmp_path):
    pairs = (corpus / "pairs.tsv").read_text().splitlines()[:200]
    write_lines(tmp_path / "in.txt", [line.split("\t")[0] for line in pairs])
    outputs = []
    for hash_seed in ("1", "2"):
        out = tmp_path / hash_seed
        out.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        env.pop("SPANGEC_LOG", None)
        for argv in (
            ["train-esc", corpus / "esc.jsonl", "--model-out", out / "model.esc"],
            ["run", tmp_path / "in.txt", "--esd-model", corpus / "esd.model", "--esc-model",
             out / "model.esc", "-o", out / "out.txt", "--report", out / "report.json"],
        ):
            result = subprocess.run(
                [sys.executable, "-m", "spangec.cli", *map(str, argv)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert result.returncode == 0, result.stderr
        outputs.append([(out / name).read_bytes() for name in ("model.esc", "out.txt", "report.json")])
    assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def small_models(tmp_path_factory):
    """A detector and a corrector of a few hundred bytes each, and an input
    whose second line they flag and correct."""
    root = tmp_path_factory.mktemp("small")
    tagger = train_tagger(
        [EsdInstance(("a", "b", "c"), (0, 1, 0)), EsdInstance(("b", "a"), (1, 0))],
        epochs=2,
    )
    tagger.save(str(root / "esd"))
    train_corrector([make_esc_gold(align(("a", "b"), ("a", "c")))]).save(str(root / "esc"))
    write_lines(root / "in.txt", ["a c", "a b"])
    assert run_damaged(root, "esd", (root / "esd").read_bytes()) == 0
    return root


def run_damaged(root, which, data):
    """Run with the named model ("esd" or "esc") replaced by data."""
    models = {"esd": root / "esd", "esc": root / "esc"}
    models[which] = root / f"damaged.{which}"
    models[which].write_bytes(data)
    return main(
        [
            "run",
            str(root / "in.txt"),
            "--esd-model",
            str(models["esd"]),
            "--esc-model",
            str(models["esc"]),
            "-o",
            str(root / "out.txt"),
            "--report",
            str(root / "report.json"),
        ]
    )


_TEMPERATURE_AT = 4 + struct.calcsize("<IIIq")  # magic, then the header fields
_COUNTS_AT = 4 + struct.calcsize("<IIIqd")


@given(
    st.sampled_from(["esd", "esc"]),
    st.sampled_from(["truncate", "flip"]),
    st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=150, deadline=None)
def test_run_on_truncated_or_bit_flipped_model_exits_0_or_3(small_models, which, how, at):
    data = bytearray((small_models / which).read_bytes())
    if how == "truncate":
        data = data[: at % len(data)]
    else:
        data[at % len(data)] ^= 1 << (at // len(data) % 8)
    assert run_damaged(small_models, which, bytes(data)) in (0, 3)


@given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2**64 - 1))
@settings(max_examples=50, deadline=None)
def test_run_on_detector_with_any_section_count_exits_0_or_3(small_models, section, count):
    data = bytearray((small_models / "esd").read_bytes())
    at = _COUNTS_AT + 8 * section
    data[at : at + 8] = struct.pack("<Q", count)
    assert run_damaged(small_models, "esd", bytes(data)) in (0, 3)


@pytest.mark.parametrize(
    "at, value",
    [
        (_TEMPERATURE_AT, struct.pack("<d", 0.0)),
        (_TEMPERATURE_AT, struct.pack("<d", -1.0)),
        (_TEMPERATURE_AT, struct.pack("<d", math.nan)),
        (_TEMPERATURE_AT, struct.pack("<d", math.inf)),
        (_COUNTS_AT, struct.pack("<Q", 2**62)),
    ],
    ids=["temperature_0", "temperature_-1", "temperature_nan", "temperature_inf", "count_2^62"],
)
def test_run_on_bad_detector_header_exits_3(small_models, at, value):
    data = bytearray((small_models / "esd").read_bytes())
    data[at : at + len(value)] = value
    assert run_damaged(small_models, "esd", bytes(data)) == 3


def test_run_writes_lines_before_a_data_error(corpus, tmp_path):
    lines = (corpus / "clean.txt").read_text().splitlines()[:2]
    write_lines(tmp_path / "in.txt", lines + ["a <s1> b"])
    assert main(
        [
            "run",
            str(tmp_path / "in.txt"),
            "--esd-model",
            str(corpus / "esd.model"),
            "--esc-model",
            str(corpus / "esc.model"),
            "-o",
            str(tmp_path / "out.txt"),
        ]
    ) == 2
    assert len((tmp_path / "out.txt").read_text().splitlines()) == 2


def test_run_writes_the_blocks_before_a_data_error(corpus, tmp_path):
    """Two 3-token lines fill an 8-token block, so the bad sixth line falls
    in the third block: the fifth line, read with it, is written too."""
    lines = [" ".join(line.split()[:3]) for line in (corpus / "clean.txt").read_text().splitlines()]
    assert all(len(line.split()) == 3 for line in lines[:5])
    write_lines(tmp_path / "in.txt", lines[:5] + ["a <s1> b"])
    argv = ["run", str(tmp_path / "in.txt"), "--esd-model", str(corpus / "esd.model"),
            "--esc-model", str(corpus / "esc.model"), "-o", str(tmp_path / "out.txt")]
    with mock.patch.object(pipeline, "_BLOCK_TOKENS", 8):
        assert main(argv) == 2
    assert len((tmp_path / "out.txt").read_text().splitlines()) == 5
    write_lines(tmp_path / "in.txt", lines[:5])
    assert main(argv) == 0
    expected = (tmp_path / "out.txt").read_text().splitlines()
    with mock.patch.object(pipeline, "_BLOCK_TOKENS", 8):
        assert main(argv) == 0
    assert (tmp_path / "out.txt").read_text().splitlines() == expected


def test_commands_that_never_score_do_not_import_numpy(corpus, tmp_path):
    script = """
import sys
from spangec.cli import main

root, out = sys.argv[1:]
commands = [
    ["train-esc", f"{root}/esc.jsonl", "--model-out", f"{out}/esc.model"],
    ["make-data", f"{root}/pairs.tsv", "--esd-out", f"{out}/esd.jsonl",
     "--esc-out", f"{out}/esc.jsonl"],
    ["make-data", f"{root}/pairs.tsv", "--esd-out", f"{out}/esd.jsonl",
     "--esc-out", f"{out}/esc.jsonl", "--sampled-ratio", "0", "--merge-gap", "2"],
    ["eval", "--source", f"{root}/clean.txt", "--hypothesis", f"{root}/clean.txt",
     "--gold", f"{root}/clean.txt", "-o", f"{out}/eval.json"],
    ["corrupt", f"{root}/clean.txt", "--p-swap", "0.1", "-o", f"{out}/pairs.tsv"],
]
for argv in commands:
    assert main(argv) == 0, argv
    assert "numpy" not in sys.modules, argv
import spangec
assert spangec.EsdTagger.__module__ == "spangec.esd"
assert all(hasattr(spangec, name) for name in spangec.__all__)
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c", script, str(corpus), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_run_refuses_to_write_over_its_input(corpus, tmp_path):
    lines = (corpus / "clean.txt").read_text().splitlines()[:3]
    write_lines(tmp_path / "in.txt", lines)
    before = (tmp_path / "in.txt").read_bytes()
    assert main(
        [
            "run",
            str(tmp_path / "in.txt"),
            "--esd-model",
            str(corpus / "esd.model"),
            "--esc-model",
            str(corpus / "esc.model"),
            "-o",
            str(tmp_path / "." / "in.txt"),
        ]
    ) == 2
    assert (tmp_path / "in.txt").read_bytes() == before


def test_run_high_threshold_passes_through(corpus, tmp_path):
    lines = (corpus / "clean.txt").read_text().splitlines()[:50]
    write_lines(tmp_path / "in.txt", lines)
    assert main(
        [
            "run",
            str(tmp_path / "in.txt"),
            "--esd-model",
            str(corpus / "esd.model"),
            "--esc-model",
            str(corpus / "esc.model"),
            "--threshold",
            "1.0",
            "-o",
            str(tmp_path / "out.txt"),
            "--report",
            str(tmp_path / "report.json"),
        ]
    ) == 0
    assert (tmp_path / "out.txt").read_text().splitlines() == lines
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["n_flagged"] == 0
    assert report["span_decode_steps"] == 0


def test_run_deterministic(corpus, tmp_path):
    noisy = [line.split("\t")[0] for line in (corpus / "pairs.tsv").read_text().splitlines()[:80]]
    write_lines(tmp_path / "in.txt", noisy)
    outs = []
    for name in ("o1", "o2", "o3"):
        assert main(
            [
                "run",
                str(tmp_path / "in.txt"),
                "--esd-model",
                str(corpus / "esd.model"),
                "--esc-model",
                str(corpus / "esc.model"),
                "-o",
                str(tmp_path / name),
                "--report",
                str(tmp_path / name + ".json") if False else str(tmp_path / (name + ".json")),
            ]
        ) == 0
        outs.append((tmp_path / name).read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_eval_formats(tmp_path):
    write_lines(tmp_path / "src.txt", ["she go home", "a b"])
    write_lines(tmp_path / "hyp.txt", ["she went home", "a b"])
    write_lines(tmp_path / "gold.txt", ["she went home", "a b"])
    assert main(
        [
            "eval",
            "--source", str(tmp_path / "src.txt"),
            "--hypothesis", str(tmp_path / "hyp.txt"),
            "--gold", str(tmp_path / "gold.txt"),
            "-o", str(tmp_path / "m.json"),
        ]
    ) == 0
    metrics = json.loads((tmp_path / "m.json").read_text())
    assert metrics["precision"] == 1.0 and metrics["recall"] == 1.0
    assert main(
        [
            "eval",
            "--source", str(tmp_path / "src.txt"),
            "--hypothesis", str(tmp_path / "hyp.txt"),
            "--gold", str(tmp_path / "gold.txt"),
            "--format", "tsv",
            "-o", str(tmp_path / "m.tsv"),
        ]
    ) == 0
    assert (tmp_path / "m.tsv").read_text().splitlines()[0] == "P\tR\tF0.5"


def test_eval_line_count_mismatch(tmp_path):
    write_lines(tmp_path / "src.txt", ["a", "b"])
    write_lines(tmp_path / "hyp.txt", ["a"])
    write_lines(tmp_path / "gold.txt", ["a", "b"])
    assert main(
        [
            "eval",
            "--source", str(tmp_path / "src.txt"),
            "--hypothesis", str(tmp_path / "hyp.txt"),
            "--gold", str(tmp_path / "gold.txt"),
        ]
    ) == 2


def test_sweep_json_output(corpus, tmp_path):
    assert main(
        [
            "sweep",
            str(corpus / "pairs.tsv"),
            "--esd-model",
            str(corpus / "esd.model"),
            "--format",
            "json",
            "-o",
            str(tmp_path / "sweep.json"),
        ]
    ) == 0
    rows = json.loads((tmp_path / "sweep.json").read_text())
    assert [row["threshold"] for row in rows] == [0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    recalls = [row["recall"] for row in rows]
    assert recalls == sorted(recalls, reverse=True)


def test_end_to_end_oracle_style_round_trip(tmp_path):
    """With a corrector trained on exactly the spans the detector will flag,
    the pipeline reproduces the targets."""
    # Single systematic error so the phrase table generalizes perfectly.
    pairs = [(f"ctx{i} teh thing{i}", f"ctx{i} the thing{i}") for i in range(40)]
    write_lines(tmp_path / "pairs.tsv", [f"{s}\t{t}" for s, t in pairs])
    assert main(
        [
            "make-data",
            str(tmp_path / "pairs.tsv"),
            "--esd-out", str(tmp_path / "esd.jsonl"),
            "--esc-out", str(tmp_path / "esc.jsonl"),
            "--sampled-ratio", "0",
        ]
    ) == 0
    assert main(
        [
            "train-esd", str(tmp_path / "esd.jsonl"),
            "--model-out", str(tmp_path / "esd.model"),
            "--epochs", "5",
        ]
    ) == 0
    assert main(
        [
            "train-esc", str(tmp_path / "esc.jsonl"),
            "--model-out", str(tmp_path / "esc.model"),
        ]
    ) == 0
    write_lines(tmp_path / "in.txt", [s for s, _ in pairs])
    assert main(
        [
            "run", str(tmp_path / "in.txt"),
            "--esd-model", str(tmp_path / "esd.model"),
            "--esc-model", str(tmp_path / "esc.model"),
            "-o", str(tmp_path / "out.txt"),
            "--report", str(tmp_path / "r.json"),
        ]
    ) == 0
    assert (tmp_path / "out.txt").read_text().splitlines() == [t for _, t in pairs]


@pytest.mark.parametrize("command", ["make-data"])
def test_more_gold_spans_than_markers_fuse_as_run_fuses_them(tmp_path, command):
    """70 one-token edits do not fit 64 markers: the record's spans are the
    ones run would fuse from the gold tags, and still rebuild the target."""
    source = tuple(tok for i in range(70) for tok in (f"w{i}", "k"))
    target = tuple(tok for i in range(70) for tok in (f"v{i}", "k"))
    write_lines(tmp_path / "pairs.tsv", [detokenize(source) + "\t" + detokenize(target)])
    out = tmp_path / "esc.jsonl"
    argv = [command, str(tmp_path / "pairs.tsv"), "--esd-out", str(tmp_path / "esd.jsonl"),
            "--esc-out", str(out), "--sampled-ratio", "0"]
    assert main(argv) == 0
    annotated, correction = from_json_record(out.read_text(encoding="utf-8"))
    tags = make_esd_instance(align(source, target)).tags
    assert len(extract_edits(align(source, target))) == 70
    assert list(annotated.spans) == decode_spans(tags, DecodeConfig())
    assert merge_corrections(annotated, correction) == target


def extract_reference(source, target, merge_gap):
    """The corrector record that the removed `extract` command wrote for a
    pair, or None for a pair it skipped; its record builder, verbatim."""
    if not source and target:  # no token to anchor the insertion to
        return None
    path = align(source, target)
    spans = fit_spans(extract_edits(path), merge_gap)
    instance = make_esc_from_spans(path, spans)
    return to_json_record(instance.annotated, instance.correction)


_WORDS = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def parallel_pairs(draw):
    """1-4 pairs over a four-word alphabet: unrelated sentences, sentences
    with an edit next to every other token (up to 100 edits), and empty
    sources."""
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["unrelated", "edited", "empty source"]))
        if kind == "edited":
            source, target = [], []
            for word in draw(st.lists(_WORDS, max_size=100)):
                edit = draw(st.sampled_from(["keep", "replace", "delete", "insert"]))
                source += [word, "k"]
                target += {"keep": [word], "replace": ["x"], "delete": [],
                           "insert": [word, "x"]}[edit] + ["k"]
        else:
            source = [] if kind == "empty source" else draw(st.lists(_WORDS, max_size=30))
            target = draw(st.lists(_WORDS, max_size=30))
        pairs.append((tuple(source), tuple(target)))
    return pairs


@given(parallel_pairs())
@example([(("w", "k") * 70, ("v", "k") * 70), ((), ("x",)), ((), ())])
@settings(max_examples=40, deadline=None)
def test_make_data_writes_the_records_extract_wrote(pairs):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_lines(root / "pairs.tsv", [detokenize(s) + "\t" + detokenize(t) for s, t in pairs])
        esd_files = set()
        for gap in range(4):
            esc, esd = root / f"{gap}.esc", root / f"{gap}.esd"
            argv = ["make-data", str(root / "pairs.tsv"), "--esd-out", str(esd),
                    "--esc-out", str(esc), "--sampled-ratio", "0", "--merge-gap", str(gap)]
            assert main(argv) == 0
            expected = [extract_reference(s, t, gap) for s, t in pairs]
            assert esc.read_text(encoding="utf-8").splitlines() == [
                record for record in expected if record is not None
            ]
            esd_files.add(esd.read_bytes())
        assert len(esd_files) == 1


@pytest.mark.parametrize("level", ["verbose", "10", ""])
def test_an_unknown_log_level_is_a_usage_error(tmp_path, level):
    write_lines(tmp_path / "s.txt", ["a b"])
    argv = ["eval", "--source", "s.txt", "--hypothesis", "s.txt", "--gold", "s.txt", "-o", "m"]
    env = dict(os.environ, SPANGEC_LOG=level,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run([sys.executable, "-m", "spangec.cli", *argv], cwd=tmp_path,
                            env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 1
    assert result.stderr.splitlines() == [
        f"spangec: error: SPANGEC_LOG must be DEBUG, INFO, WARNING, ERROR or CRITICAL, "
        f"not {level!r}"
    ]
    assert not (tmp_path / "m").exists()


def test_readme_cli_block_lists_every_command_and_option():
    """Each command of the parser has one line in the README's CLI block,
    and that line names exactly the command's options (by any alias)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    usage = re.sub(r"\\\n\s*", " ", block)  # join continued lines
    listed = {}
    for line in usage.splitlines():
        if line.startswith("spangec "):
            command = line.split()[1]
            assert command not in listed, command
            listed[command] = set(re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", line))
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(listed) == set(subparsers.choices)
    for command, parser in subparsers.choices.items():
        aliases = [action.option_strings for action in parser._actions
                   if action.option_strings and action.dest != "help"]
        assert listed[command] == {
            option for options in aliases for option in options if option in listed[command]
        }, command
        assert all(listed[command] & set(options) for options in aliases), command


_GOOD_LINES = {
    "make-data": "a b\ta c",
    "run": "a b",
    "sweep": "a b\ta c",
    "train-esd": '{"tokens": ["a"], "tags": [0]}',
    "train-esc": '{"rendered": "a <s1> b </s1>", "correction": "<s1> c </s1>"}',
}


@pytest.mark.parametrize(
    "command, bad",
    [
        pytest.param("make-data", "only one field", id="make-data-fields"),
        pytest.param("make-data", "a b\ta <s1> c", id="make-data-marker"),
        pytest.param("run", "a <s1> b", id="run"),
        pytest.param("sweep", "a\tb\tc", id="sweep"),
        pytest.param("train-esd", '{"tokens": 5, "tags": [0]}', id="train-esd"),
        pytest.param("train-esc", "[1]", id="train-esc"),
    ],
)
def test_a_bad_line_is_a_data_error_naming_file_and_line(
    small_models, tmp_path, capsys, command, bad
):
    """A bad third line is reported as <file>:3."""
    good = _GOOD_LINES[command]
    data = tmp_path / "data.txt"
    write_lines(data, [good, good, bad, good])
    out = str(tmp_path / "out")
    argv = {
        "make-data": ["--esd-out", out, "--esc-out", out + "2"],
        "run": ["--esd-model", str(small_models / "esd"), "--esc-model",
                str(small_models / "esc"), "-o", out],
        "sweep": ["--esd-model", str(small_models / "esd"), "-o", out],
        "train-esd": ["--model-out", out],
        "train-esc": ["--model-out", out],
    }[command]
    assert main([command, str(data), *argv]) == 2
    assert f"spangec: data error: {data}:3: " in capsys.readouterr().err


def test_eval_counts_an_insertion_into_an_empty_source(tmp_path):
    write_lines(tmp_path / "src.txt", ["a b", ""])
    write_lines(tmp_path / "hyp.txt", ["a b", "x y"])
    write_lines(tmp_path / "gold.txt", ["a c", "x y"])
    argv = ["eval", "--source", str(tmp_path / "src.txt"), "--hypothesis",
            str(tmp_path / "hyp.txt"), "--gold", str(tmp_path / "gold.txt"),
            "-o", str(tmp_path / "m.json")]
    assert main(argv) == 0
    scores = json.loads((tmp_path / "m.json").read_text())
    assert (scores["tp"], scores["fp"], scores["fn"]) == (1, 0, 1)


def test_sweep_on_an_empty_source(small_models, tmp_path):
    write_lines(tmp_path / "pairs.tsv", ["a b\ta c", "\tx y"])
    argv = ["sweep", str(tmp_path / "pairs.tsv"), "--esd-model", str(small_models / "esd"),
            "--format", "json", "-o", str(tmp_path / "sweep.json")]
    assert main(argv) == 0
    rows = json.loads((tmp_path / "sweep.json").read_text())
    assert [row["threshold"] for row in rows] == list(pipeline.SWEEP_THRESHOLDS)


@pytest.mark.parametrize("command", ["make-data"])
def test_an_insertion_into_an_empty_source_is_skipped(tmp_path, caplog, command):
    """The pair has no source token to anchor a span to: the corrector data
    skip it, the detector data keep it as a tokenless record. A pair with
    both sides empty is still written."""
    lines = ["a b\ta c", "\tx y", "\t", "c d\tc d"]
    write_lines(tmp_path / "pairs.tsv", lines)
    write_lines(tmp_path / "kept.tsv", lines[:1] + lines[2:])
    for name in ("pairs", "kept"):
        argv = [command, str(tmp_path / f"{name}.tsv"), "--esd-out", str(tmp_path / f"{name}.esd"),
                "--esc-out", str(tmp_path / f"{name}.esc"), "--sampled-ratio", "0"]
        with caplog.at_level(logging.INFO, logger="spangec"):
            assert main(argv) == 0
    assert (tmp_path / "pairs.esc").read_bytes() == (tmp_path / "kept.esc").read_bytes()
    assert len((tmp_path / "pairs.esc").read_text().splitlines()) == 3
    esd_lines = (tmp_path / "pairs.esd").read_text().splitlines()
    kept = (tmp_path / "kept.esd").read_text().splitlines()
    assert esd_lines == kept[:1] + ['{"tokens": [], "tags": []}'] + kept[1:]
    message = "make-data: no corrector record for {} insertions into an empty source"
    logged = [r.getMessage() for r in caplog.records if "empty source" in r.getMessage()]
    assert logged == [message.format(1), message.format(0)]


def _distinct_case_files(root, small_models):
    write_lines(root / "in.txt", ["a c", "a b"])
    write_lines(root / "pairs.tsv", ["a b\ta c"])
    write_lines(root / "esd.jsonl", ['{"tokens": ["a", "b"], "tags": [0, 1]}'])
    write_lines(root / "esc.jsonl", ['{"rendered": "a <s1> b </s1>", "correction": "<s1> c </s1>"}'])
    for model in ("esd", "esc"):
        (root / model).write_bytes((small_models / model).read_bytes())
    os.symlink(root / "pairs.tsv", root / "link.tsv")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "in.txt", "--esd-model", "esd", "--esc-model", "esc", "-o", "x",
         "--report", "in.txt"],
        ["run", "in.txt", "--esd-model", "esd", "--esc-model", "esc", "-o", "x",
         "--report", "x"],
        ["run", "in.txt", "--esd-model", "esd", "--esc-model", "esc", "-o", "esc"],
        ["make-data", "pairs.tsv", "--esd-out", "x", "--esc-out", "x"],
        ["make-data", "pairs.tsv", "--esd-out", "x", "--esc-out", "./pairs.tsv"],
        ["make-data", "pairs.tsv", "--esd-out", os.devnull, "--esc-out", "link.tsv"],
        ["corrupt", "in.txt", "--vocab-file", "pairs.tsv", "-o", "pairs.tsv"],
        ["train-esd", "esd.jsonl", "--model-out", "esd.jsonl"],
        ["train-esc", "esc.jsonl", "--model-out", "esc.jsonl"],
        ["eval", "--source", "in.txt", "--hypothesis", "in.txt", "--gold", "in.txt",
         "-o", "in.txt"],
        ["sweep", "pairs.tsv", "--esd-model", "esd", "-o", "esd"],
    ],
    ids=["run-report-input", "run-report-output", "run-output-model", "make-data-outputs",
         "make-data-input", "make-data-symlink", "corrupt-vocab", "train-esd", "train-esc",
         "eval", "sweep"],
)
def test_no_output_names_another_path_of_the_command(
    small_models, tmp_path, capsys, monkeypatch, argv
):
    _distinct_case_files(tmp_path, small_models)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "is the same file as" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_run_may_write_output_and_report_to_the_same_device(small_models):
    argv = ["run", str(small_models / "in.txt"), "--esd-model", str(small_models / "esd"),
            "--esc-model", str(small_models / "esc"), "-o", os.devnull, "--report", os.devnull]
    assert main(argv) == 0


def test_run_may_write_output_and_report_to_stdout(small_models, capsys, monkeypatch):
    with open(small_models / "in.txt", "rb") as stdin:
        monkeypatch.setattr("sys.stdin", stdin)
        argv = ["run", "-", "--esd-model", str(small_models / "esd"), "--esc-model",
                str(small_models / "esc"), "-o", "-", "--report", "-"]
        assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["a c", "a c"]
    assert json.loads(lines[2])["n_sentences"] == 2
