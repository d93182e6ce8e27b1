"""Correctness checks on the program's outputs.

Each check returns a list of problems, empty when the output is right. The
checks use the benchmark's own parsing and its own knowledge of the corpus,
or properties the method must have; none compares against a stored copy of
an earlier output.
"""

from __future__ import annotations

import json
import re

_MARKER = re.compile(r"^<(/?)s([1-9][0-9]?)>$")


def read_lines(path) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def check_run_output(
    n_input: int, out_lines: list[str], report: dict, whole_file: bool
) -> list[str]:
    """`run` writes one line per input line, and its report agrees with
    counts taken from the output itself. On a whole test file, span
    decoding also takes fewer steps than full decoding; on a single line
    it need not (a short line with several spans can cost as much)."""
    problems = []
    if len(out_lines) != n_input:
        problems.append(f"run wrote {len(out_lines)} lines for {n_input} input lines")
    if report.get("n_sentences") != len(out_lines):
        problems.append(
            f"report n_sentences={report.get('n_sentences')}, output has {len(out_lines)}"
        )
    full = sum(len(line.split()) + 1 for line in out_lines)
    if report.get("full_decode_steps") != full:
        problems.append(
            f"report full_decode_steps={report.get('full_decode_steps')}, output gives {full}"
        )
    if whole_file and not report.get("span_decode_steps", full) < full:
        problems.append(
            f"span_decode_steps={report.get('span_decode_steps')} is not below {full}"
        )
    return problems


def parse_marked(tokens: list[str]) -> tuple[list[str], dict[int, tuple[int, int]]]:
    """Strip <sK> ... </sK> markers: the bare tokens and each span's range."""
    bare: list[str] = []
    spans: dict[int, tuple[int, int]] = {}
    open_k, start = None, 0
    for tok in tokens:
        m = _MARKER.match(tok)
        if m is None:
            bare.append(tok)
            continue
        k = int(m.group(2))
        if not m.group(1):
            if open_k is not None:
                raise ValueError(f"marker {tok} opens inside <s{open_k}>")
            open_k, start = k, len(bare)
        else:
            if open_k != k:
                raise ValueError(f"marker {tok} closes nothing open")
            spans[k] = (start, len(bare))
            open_k = None
    if open_k is not None:
        raise ValueError(f"marker <s{open_k}> is never closed")
    return bare, spans


def parse_segments(tokens: list[str]) -> dict[int, list[str]]:
    """Replacements by span number from a marker-wrapped correction."""
    segments: dict[int, list[str]] = {}
    open_k = None
    for tok in tokens:
        m = _MARKER.match(tok)
        if m is None:
            if open_k is None:
                raise ValueError(f"token {tok!r} outside any segment")
            segments[open_k].append(tok)
        elif not m.group(1):
            open_k = int(m.group(2))
            segments[open_k] = []
        else:
            if open_k != int(m.group(2)):
                raise ValueError(f"marker {tok} closes nothing open")
            open_k = None
    return segments


def check_gold_records(esc_lines: list[str], pairs) -> list[str]:
    """Substituting each gold record's replacements into its source gives
    the target exactly."""
    if len(esc_lines) != len(pairs):
        return [f"{len(esc_lines)} ESC records for {len(pairs)} pairs"]
    problems = []
    for lineno, (line, (source, target)) in enumerate(zip(esc_lines, pairs), start=1):
        try:
            record = json.loads(line)
            bare, spans = parse_marked(record["rendered"].split())
            segments = parse_segments((record["correction"] or "").split())
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            problems.append(f"ESC record {lineno}: {exc}")
            continue
        if bare != list(source):
            problems.append(f"ESC record {lineno}: source differs from the pair")
            continue
        if set(segments) != set(spans):
            problems.append(f"ESC record {lineno}: spans {sorted(spans)} vs segments {sorted(segments)}")
            continue
        out, cursor = [], 0
        for k in sorted(spans):
            start, end = spans[k]
            out += bare[cursor:start] + segments[k]
            cursor = end
        out += bare[cursor:]
        if out != list(target):
            problems.append(f"ESC record {lineno}: replacements do not give the target")
    return problems


def check_esd_records(esd_lines: list[str], pairs) -> list[str]:
    """Error-free pairs are tagged all 0; every other pair has a 1."""
    if len(esd_lines) != len(pairs):
        return [f"{len(esd_lines)} ESD records for {len(pairs)} pairs"]
    problems = []
    for lineno, (line, (source, target)) in enumerate(zip(esd_lines, pairs), start=1):
        try:
            record = json.loads(line)
            tokens, tags = record["tokens"], record["tags"]
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"ESD record {lineno}: {exc}")
            continue
        if tokens != list(source) or len(tags) != len(tokens):
            problems.append(f"ESD record {lineno}: tokens or tag count differ from the pair")
        elif source == target and any(tags):
            problems.append(f"ESD record {lineno}: error-free pair has a tag 1")
        elif source != target and not any(tags):
            problems.append(f"ESD record {lineno}: corrupted pair is tagged all 0")
    return problems


def f_half(p: float, r: float) -> float:
    return 1.25 * p * r / (0.25 * p + r) if p + r else 0.0


def random_tagger_f_half(precision: float, recall: float, gold_tags) -> float:
    """F0.5 of a tagger that flags tokens at random at the detector's rate.

    Its precision is the gold positive share g; its recall is the share q
    of tokens it flags, which the detector's own P and R give: q = R*G/(P*N).
    """
    n = sum(len(tags) for tags in gold_tags)
    g = sum(sum(tags) for tags in gold_tags)
    if precision == 0 or n == 0:
        return 0.0
    q = min(1.0, recall * g / (precision * n))
    return f_half(g / n, q)


def check_detection(row: dict, gold_tags) -> list[str]:
    baseline = random_tagger_f_half(row["precision"], row["recall"], gold_tags)
    if not row["f0_5"] > baseline:
        return [f"detection F0.5 {row['f0_5']:.4f} does not beat random {baseline:.4f}"]
    return []
