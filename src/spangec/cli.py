"""Command-line front end for the span-detection + span-correction pipeline.

Subcommands: extract, make-data, corrupt, train-esd, train-esc, run, eval,
sweep. extract and make-data stream line by line, run a block of lines at a
time; the others read their whole input first. Only extract, train-esd, run
and sweep import the detector, and with it numpy. Exit codes are 0 (success),
1 (usage), 2 (data error), 3 (model error). Set SPANGEC_LOG to control log
verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import re
import sys
from typing import Any, Callable, Iterator, Optional, Sequence, TextIO

from . import alignment, annotation, datagen, esc, metrics
from .errors import DataError, ModelError, SpangecError

log = logging.getLogger("spangec")

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MODEL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@contextlib.contextmanager
def _option_checks(args) -> Iterator[None]:
    """A ValueError from the library's checks of option values is a usage
    error (exit 1); each command runs them before any other work."""
    try:
        yield
    except ValueError as exc:
        args.parser.error(str(exc))


# What errors="surrogateescape" decodes an invalid UTF-8 byte to.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")
# What a parser raises on a line it rejects.
_BAD_LINE = (ValueError, KeyError, TypeError, AttributeError, SpangecError)


def _name(path: str) -> str:
    return "<stdin>" if path == "-" else path


def _parsed_lines(fh: TextIO, name: str, parse: Callable[[str], Any]) -> Iterator[tuple[int, Any]]:
    for lineno, line in enumerate(fh, start=1):
        try:
            bad = _ESCAPED_BYTE.search(line)
            if bad:
                raise DataError(f"invalid UTF-8 byte 0x{ord(bad.group()) - 0xDC00:02x}")
            value = parse(line)
        except _BAD_LINE as exc:
            raise DataError(f"{name}:{lineno}: {exc}") from exc
        if value is not None:
            yield lineno, value


@contextlib.contextmanager
def _open_in(path: str, parse: Callable[[str], Any]) -> Iterator[Iterator[tuple[int, Any]]]:
    """(line number, parse(line)) for each line of path, or of stdin for -,
    decoded as UTF-8; a line that parses to None is skipped. Invalid UTF-8,
    or a line parse rejects, is a data error naming the file and the line."""
    source = sys.stdin.fileno() if path == "-" else path
    with open(source, "r", encoding="utf-8", errors="surrogateescape", closefd=path != "-") as fh:
        yield _parsed_lines(fh, _name(path), parse)


def _read_records(path: str, parse: Callable[[str], Any]) -> list:
    """The parsed lines of path that are not None."""
    with _open_in(path, parse) as records:
        return [record for _, record in records]


def _open_out(path: Optional[str]):
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _check_distinct(input_path: str, output_path: Optional[str]) -> None:
    """Streaming into the file being read would truncate it before it is read."""
    if input_path != "-" and output_path not in (None, "-") and os.path.exists(output_path):
        if os.path.samefile(input_path, output_path):
            raise DataError(f"output {output_path} is the input file; write elsewhere")


def _pair(line: str) -> Optional[tuple[alignment.TokenSeq, alignment.TokenSeq]]:
    """The source and target tokens of a source<TAB>target line; None if blank."""
    line = line.rstrip("\n")
    if not line:
        return None
    parts = line.split("\t")
    if len(parts) != 2:
        raise DataError(f"expected source<TAB>target, got {len(parts)} fields")
    return _sentence(parts[0]), _sentence(parts[1])


def _sentence(line: str) -> alignment.TokenSeq:
    """The tokens of a line of text; a reserved marker is a data error."""
    tokens = alignment.tokenize(line)
    annotation.check_no_reserved(tokens)
    return tokens


def _load_model(cls, path: str, what: str):
    try:
        return cls.load(path)
    except FileNotFoundError as exc:
        raise ModelError(f"{what} model not found: {path}") from exc


# ---------------------------------------------------------------- commands


def cmd_extract(args) -> int:
    from . import esd
    with _option_checks(args):
        esd.DecodeConfig(merge_gap=args.merge_gap)

    def record(line: str) -> Optional[str]:
        pair = _pair(line)
        if pair is None:
            return None
        path = alignment.align(*pair)
        spans = annotation.fit_spans(alignment.extract_edits(path), args.merge_gap)
        instance = datagen.make_esc_from_spans(path, spans)
        return annotation.to_json_record(instance.annotated, instance.correction)

    _check_distinct(args.input, args.output)
    with _open_in(args.input, record) as records, _open_out(args.output) as fout:
        for _, text in records:
            fout.write(text + "\n")
    return 0


def cmd_make_data(args) -> int:
    if not 0 <= args.sampled_ratio <= 1:
        args.parser.error("sampled_ratio must be in [0, 1]")
    _check_distinct(args.input, args.esd_out)
    _check_distinct(args.input, args.esc_out)
    with contextlib.ExitStack() as stack:
        pairs = stack.enter_context(_open_in(args.input, _pair))
        esd_out = stack.enter_context(_open_out(args.esd_out))
        esc_out = stack.enter_context(_open_out(args.esc_out))
        for lineno, (source, target) in pairs:
            try:
                # One alignment and one set of gold spans serve the detector
                # and the corrector instance.
                path = alignment.align(source, target)
                spans = alignment.extract_edits(path)
                inst = datagen.make_esd_instance(path, spans)
                record = {"tokens": list(inst.tokens), "tags": list(inst.tags)}
                esd_out.write(json.dumps(record, ensure_ascii=False) + "\n")
                rng = datagen.sentence_rng(args.seed, lineno)
                if source and rng.random() < args.sampled_ratio:
                    esc_inst = datagen.make_esc_sampled(path, rng)
                else:
                    esc_inst = datagen.make_esc_gold(path, spans)
                esc_out.write(
                    annotation.to_json_record(esc_inst.annotated, esc_inst.correction)
                    + "\n"
                )
            except (ValueError, SpangecError) as exc:
                raise DataError(f"{_name(args.input)}:{lineno}: {exc}") from exc
    return 0


def cmd_corrupt(args) -> int:
    probs = {name: getattr(args, name) for name in ("p_insert", "p_delete", "p_replace", "p_swap")}
    with _option_checks(args):
        # The vocabulary comes with the input; a stand-in lets the
        # probabilities be checked first.
        datagen.CorruptConfig(**probs, vocab=("",))
    # Whitespace-only lines are skipped.
    sentences = _read_records(args.input, lambda line: alignment.tokenize(line) or None)
    if args.vocab_file:
        lines = _read_records(args.vocab_file, alignment.tokenize)
        vocab = tuple(tok for tokens in lines for tok in tokens)
    else:
        vocab = tuple(sorted({tok for sent in sentences for tok in sent}))
    try:
        cfg = datagen.CorruptConfig(**probs, vocab=vocab)
    except ValueError as exc:  # only the vocabulary is left to reject
        raise DataError(f"{args.vocab_file or args.input}: {exc}") from exc
    with _open_out(args.output) as fout:
        for index, sent in enumerate(sentences):
            rng = datagen.sentence_rng(args.seed, index)
            noisy = datagen.corrupt(sent, cfg, rng)
            fout.write(
                alignment.detokenize(noisy) + "\t" + alignment.detokenize(sent) + "\n"
            )
    return 0


def _esd_record(line: str) -> Optional[datagen.EsdInstance]:
    if not line.strip():
        return None
    record = json.loads(line)
    tokens, tags = record["tokens"], record["tags"]
    if not (isinstance(tokens, list) and all(isinstance(tok, str) for tok in tokens)):
        raise DataError("tokens must be a list of strings")
    if not isinstance(tags, list):
        raise DataError("tags must be a list of 0s and 1s")
    return datagen.EsdInstance(tokens=tuple(tokens), tags=tuple(tags))


def _esc_record(line: str) -> Optional[datagen.EscInstance]:
    if not line.strip():
        return None
    return datagen.EscInstance(*annotation.from_json_record(line))


def cmd_train_esd(args) -> int:
    from . import esd
    if args.epochs < 1:
        args.parser.error("epochs must be at least 1")
    instances = _read_records(args.input, _esd_record)
    model = esd.train_tagger(instances, epochs=args.epochs, seed=args.seed)
    for epoch, mistakes in enumerate(model.epoch_mistakes, start=1):
        log.info("detector epoch %d/%d: %d perceptron mistakes", epoch, args.epochs, mistakes)
    model.save(args.model_out)
    log.info("trained detector on %d instances -> %s", len(instances), args.model_out)
    return 0


def cmd_train_esc(args) -> int:
    instances = _read_records(args.input, _esc_record)
    model = esc.train_corrector(instances)
    model.save(args.model_out)
    log.info("trained corrector on %d instances -> %s", len(instances), args.model_out)
    return 0


def cmd_run(args) -> int:
    from . import esd, pipeline
    with _option_checks(args):
        decode_cfg = esd.DecodeConfig(threshold=args.threshold, merge_gap=args.merge_gap)
    tagger = _load_model(esd.EsdTagger, args.esd_model, "detector")
    corrector = _load_model(esc.PhraseTableCorrector, args.esc_model, "corrector")
    _check_distinct(args.input, args.output)
    with _open_in(args.input, _sentence) as lines, _open_out(args.output) as fout:
        _, report = pipeline.run_pipeline(
            (tokens for _, tokens in lines),
            tagger,
            corrector,
            decode_cfg,
            write=lambda tokens: fout.write(alignment.detokenize(tokens) + "\n"),
        )
    if args.report:
        with _open_out(args.report) as fh:
            fh.write(report.to_json() + "\n")
    else:
        print(report.to_json(), file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    sources = _read_records(args.source, alignment.tokenize)
    hypotheses = _read_records(args.hypothesis, alignment.tokenize)
    golds = _read_records(args.gold, alignment.tokenize)
    if not (len(sources) == len(hypotheses) == len(golds)):
        raise DataError("source, hypothesis and gold must have the same line count")
    prf = metrics.correction_metrics(sources, hypotheses, golds)
    with _open_out(args.output) as fout:
        if args.format == "json":
            fout.write(prf.to_json() + "\n")
        elif args.format == "tsv":
            fout.write("P\tR\tF0.5\n" + prf.as_percent_row() + "\n")
        else:
            fout.write(
                f"P      {100 * prf.precision:5.1f}\n"
                f"R      {100 * prf.recall:5.1f}\n"
                f"F0.5   {100 * prf.f_half:5.1f}\n"
            )
    return 0


def cmd_sweep(args) -> int:
    from . import esd, pipeline
    texts = pipeline.SWEEP_THRESHOLDS if args.thresholds is None else args.thresholds.split(",")
    with _option_checks(args):
        thresholds = tuple(esd.DecodeConfig(threshold=float(t)).threshold for t in texts)
    tagger = _load_model(esd.EsdTagger, args.esd_model, "detector")
    pairs = _read_records(args.input, _pair)
    rows = pipeline.threshold_sweep(tagger, pairs, thresholds)
    with _open_out(args.output) as fout:
        if args.format == "json":
            fout.write(
                json.dumps(
                    [
                        {
                            "threshold": t,
                            "precision": prf.precision,
                            "recall": prf.recall,
                            "f0_5": prf.f_half,
                        }
                        for t, prf in rows
                    ]
                )
                + "\n"
            )
        else:
            fout.write("threshold\tP\tR\tF0.5\n")
            for t, prf in rows:
                fout.write(f"{t:g}\t" + prf.as_percent_row() + "\n")
    return 0


# ---------------------------------------------------------------- wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spangec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", parents=[], help="gold spans from a parallel TSV")
    p.add_argument("input", help="parallel TSV (source<TAB>target), or - for stdin")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--merge-gap", type=int, default=0)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("make-data", help="detector + corrector training data")
    p.add_argument("input")
    p.add_argument("--esd-out", required=True)
    p.add_argument("--esc-out", required=True)
    p.add_argument("--sampled-ratio", type=float, default=0.5,
                   help="fraction of corrector instances using sampled spans")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_make_data)

    p = sub.add_parser("corrupt", help="synthesize a noisy parallel corpus")
    p.add_argument("input", help="clean text, one sentence per line")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--p-insert", type=float, default=0.0)
    p.add_argument("--p-delete", type=float, default=0.0)
    p.add_argument("--p-replace", type=float, default=0.0)
    p.add_argument("--p-swap", type=float, default=0.0)
    p.add_argument("--vocab-file", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_corrupt)

    p = sub.add_parser("train-esd", help="train the span detector")
    p.add_argument("input", help="detector JSONL ({tokens, tags})")
    p.add_argument("--model-out", required=True)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train_esd)

    p = sub.add_parser("train-esc", help="train the span corrector")
    p.add_argument("input", help="corrector JSONL (annotated records)")
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=cmd_train_esc)

    p = sub.add_parser("run", help="detect, correct and merge, end to end")
    p.add_argument("input", help="text, one sentence per line")
    p.add_argument("--esd-model", required=True)
    p.add_argument("--esc-model", required=True)
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--merge-gap", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--report", default=None, help="efficiency JSON path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("eval", help="edit-level correction metrics")
    p.add_argument("--source", required=True)
    p.add_argument("--hypothesis", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", choices=("json", "tsv", "text"), default="json")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="detection metrics across thresholds")
    p.add_argument("input", help="parallel TSV with gold targets")
    p.add_argument("--esd-model", required=True)
    p.add_argument("--thresholds", default=None)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", choices=("json", "tsv", "text"), default="text")
    p.set_defaults(func=cmd_sweep)

    for p in sub.choices.values():
        p.set_defaults(parser=p)  # for usage errors found after parsing
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(
        level=os.environ.get("SPANGEC_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ModelError as exc:
        log.error("%s", exc)
        print(f"spangec: model error: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except (DataError, OSError) as exc:
        log.error("%s", exc)
        print(f"spangec: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SpangecError as exc:
        log.error("%s", exc)
        print(f"spangec: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
