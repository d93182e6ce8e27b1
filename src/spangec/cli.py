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
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO

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


def _checked_lines(fh: TextIO, name: str) -> Iterator[str]:
    """Yield the lines of fh, which escapes undecodable bytes; invalid UTF-8
    is a data error naming the file and the line."""
    for lineno, line in enumerate(fh, start=1):
        bad = _ESCAPED_BYTE.search(line)
        if bad:
            byte = ord(bad.group()) - 0xDC00
            raise DataError(f"{name}:{lineno}: invalid UTF-8 byte 0x{byte:02x}")
        yield line


@contextlib.contextmanager
def _open_in(path: str) -> Iterator[Iterator[str]]:
    """The lines of path, or of stdin for -, decoded as UTF-8."""
    name = "<stdin>" if path == "-" else path
    source = sys.stdin.fileno() if path == "-" else path
    with open(source, "r", encoding="utf-8", errors="surrogateescape", closefd=path != "-") as fh:
        yield _checked_lines(fh, name)


def _open_out(path: Optional[str]):
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _check_distinct(input_path: str, output_path: Optional[str]) -> None:
    """Streaming into the file being read would truncate it before it is read."""
    if input_path != "-" and output_path not in (None, "-") and os.path.exists(output_path):
        if os.path.samefile(input_path, output_path):
            raise DataError(f"output {output_path} is the input file; write elsewhere")


def read_parallel_tsv(
    fh: Iterable[str],
) -> Iterator[tuple[int, alignment.TokenSeq, alignment.TokenSeq]]:
    """Yield (line number, source tokens, target tokens) from source<TAB>target lines."""
    for lineno, line in enumerate(fh, start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"line {lineno}: expected source<TAB>target, got {len(parts)} fields")
        source = alignment.tokenize(parts[0])
        target = alignment.tokenize(parts[1])
        try:
            annotation.check_no_reserved(source)
            annotation.check_no_reserved(target)
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
        yield lineno, source, target


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
    _check_distinct(args.input, args.output)
    with _open_in(args.input) as fin, _open_out(args.output) as fout:
        for lineno, source, target in read_parallel_tsv(fin):
            try:
                path = alignment.align(source, target)
                spans = alignment.extract_edits(path)
                # Gap 0 would still fuse adjacent spans, so merge only on request.
                if args.merge_gap > 0:
                    spans = alignment.merge_edits(spans, args.merge_gap)
                instance = datagen.make_esc_from_spans(path, spans)
            except (ValueError, SpangecError) as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
            fout.write(
                annotation.to_json_record(instance.annotated, instance.correction) + "\n"
            )
    return 0


def cmd_make_data(args) -> int:
    with _option_checks(args):
        cfg = datagen.SpanSampleConfig(
            geometric_p=args.geometric_p,
            max_span_len=args.max_span_len,
            coverage_budget=args.coverage_budget,
        )
    if not 0 <= args.sampled_ratio <= 1:
        args.parser.error("sampled_ratio must be in [0, 1]")
    _check_distinct(args.input, args.esd_out)
    _check_distinct(args.input, args.esc_out)
    with contextlib.ExitStack() as stack:
        fin = stack.enter_context(_open_in(args.input))
        esd_out = stack.enter_context(_open_out(args.esd_out))
        esc_out = stack.enter_context(_open_out(args.esc_out))
        for lineno, source, target in read_parallel_tsv(fin):
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
                    esc_inst = datagen.make_esc_sampled(path, cfg, rng)
                else:
                    esc_inst = datagen.make_esc_gold(path, spans)
                esc_out.write(
                    annotation.to_json_record(esc_inst.annotated, esc_inst.correction)
                    + "\n"
                )
            except (ValueError, SpangecError) as exc:
                raise DataError(f"line {lineno}: {exc}") from exc
    return 0


def cmd_corrupt(args) -> int:
    probs = {name: getattr(args, name) for name in ("p_insert", "p_delete", "p_replace", "p_swap")}
    with _option_checks(args):
        # The vocabulary comes with the input; a stand-in lets the
        # probabilities be checked first.
        datagen.CorruptConfig(**probs, vocab=("",))
    with _open_in(args.input) as fin:
        lines = [line.rstrip("\n") for line in fin]
    sentences = [alignment.tokenize(line) for line in lines if line.strip()]
    if args.vocab_file:
        with _open_in(args.vocab_file) as fh:
            vocab = tuple(tok for line in fh for tok in alignment.tokenize(line))
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


def _esd_record(line: str) -> datagen.EsdInstance:
    record = json.loads(line)
    tokens, tags = record["tokens"], record["tags"]
    if not (isinstance(tokens, list) and all(isinstance(tok, str) for tok in tokens)):
        raise DataError("tokens must be a list of strings")
    if not isinstance(tags, list):
        raise DataError("tags must be a list of 0s and 1s")
    return datagen.EsdInstance(tokens=tuple(tokens), tags=tuple(tags))


def _esc_record(line: str) -> datagen.EscInstance:
    return datagen.EscInstance(*annotation.from_json_record(line))


def _read_jsonl(path: str, parse: Callable[[str], object]) -> list:
    """Parse every non-blank line; a bad record is a data error at path:line."""
    records = []
    with _open_in(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(parse(line))
            except (ValueError, KeyError, TypeError, AttributeError, SpangecError) as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
    return records


def cmd_train_esd(args) -> int:
    from . import esd
    if args.epochs < 1:
        args.parser.error("epochs must be at least 1")
    instances = _read_jsonl(args.input, _esd_record)
    model = esd.train_tagger(instances, epochs=args.epochs, seed=args.seed)
    for epoch, mistakes in enumerate(model.epoch_mistakes, start=1):
        log.info("detector epoch %d/%d: %d perceptron mistakes", epoch, args.epochs, mistakes)
    model.save(args.model_out)
    log.info("trained detector on %d instances -> %s", len(instances), args.model_out)
    return 0


def cmd_train_esc(args) -> int:
    instances = _read_jsonl(args.input, _esc_record)
    model = esc.train_corrector(instances)
    model.save(args.model_out)
    log.info("trained corrector on %d instances -> %s", len(instances), args.model_out)
    return 0


def _read_sentences(fh: Iterable[str]) -> Iterator[alignment.TokenSeq]:
    """Yield the tokens of each line; a reserved marker is a data error."""
    for lineno, line in enumerate(fh, start=1):
        tokens = alignment.tokenize(line.rstrip("\n"))
        try:
            annotation.check_no_reserved(tokens)
        except DataError as exc:
            raise DataError(f"line {lineno}: {exc}") from exc
        yield tokens


def cmd_run(args) -> int:
    from . import esd, pipeline
    with _option_checks(args):
        decode_cfg = esd.DecodeConfig(threshold=args.threshold, merge_gap=args.merge_gap)
    tagger = _load_model(esd.EsdTagger, args.esd_model, "detector")
    corrector = _load_model(esc.PhraseTableCorrector, args.esc_model, "corrector")
    _check_distinct(args.input, args.output)
    with _open_in(args.input) as fin, _open_out(args.output) as fout:
        _, report = pipeline.run_pipeline(
            _read_sentences(fin),
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
    def read_tokens(path: str) -> list[alignment.TokenSeq]:
        with _open_in(path) as fh:
            return [alignment.tokenize(line.rstrip("\n")) for line in fh]

    sources = read_tokens(args.source)
    hypotheses = read_tokens(args.hypothesis)
    golds = read_tokens(args.gold)
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
    with _option_checks(args):
        thresholds = tuple(
            esd.DecodeConfig(threshold=float(t)).threshold for t in args.thresholds.split(",")
        )
    tagger = _load_model(esd.EsdTagger, args.esd_model, "detector")
    with _open_in(args.input) as fin:
        pairs = [(src, tgt) for _, src, tgt in read_parallel_tsv(fin)]
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
    p.add_argument("--geometric-p", type=float, default=0.2)
    p.add_argument("--max-span-len", type=int, default=10)
    p.add_argument("--coverage-budget", type=float, default=0.15)
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
    p.add_argument("--thresholds", default="0.2,0.3,0.4,0.5,0.6,0.7")
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
