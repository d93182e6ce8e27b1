"""Benchmark of the spangec train-and-correct cycle.

    python3 bench/run.py --workload sparse|dense|longtail|all --seed N \
        --seconds S --trace 0|1

Generates the workload's corpus from the seed, then runs the user's cycle
(make-data, train-esd, train-esc, run) as `python3 -m spangec.cli` child
processes, one at a time, in rounds while the next round would end within
S seconds (at least three rounds), and reports medians. Then sweep and eval
give the quality figures. Every output is checked. With --trace 1 one more
cycle runs with every public library function traced (bench/traced.py), and
the per-layer metrics come from it. The last line of standard output is the
JSON result; bench/README.md describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import checks
import corpus as corpora
import traced

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 120
GOLD_CHECK_PAIRS = 500  # make-data with --sampled-ratio 0 on this prefix
EPOCHS = "5"
TRAIN_SEED = "0"

# A round runs the two long commands once and the short ones twice: one
# `run`, `train-esc` or probe sample varies by up to a third from the next
# on a shared machine, a `make-data` sample by a tenth.
ROUND_ORDER = ("make_data", "train_esc", "run", "probe", "train_esd", "run", "train_esc", "probe")
FIRST_ROUND_ORDER = ("make_data", "train_esd", "train_esc", "run", "probe", "run", "train_esc", "probe")

E2E_UNITS = {
    "setup_s": "s",
    "run_sentences_per_s": "sentences/s",
    "run_tokens_per_s": "tokens/s",
    "make_data_pairs_per_s": "pairs/s",
    "train_esd_s": "s",
    "train_esc_s": "s",
    "run_peak_rss_mb": "MB",
    "train_esd_peak_rss_mb": "MB",
    "detect_f0_5": "ratio",
    "correct_f0_5": "ratio",
}


class Files:
    """Every file one workload run reads or writes, under bench/out/<name>."""

    def __init__(self, work: Path):
        self.work = work
        for name in (
            "train.tsv", "test.tsv", "test.src", "test.tgt", "probe.src",
            "gold.tsv", "esd.jsonl", "esc.jsonl", "gold_esd.jsonl",
            "gold_esc.jsonl", "model.esd", "model.esc", "run.out",
            "run.report", "probe.out", "probe.report", "sweep.json",
            "eval.json", "child.log", "roundtrip.esd", "roundtrip.esc",
        ):
            setattr(self, name.replace(".", "_"), work / name)


def spawn(argv: list[str], log: Path) -> tuple[float, int, float]:
    """Run a child to its end: wall seconds, exit code, peak RSS in MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("SPANGEC_LOG", None)
    with open(log, "w", encoding="utf-8") as err:
        start = perf_counter()
        child = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            child.kill()
            child.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return wall, child.returncode, usage.ru_maxrss / 1024.0


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    def __init__(self, workload: corpora.Workload, seed: int, seconds: int):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.f = Files(BENCH / "out" / workload.name)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.walls: dict[str, list[float]] = {}
        self.rss: dict[str, list[float]] = {}
        self.digests: dict[str, str] = {}

    # ------------------------------------------------------------ plumbing

    def command(self, name: str) -> list[str]:
        f, thr = self.f, str(self.w.threshold)
        models = ["--esd-model", str(f.model_esd), "--esc-model", str(f.model_esc)]
        return {
            "make_data": ["make-data", str(f.train_tsv), "--esd-out", str(f.esd_jsonl),
                          "--esc-out", str(f.esc_jsonl), "--seed", TRAIN_SEED],
            "train_esd": ["train-esd", str(f.esd_jsonl), "--model-out", str(f.model_esd),
                          "--epochs", EPOCHS, "--seed", TRAIN_SEED],
            "train_esc": ["train-esc", str(f.esc_jsonl), "--model-out", str(f.model_esc)],
            "probe": ["run", str(f.probe_src), *models, "--threshold", thr,
                      "-o", str(f.probe_out), "--report", str(f.probe_report)],
            "run": ["run", str(f.test_src), *models, "--threshold", thr,
                    "-o", str(f.run_out), "--report", str(f.run_report)],
            "sweep": ["sweep", str(f.test_tsv), "--esd-model", str(f.model_esd),
                      "--thresholds", thr, "--format", "json", "-o", str(f.sweep_json)],
            "eval": ["eval", "--source", str(f.test_src), "--hypothesis", str(f.run_out),
                     "--gold", str(f.test_tgt), "--format", "json", "-o", str(f.eval_json)],
            "gold": ["make-data", str(f.gold_tsv), "--esd-out", str(f.gold_esd_jsonl),
                     "--esc-out", str(f.gold_esc_jsonl), "--sampled-ratio", "0"],
        }[name]

    def op(self, name: str, check=None, spans: Path | None = None) -> bool:
        """One operation: a CLI command, then its checks. Untraced timings
        and peak RSS go to the samples; a failure is counted and kept."""
        self.attempted += 1
        if spans is None:
            argv = [sys.executable, "-m", "spangec.cli", *self.command(name)]
        else:
            argv = [sys.executable, str(BENCH / "traced.py"), str(spans), *self.command(name)]
        wall, code, rss = spawn(argv, self.f.child_log)
        if code != 0:
            tail = self.f.child_log.read_text(encoding="utf-8").strip().splitlines()[-3:]
            problems = [f"exit code {code}: " + " | ".join(tail)]
        else:
            try:
                problems = check() if check else []
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems]
            return False
        key = name if spans is None else "traced." + name
        self.walls.setdefault(key, []).append(wall)
        self.rss.setdefault(key, []).append(rss)
        return True

    def same(self, *paths: Path) -> list[str]:
        """Each output is byte-identical to its first version in this run."""
        problems = []
        for path in paths:
            value = digest(path)
            if self.digests.setdefault(path.name, value) != value:
                problems.append(f"{path.name} differs from its first version in this run")
        return problems

    # ------------------------------------------------------------- checks

    def check_make_data(self) -> list[str]:
        esd_lines = checks.read_lines(self.f.esd_jsonl)
        return checks.check_esd_records(esd_lines, self.corpus.train) + self.same(
            self.f.esd_jsonl, self.f.esc_jsonl
        )

    def check_roundtrip(self, model: Path, copy: Path, cls) -> list[str]:
        """Saving a loaded model reproduces its file byte for byte."""
        if model.name in self.digests:
            return self.same(model)
        try:
            cls.load(str(model)).save(str(copy))
        except Exception as exc:  # a broken model is a finding, not a crash
            return [f"load/save of {model.name} raised {exc!r}"]
        if copy.read_bytes() != model.read_bytes():
            return [f"saving the loaded {model.name} does not reproduce it"]
        return self.same(model)

    def check_run(self, n_input: int, out: Path, report: Path, whole_file: bool) -> list[str]:
        lines = checks.read_lines(out)
        problems = checks.check_run_output(
            n_input, lines, json.loads(report.read_text(encoding="utf-8")), whole_file
        )
        return problems + (self.same(out) if whole_file else [])

    # -------------------------------------------------------------- stages

    def prepare(self) -> None:
        shutil.rmtree(self.f.work, ignore_errors=True)
        self.f.work.mkdir(parents=True)
        self.corpus = corpora.make_corpus(self.w, self.seed)
        corpora.write_corpus(self.corpus, self.f)
        gold = self.corpus.train[:GOLD_CHECK_PAIRS]
        self.f.gold_tsv.write_text(
            "".join(f"{' '.join(s)}\t{' '.join(t)}\n" for s, t in gold), encoding="utf-8"
        )
        self.n_test = len(self.corpus.test)
        self.n_tokens = sum(len(s) for s, _ in self.corpus.test)
        from spangec import esc, esd

        self.model_classes = (esd.EsdTagger, esc.PhraseTableCorrector)

    def check_for(self, name: str):
        f = self.f
        tagger_cls, corrector_cls = self.model_classes
        return {
            "make_data": self.check_make_data,
            "train_esd": lambda: self.check_roundtrip(f.model_esd, f.roundtrip_esd, tagger_cls),
            "train_esc": lambda: self.check_roundtrip(f.model_esc, f.roundtrip_esc, corrector_cls),
            "run": lambda: self.check_run(self.n_test, f.run_out, f.run_report, True),
            "probe": lambda: self.check_run(1, f.probe_out, f.probe_report, False),
        }[name]

    def round(self, first: bool) -> None:
        """One cycle. The short commands' samples sit between the long
        commands: the machine's speed drifts over seconds, and spread-out
        samples see more of the drift than back-to-back ones. The first
        round trains before it runs."""
        for name in FIRST_ROUND_ORDER if first else ROUND_ORDER:
            self.op(name, self.check_for(name))

    def quality(self) -> dict:
        f, out = self.f, {}

        def sweep_check():
            rows = json.loads(f.sweep_json.read_text(encoding="utf-8"))
            out["detect_f0_5"] = rows[0]["f0_5"]
            return checks.check_detection(rows[0], self.corpus.test_tags)

        def eval_check():
            out["correct_f0_5"] = json.loads(f.eval_json.read_text(encoding="utf-8"))["f0_5"]
            return []

        def gold_check():
            pairs = self.corpus.train[:GOLD_CHECK_PAIRS]
            return checks.check_gold_records(checks.read_lines(f.gold_esc_jsonl), pairs)

        self.op("sweep", sweep_check)
        self.op("eval", eval_check)
        self.op("gold", gold_check)
        return out

    def measure(self) -> dict:
        start = perf_counter()
        rounds = 0
        while True:
            self.round(first=rounds == 0)
            rounds += 1
            elapsed = perf_counter() - start
            if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > self.seconds:
                break
        metrics = self.quality()
        samples = {"walls": self.walls, "rss_mb": self.rss}
        (self.f.work / "samples.json").write_text(json.dumps(samples), encoding="utf-8")
        med = statistics.median
        w = self.walls
        if w.get("probe") and w.get("run"):
            setup = med(w["probe"])
            metrics["setup_s"] = setup
            metrics["run_sentences_per_s"] = self.n_test / (med(w["run"]) - setup)
            metrics["run_tokens_per_s"] = self.n_tokens / (med(w["run"]) - setup)
            metrics["run_peak_rss_mb"] = med(self.rss["run"])
        if w.get("make_data"):
            metrics["make_data_pairs_per_s"] = len(self.corpus.train) / med(w["make_data"])
        if w.get("train_esd"):
            metrics["train_esd_s"] = med(w["train_esd"])
            metrics["train_esd_peak_rss_mb"] = med(self.rss["train_esd"])
        if w.get("train_esc"):
            metrics["train_esc_s"] = med(w["train_esc"])
        return {k: {"value": metrics[k], "unit": u} for k, u in E2E_UNITS.items() if k in metrics}

    def trace(self) -> dict:
        """Each command untraced and then traced, back to back so that the
        machine's drift hits both alike; per-layer metrics from the traced
        runs, and the tracing overhead as traced minus untraced wall."""
        f = self.f
        tdir = f.work / "trace"
        tdir.mkdir(exist_ok=True)
        names = ("make_data", "train_esd", "train_esc", "run")
        outputs = {
            "make_data": (f.esd_jsonl, f.esc_jsonl),
            "train_esd": (f.model_esd,),
            "train_esc": (f.model_esc,),
            "run": (f.run_out,),
        }
        for n in names:
            self.op(n, self.check_for(n))
            self.op(n, lambda n=n: self.same(*outputs[n]), spans=tdir / f"{n}.json")
        self.quality()
        if not all(self.walls.get(n) and self.walls.get("traced." + n) for n in names):
            return {}
        summary = {n: traced.summarize(tdir / f"{n}.json") for n in names}
        untraced = sum(self.walls[n][0] for n in names)
        overhead = sum(self.walls["traced." + n][0] for n in names) - untraced
        traced_walls = {n: self.walls["traced." + n][0] for n in names}
        m = layer_metrics(summary, traced_walls, len(self.corpus.train))
        report = json.loads(f.run_report.read_text(encoding="utf-8"))
        m.update(
            {
                "esd.model_bytes": f.model_esd.stat().st_size,
                "esc.model_bytes": f.model_esc.stat().st_size,
                "esc.step_ratio": report["ratio"],
                "esc.span_decode_steps": report["span_decode_steps"],
                "esc.full_decode_steps": report["full_decode_steps"],
                "trace.overhead_s": overhead,
                "trace.overhead_share": overhead / untraced,
                "trace.spans": sum(s[3] for s in summary.values()),
            }
        )
        tokens, bigrams = repeat_shares(s for s, _ in self.corpus.test)
        m["esd.repeat_token_share"] = tokens
        m["esd.repeat_bigram_share"] = bigrams
        return {k: {"value": m[k], "unit": u} for k, u in LAYER_UNITS.items() if k in m}


# Per-layer metrics from the traced commands: (command, span name, field,
# unit). "self" is the command's traced wall time less the library calls
# made from `cli` code and the tracer's own wrapping and writing; "s" is the
# inclusive time of the named calls, "calls" their number and "count" the
# work they counted.
LAYERS = {
    "cli.run.self_s": ("run", "cli", "self", "s"),
    "cli.make_data.self_s": ("make_data", "cli", "self", "s"),
    "cli.train_esd.self_s": ("train_esd", "cli", "self", "s"),
    "cli.train_esc.self_s": ("train_esc", "cli", "self", "s"),
    "esd.predict_probs.s": ("run", "esd.predict_probs", "s", "s"),
    "esd.tokens_scored": ("run", "esd.predict_probs", "count", "count"),
    "esd.decode_spans.s": ("run", "esd.decode_spans", "s", "s"),
    "esd.flagged_sentences": ("run", "esd.decode_spans", "count", "count"),
    "esd.fit.s": ("train_esd", "esd.fit", "s", "s"),
    "esd.decision_margins.s": ("train_esd", "esd.decision_margins", "s", "s"),
    "esd.save.s": ("train_esd", "esd.save", "s", "s"),
    "esd.load.s": ("run", "esd.load", "s", "s"),
    "esc.correct.s": ("run", "esc.correct", "s", "s"),
    "esc.lookup.calls": ("run", "esc.lookup", "calls", "count"),
    "esc.spans_corrected": ("run", "esc.correct", "count", "count"),
    "esc.fit.s": ("train_esc", "esc.fit", "s", "s"),
    "esc.save.s": ("train_esc", "esc.save", "s", "s"),
    "esc.load.s": ("run", "esc.load", "s", "s"),
    "annotation.annotate.s": ("run", "annotation.annotate", "s", "s"),
    "annotation.merge_corrections.s": ("run", "annotation.merge_corrections", "s", "s"),
    "annotation.parse_annotation.s": ("train_esc", "annotation.parse_annotation", "s", "s"),
    "alignment.align.calls": ("make_data", "alignment.align", "calls", "count"),
    "alignment.align.s": ("make_data", "alignment.align", "s", "s"),
    "alignment.dp_cells": ("make_data", "alignment.align", "count", "count"),
    "alignment.extract_edits.s": ("make_data", "alignment.extract_edits", "s", "s"),
    "datagen.make_esd_instance.s": ("make_data", "datagen.make_esd_instance", "s", "s"),
    "datagen.make_esc_gold.s": ("make_data", "datagen.make_esc_gold", "s", "s"),
    "datagen.make_esc_sampled.s": ("make_data", "datagen.make_esc_sampled", "s", "s"),
    "datagen.project_replacement.s": ("make_data", "datagen.project_replacement", "s", "s"),
}

# Per-layer figures the benchmark takes from files, the run report and its
# own timings.
LAYER_UNITS = {
    **{k: v[3] for k, v in LAYERS.items()},
    "alignment.align_calls_per_pair": "ratio",
    "esd.model_bytes": "bytes",
    "esc.model_bytes": "bytes",
    "esd.repeat_token_share": "ratio",
    "esd.repeat_bigram_share": "ratio",
    "esc.step_ratio": "ratio",
    "esc.span_decode_steps": "count",
    "esc.full_decode_steps": "count",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "trace.spans": "count",
}


def layer_metrics(summary: dict, walls: dict, n_pairs: int) -> dict:
    out = {}
    for metric, (command, name, field, _) in LAYERS.items():
        totals, library_s, tracer_s, _ = summary[command]
        if field == "self":
            out[metric] = walls[command] - library_s - tracer_s
        else:
            out[metric] = totals.get(name, {}).get(field, 0)
    out["alignment.align_calls_per_pair"] = out["alignment.align.calls"] / n_pairs
    return out


def repeat_shares(sentences) -> tuple[float, float]:
    """Shares of token and left-bigram occurrences already seen earlier in
    the input: the ceiling on a per-token or per-bigram cache's hit rate."""
    seen_tok, seen_big = set(), set()
    n = tok_hits = big_hits = 0
    for sent in sentences:
        prev = None
        for tok in sent:
            n += 1
            tok_hits += tok in seen_tok
            big_hits += (prev, tok) in seen_big
            seen_tok.add(tok)
            seen_big.add((prev, tok))
            prev = tok
    return tok_hits / n, big_hits / n


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    bench = Bench(corpora.WORKLOADS[name], seed, seconds)
    bench.prepare()
    metrics = bench.trace() if trace else bench.measure()
    for problem in bench.problems:
        print(f"{name}: FAILED {problem}", file=sys.stderr)
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*corpora.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "spangec" / "cli.py").is_file():
        print(f"bench: no program to measure at {SRC / 'spangec'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the round-trip check loads models in-process
    names = list(corpora.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        results[name] = result
        for metric, m in result["metrics"].items():
            print(f"{name:9s} {metric:32s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:9s} operations attempted {result['attempted']}, failed {result['failed']}")
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
