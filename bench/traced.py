"""Run one `spangec` CLI command with every public library function traced.

    python3 bench/traced.py SPANS.json <spangec arguments...>

The wrapper patches the public functions and methods of each `spangec`
module, and every name that other modules imported them under, so calls
between modules are traced too. Each call records a span (name, start, end,
parent span, work count) in memory; the spans go to SPANS.json after the
command returns, with the seconds the tracer spent wrapping and writing.
`summarize` turns such a file into per-name totals and the time spent in
library calls made from the CLI module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
from time import perf_counter

# Per-token and per-line helpers whose wrapper would cost as much as the
# call. Their time stays in their caller: tokenizing and marker checks in
# the CLI's reading, token features inside predict_probs.
UNTRACED = {
    "tokenize", "detokenize", "check_no_reserved", "open_marker",
    "close_marker", "token_features", "token_shape", "count_full_decode_steps",
}


def _dp_cells(args, result):
    return (len(args[0]) + 1) * (len(args[1]) + 1)


def _tokens_scored(args, result):
    return len(args[1])


def _flagged(args, result):
    return 1 if result else 0


def _spans_changed(args, result):
    annotated = args[1]
    by_number = dict(result.output.segments)
    return sum(
        1
        for k, span in enumerate(annotated.spans, start=1)
        if by_number.get(k) != annotated.source[span.src_start : span.src_end]
    )


# Work counted at the span, by traced name: what the count means is in
# bench/README.md.
COUNTERS = {
    "alignment.align": _dp_cells,
    "esd.predict_probs": _tokens_scored,
    "esd.decode_spans": _flagged,
    "esc.correct": _spans_changed,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, 0]
            if counter is not None:
                spans[index][4] = counter(args, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions and methods defined in each module of
        the package, then rebind every module-level name that refers to one."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        wrapped = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and name not in UNTRACED:
                    wrapped[obj] = self.wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(short, obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, name, wrapped[obj])

    def _wrap_methods(self, short: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, classmethod):
                setattr(cls, name, classmethod(self.wrap(f"{short}.{name}", attr.__func__)))
            elif inspect.isfunction(attr):
                setattr(cls, name, self.wrap(f"{short}.{name}", attr))

    def dump(self, path: str, wrap_s: float) -> None:
        """Write the spans and the tracer's own time: wrapping plus
        serializing the spans."""
        start = perf_counter()
        text = json.dumps(self.spans)
        tracer_s = wrap_s + perf_counter() - start
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f'{{"tracer_s": {tracer_s!r}, "spans": {text}}}')


def summarize(path) -> tuple[dict, float, float, int]:
    """Totals by span name ({name: {"calls", "s", "count"}}), the seconds
    in library calls made directly from `cli` code, the tracer's own
    seconds, and the number of spans, from a spans file.

    A library call is a span of any module but `cli`; it is made directly
    from `cli` code when it has no parent or its parent is a `cli` span.
    """
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    spans = data["spans"]
    totals: dict = {}
    library_s = 0.0
    for name, start, end, parent, count in spans:
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "count": 0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["count"] += count
        if not name.startswith("cli.") and (parent < 0 or spans[parent][0].startswith("cli.")):
            library_s += end - start
    return totals, library_s, data["tracer_s"], len(spans)


def main(argv: list[str]) -> int:
    import spangec
    from spangec import cli

    tracer = Tracer()
    start = perf_counter()
    tracer.install(spangec)
    wrap_s = perf_counter() - start
    try:
        return cli.main(argv[1:])
    finally:
        tracer.dump(argv[0], wrap_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
