"""Token alignment by edit-distance dynamic programming and edit-span extraction.

Sentences are plain tuples of token strings. Alignment uses unit costs for
substitution, insertion and deletion (0 for a match), with a fixed backtrace
preference so the returned path is canonical across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import OverlapError

TokenSeq = tuple[str, ...]

MATCH = "match"
SUBST = "subst"
INSERT = "insert"
DELETE = "delete"


def tokenize(text: str) -> TokenSeq:
    """Split text on unicode whitespace. Empty input gives an empty sequence."""
    return tuple(text.split())


def detokenize(tokens: Sequence[str]) -> str:
    return " ".join(tokens)


@dataclass(frozen=True)
class AlignOp:
    """One step of an alignment path.

    MATCH/SUBST carry both indices, INSERT only tgt_index, DELETE only
    src_index.
    """

    kind: str
    src_index: Optional[int] = None
    tgt_index: Optional[int] = None


@dataclass(frozen=True)
class AlignmentPath:
    """A minimal-cost edit script between two token sequences."""

    source: TokenSeq
    target: TokenSeq
    ops: tuple[AlignOp, ...]
    cost: int


@dataclass(frozen=True)
class EditSpan:
    """A contiguous source range [src_start, src_end) and its replacement.

    replacement is None for spans produced by a detector at inference time,
    where the corrected text is not yet known.
    """

    src_start: int
    src_end: int
    replacement: Optional[TokenSeq] = None

    def __post_init__(self):
        if not (0 <= self.src_start < self.src_end):
            raise ValueError(
                f"invalid span bounds [{self.src_start}, {self.src_end})"
            )


def validate_spans(spans: Sequence[EditSpan], source_len: int) -> None:
    """Raise OverlapError unless spans are sorted, disjoint and in range."""
    prev_end = 0
    for span in spans:
        if span.src_start < prev_end:
            raise OverlapError(
                f"span [{span.src_start},{span.src_end}) overlaps or is out of order"
            )
        if span.src_end > source_len:
            raise OverlapError(
                f"span [{span.src_start},{span.src_end}) exceeds source length {source_len}"
            )
        prev_end = span.src_end


def align(source: Sequence[str], target: Sequence[str]) -> AlignmentPath:
    """Minimal-cost token alignment under unit edit costs.

    The backtrace prefers DELETE over INSERT over SUBST over MATCH at equal
    cost, walking backward from the end, which makes the path deterministic.
    """
    src = tuple(source)
    tgt = tuple(target)
    n, m = len(src), len(tgt)

    dist = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        dist[i][0] = i
    for j in range(1, m + 1):
        dist[0][j] = j
    for i in range(1, n + 1):
        row = dist[i]
        prev = dist[i - 1]
        s_tok = src[i - 1]
        for j in range(1, m + 1):
            sub = prev[j - 1] + (0 if s_tok == tgt[j - 1] else 1)
            dele = prev[j] + 1
            ins = row[j - 1] + 1
            row[j] = sub if sub <= dele else dele
            if ins < row[j]:
                row[j] = ins

    ops: list[AlignOp] = []
    i, j = n, m
    while i > 0 or j > 0:
        here = dist[i][j]
        if i > 0 and dist[i - 1][j] + 1 == here:
            i -= 1
            ops.append(AlignOp(DELETE, src_index=i))
        elif j > 0 and dist[i][j - 1] + 1 == here:
            j -= 1
            ops.append(AlignOp(INSERT, tgt_index=j))
        elif i > 0 and j > 0 and src[i - 1] != tgt[j - 1]:
            i -= 1
            j -= 1
            ops.append(AlignOp(SUBST, src_index=i, tgt_index=j))
        else:
            i -= 1
            j -= 1
            ops.append(AlignOp(MATCH, src_index=i, tgt_index=j))
    ops.reverse()
    return AlignmentPath(source=src, target=tgt, ops=tuple(ops), cost=dist[n][m])


def extract_edits(path: AlignmentPath) -> list[EditSpan]:
    """Turn maximal runs of non-MATCH ops into edit spans.

    A run that only inserts is anchored to the source token just before the
    insertion point (or the following token when inserting at position 0),
    so every span encloses at least one real source token.
    """
    spans: list[EditSpan] = []
    run: list[AlignOp] = []

    def flush(run: list[AlignOp], point: int) -> None:
        """point is the number of source tokens consumed before the run."""
        if not run:
            return
        src_indices = [op.src_index for op in run if op.src_index is not None]
        tgt_tokens = [
            path.target[op.tgt_index] for op in run if op.tgt_index is not None
        ]
        if src_indices:
            spans.append(
                EditSpan(src_indices[0], src_indices[-1] + 1, tuple(tgt_tokens))
            )
            return
        # Pure insertion: anchor it to a source token beside the point.
        if not path.source:
            raise ValueError("cannot anchor an insertion in an empty source")
        if point > 0:
            anchor = point - 1
            if spans and spans[-1].src_end > anchor:
                # The anchor token is already claimed: insertions sit on both
                # sides of a single matched token (e.g. [b] -> [a, b, a]).
                # Extend the previous span instead of emitting an overlap.
                prev = spans[-1]
                spans[-1] = EditSpan(
                    prev.src_start, point, prev.replacement + tuple(tgt_tokens)
                )
                return
            repl = (path.source[anchor],) + tuple(tgt_tokens)
            spans.append(EditSpan(anchor, point, repl))
        else:
            repl = tuple(tgt_tokens) + (path.source[0],)
            spans.append(EditSpan(0, 1, repl))

    point = 0
    for op in path.ops:
        if op.kind == MATCH:
            flush(run, point)
            run = []
        else:
            run.append(op)
        if op.src_index is not None:
            point = op.src_index + 1
    flush(run, point)
    return spans


def merge_edits(
    spans: Sequence[EditSpan],
    max_gap: int,
    source: Optional[Sequence[str]] = None,
) -> list[EditSpan]:
    """Fuse consecutive spans separated by at most max_gap unedited tokens.

    The fused replacement re-inserts the skipped source tokens, so source is
    required whenever the spans carry replacements. max_gap=0 still fuses
    adjacent spans, where one ends at the next one's start; extract_edits can
    emit such spans, e.g. [0,1) and [1,2) for a b c -> x b y c.
    """
    if max_gap < 0:
        raise ValueError("max_gap must be non-negative")
    if not spans:
        return []
    merged = [spans[0]]
    for span in spans[1:]:
        prev = merged[-1]
        if span.src_start - prev.src_end <= max_gap:
            if prev.replacement is None and span.replacement is None:
                repl: Optional[TokenSeq] = None
            elif prev.replacement is not None and span.replacement is not None:
                if source is None:
                    raise ValueError("source required to merge spans with replacements")
                gap = tuple(source[prev.src_end : span.src_start])
                repl = prev.replacement + gap + span.replacement
            else:
                raise ValueError("cannot merge spans with and without replacements")
            merged[-1] = EditSpan(prev.src_start, span.src_end, repl)
        else:
            merged.append(span)
    return merged


def apply_spans(source: Sequence[str], spans: Iterable[EditSpan]) -> TokenSeq:
    """Replace each span's source tokens by its replacement, left to right."""
    src = tuple(source)
    out: list[str] = []
    cursor = 0
    for span in spans:
        if span.replacement is None:
            raise ValueError("cannot apply a span without a replacement")
        if span.src_start < cursor:
            raise OverlapError("spans overlap or are unsorted")
        out.extend(src[cursor : span.src_start])
        out.extend(span.replacement)
        cursor = span.src_end
    out.extend(src[cursor:])
    return tuple(out)
