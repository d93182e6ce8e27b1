"""Token alignment by edit-distance dynamic programming and edit-span extraction.

Sentences are plain tuples of token strings. Alignment uses unit costs for
substitution, insertion and deletion (0 for a match), with a fixed backtrace
preference so the returned path is canonical across runs and platforms.

The DP fills only a band of diagonals around the ones joining the two
corners (Ukkonen 1985). A cell on an optimal path of cost D lies within
(D - |m - n|) / 2 diagonals of that range, so a second pass sized from the
first pass's cost holds every optimal path, and two passes always suffice.
Band values equal full-grid values on optimal paths and are no lower
elsewhere, so the backtrace picks the same path as over the full grid.
"""

from __future__ import annotations

from bisect import bisect_left
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


# Diagonals beyond the corner-to-corner range that the first pass fills.
_START_SLACK = 2


def _band_dist(src: TokenSeq, tgt: TokenSeq, slack: int) -> list[list[int]]:
    """Edit distances from (0, 0) over the cells whose diagonal j - i lies in
    [min(0, m - n) - slack, max(0, m - n) + slack]; other cells read n + m + 1."""
    n, m = len(src), len(tgt)
    lo = min(0, m - n) - slack
    hi = max(0, m - n) + slack
    dist = [[n + m + 1] * (m + 1) for _ in range(n + 1)]
    row = dist[0]
    for j in range(min(m, hi) + 1):
        row[j] = j
    for i in range(1, n + 1):
        row = dist[i]
        prev = dist[i - 1]
        s_tok = src[i - 1]
        j0 = i + lo
        if j0 <= 0:
            row[0] = i
            j0 = 1
        for j in range(j0, min(m, i + hi) + 1):
            sub = prev[j - 1] + (0 if s_tok == tgt[j - 1] else 1)
            dele = prev[j] + 1
            ins = row[j - 1] + 1
            row[j] = sub if sub <= dele else dele
            if ins < row[j]:
                row[j] = ins
    return dist


def align(source: Sequence[str], target: Sequence[str]) -> AlignmentPath:
    """Minimal-cost token alignment under unit edit costs.

    The backtrace prefers DELETE over INSERT over SUBST over MATCH at equal
    cost, walking backward from the end, which makes the path deterministic.
    The first pass fills _START_SLACK diagonals beyond the corner-to-corner
    range. Its cost U bounds the optimal cost, so if U exceeds
    |m - n| + 2 * _START_SLACK, a second pass with ceil((U - |m - n|) / 2)
    diagonals of slack holds every optimal path.
    """
    src = tuple(source)
    tgt = tuple(target)
    n, m = len(src), len(tgt)
    diff = abs(m - n)
    dist = _band_dist(src, tgt, _START_SLACK)
    if dist[n][m] > diff + 2 * _START_SLACK:
        dist = _band_dist(src, tgt, (dist[n][m] - diff + 1) // 2)

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


def _owners(path: AlignmentPath) -> list[int]:
    """The source token that owns each op: MATCH, SUBST and DELETE own their
    src_index; an INSERT is owned by the token before the insertion point,
    or by token 0 when it comes first."""
    owners = []
    owner = 0
    for op in path.ops:
        if op.src_index is not None:
            owner = op.src_index
        owners.append(owner)
    return owners


def _project(
    path: AlignmentPath, owners: list[int], bounds: Iterable[Sequence[int]]
) -> list[TokenSeq]:
    """The target tokens, in path order, of the ops owned by each sorted,
    disjoint [start, end) range; owners never decrease along the path."""
    out = []
    for start, end in bounds:
        ops = path.ops[bisect_left(owners, start) : bisect_left(owners, end)]
        out.append(tuple(path.target[op.tgt_index] for op in ops if op.tgt_index is not None))
    return out


def project_spans(path: AlignmentPath, spans: Sequence[EditSpan]) -> list[TokenSeq]:
    """Target-side projection of each of the sorted, disjoint spans: the
    target tokens, in path order, of the ops its source tokens own. A span
    containing no edits therefore projects to itself."""
    return _project(path, _owners(path), [(s.src_start, s.src_end) for s in spans])


def extract_edits(path: AlignmentPath) -> list[EditSpan]:
    """Turn maximal runs of non-MATCH ops into edit spans.

    A span covers the owners of its run's ops, so a run that only inserts is
    anchored to the token before the insertion point (token 0 at the start)
    and every span encloses at least one real source token. A run whose
    owner is already covered, as in [b] -> [a, b, a], fuses with the span
    before it. Replacements are the spans' projections.
    """
    if not path.source and path.target:
        raise ValueError("cannot anchor an insertion in an empty source")
    owners = _owners(path)
    bounds: list[list[int]] = []
    in_run = False
    for op, owner in zip(path.ops, owners):
        if op.kind == MATCH:
            in_run = False
            continue
        if in_run or (bounds and bounds[-1][1] > owner):
            bounds[-1][1] = owner + 1
        else:
            bounds.append([owner, owner + 1])
        in_run = True
    return [
        EditSpan(start, end, repl)
        for (start, end), repl in zip(bounds, _project(path, owners, bounds))
    ]


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
