"""Young diagrams, superdiagrams and the label conversions.

The sl(m|n) labels follow from a diagram's reduced column lengths.  A
type-II osp(M|2n) diagram is read off the highest weight that
:func:`super_branch.kac_weight` gives: its rows are the delta coordinates
and its columns 1 + the epsilon coordinates.
"""

from __future__ import annotations

from fractions import Fraction

from . import InputError
from .lie_core import Record, fr
from .super_branch import build_super, kac_weight


class IllegalDiagramError(InputError, ValueError):
    """Diagram shape not allowed for the requested algebra."""


class YoungDiagram(Record):
    """Ordinary Young diagram given by its row lengths."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple):
        ints = tuple(int(r) for r in rows)
        if ints != tuple(rows):
            raise IllegalDiagramError(f"rows must be integers: {rows}")
        if any(r <= 0 for r in ints):
            raise IllegalDiagramError(f"rows must be positive: {ints}")
        if any(ints[i] < ints[i + 1] for i in range(len(ints) - 1)):
            raise IllegalDiagramError(f"rows must be non-increasing: {ints}")
        self.rows = ints

    def columns(self) -> tuple:
        if not self.rows:
            return ()
        return tuple(sum(1 for r in self.rows if r >= j)
                     for j in range(1, self.rows[0] + 1))


def step(x) -> int:
    """Step function: 1 for positive arguments, 0 otherwise."""
    return 1 if x > 0 else 0


class YoungSuperDiagram(Record):
    """Superdiagram with row and column lengths (possibly half-integral).

    Half-integral column lengths mark spinor ("half") boxes; these occur
    only in the orthosymplectic shapes.
    """

    __slots__ = ("rows", "cols")

    def __init__(self, rows: tuple, cols: tuple):
        rows = tuple(fr(r) for r in rows)
        cols = tuple(fr(c) for c in cols)
        for seq in (rows, cols):
            if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
                raise IllegalDiagramError(f"lengths must be non-increasing: {seq}")
            if any(x <= 0 for x in seq):
                raise IllegalDiagramError(f"lengths must be positive: {seq}")
        self.rows = rows
        self.cols = cols

    @property
    def spinor_row(self) -> bool:
        return any(c.denominator == 2 for c in self.cols)

    def row(self, i: int):
        return self.rows[i - 1] if 1 <= i <= len(self.rows) else Fraction(0)

    def col(self, j: int):
        return self.cols[j - 1] if 1 <= j <= len(self.cols) else Fraction(0)


def sl_superdiagram(rows) -> YoungSuperDiagram:
    """Superdiagram of sl type from integer row lengths (columns derived)."""
    d = YoungDiagram(tuple(rows))
    return YoungSuperDiagram(tuple(Fraction(r) for r in d.rows),
                             tuple(Fraction(c) for c in d.columns()))


def sl_super_labels_from_diagram(d: YoungSuperDiagram, m: int, n: int) -> tuple:
    """Kac-Dynkin labels of the sl(m|n) irrep described by ``d``.

    Uses the reduced column lengths c'_j = (c_j - m) * step(c_j - m); the
    diagram is allowed exactly when b_{m+1} <= n.
    """
    if d.spinor_row:
        raise IllegalDiagramError("sl superdiagrams carry no spinor boxes")
    if d.row(m + 1) > n:
        raise IllegalDiagramError(
            f"b_{m + 1} = {d.row(m + 1)} exceeds {n}: not an sl({m}|{n}) shape")
    cp = [(d.col(j) - m) * step(d.col(j) - m) for j in range(1, n + 1)]
    labels = [d.row(i) - d.row(i + 1) for i in range(1, m)]
    labels.append(d.row(m) + cp[0])
    labels += [cp[j - 1] - cp[j] for j in range(1, n)]
    return tuple(labels)


def osp_superdiagram_from_labels(kind: str, labels) -> YoungSuperDiagram:
    """Superdiagram of a type-II orthosymplectic irrep: rows are the delta
    coordinates of its highest weight, columns 1 + the epsilon coordinates."""
    sa = build_super(kind)
    if sa.deltas is None:
        raise IllegalDiagramError(f"{sa.name} has no type-II superdiagram")
    w = kac_weight(sa, labels)
    return YoungSuperDiagram(w[:sa.deltas], tuple(1 + x for x in w[sa.deltas:]))


def render_diagram(d) -> str:
    """Plain-text grid: '#' per box, 's' for half boxes, rows top to bottom."""
    if isinstance(d, YoungDiagram):
        return "\n".join("#" * r for r in d.rows)
    lines = ["#" * int(r) for r in d.rows]
    # Boxes below the explicit rows live in the columns; render full rows of
    # '#' until only half boxes remain, then one row of 's'.
    depth = len(d.rows)
    while any(c - depth >= 1 for c in d.cols):
        lines.append("#" * sum(c - depth >= 1 for c in d.cols))
        depth += 1
    lines.append("s" * sum(c - depth == Fraction(1, 2) for c in d.cols))
    return "\n".join(line for line in lines if line)
