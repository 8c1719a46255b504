"""Young diagrams, superdiagrams and the explicit label conversions.

Only the conversions with a closed form are implemented: the sl(m|n) rule
via reduced column lengths, and the two orthosymplectic instances osp(4|2)
and osp(5|2) that the branching catalog needs.  General orthosymplectic
diagram/label conversion is out of scope.
"""

from __future__ import annotations

from fractions import Fraction

from . import InputError
from .lie_core import Record, fr


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
    """Superdiagram for the two orthosymplectic cases stated explicitly.

    osp(4|2): b1 = l1 - (l2 + l3)/2, c1 = 1 + (l3 + l2)/2, c2 = 1 + (l3 - l2)/2.
    osp(5|2): b1 = l1 - l2 - l3/2,  c1 = 1 + l2 + l3/2,  c2 = 1 + l3/2.
    """
    labels = tuple(fr(x) for x in labels)
    if len(labels) != 3:
        raise IllegalDiagramError(f"{kind} takes 3 labels, got {len(labels)}")
    l1, l2, l3 = labels
    if kind == "osp(4|2)":
        b1 = l1 - (l2 + l3) / 2
        c1 = 1 + (l3 + l2) / 2
        c2 = 1 + (l3 - l2) / 2
    elif kind == "osp(5|2)":
        b1 = l1 - l2 - l3 / 2
        c1 = 1 + l2 + l3 / 2
        c2 = 1 + l3 / 2
    else:
        raise IllegalDiagramError(
            f"no diagram rule registered for {kind!r} (only osp(4|2), osp(5|2))")
    return YoungSuperDiagram((b1,), (c1, c2))


def render_diagram(d) -> str:
    """Plain-text grid: '#' per box, 's' for half boxes, rows top to bottom."""
    if isinstance(d, YoungDiagram):
        return "\n".join("#" * r for r in d.rows)
    lines = []
    nrows = len(d.rows)
    for i in range(1, nrows + 1):
        width = int(d.row(i))
        lines.append("#" * width)
    # Boxes below the explicit rows live in the columns; render full rows of
    # '#' until only half boxes remain, then one row of 's'.
    depth = nrows
    while True:
        full = [j for j in range(1, len(d.cols) + 1) if d.col(j) - depth >= 1]
        half = [j for j in range(1, len(d.cols) + 1) if d.col(j) - depth == Fraction(1, 2)]
        if full:
            lines.append("#" * len(full))
            depth += 1
            continue
        if half:
            lines.append("s" * len(half))
        break
    return "\n".join(line for line in lines if line)
