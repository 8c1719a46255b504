"""Young diagrams and superdiagrams, and how the catalog draws them.

An sl(m|n) superdiagram is given by the integer rows that the catalog types
(``super_branch`` derives its labels).  A type-II osp(M|2n) diagram is read
off the highest weight that :func:`super_branch.kac_weight` gives: its rows
are the delta coordinates and its columns 1 + the epsilon coordinates.
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
        try:
            rows = tuple(rows)
            ints = tuple(int(r) for r in rows)
        except (TypeError, ValueError, OverflowError):
            ints = None
        if ints is None or ints != rows:
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


class YoungSuperDiagram(Record):
    """Superdiagram with row and column lengths (possibly half-integral).

    Half-integral column lengths mark spinor ("half") boxes; these occur
    only in the orthosymplectic shapes.
    """

    __slots__ = ("rows", "cols")

    def __init__(self, rows: tuple, cols: tuple):
        try:
            rows, cols = tuple(map(fr, rows)), tuple(map(fr, cols))
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            raise IllegalDiagramError(
                f"lengths must be rational numbers: {rows!r}, {cols!r}") from None
        for seq in (rows, cols):
            if any(seq[i] < seq[i + 1] for i in range(len(seq) - 1)):
                raise IllegalDiagramError(f"lengths must be non-increasing: {seq}")
            if any(x <= 0 for x in seq):
                raise IllegalDiagramError(f"lengths must be positive: {seq}")
        self.rows = rows
        self.cols = cols


def sl_superdiagram(rows) -> YoungSuperDiagram:
    """Superdiagram of sl type from integer row lengths (columns derived)."""
    d = YoungDiagram(rows)
    return YoungSuperDiagram(tuple(Fraction(r) for r in d.rows),
                             tuple(Fraction(c) for c in d.columns()))


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
