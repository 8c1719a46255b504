import itertools
from fractions import Fraction

import pytest

from codonbranch.lie_core import InvalidLabelsError
from codonbranch.super_branch import _sl_labels
from codonbranch.young_forms import (
    IllegalDiagramError,
    YoungDiagram,
    YoungSuperDiagram,
    osp_superdiagram_from_labels,
    render_diagram,
    sl_superdiagram,
)


@pytest.mark.parametrize("rows", [(2.5, 1), (Fraction(5, 2),), (3, 1.5)])
def test_non_integral_rows_are_rejected(rows):
    with pytest.raises(IllegalDiagramError):
        YoungDiagram(rows)
    with pytest.raises(IllegalDiagramError):
        sl_superdiagram(rows)


def test_sl_super_labels_examples():
    assert _sl_labels((3, 2, 1), 3, 1) == (1, 1, 1)
    assert _sl_labels((3, 2, 1), 2, 2) == (1, 3, 1)
    assert _sl_labels((4,), 2, 2) == (4, 0, 0)
    assert _sl_labels((2, 2, 2, 1), 4, 1) == (0, 0, 1, 1)  # the sl(4|1) alias


def test_sl_super_legality():
    # b_{m+1} must not exceed n
    with pytest.raises(InvalidLabelsError, match="b_3 = 3 exceeds 2"):
        _sl_labels((3, 3, 3), 2, 2)


@pytest.mark.parametrize("rows,m,n,labels", [
    ((16, 1), 2, 1, (15, 1)),
    ((3, 2, 1), 3, 1, (1, 1, 1)),
    ((2, 1, 1, 1), 4, 1, (1, 0, 0, 1)),
    ((1, 1, 1, 1, 1, 1), 6, 1, (0, 0, 0, 0, 0, 1)),
    ((5, 2), 2, 2, (3, 2, 0)),
    ((3, 2, 1), 2, 2, (1, 3, 1)),
    ((2, 2, 2), 3, 2, (0, 0, 2, 0)),
])
def test_catalog_superdiagrams_reproduce_their_labels(rows, m, n, labels):
    # The labels that the paper prints, from the rows alone.
    got = _sl_labels(rows, m, n)
    assert got == labels and all(type(x) is Fraction for x in got)


def _partitions(total, max_part=None, max_len=8):
    max_part = max_part or total
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first, max_len - 1):
            if len(rest) < max_len:
                yield (first,) + rest


def test_every_legal_superdiagram_gives_wellformed_labels():
    for boxes in range(1, 9):
        for rows in _partitions(boxes):
            for m, n in ((2, 1), (3, 1), (4, 1), (6, 1), (2, 2), (3, 2)):
                if len(rows) > m and rows[m] > n:
                    with pytest.raises(InvalidLabelsError, match="not an sl"):
                        _sl_labels(rows, m, n)
                    continue
                labels = _sl_labels(rows, m, n)
                even = labels[:m - 1] + labels[m:]
                assert all(l.denominator == 1 and l >= 0 for l in even)


def test_osp_superdiagram_cases():
    d42 = osp_superdiagram_from_labels("osp(4|2)", (Fraction(7, 2), 0, 1))
    assert d42.rows == (3,) and d42.cols == (Fraction(3, 2), Fraction(3, 2))
    d52 = osp_superdiagram_from_labels("osp(5|2)", (Fraction(5, 2), 0, 1))
    assert d52.rows == (2,) and d52.cols == (Fraction(3, 2), Fraction(3, 2))
    plain = osp_superdiagram_from_labels("osp(4|2)", (5, 0, 0))
    assert plain.rows == (5,) and plain.cols == (1, 1)


def test_osp_superdiagram_errors():
    with pytest.raises(InvalidLabelsError, match="takes 3 labels, got 2"):
        osp_superdiagram_from_labels("osp(5|2)", (1, 2))
    for kind, labels in (("sl(2|1)", (15, 1)), ("osp(2|4)", (1, 1, 0))):  # type I
        with pytest.raises(IllegalDiagramError, match="no type-II superdiagram"):
            osp_superdiagram_from_labels(kind, labels)
    with pytest.raises(IllegalDiagramError, match="positive"):  # an empty row
        osp_superdiagram_from_labels("osp(4|2)", (0, 0, 0))


def test_osp_superdiagram_of_the_other_type_ii_entries():
    d34 = osp_superdiagram_from_labels("osp(3|4)", (0, Fraction(5, 2), 3))
    assert d34.rows == (1, 1) and d34.cols == (Fraction(5, 2),)
    assert render_diagram(d34) == "#\n#\ns"
    d32 = osp_superdiagram_from_labels("osp(3|2)", (Fraction(17, 2), 15))
    assert d32.rows == (1,) and d32.cols == (Fraction(17, 2),)
    assert render_diagram(d32) == "#\n" * 8 + "s"


def _closed_form(kind, labels):
    # The osp(4|2) and osp(5|2) diagrams in closed form, as a reference.
    l1, l2, l3 = labels
    if kind == "osp(4|2)":
        return YoungSuperDiagram((l1 - (l2 + l3) / 2,), (1 + (l3 + l2) / 2, 1 + (l3 - l2) / 2))
    return YoungSuperDiagram((l1 - l2 - l3 / 2,), (1 + l2 + l3 / 2, 1 + l3 / 2))


@pytest.mark.parametrize("kind,legal", [("osp(4|2)", 776), ("osp(5|2)", 637)])
def test_osp_superdiagram_agrees_with_the_closed_forms(kind, legal):
    # Every label set in {0, 1/2, ..., 6}^3: the same diagram, or both reject.
    box = [Fraction(k, 2) for k in range(13)]
    drawn = 0
    for labels in itertools.product(box, repeat=3):
        try:
            want = _closed_form(kind, labels)
        except IllegalDiagramError:
            with pytest.raises(IllegalDiagramError):
                osp_superdiagram_from_labels(kind, labels)
            continue
        assert osp_superdiagram_from_labels(kind, labels) == want, labels
        drawn += 1
    assert drawn == legal  # of 13^3 = 2,197


def test_render_grid():
    assert render_diagram(YoungDiagram((3, 1))) == "###\n#"
    d42 = osp_superdiagram_from_labels("osp(4|2)", (Fraction(7, 2), 0, 1))
    assert render_diagram(d42) == "###\nss"
    d52 = osp_superdiagram_from_labels("osp(5|2)", (Fraction(5, 2), 0, 1))
    assert render_diagram(d52) == "##\nss"
    assert render_diagram(osp_superdiagram_from_labels("osp(4|2)", (5, 0, 0))) \
        == "#####"


def test_superdiagram_rows_columns_consistency():
    with pytest.raises(IllegalDiagramError):
        YoungSuperDiagram((2, 3), (1,))
    with pytest.raises(IllegalDiagramError):
        YoungDiagram((0,))
