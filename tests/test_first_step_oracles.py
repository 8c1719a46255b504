"""The catalog and the type-I first steps, derived without the code they check.

``CATALOG`` types each entry's highest weight once and no aliases; here the
scan of :func:`oracles.type_ii_label_sets` and the closed-form count of
:func:`oracles.type_i_even_labels` find every 64-dimensional typical label
set of the supported algebras, and the aliases are what they find beside the
catalog's own label sets.

The first step of every type-I label set is computed two more ways: the
hook Schur-function rule from each sl entry's superdiagram rows, and the
Kac-module product Lambda(g_-1) (x) L0(lambda), for osp(2|4), osp(2|6) and
every other type-I label set, the two sl aliases included (sl(2|2)
(0,2,3) has no superdiagram: the label rule would need b_2 = -1).  Neither
uses the signed subset expansion or the even Weyl walk of
``branch_to_even``.  The type-II entries have no such rule: their odd part
is one irreducible g0-module with no grading g_-1 + g0 + g_1, so a typical
irrep is no exterior algebra times its top component; their first step stays
checked by the golden tables 1-3 and by the scan below.  Last, Kac's
dimension formula on root data built here shows that osp(6|2) = D(3,1),
which the catalog leaves out, has no typical 64-dimensional irrep.
"""

import math
import operator

import pytest

from codonbranch.super_branch import CATALOG, branch_to_even, build_super, render_hw

from oracles import (
    catalog_aliases,
    even_labels,
    hook_branching,
    kac_module_branching,
    type_i_even_labels,
    type_ii_label_sets,
)

ALGEBRAS = ("sl(2|1)", "sl(3|1)", "sl(4|1)", "sl(6|1)", "sl(2|2)", "sl(3|2)",
            "osp(2|4)", "osp(2|6)", "osp(3|2)", "osp(3|4)", "osp(4|2)", "osp(5|2)")
TYPE_I = [e for e in CATALOG if not e.build().deltas]


def _branching(sa, labels) -> dict:
    return {e.labels: e.mult for e in branch_to_even(sa, labels)}


def test_every_supported_algebra_has_a_catalog_entry():
    assert {e.algebra for e in CATALOG} == set(ALGEBRAS)
    for kind in ALGEBRAS:
        build_super(kind)


def test_a_key_is_its_algebra_or_names_its_labels():
    # Where an algebra has two entries, the key spells the derived labels.
    for e in CATALOG:
        twins = sum(f.algebra == e.algebra for f in CATALOG)
        assert e.key == (e.algebra if twins == 1 else f"{e.algebra}({render_hw(e.labels)})")


@pytest.mark.parametrize("kind", [k for k in ALGEBRAS if build_super(k).deltas])
def test_the_type_ii_scan_finds_the_catalog_and_its_aliases(kind):
    entries = [e.labels for e in CATALOG if e.algebra == kind]
    groups = type_ii_label_sets(kind)
    # Each group of equivalent label sets holds exactly one catalog entry.
    assert sorted(sum(labels in g for labels in entries) for g in groups) == [1] * len(groups)
    assert len(groups) == len(entries)


def test_the_type_ii_scan_finds_nine_label_sets():
    found = [g for kind in ALGEBRAS if build_super(kind).deltas
             for g in type_ii_label_sets(kind)]
    assert sorted(map(len, found)) == [1, 1, 1, 3, 3]


@pytest.mark.parametrize("kind", [k for k in ALGEBRAS if not build_super(k).deltas])
def test_the_type_i_closed_form_count_finds_the_catalog_and_its_aliases(kind):
    sa = build_super(kind)
    found = {even_labels(sa, labels) for e in CATALOG if e.algebra == kind
             for labels in (e.labels, *catalog_aliases(e))}
    assert found == type_i_even_labels(kind)


@pytest.mark.parametrize("entry", [e for e in CATALOG if e.diagram_rows], ids=lambda e: e.key)
def test_the_hook_rule_gives_the_first_step_of_each_sl_entry(entry):
    sa = entry.build()
    m, n = (sum(s == sign for s in sa.form_signs) for sign in (1, -1))
    assert hook_branching(entry.diagram_rows, m, n) == _branching(sa, entry.labels)


@pytest.mark.parametrize("entry,labels", [(e, labels) for e in TYPE_I
                                          for labels in (e.labels, *catalog_aliases(e))],
                         ids=lambda x: getattr(x, "key", None) or ",".join(map(str, x)))
def test_the_kac_module_gives_the_first_step_of_each_type_i_label_set(entry, labels):
    sa = entry.build()
    assert kac_module_branching(sa, labels) == _branching(sa, labels)


def test_osp62_has_no_typical_64_dimensional_irrep():
    """osp(6|2) = D(3,1), on its own root data in coordinates (delta | e1 e2
    e3) with (delta, delta) = -1: even positive roots 2 delta and e_i +- e_j,
    odd positive roots delta +- e_i.  A typical irrep has dimension 2^6 prod
    (lambda + rho, alpha) / (rho0, alpha) over the even positive roots
    (Kac), so 64 needs the product to be 1 in size.  Over weights whose even
    part is dominant integral that forces the e part of lambda + rho to be
    (2, 1, 0) and its delta coordinate +-1: lambda = delta or 3 delta, both
    atypical.  The scan runs on doubled coordinates, in integers."""
    form = (-1, 1, 1, 1)

    def root(*terms):  # the sum of c times coordinate k over (c, k)
        v = [0] * 4
        for c, k in terms:
            v[k] += c
        return tuple(v)

    def dot(u, v):
        return sum(f * x * y for f, x, y in zip(form, u, v))

    even = [root((2, 0))] + [root((1, i), (s, j)) for i in (1, 2, 3)
                             for j in range(i + 1, 4) for s in (1, -1)]
    odd = [root((1, 0), (s, i)) for i in (1, 2, 3) for s in (1, -1)]
    assert len(even) == 7 and len(odd) == 6
    rho0, rho1 = tuple(map(sum, zip(*even))), tuple(map(sum, zip(*odd)))  # doubled
    rho = tuple(map(operator.sub, rho0, rho1))
    assert rho == (-4, 4, 2, 0)  # rho = (-2 | 2, 1, 0)
    den = math.prod(dot(rho0, a) for a in even)

    found = []
    top = 28  # delta coordinates and doubled e coordinates up to top
    for d in range(top + 1):  # the sp(2) label is a whole number
        for e1 in range(top + 1):
            for e2 in range(e1 % 2, e1 + 1, 2):  # all whole or all half
                for e3 in range(-e2, e2 + 1, 2):
                    shifted = tuple(map(operator.add, (2 * d, e1, e2, e3), rho))
                    if abs(math.prod(dot(shifted, a) for a in even)) == abs(den):
                        typical = all(dot(shifted, b) for b in odd)
                        found.append(((d, e1, e2, e3), typical))
    assert found == [((1, 0, 0, 0), False), ((3, 0, 0, 0), False)]
