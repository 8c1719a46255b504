import itertools
import json
import math
import os
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codonbranch import InputError
from codonbranch.cli import main
from codonbranch.lie_core import (
    InvalidLabelsError,
    NotACharacterError,
    _units,
    vadd,
    vdot,
    vsub,
)
from codonbranch.super_branch import (
    CATALOG,
    AtypicalError,
    SuperAlgebra,
    _inverse,
    branch_to_even,
    build_super,
    catalog_entry,
    drop_abelian_charges,
    is_typical,
    kac_labels,
    kac_weight,
    typical_dimension,
)

from oracles import integer_weyl_walk, is_typical_reference, weyl_walk

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "codonbranch", "data")

ODD_COUNTS = {"sl(2|1)": 2, "sl(3|1)": 3, "sl(4|1)": 4, "sl(6|1)": 6,
              "sl(2|2)": 4, "sl(3|2)": 6, "osp(2|4)": 4, "osp(2|6)": 6,
              "osp(3|2)": 3, "osp(3|4)": 6, "osp(5|2)": 5, "osp(4|2)": 4}


@pytest.mark.parametrize("kind,count", sorted(ODD_COUNTS.items()))
def test_odd_positive_root_counts(kind, count):
    sa = build_super(kind)
    assert len(sa.odd_positive_roots) == count


def test_even_parts():
    assert build_super("osp(5|2)").factor_names == ("sp(2)", "so(5)")
    assert build_super("osp(4|2)").factor_names == ("sp(2)", "sl(2)", "sl(2)")
    assert build_super("sl(2|1)").factor_names == ("sl(2)",)
    assert build_super("osp(3|4)").factor_names == ("sp(4)", "so(3)")
    sa = build_super("osp(5|2)")
    assert sa.even_algebra.factors is sa.factor_systems


@pytest.mark.parametrize("kind", sorted(ODD_COUNTS))
def test_rho_identity(kind):
    sa = build_super(kind)
    assert sa.rho == vsub(sa.rho0, sa.rho1)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.key)
def test_kac_label_round_trip(entry):
    sa = entry.build()
    assert kac_labels(sa, kac_weight(sa, entry.labels)) == entry.labels


def test_is_typical_catalog_and_counterexample():
    sa = build_super("osp(5|2)")
    assert is_typical(sa, (Fraction(5, 2), 0, 1))
    sl21 = build_super("sl(2|1)")
    assert is_typical(sl21, (15, 1))
    # direct inner-product scan over the odd roots
    lam_rho = vadd(kac_weight(sl21, (15, 0)), sl21.rho)
    products = [sl21.sdot(lam_rho, b) for b in sl21.odd_positive_roots]
    assert any(p == 0 for p in products)
    assert not is_typical(sl21, (15, 0))


def test_atypical_dimension_raises():
    with pytest.raises(AtypicalError):
        typical_dimension(build_super("sl(2|1)"), (15, 0))


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.key)
def test_typical_dimension_is_64(entry):
    assert typical_dimension(entry.build(), entry.labels) == 64


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.key)
def test_alias_weights_are_typical_dim_64(entry):
    sa = entry.build()
    for alias in entry.aliases:
        assert is_typical(sa, alias)
        assert typical_dimension(sa, alias) == 64


def _branch_map(sa, labels):
    return {e.labels: (e.mult, e.dim(sa)) for e in branch_to_even(sa, labels)}


def _golden_rows():
    rows = {}
    for t in (1, 2, 3):
        with open(os.path.join(DATA, f"table{t}.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
        for row in doc["rows"]:
            rows[(row["algebra"], row["highest_weight"])] = row["entries"]
    return rows


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.key)
def test_first_step_branching_matches_golden_tables(entry):
    from codonbranch.tables import render_hw, render_labels
    sa = entry.build()
    got = sorted((render_labels(e.labels), e.mult, e.dim(sa))
                 for e in branch_to_even(sa, entry.labels))
    golden = _golden_rows()[(entry.algebra, render_hw(entry.labels))]
    want = sorted((e["labels"], e["mult"], e["dim"]) for e in golden)
    assert got == want


def test_charge_drop_merges_sl61_trivials():
    entry = catalog_entry("sl(6|1)")
    sa = entry.build()
    pre = branch_to_even(sa, entry.labels, drop_charges=False)
    trivial_pre = [e for e in pre if e.labels == ((0, 0, 0, 0, 0),)]
    assert len(trivial_pre) == 2 and all(e.mult == 1 for e in trivial_pre)
    assert len({e.weight for e in trivial_pre}) == 2  # distinct charges
    post = drop_abelian_charges(sa, pre)
    trivial_post = [e for e in post if e.labels == ((0, 0, 0, 0, 0),)]
    assert len(trivial_post) == 1 and trivial_post[0].mult == 2


def test_charge_drop_merges_sl31_pair():
    entry = catalog_entry("sl(3|1)")
    sa = entry.build()
    pre = branch_to_even(sa, entry.labels, drop_charges=False)
    pair = [e for e in pre if e.labels == ((1, 1),)]
    assert len(pair) == 2
    post = drop_abelian_charges(sa, pre)
    assert {e.mult for e in post if e.labels == ((1, 1),)} == {2}


def test_charge_drop_is_identity_for_type_two():
    entry = catalog_entry("osp(5|2)")
    sa = entry.build()
    pre = branch_to_even(sa, entry.labels, drop_charges=False)
    post = drop_abelian_charges(sa, pre)
    assert [(e.labels, e.mult) for e in post] == [(e.labels, e.mult) for e in pre]


def test_total_dimension_preserved_by_charge_drop():
    for entry in CATALOG:
        sa = entry.build()
        pre = branch_to_even(sa, entry.labels, drop_charges=False)
        post = drop_abelian_charges(sa, pre)
        assert sum(e.mult * e.dim(sa) for e in pre) == \
            sum(e.mult * e.dim(sa) for e in post) == 64


def _dim_stats(sa, labels):
    stats = {}
    for e in branch_to_even(sa, labels):
        stats[e.dim(sa)] = stats.get(e.dim(sa), 0) + e.mult
    return stats


def test_conjugate_alias_sl41_is_factorwise_conjugate():
    entry = catalog_entry("sl(4|1)")
    sa = entry.build()
    base = _branch_map(sa, entry.labels)
    (alias,) = entry.aliases
    conj = {tuple(rs.conjugate(lab) for rs, lab in
                  zip(sa.factor_systems, labels)): v
            for labels, v in base.items()}
    assert _branch_map(sa, alias) == conj


def test_conjugate_alias_sl22_swaps_the_two_sl2_factors():
    # conjugation of sl(2|2) acts through the diagram automorphism that
    # exchanges the two even sl(2) blocks; sl(2) labels are self-conjugate
    entry = catalog_entry("sl(2|2)(3,2,0)")
    sa = entry.build()
    base = _branch_map(sa, entry.labels)
    (alias,) = entry.aliases
    swapped = {(labels[1], labels[0]): v for labels, v in base.items()}
    assert _branch_map(sa, alias) == swapped
    assert _dim_stats(sa, alias) == _dim_stats(sa, entry.labels)


def test_osp42_equivalent_weights_share_branchings_up_to_triality():
    import itertools
    for key in ("osp(4|2)(5,0,0)", "osp(4|2)(7/2,0,1)"):
        entry = catalog_entry(key)
        sa = entry.build()
        base = _branch_map(sa, entry.labels)
        for alias in entry.aliases:
            other = _branch_map(sa, alias)
            images = [{tuple(labels[i] for i in perm): v
                       for labels, v in base.items()}
                      for perm in itertools.permutations(range(3))]
            assert other in images
            assert _dim_stats(sa, alias) == _dim_stats(sa, entry.labels)


def test_bad_algebra_names_rejected():
    from codonbranch.lie_core import InvalidLabelsError
    with pytest.raises(InvalidLabelsError):
        build_super("sl(9|4)")
    with pytest.raises(InvalidLabelsError):
        build_super("so(5)")
    for kind in (5, None, ("osp(5|2)",)):  # not a string, named in the message
        with pytest.raises(InvalidLabelsError, match=re.escape(f"algebra name {kind!r}")):
            build_super(kind)


def test_build_super_gives_one_object_per_algebra():
    assert build_super("osp(5 | 2)") is build_super("osp(5|2)")
    assert build_super(" sl(2|1)") is build_super("sl(2|1)")


def test_wrong_label_count_rejected():
    from codonbranch.lie_core import InvalidLabelsError
    with pytest.raises(InvalidLabelsError):
        kac_weight(build_super("osp(5|2)"), (1, 2))


@pytest.mark.parametrize("labels,bad", [
    ("5/2,0,1", "'5/2,0,1'"),  # one string is one label, not read a character at a time
    ((float("nan"), 0, 1), "nan"),
    ((float("inf"), 0, 1), "inf"),
    ((float("-inf"), 0, 1), "-inf"),
    ((True, 0, 1), "True"),  # not read as 1
])
def test_a_label_that_is_not_a_finite_number_is_rejected(labels, bad):
    sa = build_super("osp(5|2)")
    for call in (branch_to_even, is_typical, typical_dimension, kac_weight):
        with pytest.raises(InvalidLabelsError,
                           match=re.escape(f"osp(5|2) label {bad} is not a finite")):
            call(sa, labels)


def _corrupted(kind, odd):
    # The same root-data table with ``odd`` applied to its odd positive roots.
    fields = list(build_super(kind)._key())
    fields[3] = odd(fields[3])
    return SuperAlgebra(*fields)


@pytest.mark.parametrize("key,odd,message", [
    # sl(3|2) without its third odd positive root: a negative multiplicity.
    ("sl(3|2)", lambda odd: odd[:2] + odd[3:], "negative multiplicity"),
    # osp(3|2) with its first odd positive root twice: nothing is left.
    ("osp(3|2)", lambda odd: odd[:1] + odd, "empty even part"),
])
def test_corrupted_root_data_is_an_internal_failure(key, odd, message):
    entry = catalog_entry(key)
    sa = _corrupted(entry.algebra, odd)
    assert branch_to_even(entry.build(), entry.labels)  # the real root data branches
    with pytest.raises(NotACharacterError, match=message) as info:
        branch_to_even(sa, entry.labels)
    assert not isinstance(info.value, InputError)
    assert "root data" in str(info.value)


def test_non_dominant_even_part_rejected_before_expansion():
    # Typical, but the sp(2) label of the Kac weight is -5/2: the input is
    # at fault, not the root data.
    from codonbranch.lie_core import InvalidLabelsError
    sa = build_super("osp(5|2)")
    assert is_typical(sa, (1, 2, 3))
    with pytest.raises(InvalidLabelsError, match=r"sp\(2\) label -5/2"):
        branch_to_even(sa, (1, 2, 3))


@pytest.mark.parametrize("kind", sorted({e.algebra for e in CATALOG}))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_integer_even_weyl_walk_matches_fraction_reflections(kind, data):
    sa = build_super(kind)
    scale = data.draw(st.sampled_from((1, 2)))
    coords = data.draw(st.lists(st.integers(-6, 6), min_size=sa.dim, max_size=sa.dim))
    w = tuple(Fraction(x, scale) for x in coords)
    simples = sum(sa.factor_simples, ())
    rep, sign = weyl_walk(w, simples)
    if any(vdot(rep, a) == 0 for a in simples):
        assert sa.to_dominant_regular(tuple(coords)) is None
    else:
        assert sa.to_dominant_regular(tuple(coords)) == \
            (tuple(int(scale * x) for x in rep), sign)


@pytest.mark.parametrize("kind", sorted(ODD_COUNTS))
def test_even_weyl_walk_matches_the_oracle_on_every_vector_in_a_box(kind):
    # Every integer vector with coordinates in -r..r: the same representative
    # and sign, and None exactly when the oracle's representative lies on a
    # wall.  The box leaves the walls somewhere for every algebra but
    # sl(6|1), whose six sl(6) coordinates would need six distinct values;
    # test_integer_even_weyl_walk_matches_fraction_reflections draws its
    # regular vectors.
    sa = build_super(kind)
    simples = sum(sa.factor_simples, ())
    r = 3 if sa.dim <= 4 else 2 if sa.dim == 5 else 1
    for coords in itertools.product(range(-r, r + 1), repeat=sa.dim):
        rep, sign = integer_weyl_walk(coords, simples)
        wall = any(sum(x * y for x, y in zip(rep, a)) == 0 for a in simples)
        assert sa.to_dominant_regular(coords) == (None if wall else (rep, sign)), coords


def test_charged_branching_matches_pinned_values():
    # Values of the all-Fraction expansion that the integer one replaced.  The
    # CLI and the tables drop the charges, so only this checks the weights.
    with open(os.path.join(os.path.dirname(__file__), "branch_charged.json"),
              encoding="utf-8") as fh:
        want = json.load(fh)
    got = {e.key: [[[list(lab) for lab in b.labels], [str(x) for x in b.weight], b.mult]
                   for b in branch_to_even(e.build(), e.labels, drop_charges=False)]
           for e in CATALOG}
    assert got == want


def test_kac_weight_matches_pinned_values():
    # [algebra, labels, weight] rows: every catalog weight and alias, and 20
    # seeded rational label vectors per supported algebra, taken from the
    # closed-form inverses that the generic elimination replaced.  Pins the
    # sl(m|n) gauge (coordinate m-1 is 0) and each family's coordinates.
    with open(os.path.join(os.path.dirname(__file__), "kac_weight.json"),
              encoding="utf-8") as fh:
        rows = json.load(fh)
    assert len(rows) == 260
    for algebra, labels, weight in rows:
        sa, labels = build_super(algebra), tuple(map(Fraction, labels))
        got = kac_weight(sa, labels)
        assert list(map(str, got)) == weight, (algebra, labels)
        assert kac_labels(sa, got) == labels


def test_the_integer_inverse_divides_out_a_common_factor():
    # Elimination leaves the pivots 2 and 1, but the inverse is integral.
    assert _inverse([[2, 1], [1, 1]], 2) == (((1, -1), (-1, 2)), 1)
    assert _inverse([[2, 0], [0, 4]], 2) == (((2, 0), (0, 1)), 4)
    assert _inverse([[2, 0], [0, 4]], 1) == (((1,), (0,)), 2)


@pytest.mark.parametrize("kind", sorted(ODD_COUNTS))
def test_kac_inverse_is_integral_over_the_least_denominator(kind):
    sa = build_super(kind)
    nodes, d, inv = len(sa.simple_roots), sa.kac_denominator, sa.kac_inverse
    labels = list(zip(*(kac_labels(sa, u) for u in _units(sa.dim))))  # nodes x dim
    assert all(type(x) is int for row in inv for x in row) and type(d) is int
    assert d > 0 and math.gcd(d, *itertools.chain.from_iterable(inv)) == 1
    assert [[sum(labels[i][k] * inv[k][j] for k in range(sa.dim)) for j in range(nodes)]
            for i in range(nodes)] == [[d * (i == j) for j in range(nodes)] for i in range(nodes)]


@pytest.mark.parametrize("kind", sorted(ODD_COUNTS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_is_typical_matches_the_fraction_reference(kind, data):
    sa = build_super(kind)
    n = len(sa.simple_roots)
    twice = data.draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n))
    labels = tuple(Fraction(x, 2) for x in twice)
    assert is_typical(sa, labels) == is_typical_reference(sa, labels)


# The rejection that each condition raises.
FINITE = r"k = \S+ is below its \d+ nonzero ε coordinates?, so no finite-dimensional irrep"
NOT_DOMINANT = r"label \S+ of the even highest weight \(.*\) is not a nonnegative integer$"


@pytest.mark.parametrize("kind,hw", [("osp(4|2)", "3/2,0,1"), ("osp(3|4)", "0,1/2,1"),
                                     ("osp(4|2)", "1,1,1")])
def test_labels_with_an_empty_even_part_are_rejected(kind, hw, capsys):
    # Typical and with a dominant integral even part, but the signed subset
    # expansion would cancel to nothing (or, for 1,1,1, leave a negative
    # multiplicity): Kac's bound rejects them first, as bad input that does
    # not blame the root data (k = 1 below 2 nonzero epsilon coordinates,
    # then k = 0 below 1 twice).
    sa, labels = build_super(kind), tuple(map(Fraction, hw.split(",")))
    assert is_typical(sa, labels)
    with pytest.raises(InvalidLabelsError, match=FINITE):
        branch_to_even(sa, labels)
    with pytest.raises(InvalidLabelsError, match=FINITE):
        typical_dimension(sa, labels)
    assert main(["branch", "--algebra", kind, "--hw", hw]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and re.search(FINITE, captured.err)
    assert "root data" not in captured.err


def test_labels_given_as_an_iterator_are_named_in_the_message():
    # The labels are read once, so a message does not name an exhausted iterator.
    sa = build_super("osp(4|2)")
    with pytest.raises(AtypicalError, match=re.escape("osp(4|2) weight (1, 0, 0) is atypical")):
        branch_to_even(sa, iter((1, 0, 0)))
    with pytest.raises(InvalidLabelsError, match=re.escape("osp(4|2) weight (1, 1, 1): k = 0 ")):
        branch_to_even(sa, iter((1, 1, 1)))
    entry = catalog_entry("osp(5|2)")
    assert branch_to_even(entry.build(), iter(entry.labels)) == \
        branch_to_even(entry.build(), entry.labels)


def _halves(top):
    return [Fraction(k, 2) for k in range(int(2 * top) + 1)]  # 0, 1/2, ..., top


# Each box: its algebra, one label range per Kac-Dynkin node in label order,
# and how many of its label sets branch or are rejected by each condition.
BOXES = [
    pytest.param("osp(4|2)", [_halves(4)] * 3, (14, 36, 215, 464), id="osp(4|2)"),
    pytest.param("osp(3|4)", [_halves(4)] * 3, (57, 18, 180, 474), id="osp(3|4)"),
    pytest.param("osp(4|2)", [_halves(6), range(7), range(7)], (68, 78, 142, 349),
                 id="osp(4|2)-13x7x7"),
    pytest.param("osp(3|4)", [_halves(4), _halves(4), range(7)], (66, 27, 131, 343),
                 id="osp(3|4)-9x9x7"),
    pytest.param("osp(5|2)", [_halves(6), range(5), range(5)], (35, 37, 71, 182),
                 id="osp(5|2)-13x5x5"),
    pytest.param("osp(3|2)", [_halves(Fraction(39, 2))] * 2, (280, 19, 78, 1223),
                 id="osp(3|2)-40x40"),
]

@pytest.mark.parametrize("kind,axes,counts", BOXES)
def test_every_label_set_in_a_box_is_rejected_or_has_a_positive_dimension(kind, axes, counts):
    # Kac's finite-dimensionality condition decides every typical label set
    # whose even part is dominant integral before the expansion: each one
    # branches or fails that condition by name, and none reaches a
    # NotACharacterError (which would propagate and fail the test).
    sa = build_super(kind)
    seen = dict.fromkeys(("branch", "condition", "atypical", "not dominant"), 0)
    for labels in itertools.product(*axes):
        try:
            assert typical_dimension(sa, labels) > 0, labels
            seen["branch"] += 1
        except AtypicalError as exc:
            assert str(exc).endswith("is atypical"), labels
            seen["atypical"] += 1
        except InvalidLabelsError as exc:
            finite = re.search(FINITE, str(exc))
            assert finite or re.search(NOT_DOMINANT, str(exc)), (labels, str(exc))
            seen["condition" if finite else "not dominant"] += 1
    assert tuple(seen.values()) == counts
