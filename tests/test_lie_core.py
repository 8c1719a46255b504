import copy
import functools
import inspect
import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codonbranch import phase2, search, super_branch, tables, young_forms
from codonbranch.embed_chains import CHAINS, REGISTRY, DistEntry, apply_chain
from codonbranch.lie_core import (
    FormalCharacter,
    InvalidLabelsError,
    NotACharacterError,
    Record,
    RootSystem,
    SemisimpleAlgebra,
    UnknownNameError,
    UnsupportedAlgebraError,
    build_root_system,
    casimir2,
    char_add,
    irrep_character,
    peel,
    sl2,
    vadd,
    vdot,
    vscale,
    vsub,
    weyl_dimension,
)
from oracles import brute_weyl_elements, weyl_quotient_character, weyl_walk

ALL_SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
               ("B", 2), ("C", 2), ("C", 3)]


F = Fraction


@pytest.mark.parametrize("series,rank", ALL_SYSTEMS)
def test_positive_root_counts(series, rank):
    rs = build_root_system(series, rank)
    expected = {"A": rank * (rank + 1) // 2, "B": rank * rank, "C": rank * rank}
    assert len(rs.positive_roots) == expected[series]


@pytest.mark.parametrize("series,rank", ALL_SYSTEMS)
def test_rho_is_sum_of_fundamental_weights(series, rank):
    rs = build_root_system(series, rank)
    acc = (F(0),) * rs.dim
    for w in rs.fundamental_weights:
        acc = vadd(acc, w)
    assert acc == rs.rho0


@pytest.mark.parametrize("series,rank", ALL_SYSTEMS)
def test_weyl_generators_permute_roots(series, rank):
    rs = build_root_system(series, rank)
    all_roots = set(rs.positive_roots) | {vsub((F(0),) * rs.dim, a)
                                          for a in rs.positive_roots}
    for i in range(rs.rank):
        assert {rs.reflect(r, i) for r in all_roots} == all_roots


@pytest.mark.parametrize("series,rank,order", [
    ("A", 1, 2), ("B", 2, 8), ("A", 5, 720), ("C", 2, 8), ("C", 3, 48),
])
def test_weyl_order_against_brute_enumeration(series, rank, order):
    rs = build_root_system(series, rank)
    assert rs.weyl_order == order
    assert len(brute_weyl_elements(rs)) == order


def test_a1_has_one_positive_root():
    rs = sl2()
    assert len(rs.positive_roots) == 1 and rs.weyl_order == 2


def test_unsupported_series():
    with pytest.raises(UnsupportedAlgebraError):
        build_root_system("D", 2)
    with pytest.raises(UnsupportedAlgebraError):
        build_root_system("B", 7)


@pytest.mark.parametrize("series,rank,labels,dim", [
    ("B", 2, (0, 3), 20),        # so(5)
    ("A", 5, (0, 0, 1, 0, 0), 20),
    ("C", 2, (1, 0), 4),
    ("A", 1, (5,), 6),
    ("B", 2, (1, 1), 16),
    ("C", 3, (0, 1, 0), 14),
    ("C", 3, (0, 0, 1), 14),
])
def test_weyl_dimension_values(series, rank, labels, dim):
    assert weyl_dimension(build_root_system(series, rank), labels) == dim


@pytest.mark.parametrize("series,rank", ALL_SYSTEMS)
def test_trivial_rep_dimension(series, rank):
    rs = build_root_system(series, rank)
    assert weyl_dimension(rs, (0,) * rs.rank) == 1


def test_negative_label_rejected():
    with pytest.raises(InvalidLabelsError):
        weyl_dimension(sl2(), (-1,))


def test_sl2_spin1_weight_string():
    ch = irrep_character(sl2(), (2,))
    labels = sorted(2 * w[0] for w, _ in ch.items())
    assert labels == [-2, 0, 2]
    assert all(m == 1 for _, m in ch.items())


def test_characters_are_keyed_by_lattice_vectors():
    rs = build_root_system("B", 2)
    ch = irrep_character(rs, (0, 1))  # the spinor: weights (+-1/2, +-1/2)
    assert ch.scale == 2
    assert set(ch.terms) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert sorted(ch.items()) == [((F(s, 2), F(t, 2)), 1) for s in (-1, 1) for t in (-1, 1)]
    weights = dict(ch.items())
    assert weights[(F(1, 2), F(-1, 2))] == 1
    assert (F(1), F(0)) not in weights
    with pytest.raises(ValueError):
        char_add(ch, FormalCharacter({}))


def test_so5_adjoint16_against_quotient_oracle():
    rs = build_root_system("B", 2)
    ch = irrep_character(rs, (1, 1))
    assert ch.total() == 16
    # zero weight is absent; the inner dominant weight carries multiplicity 2
    weights = dict(ch.items())
    assert (F(0), F(0)) not in weights
    assert weights[(F(1, 2), F(1, 2))] == 2
    assert weights == weyl_quotient_character(rs, (1, 1))


def _oracle_cases():
    """The hand-picked cases, then every other label set in ``range(7)^rank``
    up to a Weyl dimension of 120 (50 for A4; the oracle's 720-element Weyl
    group makes A5 slow, so it keeps its one case).  The hand-picked cases
    come first so that their test ids stay put."""
    cases = [
        ("A", 2, (1, 1)), ("A", 3, (1, 0, 1)), ("B", 2, (0, 3)), ("C", 2, (1, 1)),
        ("A", 5, (0, 0, 1, 0, 0)), ("C", 3, (1, 0, 0)), ("A", 4, (0, 1, 0, 0)),
    ]
    for series, rank, bound in [("A", 1, 120), ("A", 2, 120), ("A", 3, 120), ("B", 2, 120),
                                ("C", 2, 120), ("C", 3, 120), ("A", 4, 50)]:
        rs = build_root_system(series, rank)
        cases += [(series, rank, labels)
                  for labels in itertools.product(range(7), repeat=rank)
                  if weyl_dimension(rs, labels) <= bound
                  and (series, rank, labels) not in cases]
    return cases


@pytest.mark.parametrize("series,rank,labels", _oracle_cases())
def test_freudenthal_matches_quotient_oracle(series, rank, labels):
    rs = build_root_system(series, rank)
    assert dict(irrep_character(rs, labels).items()) == \
        weyl_quotient_character(rs, labels)


def test_peel_irreducible_and_sum():
    a1 = sl2()
    alg = SemisimpleAlgebra((a1,))
    ch = alg.character(((2,),))
    assert peel(alg, ch) == [(((2,),), 1)]
    both = char_add(alg.character(((2,),)), alg.character(((0,),)))
    assert sorted(peel(alg, both)) == [(((0,),), 1), (((2,),), 1)]


def test_peel_rejects_virtual_input():
    alg = SemisimpleAlgebra((sl2(),))
    bad = char_add(alg.character(((2,),)), alg.character(((1,),)), sign=-1)
    with pytest.raises(NotACharacterError):
        peel(alg, bad)


@pytest.mark.parametrize("series,rank,terms", [
    # a lone non-dominant lattice vector: Dynkin label -1
    pytest.param("A", 1, {(-1,): 1}, id="lone-non-dominant"),
    # chi(2) plus the vector -1: chi(2)'s dominant part, but not Weyl-invariant
    pytest.param("A", 1, {(2,): 1, (0,): 1, (-2,): 1, (-1,): 1}, id="not-weyl-invariant"),
    # the A2 lattice vector (1, 0, -1) is 3 w for w = (1/3, 0, -1/3), whose
    # label on e1 - e2 is 1/3: a maximum off the integral weight lattice
    pytest.param("A", 2, {(1, 0, -1): 1}, id="maximum-off-the-integral-lattice"),
])
def test_peel_refuses_what_is_not_a_character(series, rank, terms):
    alg = SemisimpleAlgebra((build_root_system(series, rank),))
    with pytest.raises(NotACharacterError):
        peel(alg, FormalCharacter(terms))


def test_char_add_drops_the_zeros_it_makes():
    ch = SemisimpleAlgebra((sl2(),)).character(((2,),))
    assert char_add(ch, ch, sign=-1).terms == {}
    assert char_add(ch, ch).terms == {w: 2 for w in ch.terms}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([(0,), (1,), (2,), (3,), (4,), (5,)]),
                min_size=1, max_size=5))
def test_peel_recovers_random_sl2_sums(labels):
    alg = SemisimpleAlgebra((sl2(),))
    total = FormalCharacter({})
    expected = {}
    for lab in labels:
        total = char_add(total, alg.character((lab,)))
        expected[(lab,)] = expected.get((lab,), 0) + 1
    assert dict(peel(alg, total)) == expected


@settings(max_examples=25, deadline=None)
@given(st.tuples(st.integers(0, 2), st.integers(0, 2)))
def test_peel_recovers_b2_irreps(labels):
    rs = build_root_system("B", 2)
    alg = SemisimpleAlgebra((rs,))
    out = peel(alg, alg.character((labels,)))
    assert out == [((labels,), 1)]


def test_peel_recovers_random_sums_up_to_dim_20():
    import random
    rng = random.Random(7)
    pools = {
        ("A", 2): [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (3, 0)],
        ("B", 2): [(0, 0), (1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (0, 3)],
        ("C", 2): [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)],
        ("A", 3): [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 0, 1), (2, 0, 0),
                   (0, 0, 2), (1, 1, 0)],
    }
    for _ in range(60):
        series, rank = rng.choice(list(pools))
        alg = SemisimpleAlgebra((build_root_system(series, rank),))
        picks = [rng.choice(pools[(series, rank)]) for _ in range(rng.randint(1, 5))]
        picks = [p for p in picks if alg.dimension((p,)) <= 20]
        if not picks:
            continue
        total = FormalCharacter({})
        expected = {}
        for lab in picks:
            total = char_add(total, alg.character((lab,)))
            expected[(lab,)] = expected.get((lab,), 0) + 1
        assert dict(peel(alg, total)) == expected


@pytest.mark.parametrize("spec", ["A1+A2", "A1+A3", "A2+A2", "A1+A1+A1"])
def test_peel_recovers_random_sums_over_products(spec):
    # Factors with different scales (2, 3 and 4) share one product lattice.
    import random
    rng = random.Random(spec)
    alg = SemisimpleAlgebra(tuple(build_root_system(f[0], int(f[1:])) for f in spec.split("+")))
    pools = [[l for l in itertools.product(range(3), repeat=f.rank)
              if weyl_dimension(f, l) <= 10] for f in alg.factors]
    for _ in range(15):
        total = FormalCharacter({})
        expected = {}
        for _ in range(rng.randint(1, 4)):
            lab = tuple(rng.choice(pool) for pool in pools)
            mult = rng.randint(1, 2)
            for _ in range(mult):
                total = char_add(total, alg.character(lab))
            expected[lab] = expected.get(lab, 0) + mult
        assert dict(peel(alg, total)) == expected


def test_peel_so5_restriction_example():
    # restriction of so(5) (1,1) to sl(2)+sl(2) via explicit projection
    from codonbranch.embed_chains import branch_embedding
    got = dict(branch_embedding("B2>A1+A1", (1, 1)))
    assert got == {((2,), (1,)): 1, ((1,), (2,)): 1, ((1,), (0,)): 1, ((0,), (1,)): 1}


def test_casimir_values():
    assert casimir2(sl2(), (0,)) == 0
    for two_s in range(1, 6):
        s = F(two_s, 2)
        assert casimir2(sl2(), (two_s,)) == s * (s + 1)
    assert casimir2(build_root_system("B", 2), (1, 1)) == F(15, 2)
    assert casimir2(build_root_system("B", 2), (0, 3)) == F(21, 2)
    assert casimir2(build_root_system("B", 2), (0, 1)) == F(5, 2)


@pytest.mark.parametrize("series,rank", ALL_SYSTEMS)
def test_conjugation_preserves_dimension(series, rank):
    rs = build_root_system(series, rank)
    for labels in itertools.product(range(2), repeat=rs.rank):
        assert weyl_dimension(rs, labels) == \
            weyl_dimension(rs, rs.conjugate(labels))


def test_product_algebra_multiplies_factor_dimensions():
    alg = SemisimpleAlgebra((build_root_system("A", 1),) * 2)
    assert len(alg.factors) == 2
    assert alg.dimension(((1,), (1,))) == 4


@pytest.mark.parametrize("labels", [((2,),), ((2,), (1, 0), (3,))])
def test_label_count_must_match_the_factor_count(labels):
    alg = SemisimpleAlgebra((build_root_system("A", 1), build_root_system("A", 2)))
    with pytest.raises(InvalidLabelsError):
        alg.dimension(labels)
    with pytest.raises(InvalidLabelsError):
        alg.character(labels)


@pytest.mark.parametrize("series,rank,scale", [
    ("A", 1, 2), ("A", 2, 3), ("A", 3, 4), ("A", 4, 5), ("A", 5, 6),
    ("B", 2, 2), ("C", 2, 1), ("C", 3, 1),
])
def test_scale_clears_the_weight_denominators(series, rank, scale):
    rs = build_root_system(series, rank)
    assert rs.scale == scale
    for om in rs.fundamental_weights:
        assert all((scale * x).denominator == 1 for x in om)


@pytest.mark.parametrize("series,rank", ALL_SYSTEMS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_integer_chamber_walk_matches_fraction_reflections(series, rank, data):
    rs = build_root_system(series, rank)
    coeffs = data.draw(st.lists(st.integers(-6, 6), min_size=rank, max_size=rank))
    w = (F(0),) * rs.dim
    for c, om in zip(coeffs, rs.fundamental_weights):
        w = vadd(w, vscale(om, c))

    def ints(v):
        return tuple(int(rs.scale * x) for x in v)

    rep, _ = weyl_walk(w, rs.simple_roots)
    assert rs.to_dominant(ints(w)) == ints(rep)


def _box_weights(rs):
    """Every weight whose fundamental-weight coefficients lie in [-2, 2]
    (rank <= 3) or [-1, 1] (A4, A5), walls included."""
    k = 2 if rs.rank <= 3 else 1
    for coeffs in itertools.product(range(-k, k + 1), repeat=rs.rank):
        w = (F(0),) * rs.dim
        for c, om in zip(coeffs, rs.fundamental_weights):
            w = vadd(w, vscale(om, c))
        yield w


def _ints(rs, w):
    return tuple(int(rs.scale * x) for x in w)


@pytest.mark.parametrize("series,rank", ALL_SYSTEMS)
def test_closed_form_chamber_map_matches_the_reflection_walk(series, rank):
    rs = build_root_system(series, rank)
    for w in _box_weights(rs):
        rep, _ = weyl_walk(w, rs.simple_roots)
        assert rs.to_dominant(_ints(rs, w)) == _ints(rs, rep), w


@pytest.mark.parametrize("series,rank", ALL_SYSTEMS)
def test_chamber_map_is_constant_on_weyl_orbits(series, rank):
    # Freudenthal reads the multiplicity of a weight off its representative,
    # so the map must be a dominant-valued class function of the Weyl group.
    rs = build_root_system(series, rank)
    for w in _box_weights(rs):
        rep = rs.to_dominant(_ints(rs, w))
        assert all(vdot(rep, a) >= 0 for a in rs.simple_roots), w
        for i in range(rs.rank):
            assert rs.to_dominant(_ints(rs, rs.reflect(w, i))) == rep, (w, i)


def test_positive_roots_are_lexicographically_positive_on_the_lattice():
    # Freudenthal takes its dominant weights, and peel its maxima, in
    # descending lexicographic order of the integer vectors.  That order
    # extends the dominance order only while every positive root, times its
    # factor's scale and placed in its block of a product, is
    # lexicographically positive.
    algebras = [SemisimpleAlgebra((build_root_system(*sr),)) for sr in ALL_SYSTEMS]
    algebras += [emb.target_algebra() for emb in REGISTRY.values()]
    for alg in algebras:
        zero = (0,) * sum(f.dim for f in alg.factors)
        for sl, f in zip(alg.slices(), alg.factors):
            for a in f.positive_roots:
                v = zero[:sl.start] + tuple(f.scale * x for x in a) + zero[sl.stop:]
                assert v > zero, ([f"{g.series}{g.rank}" for g in alg.factors], a)


def test_cold_search_characters_carry_their_integer_view(monkeypatch):
    from codonbranch import embed_chains, lie_core, search

    cached = lie_core.irrep_character
    seen = set()

    def recording(rs, labels):
        seen.add((rs, tuple(labels)))
        return cached(rs, labels)

    for mod in (lie_core, embed_chains, search):
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)) and not isinstance(obj, type):
                obj.cache_clear()
    for mod in (lie_core, embed_chains):
        monkeypatch.setattr(mod, "irrep_character", recording)
    search.full_search()
    assert len(seen) == cached.cache_info().currsize > 0
    for rs, labels in seen:
        ch = cached(rs, labels)
        # A Fraction equal to an int hashes like it, so the dicts compare.
        assert ch.scale == rs.scale
        assert ch.terms == {tuple(rs.scale * x for x in w): m for w, m in ch.items()}
        assert all(type(x) is int for w in ch.terms for x in w)


def test_labels_may_be_lists():
    rs = build_root_system("A", 2)
    assert irrep_character(rs, [1, 0]) is irrep_character(rs, (1, 0))
    assert weyl_dimension(rs, [1, 0]) == 3
    alg = SemisimpleAlgebra((build_root_system("A", 1), build_root_system("A", 2)))
    assert alg.dimension([[1], [1, 0]]) == 6
    assert alg.character([[1], [1, 0]]) == alg.character(((1,), (1, 0)))


def test_weyl_dimension_rejects_bad_labels_with_a_typed_error():
    rs = build_root_system("A", 2)
    for labels in ([1.5, 0], [-1, 0], [1]):
        with pytest.raises(InvalidLabelsError):
            weyl_dimension(rs, labels)
        with pytest.raises(InvalidLabelsError):
            irrep_character(rs, labels)


def test_labels_that_are_not_a_sequence_are_a_typed_error():
    rs = build_root_system("A", 2)
    for fn in (weyl_dimension, irrep_character):
        with pytest.raises(InvalidLabelsError, match="sequence of integers: 5"):
            fn(rs, 5)
        with pytest.raises(InvalidLabelsError, match="sequence of integers"):
            fn(rs, [[1], 0])


def test_label_cache_reports_only_bad_labels_as_invalid():
    from codonbranch.lie_core import _label_cache

    @_label_cache
    def broken(key, labels):
        raise TypeError("inside")

    with pytest.raises(TypeError, match="inside"):
        broken("k", [1, 0])
    with pytest.raises(InvalidLabelsError):
        broken("k", 5)
    with pytest.raises(UnknownNameError, match=re.escape("broken: unknown name ['k']")):
        broken(["k"], [1, 0])


@pytest.mark.parametrize("bad", [1.0, True, False, F(1)], ids=repr)
def test_label_caches_give_the_same_answer_whatever_they_hold(bad):
    # 1.0, True and Fraction(1) hash and compare equal to 1, and False to 0,
    # so a cache looked up before the check would return the entry of the
    # int labels once it holds one: each call is rejected before and after.
    # casimir2 is not cached; it rejects them through check_dominant.
    from codonbranch.embed_chains import branch_embedding
    a2 = build_root_system("A", 2)
    calls = [lambda l: irrep_character(a2, l), lambda l: weyl_dimension(a2, l),
             lambda l: branch_embedding("A2>A1(1)", l), lambda l: casimir2(a2, l)]
    for call in calls:
        with pytest.raises(InvalidLabelsError, match=re.escape(repr(bad))):
            call((bad, 0))
        call((int(bad), 0))
        with pytest.raises(InvalidLabelsError, match=re.escape(repr(bad))):
            call((bad, 0))


def test_weyl_dimension_checks_its_quotient_without_assert():
    # Root data with a wrong rho0 makes the Weyl product 4/3, not an integer;
    # the check is a raised error, so it holds under ``python -O`` too.  The
    # bad system equals A1, so the call goes past the label cache.
    bad = RootSystem("A", 1)
    bad.rho0, bad.scaled_rho0 = (F(3, 2),), (3,)
    with pytest.raises(NotACharacterError, match="4/3"):
        weyl_dimension.__wrapped__(bad, (1,))


def test_root_systems_and_algebras_compare_by_value():
    fresh = build_root_system.__wrapped__
    a, b = fresh("B", 2), fresh("B", 2)
    assert a is not b and a == b and hash(a) == hash(b) == hash(("B", 2))
    assert a != fresh("C", 2) and a != ("B", 2)
    s = SemisimpleAlgebra((a, fresh("A", 1)))
    t = SemisimpleAlgebra((build_root_system("B", 2), build_root_system("A", 1)))
    assert s is not t and s == t and hash(s) == hash(t)
    assert s != SemisimpleAlgebra((a,))


# ---------------------------------------------------------------------------
# the record contract: a record is its constructor's arguments


def _record_classes():
    out, todo = [], [Record]
    while todo:
        subs = todo.pop().__subclasses__()
        out += subs
        todo += subs
    return sorted(out, key=lambda c: c.__qualname__)


RECORD_CLASSES = _record_classes()


@functools.cache
def _fields(cls) -> tuple:
    return tuple(inspect.signature(cls).parameters)


def _collect(obj, found, per_class=25):
    """Record instances reachable from ``obj`` through record fields and
    containers: the first ``per_class`` of each class."""
    if isinstance(obj, Record):
        bucket = found.setdefault(type(obj), [])
        if len(bucket) < per_class:
            bucket.append(obj)
        children = [getattr(obj, f) for f in _fields(type(obj))]
    elif isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (tuple, list)):
        children = obj
    else:
        return
    for child in children:
        _collect(child, found)


@pytest.fixture(scope="module")
def record_samples():
    """Instances of each record class, by class."""
    state = search.apply_plan("osp(5|2)/3", ["soft:3"])
    op = phase2.PhaseOp("soft", "12")
    osp52 = super_branch.build_super("osp(5|2)")
    roots = [
        super_branch.CATALOG, CHAINS, list(REGISTRY.values()),
        [super_branch.build_super(e.algebra) for e in super_branch.CATALOG],
        [e.target_algebra() for e in REGISTRY.values()],
        search.full_search(), [tables.build_table(t) for t in range(1, 10)],
        [apply_chain(c.chain_id) for c in CHAINS[:5]],
        super_branch.branch_to_even(osp52, (F(5, 2), 0, 1), drop_charges=False),
        state, search.freeze_groups(state, op), search.enumerate_phase2(state),
        phase2.Couplings.of(1, 2, 3, 4, 5, 6, 7, 8), phase2.Couplings(),
        young_forms.YoungDiagram((3, 1, 1)),
        young_forms.sl_superdiagram((3, 2, 1)),
        young_forms.osp_superdiagram_from_labels("osp(5|2)", (F(5, 2), 0, 1)),
    ]
    found = {}
    _collect(roots, found)
    return found


@pytest.mark.parametrize("cls", RECORD_CLASSES, ids=lambda c: c.__qualname__)
def test_record_is_its_constructor_arguments(cls, record_samples):
    if cls not in record_samples:
        pytest.fail(f"no sample instance of {cls.__qualname__}")
    for r in record_samples[cls]:
        fields = _fields(cls)
        again = cls(*(getattr(r, f) for f in fields))
        assert again == r and not again != r
        if cls.__hash__ is not None:
            assert hash(again) == hash(r)
        for f in fields:
            other = copy.copy(r)
            setattr(other, f, object())
            assert other != r, f


def test_records_of_different_classes_are_unequal():
    d, m = DistEntry(((1,),), 2, ()), phase2.Multiplet(((1,),), 2, ())
    assert d != m and m != d and not d == m
