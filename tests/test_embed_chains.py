import itertools
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codonbranch.embed_chains import (
    CHAINS,
    REGISTRY,
    StageAlgebra,
    ChainError,
    apply_chain,
    branch_embedding,
    builtin_registry,
    diagonal_clebsch,
    export_registry,
    first_step_distribution,
)
from codonbranch.lie_core import (
    InvalidLabelsError,
    NotACharacterError,
    SemisimpleAlgebra,
    build_root_system,
    weyl_dimension,
)
from oracles import weyl_quotient_character


@pytest.mark.parametrize("emb", builtin_registry(), ids=lambda e: e.name)
def test_defining_irrep_restricts_to_its_declared_decomposition(emb):
    defining = (1,) + (0,) * (emb.source.rank - 1)
    assert sorted(branch_embedding(emb.name, defining)) == sorted(emb.defining_decomposition)


def test_registry_contents():
    names = {e.name for e in builtin_registry()}
    assert names == {"A3>A2", "A3>C2", "A3>A1+A1", "C2>A1+A1", "C2>A1",
                     "A5>A4", "A5>A3", "A5>C3", "A5>A2", "A5>A1+A3",
                     "A5>A2+A2", "A5>A1+A2", "A2>A1(1)", "A2>A1(2)",
                     "B2>A1+A1", "B2>A1"}


@pytest.mark.parametrize("name,labels,expected", [
    ("C2>A1+A1", (1, 0), {((1,), (0,)): 1, ((0,), (1,)): 1}),
    ("C2>A1", (1, 0), {((3,),): 1}),
    ("B2>A1+A1", (0, 1), {((1,), (0,)): 1, ((0,), (1,)): 1}),
    ("B2>A1", (1, 1), {((7,),): 1, ((5,),): 1, ((1,),): 1}),
    ("C2>A1+A1", (0, 1), {((1,), (1,)): 1, ((0,), (0,)): 1}),
    ("A2>A1(1)", (1, 0), {((1,),): 1, ((0,),): 1}),
    ("A2>A1(2)", (1, 0), {((2,),): 1}),
    ("A3>A2", (1, 0, 0), {((1, 0),): 1, ((0, 0),): 1}),
    ("A3>C2", (0, 1, 0), {((0, 1),): 1, ((0, 0),): 1}),
    ("A3>A1+A1", (1, 0, 0), {((1,), (1,)): 1}),
    ("C2>A1+A1", (2, 0), {((1,), (1,)): 1, ((2,), (0,)): 1, ((0,), (2,)): 1}),
    ("C2>A1", (0, 1), {((4,),): 1}),
    ("C2>A1", (2, 0), {((6,),): 1, ((2,),): 1}),
    ("A5>C3", (0, 1, 0, 0, 0), {((0, 1, 0),): 1, ((0, 0, 0),): 1}),
    ("A5>C3", (0, 0, 1, 0, 0), {((0, 0, 1),): 1, ((1, 0, 0),): 1}),
    ("A5>A2", (1, 0, 0, 0, 0), {((2, 0),): 1}),
    ("A5>A2", (0, 0, 1, 0, 0), {((3, 0),): 1, ((0, 3),): 1}),
    ("A2>A1(1)", (1, 1), {((2,),): 1, ((1,),): 2, ((0,),): 1}),
    ("A2>A1(2)", (1, 1), {((4,),): 1, ((2,),): 1}),
    ("B2>A1+A1", (1, 1), {((2,), (1,)): 1, ((1,), (2,)): 1, ((1,), (0,)): 1, ((0,), (1,)): 1}),
    ("B2>A1", (0, 1), {((3,),): 1}),
])
def test_branch_examples(name, labels, expected):
    assert dict(branch_embedding(name, labels)) == expected


def test_trivial_rep_restricts_trivially():
    for emb in builtin_registry():
        trivial = (0,) * emb.source.rank
        out = dict(branch_embedding(emb.name, trivial))
        assert out == {tuple((0,) * t.rank for t in emb.targets): 1}


def _source_irreps_upto(rs, max_dim=64, bound=3):
    for labels in itertools.product(range(bound + 1), repeat=rs.rank):
        if weyl_dimension(rs, labels) <= max_dim:
            yield labels


@pytest.mark.parametrize("emb", builtin_registry(), ids=lambda e: e.name)
def test_dimension_preservation(emb):
    alg = emb.target_algebra()
    for labels in _source_irreps_upto(emb.source):
        out = branch_embedding(emb.name, labels)
        assert sum(m * alg.dimension(l) for l, m in out) == \
            weyl_dimension(emb.source, labels)


@pytest.mark.parametrize("emb", builtin_registry(), ids=lambda e: e.name)
def test_conjugation_equivariance(emb):
    alg = emb.target_algebra()
    for labels in _source_irreps_upto(emb.source):
        direct = sorted((alg.conjugate(l), m)
                        for l, m in branch_embedding(emb.name, labels))
        conjugated = sorted(branch_embedding(emb.name, emb.source.conjugate(labels)))
        assert direct == conjugated


@lru_cache(maxsize=None)
def _oracle(rs, labels):
    return weyl_quotient_character(rs, labels)


def _restriction_labels(rs):
    """Labels of Weyl dimension <= 60."""
    return [l for l in itertools.product(range(3), repeat=rs.rank)
            if weyl_dimension(rs, l) <= 60]


@pytest.mark.parametrize("emb", builtin_registry(), ids=lambda e: e.name)
def test_restriction_matches_the_projected_oracle_character(emb):
    for labels in _restriction_labels(emb.source):
        projected = {}
        for w, m in _oracle(emb.source, labels).items():
            pw = emb.project(w)
            projected[pw] = projected.get(pw, 0) + m
        rebuilt = {}
        for sub, mult in branch_embedding(emb.name, labels):
            factor_chars = [_oracle(t, l).items() for t, l in zip(emb.targets, sub)]
            for combo in itertools.product(*factor_chars):
                w = sum((wm[0] for wm in combo), start=())
                m = mult
                for _, n in combo:
                    m *= n
                rebuilt[w] = rebuilt.get(w, 0) + m
        assert rebuilt == projected, (emb.name, labels)


def test_projection_off_the_target_lattice_is_not_a_character(monkeypatch):
    from codonbranch.embed_chains import REGISTRY, Embedding
    b2, a1 = build_root_system("B", 2), build_root_system("A", 1)
    # 5 = 2+1+1+1 is no so(5) subalgebra: e_1 goes to the spin projection
    # 1/2 and e_2 to 0, so the spinor weight (1/2, 1/2) lands on 1/4.
    emb = Embedding("B2>A1(off)", b2, (a1,), ((((1,),), 1), (((0,),), 3)))
    with pytest.raises(NotACharacterError):
        emb.project((Fraction(1, 2), Fraction(1, 2)))
    monkeypatch.setitem(REGISTRY, emb.name, emb)
    with pytest.raises(NotACharacterError):
        branch_embedding(emb.name, (0, 1))


def test_a_restriction_must_add_up_to_the_source_irrep(monkeypatch):
    from codonbranch import embed_chains
    # The uncached body, with a source dimension one too large.
    monkeypatch.setattr(embed_chains, "weyl_dimension",
                        lambda rs, labels: weyl_dimension(rs, labels) + 1)
    with pytest.raises(NotACharacterError, match="A3>A2 lost dimension on"):
        branch_embedding.__wrapped__("A3>A2", (1, 0, 0))


def test_defining_dimension_must_match_the_source():
    from codonbranch.embed_chains import Embedding
    a2, a1, c2 = (build_root_system(*s) for s in (("A", 2), ("A", 1), ("C", 2)))
    with pytest.raises(ChainError, match="2 defining weights"):
        Embedding("short", a2, (a1,), ((((1,),), 1),))
    with pytest.raises(ChainError, match="4 defining weights"):
        Embedding("tall", a2, (a1,), ((((3,),), 1),))
    with pytest.raises(ChainError, match="5 defining weights"):
        Embedding("odd", c2, (a1,), ((((4,),), 1),))


def test_defining_weights_of_b_and_c_must_be_closed_under_negation():
    from codonbranch.embed_chains import REGISTRY, Embedding
    a2, c2 = build_root_system("A", 2), build_root_system("C", 2)
    # 4 = 3+1 has the right dimension, but the sl(3) triplet is not
    # self-conjugate, so no sp(4) weights restrict to it.
    with pytest.raises(ChainError, match="closed under negation"):
        Embedding("C2>A2(bad)", c2, (a2,), ((((1, 0),), 1), (((0, 0),), 1)))
    # The conjugate triplet fails alike.
    with pytest.raises(ChainError, match="closed under negation"):
        Embedding("C2>A2(bar)", c2, (a2,), ((((0, 1),), 1), (((0, 0),), 1)))
    assert len(REGISTRY) == 16  # every registered embedding built


def test_a_source_outside_a_b_and_c_is_a_chain_error():
    from codonbranch.embed_chains import Embedding
    a1 = build_root_system("A", 1)
    with pytest.raises(ChainError, match="A1 source"):
        Embedding("A1>A1", a1, (a1,), ((((1,),), 1),))


def test_unknown_embedding_is_a_typed_error():
    from codonbranch.super_branch import UnknownNameError
    with pytest.raises(UnknownNameError, match="B2>A1") as err:
        branch_embedding("nope", (1, 0))
    assert isinstance(err.value, KeyError)


def test_an_unhashable_embedding_name_is_an_unknown_name():
    from codonbranch.lie_core import UnknownNameError
    with pytest.raises(UnknownNameError, match=re.escape("['A2>A1(1)']")):
        branch_embedding(["A2>A1(1)"], (1, 0))


@pytest.mark.parametrize("chain_id", [["x"], {}], ids=repr)
def test_an_unhashable_chain_id_is_a_chain_error(chain_id):
    with pytest.raises(ChainError, match=re.escape(f"unknown chain id {chain_id!r}")):
        apply_chain(chain_id)


def test_branch_embedding_takes_list_labels_and_rejects_bad_ones():
    assert branch_embedding("A3>A2", [1, 0, 0]) == branch_embedding("A3>A2", (1, 0, 0))
    for labels in (5, [[1], 0, 0], [1, 0]):
        with pytest.raises(InvalidLabelsError):
            branch_embedding("A3>A2", labels)
    # Still an lru_cache underneath: the benchmark tracer and cache clearing
    # read these.
    assert branch_embedding.cache_info().currsize > 0
    branch_embedding.cache_clear()
    assert branch_embedding.cache_info().currsize == 0


# One label set per embedding source, restricted through every registered
# embedding from that source.
_PINNED_LABELS = {"A2": (2, 1), "A3": (1, 1, 0), "A5": (0, 1, 0, 0, 0), "B2": (1, 2),
                  "C2": (2, 1)}


def test_restriction_work_from_cleared_caches_is_pinned(monkeypatch):
    """The Lie-layer calls that restricting a fixed label list makes from
    cleared caches.  A change that makes each call cheaper keeps them; one
    that removes calls re-pins them here, saying which moved and why."""
    from codonbranch import embed_chains, lie_core
    from codonbranch.lie_core import RootSystem, irrep_character
    for mod in (lie_core, embed_chains):
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)) and not isinstance(obj, type):
                obj.cache_clear()
    to_dominant, calls = RootSystem.to_dominant, [0]

    def counted(self, w):
        calls[0] += 1
        return to_dominant(self, w)

    monkeypatch.setattr(RootSystem, "to_dominant", counted)
    assert {e.source.series + str(e.source.rank) for e in builtin_registry()} == set(_PINNED_LABELS)
    for emb in builtin_registry():
        branch_embedding(emb.name, _PINNED_LABELS[emb.source.series + str(emb.source.rank)])
    chars = irrep_character.cache_info()
    assert {"to_dominant.calls": calls[0], "irrep_character.calls": chars.hits + chars.misses,
            "irrep_character.misses": chars.misses,
            "branch_embedding.misses": branch_embedding.cache_info().misses} == {
        "to_dominant.calls": 917, "irrep_character.calls": 66, "irrep_character.misses": 27,
        "branch_embedding.misses": 16}


def test_diagonal_clebsch_examples():
    assert diagonal_clebsch(1, 2) == ((3,), (1,))
    assert diagonal_clebsch(1, 1) == ((2,), (0,))
    assert diagonal_clebsch(4, 0) == ((4,),)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8))
def test_diagonal_clebsch_dimension_sum(a, b):
    assert sum(c[0] + 1 for c in diagonal_clebsch(a, b)) == (a + 1) * (b + 1)


def test_diagonal_clebsch_rejects_negative():
    with pytest.raises(ChainError):
        diagonal_clebsch(-1, 2)


def test_diagonal_clebsch_rejects_labels_that_are_not_integers():
    # A float or a string once reached range() or a comparison and raised a
    # bare TypeError; a bool is not a label either.
    for a, b, shown in ((0.5, 1, "0.5, 1"), ("1", 2, "'1', 2"), (1, None, "1, None"),
                        (True, 2, "True, 2")):
        with pytest.raises(ChainError, match=rf"^labels {shown} must be nonnegative integers"):
            diagonal_clebsch(a, b)


def test_first_step_distribution_total():
    for key in ("sl(2|1)", "osp(5|2)", "osp(2|6)"):
        assert first_step_distribution(key).total_dim() == 64


@pytest.mark.parametrize("chain", CHAINS, ids=lambda c: c.chain_id)
def test_dimension_conserved_along_every_chain(chain):
    dist = first_step_distribution(chain.rep_key)
    assert dist.total_dim() == 64
    from codonbranch.embed_chains import apply_step
    for step in chain.steps:
        dist = apply_step(dist, step)
        assert dist.total_dim() == 64


@pytest.mark.parametrize("cid,count", [
    ("osp(5|2)/3", 14), ("osp(3|4)/3", 9), ("osp(4|2)(5,0,0)/3", 8),
    ("osp(5|2)/1", 10), ("osp(3|4)/1", 8),
])
def test_chain_subspace_counts(cid, count):
    dist = apply_chain(cid)
    assert sum(e.mult for e in dist.entries) == count


def test_unknown_chain_id_lists_known_ids():
    with pytest.raises(ChainError) as err:
        apply_chain("nope/1")
    assert "osp(5|2)/3" in str(err.value)


def test_chain_history_depth_matches_stages():
    dist = apply_chain("osp(5|2)/3")
    assert len(dist.stages) == 3
    for e in dist.entries:
        assert len(e.history) == 2


def test_diagonal_requires_sl2_stage():
    from codonbranch.embed_chains import ChainStep, apply_step
    dist = first_step_distribution("osp(5|2)")
    with pytest.raises(ChainError):
        apply_step(dist, ChainStep("diagonal", pair=(0, 1)))


def test_restrict_requires_matching_factor():
    from codonbranch.embed_chains import ChainStep, apply_step
    dist = first_step_distribution("osp(5|2)")
    with pytest.raises(ChainError):
        apply_step(dist, ChainStep("restrict", embedding="C2>A1", factor=1))


def test_restrict_rejects_a_negative_factor():
    # Python would read factor -1 as the last factor, so(5), and build a stage.
    from codonbranch.embed_chains import ChainStep, apply_step
    dist = first_step_distribution("osp(5|2)")
    with pytest.raises(ChainError):
        apply_step(dist, ChainStep("restrict", embedding="B2>A1", factor=-1))


def test_export_registry_is_stable_and_complete():
    text = export_registry()
    assert text == export_registry()
    for emb in builtin_registry():
        assert f"embedding {emb.name}" in text


def test_fresh_target_algebras_share_the_character_cache():
    emb = REGISTRY["B2>A1+A1"]
    a, b = emb.target_algebra(), emb.target_algebra()
    assert a is not b and a == b and hash(a) == hash(b)
    # The product characters are cached by algebra value, not identity.
    assert a.character(((1,), (2,))) is b.character(((1,), (2,)))


def test_a_stage_never_equals_the_plain_algebra_of_its_factors():
    factors = REGISTRY["B2>A1+A1"].targets
    stage, plain = StageAlgebra(factors, ("1", "2")), SemisimpleAlgebra(factors)
    assert stage != plain and plain != stage
    assert stage == StageAlgebra(factors, ("1", "2"))
    assert stage != StageAlgebra(factors, ("2", "1"))
    assert len({stage, plain, StageAlgebra(factors, ("1", "2"))}) == 2
