"""Every public value parameter either works or is rejected with a typed error.

Each test below draws values for the parameters that a caller types by
hand: names (of algebras, root systems, catalog entries, embeddings, chains,
breaking ops and tables), label sequences, plans, targets and phases.  Every
object parameter (a root system, superalgebra, phase-2 state or statistics
record) gets a valid object.  Each call must return or raise
``codonbranch.InputError``; anything else fails the test.  Label magnitudes
stay small, so that every call that is accepted is also quick.

The per-element phase-2 helpers (``slot_dim`` and its kin) and the record
constructors take the program's own values and are not covered; nor are the
table-document functions of ``tables``, whose input is a document.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from codonbranch import InputError
from codonbranch.embed_chains import (
    apply_chain,
    branch_embedding,
    diagonal_clebsch,
    first_step_distribution,
)
from codonbranch.lie_core import (
    SemisimpleAlgebra,
    build_root_system,
    casimir2,
    irrep_character,
    weyl_dimension,
)
from codonbranch.phase2 import PhaseOp, from_distribution, phase2_stats
from codonbranch.search import (
    apply_plan,
    enumerate_phase2,
    full_search,
    match_target,
    prune,
    solve_freezing,
)
from codonbranch.super_branch import (
    branch_to_even,
    build_super,
    catalog_entry,
    is_typical,
    kac_labels,
    kac_weight,
    typical_dimension,
)
from codonbranch.tables import build_table

EXAMPLES = settings(max_examples=200, derandomize=True, deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

# Drawn from short lists of representative values, so that each example is
# cheap to generate: bad types, bad values and valid ones side by side.
NAMES = st.one_of(
    st.sampled_from(["osp(5|2)", "sl(2|1)", "osp(4|2)(5,0,0)", "osp(5|2)/3", "A2>A1(1)",
                     "C2>A1", "soft:3", "strong:12", "A", "C", "B", "osp(9|2)", "sl(3|2)",
                     "osp(5|2)/9", "soft:9", "x:", ":", "", " sl(2 | 1) ", "é", "\x00"]),
    st.text(max_size=6), st.integers(-3, 12),
    st.sampled_from([None, True, 1.0, float("nan"), [], ["osp(5|2)"], ("A", 2), {}, b"A"]),
)
LABEL = st.one_of(
    st.integers(-2, 4),
    st.sampled_from([Fraction(1, 2), Fraction(5, 2), Fraction(-1, 2), Fraction(1, 3), 2.5, 1.0,
                     -0.0, float("nan"), float("inf"), True, False, "1", "x", "", None,
                     (1,)]),
)
HALVES = st.sampled_from([Fraction(k, 2) for k in range(13)])
LABELS = st.one_of(
    st.lists(LABEL, max_size=7), st.lists(st.integers(0, 3), max_size=7).map(tuple),
    st.lists(st.integers(0, 3), min_size=1, max_size=2).map(tuple),
    # Twice, so that more superalgebra label sets have the right length.
    st.lists(HALVES, min_size=2, max_size=4).map(tuple),
    st.lists(HALVES, min_size=2, max_size=4).map(tuple),
    st.sampled_from([5, None, 2.5, "5/2,0,1", "", b"\x01", {1: 2}, {1, 2}]),
)
SUPER = st.sampled_from(["sl(2|1)", "sl(3|1)", "sl(4|1)", "sl(2|2)", "sl(3|2)", "osp(2|4)",
                         "osp(3|2)", "osp(3|4)", "osp(4|2)", "osp(5|2)"]).map(build_super)
LIE = st.sampled_from([("A", 1), ("A", 2), ("B", 2), ("C", 2)]).map(
    lambda sr: build_root_system(*sr))
TARGETS = st.one_of(
    st.none(), st.just({6: 3, 4: 5, 3: 2, 2: 9, 1: 2}), st.just({4: 8, 2: 14, 1: 4}),
    st.dictionaries(st.integers(-1, 65), st.integers(-1, 65), max_size=6),
    st.dictionaries(st.sampled_from([1, 2, 3, 4, 6, 8, 16]), st.integers(1, 16),
                    min_size=1, max_size=5),
    st.dictionaries(st.one_of(st.floats(), st.booleans(), st.text(max_size=2)),
                    st.integers(1, 64), max_size=3),
    st.lists(st.integers(1, 8), max_size=4), st.integers(), st.text(max_size=4),
)
PLANS = st.one_of(
    st.lists(st.sampled_from(["soft:3", "soft:12", "strong:12", "strong_after_soft:3",
                              "soft:1", "strong:9", "soft", ":3", "weak:3"]), max_size=3),
    st.text(max_size=8), st.lists(NAMES, max_size=2), st.integers(), st.none(),
)


def _returns_or_rejects(fn, *args):
    try:
        fn(*args)
    except InputError:
        pass


@EXAMPLES
@given(NAMES)
def test_names(name):
    for fn in (build_super, catalog_entry, first_step_distribution, apply_chain, PhaseOp.parse,
               build_table):
        _returns_or_rejects(fn, name)
    _returns_or_rejects(build_root_system, name, 2)
    _returns_or_rejects(build_root_system, "A", name)
    _returns_or_rejects(branch_embedding, name, (1, 0))


@EXAMPLES
@given(SUPER, LABELS)
def test_superalgebra_labels(sa, labels):
    for fn in (kac_weight, is_typical, branch_to_even, typical_dimension, kac_labels):
        _returns_or_rejects(fn, sa, labels)
        if isinstance(labels, list):
            _returns_or_rejects(fn, sa, iter(labels))


@EXAMPLES
@given(LIE, LABELS)
def test_lie_labels(rs, labels):
    for fn in (irrep_character, weyl_dimension, casimir2):
        _returns_or_rejects(fn, rs, labels)
    for fn in (SemisimpleAlgebra((rs,)).dimension, SemisimpleAlgebra((rs,)).character):
        _returns_or_rejects(fn, labels)
        _returns_or_rejects(fn, (labels,))


@EXAMPLES
@given(st.sampled_from(["A2>A1(1)", "C2>A1", "B2>A1+A1"]), LABELS, LABEL, LABEL)
def test_embedding_labels(name, labels, a, b):
    _returns_or_rejects(branch_embedding, name, labels)
    _returns_or_rejects(diagonal_clebsch, a, b)


@EXAMPLES
@given(st.sampled_from(["osp(5|2)/3", "osp(5|2)/1", "osp(3|4)/3"]), PLANS)
def test_plans(chain_id, plan):
    _returns_or_rejects(apply_plan, chain_id, plan)


START = from_distribution(apply_chain("osp(5|2)/3"))
PRE_FINAL = apply_plan("osp(5|2)/3", ["soft:3"])


@EXAMPLES
@given(TARGETS, st.one_of(st.sampled_from([1, 2]), st.integers(-1, 3), st.booleans(),
                          st.floats(), st.none(), st.text(max_size=2), st.just(Fraction(2))))
def test_targets_and_phases(target, phase):
    stats = phase2_stats(START)
    _returns_or_rejects(prune, stats, phase, target)
    _returns_or_rejects(match_target, stats, target)
    _returns_or_rejects(solve_freezing, PRE_FINAL, PhaseOp("soft", "12"), target)
    _returns_or_rejects(enumerate_phase2, START, target)
    _returns_or_rejects(full_search, target)

