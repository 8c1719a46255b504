import random
from collections import Counter
from fractions import Fraction

import pytest

from codonbranch.embed_chains import apply_chain
from codonbranch.phase2 import (
    Couplings,
    Multiplet,
    Phase2State,
    PhaseOp,
    SlotError,
    Stats,
    apply_op,
    available_ops,
    distribution_stats,
    from_distribution,
    hamiltonian_eigenvalue,
    phase2_stats,
    render_slot,
    slot_dim,
    soft_break_slot,
    strong_break_slot,
)

F = Fraction


def M(*slots, mult=1, history=()):
    return Multiplet(tuple(slots), mult, history)


def test_slot_dims():
    assert slot_dim(("u", 3)) == 4
    assert slot_dim(("o", 2)) == 2
    assert slot_dim(("o", 0)) == 1
    assert slot_dim(("s", -4)) == 1


def test_soft_break_rules():
    assert soft_break_slot(("u", 2)) == [("o", 2), ("o", 0)]   # spin 1
    assert soft_break_slot(("u", 1)) == [("o", 1)]             # spin 1/2
    assert soft_break_slot(("u", 3)) == [("o", 3), ("o", 1)]   # spin 3/2
    with pytest.raises(SlotError):
        soft_break_slot(("o", 2))


def test_strong_break_rules():
    assert strong_break_slot(("u", 2)) == [("s", 2), ("s", 0), ("s", -2)]
    assert strong_break_slot(("o", 3)) == [("s", 3), ("s", -3)]
    assert strong_break_slot(("o", 0)) == [("s", 0)]
    with pytest.raises(SlotError):
        strong_break_slot(("s", 2))


def test_rendering_conventions():
    assert render_slot(("u", 3)) == "3"
    assert render_slot(("o", 3)) == "(±3)"
    assert render_slot(("s", 3)) == "(+3)"
    assert render_slot(("s", -3)) == "(-3)"
    assert render_slot(("o", 0)) == "0"
    assert render_slot(("s", 0)) == "0"
    assert M(("u", 3), ("o", 1)).render() == "3-(±1)"


def test_dimension_conservation_under_ops():
    state = from_distribution(apply_chain("osp(5|2)/3"))
    assert state.total_dim() == 64
    for op in available_ops(state):
        assert apply_op(state, op).total_dim() == 64


def test_double_breaking_rejected():
    state = from_distribution(apply_chain("osp(5|2)/3"))
    soft = apply_op(state, PhaseOp("soft", "3"))
    with pytest.raises(SlotError):
        apply_op(soft, PhaseOp("soft", "3"))
    strong = apply_op(soft, PhaseOp("strong_after_soft", "3"))
    with pytest.raises(SlotError):
        apply_op(strong, PhaseOp("strong_after_soft", "3"))
    with pytest.raises(SlotError):
        apply_op(strong, PhaseOp("strong", "3"))


def test_stats_on_quoted_nodes():
    t5 = phase2_stats(from_distribution(apply_chain("osp(5|2)/3")))
    assert (t5.n_multiplets, t5.d3) == (14, 33)
    t9 = phase2_stats(from_distribution(apply_chain("osp(4|2)(5,0,0)/3")))
    assert (t9.n_multiplets, t9.d3) == (8, 57)
    t3 = distribution_stats(apply_chain("osp(3|2)/1"))
    assert t3.d3 == 18
    sl31 = distribution_stats(apply_chain("sl(3|1)/1"))
    assert sl31.total_pairing


def test_pairing_persists_under_uniform_ops():
    # two conjugate pairs over two slots
    state = Phase2State(("1", "2"), (), (
        M(("u", 2), ("u", 1)), M(("u", 2), ("u", 1)),
        M(("u", 1), ("u", 3)), M(("u", 1), ("u", 3)),
    ))
    assert phase2_stats(state).total_pairing
    for op in available_ops(state):
        assert phase2_stats(apply_op(state, op)).total_pairing


def test_a_state_split_by_apply_op_equals_the_state_of_its_entries():
    state = from_distribution(apply_chain("osp(5|2)/3"))
    for op in (PhaseOp("soft", "3"), PhaseOp("strong", "12")):
        state = apply_op(state, op)
    eager = Phase2State(state.slot_names, state.stages, state.entries)
    assert state == eager and hash(state) == hash(eager)
    assert state.symmetric and eager.symmetric
    assert list(state.shapes.items()) == list(eager.shapes.items())
    assert state.statuses() == ("s", "o")
    first = state.entries[0]
    trimmed = Phase2State(state.slot_names, state.stages, (first,))
    assert trimmed.shapes == {first.slots: [first.dim(), first.mult]}


def test_strong_pairs_are_conjugate():
    state = Phase2State(("1",), (), (M(("u", 1)),))
    broken = apply_op(state, PhaseOp("strong", "1"))
    assert phase2_stats(broken).total_pairing  # (+1) and (-1) pair up


def _random_walk_states(seed, n_sequences):
    rng = random.Random(seed)
    starts = ["osp(5|2)/3", "osp(5|2)/1", "osp(4|2)(5,0,0)/3",
              "osp(4|2)(7/2,0,1)/1", "osp(3|4)/3", "sl(2|2)(3,2,0)/1"]
    for i in range(n_sequences):
        state = from_distribution(apply_chain(rng.choice(starts)))
        yield state, rng


def test_monotone_statistics_over_randomized_sequences():
    rng = random.Random(20260809)
    starts = ["osp(5|2)/3", "osp(5|2)/1", "osp(4|2)(5,0,0)/3",
              "osp(4|2)(7/2,0,1)/1", "osp(3|4)/3", "sl(2|2)(3,2,0)/1",
              "osp(3|2)/1", "sl(2|1)/1"]
    for _ in range(1000):
        state = from_distribution(apply_chain(rng.choice(starts)))
        stats = phase2_stats(state)
        while True:
            ops = available_ops(state)
            if not ops or rng.random() < 0.25:
                break
            state = apply_op(state, rng.choice(ops))
            new = phase2_stats(state)
            assert state.total_dim() == 64
            assert new.d3 <= stats.d3
            assert new.n_singlets >= stats.n_singlets
            assert new.n_odd >= stats.n_odd
            assert new.n_multiplets >= stats.n_multiplets
            stats = new


def _table6_scheme_state():
    state = from_distribution(apply_chain("osp(5|2)/3"))
    return apply_op(state, PhaseOp("soft", "3"))


def test_hamiltonian_all_zero_couplings():
    state = _table6_scheme_state()
    c = Couplings.of(7, 0, 0, 0, 0, 0, 0, 0)
    for m in state.entries:
        assert hamiltonian_eigenvalue(state, m, c) == 7


def test_hamiltonian_casimir_only():
    state = _table6_scheme_state()
    c = Couplings.of(0, 1, 0, 0, 0, 0, 0, 0)
    values = {hamiltonian_eigenvalue(state, m, c) for m in state.entries}
    assert values == {F(15, 2), F(21, 2), F(5, 2)}


def test_hamiltonian_full_example():
    # multiplet (±3)-(±1): ancestry (1)-(1,1) -> 1-2-1 -> 3-1
    state = apply_op(_table6_scheme_state(), PhaseOp("soft", "12"))
    target = [m for m in state.entries if m.render() == "(±3)-(±1)"]
    assert len(target) == 1
    m = target[0]
    c = Couplings.of(1, 2, 3, 5, 7, 11, 13, 17)
    got = hamiltonian_eigenvalue(state, m, c)
    want = (1 + 2 * F(15, 2) + 3 * F(3, 4) + 5 * F(2) + 7 * F(3, 4)
            + 11 * F(15, 4) + 13 * F(1, 4) + 17 * F(7, 4) * F(9, 4))
    assert got == want


def test_hamiltonian_sign_blind_in_strong_m():
    state = apply_op(_table6_scheme_state(), PhaseOp("strong", "12"))
    c = Couplings.of(0, 0, 0, 0, 0, 0, 3, 5)
    plus = [m for m in state.entries if m.render() == "(+3)-(±1)"][0]
    minus = [m for m in state.entries if m.render() == "(-3)-(±1)"][0]
    assert hamiltonian_eigenvalue(state, plus, c) == \
        hamiltonian_eigenvalue(state, minus, c)


def test_hamiltonian_missing_ancestry_errors():
    from codonbranch.phase2 import AncestryError
    state = from_distribution(apply_chain("osp(3|4)/3"))
    c = Couplings.of(0, 1, 0, 0, 0, 0, 0, 0)
    with pytest.raises(AncestryError):
        hamiltonian_eigenvalue(state, state.entries[0], c)


def test_hamiltonian_unbroken_slot_with_coupling_errors():
    from codonbranch.phase2 import AncestryError
    state = _table6_scheme_state()  # slot 12 still unbroken
    c = Couplings.of(0, 0, 0, 0, 0, 0, 0, 1)  # g12 needs a broken slot 12 ...
    spin_3_2 = [m for m in state.entries if m.slots[0] == ("u", 3)]
    assert len(spin_3_2) == 3
    for m in spin_3_2:
        with pytest.raises(AncestryError):
            hamiltonian_eigenvalue(state, m, c)
    # ... where its prefactor s12(s12+1) - 2 is not 0 and m_z^2 takes more
    # than one value: not at s12 = 1, nor at s12 <= 1/2.
    for m in state.entries:
        if m.slots[0] in (("u", 0), ("u", 1), ("u", 2)):
            hamiltonian_eigenvalue(state, m, c)


def test_hamiltonian_separates_the_soft_12_scheme_into_the_code():
    # The soft:12 survivor's 21 final multiplets; seeded couplings, all eight
    # nonzero, give each multiplet its own level, so grouping them by
    # eigenvalue gives the degeneracies of the standard code.
    from codonbranch.search import apply_plan, final_state, solve_freezing
    state = apply_plan("osp(5|2)/3", ["soft:3"])
    op = PhaseOp("soft", "12")
    [mask] = solve_freezing(state, op)
    final = final_state(state, op, mask)
    assert len(final.entries) == 21
    rng = random.Random(11)
    for _ in range(20):
        c = Couplings.of(*(F(rng.choice((-1, 1)) * rng.randint(1, 50), rng.randint(1, 20))
                           for _ in range(8)))
        levels = Counter()
        for m in final.entries:
            levels[hamiltonian_eigenvalue(final, m, c)] += m.dim() * m.mult
        assert Counter(levels.values()) == {6: 3, 4: 5, 3: 2, 2: 9, 1: 2}, c


def test_hamiltonian_unknown_slot_is_a_slot_error():
    # osp(5|2)/4 merges slots 2 and 3, so the b3 term has no slot "3".
    state = apply_op(from_distribution(apply_chain("osp(5|2)/4")), PhaseOp("soft", "23"))
    c = Couplings.of(0, 0, 0, 0, 0, 0, 1, 0)
    with pytest.raises(SlotError, match="unknown slot '3' in the b3 term; valid slots: 1, 23"):
        hamiltonian_eigenvalue(state, state.entries[0], c)


def test_ops_stats_and_multiplets_compare_by_value():
    assert PhaseOp("soft", "3") == PhaseOp.parse("soft:3")
    assert hash(PhaseOp("soft", "3")) == hash(PhaseOp.parse("soft:3"))
    assert PhaseOp("soft", "3") != PhaseOp("soft", "12") and PhaseOp("soft", "3") != ("soft", "3")
    assert {PhaseOp("soft", "3"), PhaseOp.parse("soft:3")} == {PhaseOp("soft", "3")}
    fields = (3, 3, 0, 0, False, ((3, 1),))
    assert Stats(*fields) == Stats(*fields) and hash(Stats(*fields)) == hash(Stats(*fields))
    assert Stats(*fields) != Stats(*fields[:4], True, fields[5]) and Stats(*fields) != fields
    m = M(("u", 2), ("o", 1), mult=2, history=("h",))
    assert m == M(("u", 2), ("o", 1), mult=2, history=("h",))
    assert hash(m) == hash(M(("u", 2), ("o", 1), mult=2, history=("h",)))
    assert m != M(("u", 2), ("o", 1), mult=1, history=("h",))
