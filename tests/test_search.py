import fractions
import gc
import itertools
import json
import math
import os
import random
import subprocess
import sys
import weakref
from collections import Counter

import pytest

from codonbranch import embed_chains, phase2, search, super_branch
from codonbranch.embed_chains import CHAINS, apply_chain
from codonbranch.phase2 import (
    Multiplet,
    Phase2State,
    PhaseOp,
    SlotError,
    Stats,
    _split_table,
    apply_op,
    available_ops,
    break_multiplet,
    from_distribution,
    phase2_stats,
    slot_conjugate,
    slot_dim,
)
from codonbranch.search import (
    GENETIC_CODE_TARGET,
    FreezeMask,
    InvalidTargetError,
    apply_plan,
    enumerate_phase2,
    final_state,
    freeze_groups,
    full_search,
    match_target,
    prune,
    reachable_triplet_counts,
    report_summary,
    report_to_dict,
    solve_freezing,
)
from codonbranch.super_branch import CATALOG
from codonbranch.tables import build_table
from oracles import (
    freeze_groups_reference,
    phase2_stats_reference,
    reachable_triplet_counts_bfs,
    schemes_reference,
    solve_freezing_reference,
)

# The standard code, two hand-written histograms and NCBI translation tables
# 2, 4, 6 and 5, each with the (schemes, masks) that full_search reports.
TARGETS = [
    pytest.param(GENETIC_CODE_TARGET, 3, 3, id="standard"),
    pytest.param({4: 8, 2: 14, 1: 4}, 65, 790, id="4:8,2:14,1:4"),
    pytest.param({6: 2, 4: 6, 3: 2, 2: 9, 1: 4}, 9, 9, id="6:2,4:6,3:2,2:9,1:4"),
    pytest.param({6: 2, 4: 7, 2: 12}, 36, 84, id="ncbi2"),
    pytest.param({6: 3, 4: 5, 3: 1, 2: 11, 1: 1}, 0, 0, id="ncbi4"),
    pytest.param({6: 3, 4: 6, 3: 1, 2: 8, 1: 3}, 0, 0, id="ncbi6"),
    pytest.param({8: 1, 6: 1, 4: 6, 2: 13}, 34, 124, id="ncbi5"),
]


@pytest.fixture(scope="module")
def report():
    return full_search()


def _stats(chain_id, plan=()):
    return phase2_stats(apply_plan(chain_id, plan))


def test_prune_examples(report):
    sl31 = [a for a in report.algebras if a.key == "sl(3|1)"][0]
    assert "TotalPairing" in sl31.phase1_violations
    osp26 = [a for a in report.algebras if a.key == "osp(2|6)"][0]
    assert "TooManySinglets" in osp26.phase1_violations
    osp32 = report.chain_report("osp(3|2)/1")
    assert "D3TooSmall" in osp32.verdict_codes
    sl41 = report.chain_report("sl(4|1)/1")
    assert {"TooManySinglets", "TooManyOdd"} <= set(sl41.verdict_codes)


@pytest.mark.parametrize("target, goal", [
    (GENETIC_CODE_TARGET, (21, 24, 2, 4, False)),
    ({6: 2, 4: 6, 3: 2, 2: 10, 1: 2}, (22, 18, 2, 4, True)),
])
def test_prune_bounds_are_read_off_the_target(target, goal):
    """Each bound sits exactly at the target's own statistic: ``goal`` is
    (multiplets, d3, singlets, odd, totally paired)."""
    m, d3, singlets, odd, paired = goal

    def hits(phase, **past):
        fields = dict(n_multiplets=m, d3=d3, n_singlets=singlets, n_odd=odd,
                      total_pairing=False, dim_histogram=())
        return prune(Stats(**{**fields, **past}), phase, target)

    for phase in (1, 2):
        assert hits(phase) == []
        assert hits(phase, n_singlets=singlets + 1) == ["TooManySinglets"]
        assert hits(phase, n_odd=odd + 1) == ["TooManyOdd"]
    assert hits(2, d3=d3 - 1) == ["D3TooSmall"] and hits(1, d3=d3 - 1) == []
    assert hits(2, n_multiplets=m + 1) == ["TooManyMultiplets"]
    assert hits(1, n_multiplets=m + 1) == []
    assert hits(1, total_pairing=True) == ([] if paired else ["TotalPairing"])
    assert hits(2, total_pairing=True) == []


def test_match_target_examples():
    assert not match_target(_stats("osp(5|2)/3"))  # contains dims 8 and 9
    near = _stats("osp(5|2)/1", ["strong:2"])
    assert near.histogram() == {6: 3, 4: 5, 3: 4, 2: 5, 1: 4}
    assert not match_target(near)


def test_enumerate_quoted_nodes():
    assert (_stats("osp(5|2)/3", ["soft:3"]).n_multiplets,
            _stats("osp(5|2)/3", ["soft:3"]).d3) == (18, 24)
    s = _stats("osp(5|2)/1", ["strong:1"])
    assert (s.n_multiplets, s.d3) == (18, 36)
    s = _stats("osp(4|2)(7/2,0,1)/1", ["soft:1"])
    assert (s.n_multiplets, s.d3) == (11, 36)


def test_solve_freezing_table6():
    state = apply_plan("osp(5|2)/3", ["soft:3"])
    masks = solve_freezing(state, PhaseOp("soft", "12"))
    assert len(masks) == 1
    assert set(masks[0].frozen) == {("2-(±2)", 6, 1), ("2-0", 3, 2), ("2-(±1)", 6, 2)}


def test_solve_freezing_tables_7_and_8_unique():
    state = apply_plan("osp(5|2)/3", ["soft:3"])
    m7 = solve_freezing(state, PhaseOp("strong", "12"))
    assert len(m7) == 1
    assert set(m7[0].frozen) == {("1-(±1)", 4, 2), ("2-(±2)", 6, 1), ("2-0", 3, 2),
                                 ("2-(±1)", 6, 2), ("1-(±2)", 4, 1), ("1-0", 2, 2),
                                 ("3-0", 4, 2)}
    m8 = solve_freezing(state, PhaseOp("strong_after_soft", "3"))
    assert len(m8) == 1
    assert set(m8[0].frozen) == {("2-(±2)", 6, 1), ("0-(±2)", 2, 1), ("2-(±1)", 6, 2),
                                 ("1-(±2)", 4, 1), ("0-(±3)", 2, 1), ("0-(±1)", 2, 1)}


def test_freezing_impossible_when_singlets_locked_in():
    # distribution already carrying more singlets than the target allows
    state = apply_plan("sl(2|1)/1", [])
    masks = solve_freezing(state, PhaseOp("strong", "1"))
    assert masks == []


def test_final_state_matches_target_for_each_scheme(report):
    from codonbranch.search import final_state
    chain = report.chain_report("osp(5|2)/3")
    assert len(chain.schemes) == 3
    for scheme in chain.schemes:
        state = apply_plan("osp(5|2)/3", list(scheme.plan))
        for mask in scheme.masks:
            final = final_state(state, scheme.final_op, mask)
            stats = phase2_stats(final)
            assert match_target(stats)
            assert stats.n_multiplets == 21
            assert final.total_dim() == 64


def test_triplet_reachability_facts():
    # sl(2|2) chain end: (5)-(0) can never make a triplet, (3)-(2) makes 0 or 4
    assert reachable_triplet_counts((("u", 5), ("u", 0))) == frozenset({0})
    assert reachable_triplet_counts((("u", 3), ("u", 2))) == frozenset({0, 4})
    assert reachable_triplet_counts((("u", 2), ("u", 1))) == frozenset({0, 2})
    # osp(3|4) chain 1: the dimension-12 (1)-(0)-(5) cannot break into triplets
    assert reachable_triplet_counts((("u", 1), ("u", 0), ("u", 5))) == frozenset({0})
    # osp(5|2) chain 2: (0)-(5) cannot; (2)-(3) can (0 or 4)
    assert reachable_triplet_counts((("u", 0), ("u", 5))) == frozenset({0})
    assert reachable_triplet_counts((("u", 2), ("u", 3))) == frozenset({0, 4})


def _starts():
    """The phase-2 starting state of every all-sl(2) chain."""
    out = []
    for c in CHAINS:
        dist = apply_chain(c.chain_id)
        if dist.stage.all_sl2():
            out.append((c.chain_id, from_distribution(dist)))
    return out


def test_triplet_counts_match_the_search_over_piece_states():
    starts = {slots for _, state in _starts() for slots in state.shapes}
    closed_form = reachable_triplet_counts.__wrapped__  # past the cache
    for slots in sorted(starts):
        assert closed_form(slots) == reachable_triplet_counts_bfs(slots), slots
    values = ([("u", v) for v in range(5)] + [("o", v) for v in range(5)]
              + [("s", v) for v in range(-2, 3)])
    tuples = [t for k in (1, 2, 3) for t in itertools.product(values, repeat=k)]
    assert len(tuples) == 3615
    for slots in tuples:
        assert closed_form(slots) == reachable_triplet_counts_bfs(slots), slots


def test_status_key_partitions_the_unpruned_enumeration_like_the_entries():
    """Below the start one status per slot fixes a state: over every plan of
    every all-sl(2) chain, (slot statuses, op) and (sorted entries, op)
    group the (state, op) pairs identically."""
    pairs = 0
    for chain_id, start in _starts():
        by_status, by_entries = {}, {}
        frontier = [start]
        while frontier:
            state = frontier.pop()
            for op in available_ops(state):
                child = apply_op(state, op)
                status = (child.statuses(), op)
                entries = (tuple(sorted((e.slots, e.history, e.mult) for e in child.entries)),
                           op.render())
                by_status.setdefault(status, set()).add(entries)
                by_entries.setdefault(entries, set()).add(status)
                frontier.append(child)
                pairs += 1
        assert all(len(v) == 1 for v in by_status.values()), chain_id
        assert all(len(v) == 1 for v in by_entries.values()), chain_id
    assert pairs == 2877


def _plans_under_the_entry_key(start):
    """The plans the enumeration visits when it deduplicates states by their
    sorted entries."""
    plans, seen = [], set()

    def walk(state, plan):
        for op in available_ops(state):
            child = apply_op(state, op)
            plans.append(plan + (op,))
            if prune(phase2_stats(child), 2):
                continue
            key = (tuple(sorted((e.slots, e.history, e.mult) for e in child.entries)),
                   op.render())
            if key not in seen:
                seen.add(key)
                walk(child, plan + (op,))

    walk(start, ())
    return plans


def test_enumeration_visits_the_plans_of_the_entry_key(report):
    for chain_id, start in _starts():
        nodes = report.chain_report(chain_id).option_nodes
        if nodes:
            assert [n.plan for n in nodes] == _plans_under_the_entry_key(start), chain_id


def test_masks_match_the_reference_solver(monkeypatch):
    """At every terminal (state, op) of every plan of three osp(5|2) and
    osp(4|2) chains, for the standard code and three other targets; an op is
    terminal when no piece is larger than the target's largest dimension.
    At any other op the solver finds no mask from the bounds alone, before
    it builds any group row.  The targets run forward, then in reverse on
    fresh states: the first target that passes an op's bounds builds its
    move table and the others read it, so tables built under top 6 answer
    top 4 and tables built under top 4 answer top 6."""
    targets = (GENETIC_CODE_TARGET, {4: 8, 2: 14, 1: 4}, {6: 2, 4: 7, 2: 12},
               {6: 2, 4: 6, 3: 2, 2: 9, 1: 4})
    solved = [0] * len(targets)
    grouped = _count_calls(monkeypatch, (search._group_rows,))
    for order, chain_id in itertools.product(
            ((0, 1, 2, 3), (3, 2, 1, 0)), ("osp(5|2)/1", "osp(5|2)/3", "osp(4|2)(5,0,0)/3")):
        frontier = [apply_plan(chain_id, [])]
        while frontier:
            state = frontier.pop()
            for op in available_ops(state):
                child = apply_op(state, op)
                frontier.append(child)
                largest = phase2_stats(child).dim_histogram[0][0]
                groups = freeze_groups_reference(
                    [(e.slots, e.mult) for e in state.entries], op.kind,
                    state.slot_names.index(op.slot))
                for i in order:
                    target = targets[i]
                    grouped.clear()
                    got = [m.frozen for m in solve_freezing(state, op, target)]
                    if largest > max(target):
                        assert got == [] and not grouped, (chain_id, op, i)
                        continue
                    assert got == solve_freezing_reference(groups, target), (chain_id, op, i)
                    solved[i] += len(got)
    assert all(solved), solved


def test_masks_match_the_reference_solver_off_dimension_64():
    """Hand-built states of total dimension other than 64: a mask needs
    every count exact, which no dimension count alone can force."""
    state = apply_plan("osp(5|2)/3", ["soft:3"])
    variants = []
    for i in range(len(state.entries)):
        e = state.entries[i]
        variants.append(state.entries[:i] + state.entries[i + 1:])
        variants.append(state.entries + (Multiplet(e.slots, 1, e.history),))
    for entries in variants:
        hand = Phase2State(state.slot_names, state.stages, entries)
        assert hand.total_dim() != 64
        for op in available_ops(hand):
            groups = freeze_groups_reference([(e.slots, e.mult) for e in entries], op.kind,
                                             hand.slot_names.index(op.slot))
            for target in (GENETIC_CODE_TARGET, {6: 2, 4: 6, 3: 2, 2: 9, 1: 4}):
                got = [m.frozen for m in solve_freezing(hand, op, target)]
                assert got == solve_freezing_reference(groups, target), (entries, op)


def test_a_piece_above_the_target_rejects_a_step_before_its_group_rows(monkeypatch):
    # soft:1 breaks each 4-dim shape into two doublets, which the totals can
    # place, and the 9-dim shape into a 6 and a 3: only the largest piece
    # rules the step out.
    state = Phase2State(("1", "2"), (), (Multiplet((("u", 3), ("s", 0)), 16, ()),
                                         Multiplet((("u", 2), ("u", 2)), 1, ())))
    grouped = _count_calls(monkeypatch, (search._group_rows,))
    assert solve_freezing(state, PhaseOp("soft", "1"), {2: 32}) == []
    assert not grouped


@pytest.mark.parametrize("target, problem", [
    ({6: 3, 4: 5, 3: 2, 2: 9, 1: 1}, "sum 63"),
    ({6: "3", 4: 5, 3: 2, 2: 9, 1: 2}, "string count"),
    ({6: 3.0, 4: 5, 3: 2, 2: 9, 1: 2}, "float count"),
    ({6: 3, 4: 5, 3: 2, 2: 9, 1: 2, 5: 0}, "zero count"),
    ({6: 3, 4: 5, 3: 2, 2: 10, 0: 1}, "zero dimension"),
    ({6: 3, 4: 5, 3: 2, 2: 9, 1: True, -1: -1}, "bool and negative"),
    ({}, "empty"),
    ([(6, 3), (4, 5), (3, 2), (2, 9), (1, 2)], "not a dict"),
])
def test_malformed_targets_are_a_typed_error(target, problem):
    state = apply_plan("osp(5|2)/3", ["soft:3"])
    stats = phase2_stats(state)
    for call in (lambda: full_search(target), lambda: enumerate_phase2(state, target),
                 lambda: solve_freezing(state, PhaseOp("soft", "12"), target),
                 lambda: match_target(stats, target), lambda: prune(stats, 2, target)):
        with pytest.raises(InvalidTargetError, match="sum\\(d \\* n\\) == 64"):
            call()
    assert issubclass(InvalidTargetError, ValueError)


def test_other_valid_targets_are_searched():
    rep = full_search({4: 8, 2: 14, 1: 4})
    assert rep.target == {4: 8, 2: 14, 1: 4}
    assert len(rep.survivors()) == 65  # every one of them found by the oracle below


@pytest.mark.parametrize("target, silent", [
    pytest.param({4: 8, 2: 14, 1: 4},
                 ["sl(3|1)/1", "sl(6|1)/3", "sl(6|1)/4", "sl(6|1)/5", "osp(2|6)/1"],
                 id="4:8,2:14,1:4"),
    pytest.param({6: 2, 4: 6, 3: 2, 2: 9, 1: 4}, ["sl(6|1)/3", "sl(6|1)/5", "osp(2|6)/1"],
                 id="6:2,4:6,3:2,2:9,1:4"),
])
def test_chains_left_above_sl2_with_no_verdict_say_so_in_the_summary(target, silent):
    # These chain ends are not all-sl(2) and trip no bound for the target,
    # so the search neither excludes nor searches them.
    rep = full_search(target)
    lines = [line for line in report_summary(rep).splitlines()
             if line.endswith("; no second-phase scheme reaches the code")]
    assert [line.split(":")[0].strip() for line in lines] == silent
    assert all(rep.chain_report(c).verdict_codes == () for c in silent)


def _fold(state):
    return tuple(sorted((slots, n) for slots, (_, n) in state.shapes.items()))


@pytest.mark.parametrize("target, n_schemes, n_masks", TARGETS)
def test_search_finds_what_the_unpruned_oracle_finds(target, n_schemes, n_masks):
    """The (chain, pre-final fold, final op, masks) of every scheme, against
    a walk over every plan of every all-sl(2) chain with no pruning."""
    rep = full_search(target)
    got = {(s.chain_id, _fold(apply_plan(s.chain_id, s.plan)), s.final_op.render(),
            tuple(m.frozen for m in s.masks)) for s in rep.survivors()}
    want = {(chain_id,) + scheme for chain_id, start in _starts()
            for scheme in schemes_reference(start.slot_names, dict(_fold(start)), target)}
    assert got == want
    assert (len(rep.survivors()), sum(len(s.masks) for s in rep.survivors())) \
        == (n_schemes, n_masks)


def test_enumerate_rejects_an_empty_start():
    start = apply_plan("osp(5|2)/3", [])
    with pytest.raises(SlotError, match="a phase-2 state needs at least one multiplet"):
        enumerate_phase2(Phase2State(start.slot_names, start.stages, ()))


def test_survivors_exactly_three(report):
    survivors = report.survivors()
    assert len(survivors) == 3
    assert {s.chain_id for s in survivors} == {"osp(5|2)/3"}
    finals = {s.final_op.render(): s.full_break_count for s in survivors}
    assert finals == {"soft:12": 26, "strong:12": 42, "strong_after_soft:3": 28}
    for s in survivors:
        assert [op.render() for op in s.plan] == ["soft:3"]
        assert len(s.masks) >= 1


def test_near_misses_recorded(report):
    c1 = report.chain_report("osp(5|2)/1")
    hists = {tuple(sorted(h.items())) for _, h in c1.near_misses}
    assert tuple(sorted({6: 3, 4: 5, 3: 4, 2: 5, 1: 4}.items())) in hists
    c3 = report.chain_report("osp(5|2)/3")
    hists3 = {tuple(sorted(h.items())) for _, h in c3.near_misses}
    assert tuple(sorted({6: 2, 4: 7, 3: 2, 2: 8, 1: 2}.items())) in hists3


def test_report_complete_and_deterministic(report):
    seen = []
    for a in report.algebras:
        for c in a.chains:
            seen.append(c.chain_id)
            assert c.verdict_codes or c.schemes
    assert sorted(seen) == sorted(c.chain_id for c in CHAINS)
    assert report_to_dict(report) == report_to_dict(full_search())


def test_six_algebras_reach_the_second_phase(report):
    reached = set()
    for a in report.algebras:
        for c in a.chains:
            dist = apply_chain(c.chain_id)
            if dist.stage.all_sl2() and not prune(c.end_stats, 1):
                reached.add(a.key.split("(")[0] + "(" + a.key.split("(")[1])
    names = {k.split(")")[0] + ")" for k in reached}
    assert names == {"sl(2|1)", "sl(2|2)", "osp(3|2)", "osp(3|4)", "osp(5|2)",
                     "osp(4|2)"}


def test_pruned_nodes_are_sound(report):
    """Spot check: no pruned subtree hides a target match within two more ops."""
    pruned = []
    for a in report.algebras:
        for c in a.chains:
            for plan, violations in c.pruned:
                pruned.append((c.chain_id, plan))
    rng = random.Random(99)
    sample = rng.sample(pruned, min(20, len(pruned)))
    for chain_id, plan in sample:
        state = apply_plan(chain_id, list(plan))
        frontier = [(state, 0)]
        while frontier:
            st, depth = frontier.pop()
            if depth >= 2:
                continue
            for op in available_ops(st):
                child = apply_op(st, op)
                if all(e.dim() <= 6 for e in child.entries):
                    assert solve_freezing(st, op) == []
                frontier.append((child, depth + 1))


def test_enumeration_respects_plan_constraints(report):
    c1 = report.chain_report("osp(5|2)/1")
    for node in c1.option_nodes:
        per_slot = {}
        for op in node.plan:
            per_slot.setdefault(op.slot, []).append(op.kind)
        for kinds in per_slot.values():
            assert kinds.count("soft") <= 1
            assert kinds.count("strong") + kinds.count("strong_after_soft") <= 1
            if "strong_after_soft" in kinds:
                assert kinds.index("soft") < kinds.index("strong_after_soft")
    # A plan is a path in the depth-first tree, so no chain repeats one.
    for a in report.algebras:
        for c in a.chains:
            plans = [tuple(op._text for op in node.plan) for node in c.option_nodes]
            assert len(set(plans)) == len(plans), c.chain_id


def test_freezing_rejects_unknown_slot():
    state = apply_plan("osp(5|2)/3", ["soft:3"])
    op = PhaseOp("soft", "9")
    for call in (lambda: solve_freezing(state, op), lambda: freeze_groups(state, op),
                 lambda: final_state(state, op, FreezeMask(()))):
        with pytest.raises(SlotError, match="unknown slot '9' in soft:9; valid slots: 12, 3"):
            call()


def test_the_slot_state_rule_holds_wherever_a_slot_splits():
    state = apply_plan("osp(5|2)/3", ["soft:3"])
    op = PhaseOp("strong", "3")
    for call in (lambda: apply_op(state, op), lambda: solve_freezing(state, op),
                 lambda: freeze_groups(state, op),
                 lambda: final_state(state, op, FreezeMask(()))):
        with pytest.raises(SlotError, match=r"strong:3 needs state 'u' in slot 3, found \('o', "):
            call()
    unbroken = state.entries[0]
    assert unbroken.slots[0][0] == "u"  # slot 12
    with pytest.raises(SlotError, match=r"needs state 'o' in slot 0, found \('u', "):
        break_multiplet(unbroken, "strong_after_soft", 0)


def test_apply_op_checks_every_slot_class_itself():
    # The child's fold is split only when read, but a wrong op fails at
    # apply_op, on whichever slot class it does not act on.
    state = apply_plan("osp(5|2)/3", ["soft:3"])
    with pytest.raises(SlotError, match=r"^strong:3 needs state 'u' in slot 3, found \('o', "):
        apply_op(state, PhaseOp("strong", "3"))
    with pytest.raises(SlotError, match=r"^unknown breaking kind 'hard'; kinds are soft, "
                                        r"strong, strong_after_soft$"):
        apply_op(state, PhaseOp("hard", "12"))
    mixed = Phase2State(("1",), (), (Multiplet((("u", 2),), 1, ()),
                                     Multiplet((("o", 2),), 1, ())))
    with pytest.raises(SlotError, match=r"^soft:1 needs state 'u' in slot 1, "
                                        r"found \('o', 2\)$"):
        apply_op(mixed, PhaseOp("soft", "1"))


def test_an_op_that_is_not_a_phase_op_is_a_slot_error():
    state = apply_plan("osp(5|2)/3", ["soft:3"])
    for call in (lambda: apply_op(state, "soft:12"), lambda: solve_freezing(state, "soft:12"),
                 lambda: freeze_groups(state, "soft:12"),
                 lambda: final_state(state, "soft:12", FreezeMask(()))):
        with pytest.raises(SlotError, match=r"^breaking op 'soft:12' is not a PhaseOp"):
            call()
    with pytest.raises(SlotError, match=r"^breaking op \('soft', '3'\) is not a kind:slot"):
        apply_plan("osp(5|2)/3", [("soft", "3")])


def _stats_fields(s: Stats) -> dict:
    return {"n_multiplets": s.n_multiplets, "d3": s.d3, "n_singlets": s.n_singlets,
            "n_odd": s.n_odd, "total_pairing": s.total_pairing,
            "dim_histogram": s.dim_histogram}


def _check_phase2_against_reference(state, op):
    """``apply_op``, ``phase2_stats`` and ``freeze_groups`` at one option node
    against the reference built from slot dimensions alone."""
    child = apply_op(state, op)
    for e in child.entries:
        assert e.dim() == math.prod(slot_dim(s) for s in e.slots), e
    # The fold apply_op builds is the fold of the entries it leaves to split.
    eager = Phase2State(child.slot_names, child.stages, child.entries)
    refold = eager.shapes
    assert list(child.shapes.items()) == list(refold.items())
    # The histogram and the odd-count self-conjugate shapes apply_op derives
    # from the parent are those of the fold.
    assert child.dims == eager.dims
    assert set(child.odd0) == set(eager.odd0)
    assert child.statuses() == eager.statuses()
    rows = [(e.slots, e.mult) for e in child.entries]
    assert _stats_fields(phase2_stats(child)) == phase2_stats_reference(rows)
    # Every state of a walk descends from a start state, which is symmetric;
    # a break keeps the flag, and the child's entries are symmetric indeed.
    assert state.symmetric and child.symmetric
    assert _uniform_and_symmetric(rows)
    groups = [(g.slots, g.count, g.dim, g.pieces, g.neutral)
              for g in freeze_groups(state, op)]
    idx = state.slot_names.index(op.slot)
    assert groups == freeze_groups_reference([(e.slots, e.mult) for e in state.entries],
                                             op.kind, idx)
    return child


def _uniform_and_symmetric(rows) -> bool:
    """Whether ``(slots, mult)`` rows have one slot state per slot, and each
    slot tuple the total count of its conjugate."""
    counts = Counter()
    for slots, n in rows:
        counts[slots] += n
    return len({tuple(st for st, _ in slots) for slots in counts}) == 1 and \
        all(counts[tuple(map(slot_conjugate, slots))] == n for slots, n in counts.items())


def test_phase2_matches_the_slot_dimension_reference_at_every_option_node(report):
    nodes = 0
    for a in report.algebras:
        for c in a.chains:
            for node in c.option_nodes:
                _check_phase2_against_reference(apply_plan(c.chain_id, node.plan[:-1]),
                                                node.plan[-1])
                nodes += 1
    assert nodes == 265
    # Every plan of osp(5|2)/3, pruned or not.
    frontier = [apply_plan("osp(5|2)/3", [])]
    walked = 0
    while frontier:
        state = frontier.pop()
        for op in available_ops(state):
            frontier.append(_check_phase2_against_reference(state, op))
            walked += 1
    assert walked > len(report.chain_report("osp(5|2)/3").option_nodes)


def test_hand_built_multiplets_multiply_their_dimension_out():
    slots = (("u", 2), ("o", 1), ("s", -1))
    hand = Multiplet(slots, 2, ("h",))
    assert hand.dim() == 6
    pieces = break_multiplet(hand, "soft", 0)
    assert [p.dim() for p in pieces] == [4, 2]
    assert pieces[0] == Multiplet((("o", 2),) + slots[1:], 2, ("h",))
    conj = Multiplet((("u", 2), ("o", 1), ("s", 1)), 2, ("h",))
    state = Phase2State(("1", "2", "3"), (), (hand, conj, Multiplet(slots, 1, ())))
    assert not state.symmetric  # counts 3 and 2 on a conjugate pair
    rows = [(e.slots, e.mult) for e in state.entries]
    assert _stats_fields(phase2_stats(state)) == phase2_stats_reference(rows)
    for op in available_ops(state):
        groups = [(g.slots, g.count, g.dim, g.pieces, g.neutral)
                  for g in freeze_groups(state, op)]
        assert groups == freeze_groups_reference(rows, op.kind,
                                                 state.slot_names.index(op.slot))
    # Its children, and theirs, inherit the flag and are paired class by
    # class on their folds.
    frontier = [state]
    children = 0
    while frontier:
        parent = frontier.pop()
        for op in available_ops(parent):
            child = apply_op(parent, op)
            assert not child.symmetric
            rows = [(e.slots, e.mult) for e in child.entries]
            assert _stats_fields(phase2_stats(child)) == phase2_stats_reference(rows)
            frontier.append(child)
            children += 1
    assert children == 11  # every plan from the hand-built state


def test_a_uniform_asymmetric_state_is_paired_class_by_class():
    # Both shapes are strong-broken off 0, so the zero-slot rule alone would
    # call the state paired; its one conjugation class counts 1 + 2.
    plus, minus = (("o", 1), ("s", 1)), (("o", 1), ("s", -1))
    state = Phase2State(("1", "2"), (), (Multiplet(plus, 1, ()), Multiplet(minus, 2, ())))
    assert not state.symmetric
    rows = [(e.slots, e.mult) for e in state.entries]
    assert phase2_stats_reference(rows)["total_pairing"] is False
    assert _stats_fields(phase2_stats(state)) == phase2_stats_reference(rows)
    # With equal counts the state is symmetric and paired under either rule.
    even = Phase2State(("1", "2"), (), (Multiplet(plus, 1, ()), Multiplet(minus, 1, ())))
    assert even.symmetric and phase2_stats(even).total_pairing


def test_final_states_are_paired_class_by_class(report):
    # Frozen groups keep the slot state that the others break, so a final
    # state of a scheme that freezes is not uniform, and is never flagged.
    scheme = report.chain_report("osp(5|2)/3").schemes[0]
    state = apply_plan("osp(5|2)/3", list(scheme.plan))
    final = final_state(state, scheme.final_op, scheme.masks[0])
    assert scheme.masks[0].frozen and not final.symmetric
    rows = [(e.slots, e.mult) for e in final.entries]
    assert _stats_fields(phase2_stats(final)) == phase2_stats_reference(rows)


_CALL_COUNTS = """
import json, sys
from collections import Counter
from codonbranch.search import full_search
full_search()
calls = Counter()
def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        calls[f"{code.co_filename}:{code.co_firstlineno}:{code.co_name}"] += 1
    elif event == "c_call":
        calls[f"{getattr(arg, '__module__', None)}.{arg.__qualname__}"] += 1
sys.setprofile(profile)
full_search()
sys.setprofile(None)
print(json.dumps(calls))
"""


def test_the_work_of_a_warm_search_does_not_depend_on_the_hash_seed():
    # String hashes, and with them the order of a set of slot tuples, differ
    # per process; phase 2 walks folds, whose order is the entries' order.
    src = os.path.dirname(os.path.dirname(phase2.__file__))
    counts = []
    for seed in ("0", "1"):
        proc = subprocess.run([sys.executable, "-c", _CALL_COUNTS], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
        assert proc.returncode == 0, proc.stderr
        counts.append(json.loads(proc.stdout))
    assert counts[0] == counts[1]
    # The tree the first search built answers the second: it solves every
    # terminal step and builds no child and no slot-class rows.
    names = Counter()
    for call, n in counts[0].items():
        names[call.rpartition(":")[2]] += n
    assert names["solve_freezing"] == 168
    assert names["apply_op"] == names["class_rows"] == 0


def test_a_warm_search_reads_fractions_only_at_the_boundary():
    # Catalog labels are Fractions; a search reads their numerators and
    # denominators and does every sum and product on ints.  The chain-end
    # caches are cleared so that the first step runs, on warm characters.
    full_search()
    search._chain_end.cache_clear()
    search._first_step_stats.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            called.add(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        full_search()
    finally:
        sys.setprofile(previous)
    assert called <= {"numerator", "denominator"}, sorted(called)


def test_a_warm_search_splits_no_entries(monkeypatch):
    # A state made by apply_op splits its fold and its entries on first read.
    # A search reads no entries, so it builds no Multiplet below the chain
    # ends, and reads the fold only of a state it expands: 59 of the 265
    # option nodes of the standard code.  The children stay on the cached
    # start states, so a warm search builds none of them again, and no fold.
    _clear_every_cache()
    reads = []
    split = Phase2State.__getattr__

    def counted(self, name):
        reads.append(name)
        return split(self, name)

    monkeypatch.setattr(Phase2State, "__getattr__", counted)
    built = _count_calls(monkeypatch, (phase2.apply_op,))
    full_search()
    assert "entries" not in reads
    assert reads.count("shapes") == len(reads) == 59
    assert built["apply_op"] == 265
    reads.clear()
    built.clear()
    full_search()
    assert reads == [] and not built


def _count_calls(monkeypatch, functions) -> Counter:
    """Calls of each function by name, wherever a package module or
    :class:`Phase2State` binds it."""
    calls = Counter()
    for fn in functions:
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        bound = [(ns, attr) for ns in _package_modules() + [Phase2State]
                 for attr, obj in vars(ns).items() if obj is fn]
        assert bound, fn
        for ns, attr in bound:
            monkeypatch.setattr(ns, attr, counted)
    return calls


def test_a_warm_search_reads_its_edges_and_freezing_totals_from_the_kept_tree(monkeypatch):
    # A cold standard search makes the calls that the benchmark harness pins:
    # one apply_op and one phase2_stats per option node, one solve_freezing
    # per terminal one.  A state it expands keeps its edge rows, and a state
    # it solves a last step of keeps the bounds per op, and the move table of
    # each of the 10 steps that pass them, so the warm search after it builds
    # none of these and no child, statistics, slot-class or group rows.  It
    # still solves every terminal step.
    _clear_every_cache()
    calls = _count_calls(monkeypatch, (
        phase2.apply_op, phase2.phase2_stats, Phase2State.class_rows, search.solve_freezing,
        search._group_rows, search._class_totals, search._edges))
    full_search()
    assert calls["apply_op"] == calls["phase2_stats"] == 265
    assert calls["solve_freezing"] == calls["_class_totals"] == 168
    assert calls["_group_rows"] == 10
    calls.clear()
    full_search()
    assert calls == {"solve_freezing": 168}


def test_the_per_slot_split_table_stays_small():
    # One entry per (breaking kind, slot) met anywhere: a search and tables 1-9.
    full_search()
    for table in range(1, 10):
        build_table(table)
    assert 0 < _split_table.cache_info().currsize < 100


# ---------------------------------------------------------------------------
# the per-process cache of chain ends and first-step statistics


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "codonbranch" or name.startswith("codonbranch.")]


def _clear_every_cache():
    for mod in _package_modules():
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)) and not isinstance(obj, type):
                obj.cache_clear()


def test_a_warm_search_builds_no_chain_end(monkeypatch):
    # The first step, the chains and their statistics depend only on the
    # chain: after one search, no later search builds them, whatever its target.
    full_search()
    calls = []
    modules = _package_modules()
    for fn in (embed_chains.first_step_distribution, embed_chains.apply_chain,
               super_branch.branch_to_even, phase2.distribution_stats,
               phase2.from_distribution):
        def counted(*args, _fn=fn, **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)
        bound = [(m, attr) for m in modules for attr, obj in vars(m).items() if obj is fn]
        assert bound
        for m, attr in bound:
            monkeypatch.setattr(m, attr, counted)
    full_search()
    full_search({4: 8, 2: 14, 1: 4})
    assert calls == []


@pytest.mark.parametrize("target", [None, {6: 2, 4: 7, 2: 12}])
def test_a_cached_search_reports_what_a_cold_one_does(target):
    full_search()
    warm = report_to_dict(full_search(target))
    _clear_every_cache()
    assert report_to_dict(full_search(target)) == warm


def test_the_chain_end_caches_hold_one_entry_per_registered_id():
    for target, _, _ in (p.values for p in TARGETS):
        full_search(target)
    assert search._chain_end.cache_info().currsize == len(CHAINS)
    assert search._first_step_stats.cache_info().currsize == len(CATALOG)


def test_reports_share_no_triplet_facts():
    a, b = full_search(), full_search()
    for chain in CHAINS:
        assert a.chain_report(chain.chain_id).triplet_facts is not \
            b.chain_report(chain.chain_id).triplet_facts


# ---------------------------------------------------------------------------
# the phase-2 tree kept on the cached start states

# The standard code, two hand-written histograms and NCBI tables 2 and 5: the
# targets with schemes.
MEMO_TARGETS = (None, {4: 8, 2: 14, 1: 4}, {6: 2, 4: 6, 3: 2, 2: 9, 1: 4},
                {6: 2, 4: 7, 2: 12}, {8: 1, 6: 1, 4: 6, 2: 13})


def _kept_children() -> int:
    """Children in the edge rows of the cached start states and their
    descendants."""
    frontier = [search._chain_end(c.chain_id)[2] for c in CHAINS]
    frontier = [state for state in frontier if state is not None]
    kept = 0
    while frontier:
        children = [row[1] for row in frontier.pop()._edges or ()]
        kept += len(children)
        frontier.extend(children)
    return kept


@pytest.fixture(scope="module")
def cold_reports():
    reports = []
    for target in MEMO_TARGETS:
        _clear_every_cache()
        reports.append(report_to_dict(full_search(target)))
    return reports


@pytest.mark.parametrize("order", [(0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (2, 4, 0, 3, 1)],
                         ids=["forward", "reverse", "mixed"])
def test_a_search_on_a_kept_tree_reports_what_a_cold_one_does(cold_reports, order):
    # Only pruning, the terminal test and the masks depend on the target, so
    # children that another target's walk built are the same children.
    _clear_every_cache()
    for i in order:
        assert report_to_dict(full_search(MEMO_TARGETS[i])) == cold_reports[i], i
    for i in order:
        assert report_to_dict(full_search(MEMO_TARGETS[i])) == cold_reports[i], i


def test_the_kept_tree_is_bounded_by_the_per_route_tree():
    _clear_every_cache()
    full_search()
    assert _kept_children() == 265
    for target in MEMO_TARGETS:
        full_search(target)
    assert _kept_children() == 642
    # Edge rows on every kept state: one child per route, whatever the target.
    frontier = [search._chain_end(c.chain_id)[2] for c in CHAINS]
    frontier = [state for state in frontier if state is not None]
    assert len(frontier) == 28
    while frontier:
        state = frontier.pop()
        if state._edges is None:
            state._edges = search._edges(state)
        frontier.extend(row[1] for row in state._edges)
    assert _kept_children() == 2877
    for target in MEMO_TARGETS:
        full_search(target)
    assert _kept_children() == 2877


def test_clearing_the_chain_end_cache_frees_the_kept_tree():
    # No state refers to its parent, so the tree goes without the collector.
    gc.disable()
    try:
        full_search()
        start = weakref.ref(search._chain_end("osp(5|2)/3")[2])
        assert start() is not None and start()._edges
        search._chain_end.cache_clear()
        assert start() is None
    finally:
        gc.enable()


def _eager_state(chain_id: str, plan) -> Phase2State:
    """The end state of ``plan``, each step built from the entries by
    :func:`break_multiplet`."""
    state = from_distribution(apply_chain(chain_id))
    for token in plan:
        op = PhaseOp.parse(token)
        idx = state.slot_names.index(op.slot)
        state = Phase2State(state.slot_names, state.stages, tuple(
            p for e in state.entries for p in break_multiplet(e, op.kind, idx)))
    return state


def test_a_child_outlives_its_parent():
    # A child keeps its parent's fold and its ancestors' entries, never a
    # state, so its parent goes when the last reference to it does.
    plan = ["soft:3", "strong:12", "strong_after_soft:3"]
    gc.disable()
    try:
        parent = apply_plan("osp(5|2)/3", plan[:2])
        child = apply_op(parent, PhaseOp.parse(plan[2]))
        ref = weakref.ref(parent)
        del parent
        assert ref() is None
    finally:
        gc.enable()
    eager = _eager_state("osp(5|2)/3", plan)
    assert list(child.shapes.items()) == list(eager.shapes.items())
    assert child.entries == eager.entries
    assert phase2_stats(child) == phase2_stats(eager)


def test_library_calls_leave_no_cyclic_garbage():
    # Every object these calls make is freed by its reference count once the
    # caches are cleared, so the collector finds nothing.
    _clear_every_cache()
    gc.collect()
    gc.disable()
    try:
        full_search()
        full_search({4: 8, 2: 14, 1: 4})
        for table in range(1, 10):
            build_table(table)
        state = apply_plan("osp(5|2)/3", ["soft:3"])
        assert state.entries and phase2_stats(state).n_multiplets
        op = PhaseOp("strong", "12")
        assert final_state(state, op, solve_freezing(state, op)[0]).entries
        del state
        _clear_every_cache()
        assert gc.collect() == 0
    finally:
        gc.enable()
