"""Exhaustive scheme search with exclusion pruning and final-step freezing.

The search walks every registered chain, then enumerates second-phase plans
depth-first.  After each operation the fully-broken state is examined: when
no multiplet above the target's largest dimension remains, that operation
can serve as the last step and the freezing masks hitting the target are
solved exactly; independently, the branch continues deeper unless a
monotone statistic already rules every continuation out.

Every bound is read off the target's own statistics, its goal.  The
continuation prunes are sound under last-step freezing, because frozen
multiplets are a subset of the pre-final state:

* more singlets than the goal: singlets are indestructible;
* more odd-dimensional multiplets than the goal: every odd multiplet keeps
  at least one odd descendant under any breaking;
* d3 below the goal's: breaking never raises d3;
* more multiplets than the goal: breaking never lowers the count.

Total pairing excludes at the first phase only, and only when the goal is
not itself totally paired: uniform breaking preserves it, but last-step
freezing can separate the two halves of a conjugate pair.

Only the phase-2 walk depends on the target, so the rest is built once per
process: ``_chain_end`` keeps each registered chain's end distribution, its
statistics, its phase-2 start state and its triplet facts, and
``_first_step_stats`` each catalog representation's first-step statistics.
They are keyed by registry ids and bounded by the registries (37 chains, 14
representations), so a warm search runs only phase 2.  Within the walk only
pruning, the terminal test and the freezing masks depend on the target:
each state the walk expands keeps its edge rows, so a start state keeps
every child that any search expanded below it (see ``phase2``; at most
2,877 children) and a warm search reads one kept row per option node.
Each state's record per op keeps the target-free bounds of its last step
and, once a step passes them, its move table, so a warm search rejects
most last steps by one loop over the target's dimensions and searches the
masks of the rest from kept tables, building no group rows.  The walk and
the mask search recurse through module-level functions, not closures,
which would refer to themselves.  A test gets a cold search by calling
``cache_clear()`` on every cache of ``lie_core``, ``embed_chains`` and
``search``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from . import InputError
from .embed_chains import (
    CHAINS,
    ChainDef,
    apply_chain,
    first_step_distribution,
)
from .lie_core import Record, UnknownNameError
from .phase2 import (
    Phase2State,
    PhaseOp,
    SlotError,
    Stats,
    _KINDS,
    _render_shape,
    _split,
    _stats,
    apply_op,
    available_ops,
    break_multiplet,
    distribution_stats,
    from_distribution,
    phase2_stats,
    slot_dim,
)
from .super_branch import CATALOG

GENETIC_CODE_TARGET = {6: 3, 4: 5, 3: 2, 2: 9, 1: 2}


class InvalidTargetError(InputError, ValueError):
    """A target that no 64-dimensional distribution can hit, or a phase not 1 or 2."""


def _goal(target=None) -> Stats:
    """The goal: the statistics of ``target`` (the standard code for
    ``None``), totally paired when every count is even; a goal passes
    through.  A target maps positive integer dimensions to positive integer
    counts with sum(d * n) == 64."""
    if isinstance(target, Stats):
        return target
    target = GENETIC_CODE_TARGET if target is None else target
    pairs = target.items() if isinstance(target, dict) else [(0, 0)]
    if not all(type(d) is type(n) is int and min(d, n) > 0 for d, n in pairs) \
            or sum(d * n for d, n in pairs) != 64:
        raise InvalidTargetError(f"target {target!r} is not a histogram of positive integer "
                                 "dimensions and counts with sum(d * n) == 64")
    return _stats(target, all(n % 2 == 0 for n in target.values()))


TOTAL_PAIRING = "TotalPairing"
TOO_MANY_SINGLETS = "TooManySinglets"
TOO_MANY_ODD = "TooManyOdd"
D3_TOO_SMALL = "D3TooSmall"
TOO_MANY_MULTIPLETS = "TooManyMultiplets"
NO_SURVIVING_SCHEME = "NoSurvivingScheme"


def prune(stats: Stats, phase: int, target=None):
    """Violated exclusion criteria, each a bound read off the target's goal.

    Phase 1 is the chain-level check (total pairing, singlets, odd count);
    phase 2 is the continuation check inside the breaking tree, where only
    criteria that survive final-step freezing may appear.  Any other phase,
    ``True`` and ``2.0`` included, raises :class:`InvalidTargetError`.
    """
    goal = target if type(target) is Stats else _goal(target)
    if phase == 2 and type(phase) is int:
        out = []
    elif phase == 1 and type(phase) is int:
        out = [TOTAL_PAIRING] if stats.total_pairing and not goal.total_pairing else []
    else:
        raise InvalidTargetError(f"unknown phase {phase!r}; phases are 1 and 2")
    if stats.n_singlets > goal.n_singlets:
        out.append(TOO_MANY_SINGLETS)
    if stats.n_odd > goal.n_odd:
        out.append(TOO_MANY_ODD)
    if phase == 2:
        if stats.d3 < goal.d3:
            out.append(D3_TOO_SMALL)
        if stats.n_multiplets > goal.n_multiplets:
            out.append(TOO_MANY_MULTIPLETS)
    return out


def match_target(stats: Stats, target=None) -> bool:
    return stats.dim_histogram == _goal(target).dim_histogram


# ---------------------------------------------------------------------------
# freezing masks


class FreezeGroup(Record):
    """All copies of one multiplet shape at the pre-final state: ``pieces``
    is the sorted dimension histogram of one copy after the final op, and a
    ``neutral`` group's breaking leaves that histogram unchanged."""

    __slots__ = ("slots", "count", "dim", "pieces", "neutral")

    def render(self) -> str:
        return _render_shape(self.slots)


class FreezeMask(Record):
    """Freeze counts per non-neutral group at the final operation:
    ``((group render, parent dim, count), ...)`` with count > 0."""

    __slots__ = ("frozen",)

    def render(self) -> str:
        if not self.frozen:
            return "(none)"
        return ", ".join(f"{n}x {g} [{d}]" if n > 1 else f"{g} [{d}]"
                         for g, d, n in self.frozen)


def _group_rows(state: Phase2State, op: PhaseOp) -> list:
    """``(slots, count, dim, pieces)`` per shape of the state's fold, in fold
    order; ``pieces`` is the sorted dimension histogram of one copy after
    ``op``, found once per slot class of the state's record for ``op``."""
    pieces = {(old, dim): tuple([(dim // old_dim * d, n) for d, n in hist])
              for (old, dim), (old_dim, _, hist, _) in state.op_record(op)[0].items()}
    idx = state.slot_index(op.slot, op)
    return [(slots, count, dim, pieces[slots[idx], dim])
            for slots, (dim, count) in state.shapes.items()]


def freeze_groups(state: Phase2State, op: PhaseOp):
    return [FreezeGroup(slots, count, dim, pieces, pieces == ((dim, 1),))
            for slots, count, dim, pieces in sorted(_group_rows(state, op))]


def solve_freezing(state: Phase2State, op: PhaseOp, target=None):
    """All freezing masks at the final operation that hit the target exactly.

    Identical multiplets (same slot states) freeze all-or-none: the breaking
    perturbation cannot distinguish copies of the same multiplet, which is
    also what makes the "two identical multiplets together break into four
    triplets or none" style of exclusion argument exact.  Multiplets larger
    than the target's largest dimension must break, and their pieces must
    all fit under it for the operation to qualify as a last step at all
    (otherwise the empty list is returned).  Groups whose pieces reproduce
    their own histogram are skipped: freezing them is meaningless and masks
    are reported without them.

    Whether any mask can exist is decided first on the target-free bounds of
    the state's record for ``op`` (:meth:`Phase2State.op_record`).  A step
    is rejected when its largest piece is above the target's largest
    dimension ``top``, when a neutral group's dimension is missing from the
    target, or when at a dimension of the target the count is below the
    neutral copies or above the most the groups can leave there.  The first
    call that passes keeps the active groups in the record, sorted, each as
    its dimension, its pieces and its freeze alternative, whatever the
    target; a call drops the freeze alternative of every group above its
    ``top`` and searches the masks from that table.
    """
    goal = target if type(target) is Stats else _goal(target)
    record = state.op_record(op)
    _, top_piece, neutral, bounds, table = record
    hist = goal.dim_histogram
    top = hist[0][0]     # the target's largest dimension
    if top_piece > top:
        return []
    placed = 0           # target dimensions with neutral copies
    for d, n in hist:
        row = bounds.get(d)
        if row is None or not row[0] <= n <= row[1]:
            return []
        if row[0]:
            placed += 1
    if placed < neutral:
        return []
    left = {d: n - bounds[d][0] for d, n in hist}  # what the target still lacks
    # The most the groups not yet placed can add, per dimension.
    gain = {d: (low if d <= top else high) - fewest
            for d, (fewest, low, high) in bounds.items()}
    if table is None:
        table = record[4] = tuple(
            (dim, ((), tuple((d, n * count) for d, n in pieces)),
             (((_render_shape(slots), dim, count),), ((dim, count),)))
            for slots, count, dim, pieces in sorted(_group_rows(state, op))
            if pieces != ((dim, 1),))
    # A group adds its pieces when it breaks, or its own dimension when all
    # its copies freeze (never above ``top``); a move is checked on the
    # dimensions it touches, and a branch stops once the groups left cannot
    # fill the target.
    moves = [(broken,) if dim > top else (broken, freeze) for dim, broken, freeze in table]
    masks = []
    _freeze_masks(moves, 0, (), left, gain, masks)
    return sorted(masks, key=lambda m: m.frozen)


def _freeze_masks(moves, i, frozen, left, gain, masks) -> None:
    """Append to ``masks`` each mask ``frozen`` extends by placing groups
    ``i`` onwards; ``left`` and ``gain`` are restored on return."""
    if i == len(moves):
        masks.append(FreezeMask(frozen))
        return
    for _, added in moves[i]:  # group i is placed now
        for d, n in added:
            gain[d] -= n
    for item, added in moves[i]:  # freeze all copies or none
        for d, n in added:
            left[d] = left.get(d, 0) - n
        if all(left[d] >= 0 for d, _ in added) and \
                not any(n > gain.get(d, 0) for d, n in left.items()):
            _freeze_masks(moves, i + 1, frozen + item, left, gain, masks)
        for d, n in added:
            left[d] += n
    for _, added in moves[i]:
        for d, n in added:
            gain[d] += n


def final_state(state: Phase2State, op: PhaseOp, mask: FreezeMask) -> Phase2State:
    """Apply the final operation with the given mask (neutral groups frozen).
    A mask freezes every copy of a group, so an entry freezes whole when its
    group is frozen."""
    frozen = {g.render() for g in freeze_groups(state, op) if g.neutral}
    frozen.update(g for g, _, _ in mask.frozen)
    idx = state.slot_index(op.slot, op)
    entries = []
    for e in state.entries:
        if e.render() in frozen:
            entries.append(e)
        else:
            entries.extend(break_multiplet(e, op.kind, idx))
    return Phase2State(state.slot_names, state.stages, tuple(entries))


# ---------------------------------------------------------------------------
# triplet feasibility


@lru_cache(maxsize=None)
def reachable_triplet_counts(slots: tuple) -> frozenset:
    """Counts of dimension-3 pieces reachable from one multiplet.

    An operation acts on every piece at once (as it does distribution-wide)
    and each slot evolves on its own, so a stopping point is one status per
    slot: as given, soft-broken (from ``u``) or strong-broken (from ``u`` or
    ``o``); ``strong`` and ``soft`` then ``strong_after_soft`` leave the same
    pieces.  The pieces at a stopping point are the products of one piece per
    slot, and a product has dimension 3 only when one slot gives an unbroken
    spin 1 and every other slot a dimension-1 piece.  So the count is
    sum_j c3_j * prod_{i != j} c1_i, with c1 and c3 the slot's counts of
    dimension-1 and dimension-3 pieces under its status: the x-coefficient of
    prod_i (c1_i + c3_i x), collected over every combination of statuses.
    """
    found = set()
    for combo in product(*([[slot_dim(s)]] + [[d for _, d in _split(kind, s, i)[1]]
                                             for kind in _KINDS[s[0]]]
                           for i, s in enumerate(slots))):
        none, one = 1, 0  # piece dimensions per slot status; prod_i (c1_i + c3_i x)
        for dims in combo:
            none, one = none * dims.count(1), one * dims.count(1) + none * dims.count(3)
        found.add(one)
    return frozenset(found)


# ---------------------------------------------------------------------------
# enumeration


class OptionNode(Record):
    """One explored plan prefix (a :class:`PhaseOp` sequence) with the
    statistics after full application, the continuation prunes it
    triggered, whether it is eligible as a last step (nothing above the
    target's dimensions), and its number of freezing masks."""

    __slots__ = ("plan", "stats", "violations", "terminal", "mask_count")


class Scheme(Record):
    """A surviving breaking scheme: plan, final op, and its freezing masks."""

    __slots__ = ("chain_id", "plan", "final_op", "masks", "pre_final_count",
                 "full_break_count")


class Phase2Result(Record):
    """What :func:`enumerate_phase2` found, in lists it appends to: option
    nodes, schemes, ``(plan, histogram)`` near misses and ``(plan,
    violations)`` prunes."""

    __slots__ = ("nodes", "schemes", "near_misses", "pruned")
    __hash__ = None


def _edges(state: Phase2State) -> tuple:
    """What the walk reads of a state it expands, one row per op in op
    order: ``(op, child, child's statistics, key)``.  Below the start a
    state is fixed by one status per slot (the two routes to strong-broken
    leave the same entries), so the key, ``(child's statuses, op)``, tells
    the walk whether an equal state was already expanded."""
    rows = []
    for op in available_ops(state):
        child = apply_op(state, op)
        rows.append((op, child, phase2_stats(child), (child.statuses(), op)))
    return tuple(rows)


def enumerate_phase2(start: Phase2State, target=None) -> Phase2Result:
    """Depth-first plan enumeration with pruning and final-step mask solving.

    Each slot takes at most two operations (soft then strong, or strong), so
    plans are at most twice as long as there are slots.
    """
    goal = _goal(target)
    result = Phase2Result([], [], [], [])
    _walk(start, (), goal, 2 * len(start.slot_names), set(), result)
    return result


def _walk(state, plan, goal, longest, seen_states, result) -> None:
    """Record the edges of ``state``, reached by ``plan``, in ``result``, and
    walk each child that no prune stops and ``seen_states`` lacks."""
    edges = state._edges
    if edges is None:
        edges = state._edges = _edges(state)
    assert not edges or len(plan) < longest
    top = goal.dim_histogram[0][0]  # largest first
    for op, child, st, key in edges:
        violations = tuple(prune(st, 2, goal))
        terminal = st.dim_histogram[0][0] <= top
        masks = solve_freezing(state, op, goal) if terminal else []
        new_plan = plan + (op,)
        result.nodes.append(OptionNode(new_plan, st, violations, terminal, len(masks)))
        if masks:
            result.schemes.append((new_plan, op, masks, state.count(), st.n_multiplets))
        if terminal and not masks and st.n_multiplets == goal.n_multiplets:
            result.near_misses.append((new_plan, st.histogram()))
        if violations:
            result.pruned.append((new_plan, violations))
            continue
        if key in seen_states:
            continue
        seen_states.add(key)
        _walk(child, new_plan, goal, longest, seen_states, result)


# ---------------------------------------------------------------------------
# full search


class ChainReport(Record):
    """What the search found for one chain."""

    __slots__ = ("chain_id", "end_stage", "end_stats", "verdict_codes", "schemes",
                 "near_misses", "option_nodes", "pruned", "triplet_facts", "note")
    __hash__ = None
    _defaults = {"note": ""}

    @property
    def survived(self) -> bool:
        return bool(self.schemes)


class AlgebraReport(Record):
    """What the search found for one catalog representation."""

    __slots__ = ("key", "first_step_stats", "phase1_violations", "chains")
    __hash__ = None


class SearchReport(Record):
    """The target histogram and one :class:`AlgebraReport` per catalog entry."""

    __slots__ = ("target", "algebras")
    __hash__ = None

    def survivors(self):
        out = []
        for a in self.algebras:
            for c in a.chains:
                out.extend(c.schemes)
        return out

    def chain_report(self, chain_id: str) -> ChainReport:
        for a in self.algebras:
            for c in a.chains:
                if c.chain_id == chain_id:
                    return c
        raise UnknownNameError(f"no chain {chain_id!r} in this report")


@lru_cache(maxsize=len(CHAINS))
def _chain_end(chain_id: str) -> tuple:
    """A registered chain's end: its distribution, statistics, phase-2
    start state and triplet facts, ``(render, dim, reachable counts)`` per
    start shape (``None`` and ``()`` unless the end is all-sl(2))."""
    dist = apply_chain(chain_id)
    stats = distribution_stats(dist)
    if not dist.stage.all_sl2():
        return dist, stats, None, ()
    state = from_distribution(dist)
    # Starting slots are all unbroken, so distinct shapes render distinctly.
    facts = tuple((_render_shape(slots), dim,
                   tuple(sorted(reachable_triplet_counts(slots))))
                  for slots, (dim, _) in state.shapes.items())
    return dist, stats, state, facts


@lru_cache(maxsize=len(CATALOG))
def _first_step_stats(key: str) -> Stats:
    return distribution_stats(first_step_distribution(key))


def analyze_chain(chain: ChainDef, target=None) -> ChainReport:
    goal = _goal(target)
    dist, stats, state, triplets = _chain_end(chain.chain_id)
    verdict = tuple(prune(stats, 1, goal))
    facts = {name: {"dim": dim, "triplet_counts": list(counts)}
             for name, dim, counts in triplets}
    res = Phase2Result([], [], [], [])
    if state is not None:
        # Chain-end verdict shows every criterion the end state trips, but
        # only the freezing-sound phase-2 criteria may stop the enumeration.
        blocking = tuple(prune(stats, 2, goal))
        verdict = tuple(dict.fromkeys(verdict + blocking))
        if not blocking:
            res = enumerate_phase2(state, goal)
            verdict = () if res.schemes else (NO_SURVIVING_SCHEME,)
    # Each plan is one path of the enumeration tree, so no scheme repeats.
    schemes = [Scheme(chain.chain_id, plan[:-1], op, tuple(masks), pre_count, full_count)
               for plan, op, masks, pre_count, full_count in res.schemes]
    return ChainReport(chain.chain_id, dist.stage.names, stats, verdict, schemes,
                       res.near_misses, res.nodes, res.pruned, facts, chain.note)


def full_search(target=None) -> SearchReport:
    """Search every catalog representation through every registered chain."""
    goal = _goal(target)
    algebras = []
    for entry in CATALOG:
        stats = _first_step_stats(entry.key)
        phase1 = tuple(prune(stats, 1, goal))
        chains = [analyze_chain(c, goal) for c in CHAINS if c.rep_key == entry.key]
        algebras.append(AlgebraReport(entry.key, stats, phase1, chains))
    return SearchReport(goal.histogram(), algebras)


def apply_plan(chain_id: str, plan) -> Phase2State:
    """Run a chain and a phase-2 plan given as 'kind:slot' tokens."""
    if isinstance(plan, str):
        raise SlotError(f"plan {plan!r} is one string; a plan is a sequence of "
                        f"kind:slot tokens, such as ['soft:3', 'strong:12']")
    if not hasattr(plan, "__iter__"):
        raise SlotError(f"plan {plan!r} is not a sequence of kind:slot tokens")
    state = from_distribution(apply_chain(chain_id))
    for token in plan:
        op = token if isinstance(token, PhaseOp) else PhaseOp.parse(token)
        state = apply_op(state, op)
    return state


# ---------------------------------------------------------------------------
# serialization


def _stats_dict(s: Stats) -> dict:
    return {"multiplets": s.n_multiplets, "d3": s.d3, "singlets": s.n_singlets,
            "odd": s.n_odd, "total_pairing": s.total_pairing,
            "histogram": {str(d): n for d, n in s.dim_histogram}}


def scheme_to_dict(s: Scheme) -> dict:
    return {"chain": s.chain_id,
            "plan": [op.render() for op in s.plan],
            "final": s.final_op.render(),
            "masks": [list(m.frozen) for m in s.masks],
            "pre_final_multiplets": s.pre_final_count,
            "full_break_multiplets": s.full_break_count}


def report_to_dict(rep: SearchReport) -> dict:
    algebras = []
    for a in rep.algebras:
        chains = []
        for c in a.chains:
            chains.append({
                "chain": c.chain_id,
                "end_stage": list(c.end_stage),
                "end": _stats_dict(c.end_stats),
                "verdict": list(c.verdict_codes),
                "schemes": [scheme_to_dict(s) for s in c.schemes],
                "near_misses": [{"plan": [op.render() for op in plan],
                                 "histogram": {str(d): n for d, n in sorted(h.items(), reverse=True)}}
                                for plan, h in c.near_misses],
                "options": [{"plan": [op._text for op in n.plan],
                             "multiplets": n.stats.n_multiplets,
                             "d3": n.stats.d3,
                             "terminal": n.terminal,
                             "masks": n.mask_count,
                             "violations": list(n.violations)}
                            for n in c.option_nodes],
                "note": c.note,
            })
        algebras.append({"algebra": a.key,
                         "first_step": _stats_dict(a.first_step_stats),
                         "phase1_verdict": list(a.phase1_violations),
                         "chains": chains})
    return {"target": {str(d): n for d, n in sorted(rep.target.items(), reverse=True)},
            "algebras": algebras,
            "survivors": [scheme_to_dict(s) for s in rep.survivors()]}


def report_summary(rep: SearchReport) -> str:
    """Plain-text summary walking the chains in registry order."""
    lines = []
    for a in rep.algebras:
        head = f"{a.key}: "
        if a.phase1_violations:
            head += "excluded at the first step (" + ", ".join(a.phase1_violations) + ")"
        else:
            head += f"{a.first_step_stats.n_multiplets} multiplets after the first step"
        lines.append(head)
        for c in a.chains:
            s = c.end_stats
            desc = (f"  {c.chain_id}: {s.n_multiplets} multiplets, d3={s.d3}"
                    f" at {'+'.join(c.end_stage)}")
            if c.survived:
                desc += f"; SURVIVES with {len(c.schemes)} scheme(s)"
            elif c.verdict_codes:
                desc += "; excluded (" + ", ".join(c.verdict_codes) + ")"
            else:
                desc += "; no second-phase scheme reaches the code"
            lines.append(desc)
            for sch in c.schemes:
                plan = ",".join(op.render() for op in sch.plan) or "(none)"
                lines.append(f"      plan [{plan}] last step {sch.final_op.render()}"
                             f" -> {sch.full_break_count} subspaces unfrozen;"
                             f" frozen: {sch.masks[0].render()}")
    n = len(rep.survivors())
    lines.append(f"surviving schemes: {n}")
    return "\n".join(lines) + "\n"
