"""Exhaustive scheme search with exclusion pruning and final-step freezing.

The search walks every registered chain, then enumerates second-phase plans
depth-first.  After each operation the fully-broken state is examined: when
no multiplet of dimension > 6 remains, that operation can serve as the last
step and the freezing masks hitting the genetic-code histogram are solved
exactly; independently, the branch continues deeper unless a monotone
statistic already rules every continuation out.

The monotone continuation prunes (all sound in the presence of last-step
freezing, because frozen multiplets are a subset of the pre-final state):

* more than 2 singlets: singlets are indestructible;
* more than 4 odd-dimensional multiplets: every odd multiplet keeps at
  least one odd descendant under any breaking;
* d3 < 24: breaking never raises d3, and the target needs exactly 24;
* more than 21 multiplets: breaking never lowers the count, and the target
  has exactly 21.

Total pairing is a first-phase exclusion criterion only.  Uniform breaking
preserves it, but last-step freezing can separate the two halves of a
conjugate pair, so inside the second phase it must not cut continuations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from .embed_chains import (
    CHAINS,
    ChainDef,
    apply_chain,
    first_step_distribution,
)
from .phase2 import (
    Phase2State,
    PhaseOp,
    Stats,
    _KINDS,
    _shape_dim,
    _split,
    apply_op,
    available_ops,
    break_multiplet,
    distribution_stats,
    from_distribution,
    phase2_stats,
    render_slot,
)
from .super_branch import CATALOG, UnknownNameError

GENETIC_CODE_TARGET = {6: 3, 4: 5, 3: 2, 2: 9, 1: 2}

TOTAL_PAIRING = "TotalPairing"
TOO_MANY_SINGLETS = "TooManySinglets"
TOO_MANY_ODD = "TooManyOdd"
D3_TOO_SMALL = "D3TooSmall"
TOO_MANY_MULTIPLETS = "TooManyMultiplets"
NO_SURVIVING_SCHEME = "NoSurvivingScheme"


def target_count(target=None) -> int:
    target = target or GENETIC_CODE_TARGET
    return sum(target.values())


def prune(stats: Stats, phase: int):
    """Violated exclusion criteria for a distribution at the given phase.

    Phase 1 is the chain-level check with the three bulleted criteria;
    phase 2 is the continuation check inside the breaking tree, where only
    criteria that survive final-step freezing may appear.
    """
    out = []
    if phase == 1 and stats.total_pairing:
        out.append(TOTAL_PAIRING)
    if stats.n_singlets > 2:
        out.append(TOO_MANY_SINGLETS)
    if stats.n_odd > 4:
        out.append(TOO_MANY_ODD)
    if phase == 2:
        if stats.d3 < 24:
            out.append(D3_TOO_SMALL)
        if stats.n_multiplets > target_count():
            out.append(TOO_MANY_MULTIPLETS)
    return out


def match_target(stats: Stats, target=None) -> bool:
    return stats.histogram() == (target or GENETIC_CODE_TARGET)


# ---------------------------------------------------------------------------
# freezing masks


@dataclass(frozen=True)
class FreezeGroup:
    """All copies of one multiplet shape at the pre-final state."""

    slots: tuple
    count: int
    dim: int
    pieces: tuple        # sorted dim histogram of one copy after the final op
    neutral: bool        # breaking leaves the dimension histogram unchanged

    def render(self) -> str:
        return "-".join(render_slot(s) for s in self.slots)


@dataclass(frozen=True)
class FreezeMask:
    """Freeze counts per non-neutral group at the final operation."""

    frozen: tuple  # ((group render, parent dim, count), ...) with count > 0

    def render(self) -> str:
        if not self.frozen:
            return "(none)"
        return ", ".join(f"{n}x {g} [{d}]" if n > 1 else f"{g} [{d}]"
                         for g, d, n in self.frozen)


def freeze_groups(state: Phase2State, op: PhaseOp):
    idx = state.slot_index(op.slot, op.render())
    splits: dict = {}  # broken slot -> its _split, once per distinct slot
    groups = []
    for slots, (dim, count) in sorted(state.shapes().items()):
        old = slots[idx]
        if old not in splits:
            splits[old] = _split(op.kind, old)
        old_dim, parts = splits[old]
        pieces = {}
        for _, d in parts:
            d = dim // old_dim * d  # the group's dimension, the broken slot's factor swapped
            pieces[d] = pieces.get(d, 0) + 1
        pieces = tuple(sorted(pieces.items(), reverse=True))
        groups.append(FreezeGroup(slots, count, dim, pieces, pieces == ((dim, 1),)))
    return groups


def solve_freezing(state: Phase2State, op: PhaseOp, target=None):
    """All freezing masks at the final operation that hit the target exactly.

    Identical multiplets (same slot states) freeze all-or-none: the breaking
    perturbation cannot distinguish copies of the same multiplet, which is
    also what makes the "two identical multiplets together break into four
    triplets or none" style of exclusion argument exact.  Multiplets of
    dimension > 6 must break, and their pieces must all be <= 6 for the
    operation to qualify as a last step at all (otherwise the empty list is
    returned).  Groups whose pieces reproduce their own histogram are
    skipped: freezing them is meaningless and masks are reported without
    them.
    """
    target = target or GENETIC_CODE_TARGET
    groups = freeze_groups(state, op)
    if any(g.dim > 6 and g.pieces[0][0] > 6 for g in groups):  # pieces: largest first
        return []
    active = [g for g in groups if not g.neutral]
    base: dict = {}
    for g in groups:
        if g.neutral:  # its one piece keeps the group's dimension
            base[g.dim] = base.get(g.dim, 0) + g.count

    def fits(hist):
        return all(d in target and hist[d] <= target[d] for d in hist)

    if not fits(base):
        return []
    masks = []

    def rec(i, hist):
        if i == len(active):
            if hist == target:
                masks.append(FreezeMask(tuple((g.render(), g.dim, k)
                                              for g, k in zip(active, choices) if k)))
            return
        g = active[i]
        options = (0,) if g.dim > 6 else (0, g.count)
        for k in options:  # freeze all copies or none
            new = dict(hist)
            for d, n in ((g.dim, 1),) if k else g.pieces:
                new[d] = new.get(d, 0) + n * g.count
            if fits(new):
                choices.append(k)
                rec(i + 1, new)
                choices.pop()

    choices: list = []
    rec(0, base)
    del rec  # a self-reference through the closure: free it now, not at the next gc
    return sorted(masks, key=lambda m: m.frozen)


def final_state(state: Phase2State, op: PhaseOp, mask: FreezeMask) -> Phase2State:
    """Apply the final operation with the given mask (neutral groups frozen)."""
    idx = state.slot_index(op.slot, op.render())
    quota = {g: k for g, _, k in mask.frozen}
    groups = {g.slots: g for g in freeze_groups(state, op)}
    entries = []
    for e in state.entries:
        g = groups[e.slots]
        if g.neutral:
            entries.append(e)
            continue
        key = g.render()
        left = quota.get(key, 0)
        take = min(left, e.mult)
        if take:
            quota[key] = left - take
            entries.append(replace(e, mult=take))
        if e.mult - take:
            entries.extend(break_multiplet(replace(e, mult=e.mult - take), op.kind, idx))
    return Phase2State(state.slot_names, state.stages, tuple(entries))


# ---------------------------------------------------------------------------
# triplet feasibility


@lru_cache(maxsize=None)
def reachable_triplet_counts(slots: tuple) -> frozenset:
    """Counts of dimension-3 pieces reachable from one multiplet.

    Explores every sequence of slot operations applied to the multiplet's
    own descendants (operations act on all pieces at once, as they do
    distribution-wide); the count at every stopping point is collected.
    """
    found = set()
    seen = set()
    stack = [(slots,)]
    while stack:
        states = stack.pop()
        if states in seen:
            continue
        seen.add(states)
        found.add(sum(_shape_dim(st) == 3 for st in states))
        for i in range(len(slots)):
            for kind in _KINDS[states[0][i][0]]:
                stack.append(tuple(sorted(st[:i] + (p,) + st[i + 1:] for st in states
                                          for p, _ in _split(kind, st[i])[1])))
    return frozenset(found)


def can_yield_triplet(slots: tuple) -> bool:
    return any(n > 0 for n in reachable_triplet_counts(slots))


# ---------------------------------------------------------------------------
# enumeration


@dataclass(frozen=True)
class OptionNode:
    """One explored plan prefix with the statistics after full application."""

    plan: tuple          # PhaseOp sequence
    stats: Stats
    violations: tuple    # continuation prunes triggered at this node
    terminal: bool       # eligible as a last step (no dimension > 6 remains)
    mask_count: int

    def plan_render(self):
        return tuple(op.render() for op in self.plan)


@dataclass(frozen=True)
class Scheme:
    """A surviving breaking scheme: plan, final op, and its freezing masks."""

    chain_id: str
    plan: tuple
    final_op: PhaseOp
    masks: tuple
    pre_final_count: int
    full_break_count: int


@dataclass
class Phase2Result:
    nodes: list = field(default_factory=list)
    schemes: list = field(default_factory=list)
    near_misses: list = field(default_factory=list)  # (plan, histogram)
    pruned: list = field(default_factory=list)       # (plan, violations)


def enumerate_phase2(start: Phase2State, target=None) -> Phase2Result:
    """Depth-first plan enumeration with pruning and final-step mask solving.

    Each slot takes at most two operations (soft then strong, or strong), so
    plans are at most twice as long as there are slots.
    """
    target = target or GENETIC_CODE_TARGET
    result = Phase2Result()
    seen_states = set()

    def walk(state, plan):
        for op in available_ops(state):
            child = apply_op(state, op)
            st = phase2_stats(child)
            violations = tuple(prune(st, 2))
            terminal = st.dim_histogram[0][0] <= 6  # largest dimension first
            masks = solve_freezing(state, op, target) if terminal else []
            new_plan = plan + (op,)
            assert len(new_plan) <= 2 * len(start.slot_names)
            result.nodes.append(OptionNode(new_plan, st, violations, terminal,
                                           len(masks)))
            if masks:
                result.schemes.append((new_plan, op, masks, state.count(),
                                       st.n_multiplets))
            if terminal and not masks and st.n_multiplets == target_count(target):
                result.near_misses.append((new_plan, st.histogram()))
            if violations:
                result.pruned.append((new_plan, violations))
                continue
            key = (tuple(sorted((e.slots, e.history, e.mult) for e in child.entries)),
                   op.render())
            if key in seen_states:
                continue
            seen_states.add(key)
            walk(child, new_plan)

    walk(start, ())
    del walk  # a self-reference through the closure: free it now, not at the next gc
    return result


# ---------------------------------------------------------------------------
# full search


@dataclass
class ChainReport:
    chain_id: str
    end_stage: tuple
    end_stats: Stats
    verdict_codes: tuple
    schemes: list
    near_misses: list
    option_nodes: list
    pruned: list
    triplet_facts: dict
    note: str = ""

    @property
    def survived(self) -> bool:
        return bool(self.schemes)


@dataclass
class AlgebraReport:
    key: str
    first_step_stats: Stats
    phase1_violations: tuple
    chains: list


@dataclass
class SearchReport:
    target: dict
    algebras: list

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


def analyze_chain(chain: ChainDef, target=None) -> ChainReport:
    dist = apply_chain(chain.chain_id)
    stats = distribution_stats(dist)
    if not dist.stage.all_sl2():
        return ChainReport(chain.chain_id, dist.stage.names, stats,
                           tuple(prune(stats, 1)), [], [], [], [], {},
                           chain.note)
    state = from_distribution(dist)
    # Chain-end verdict shows every criterion the end state trips, but only
    # the freezing-sound phase-2 criteria may stop the enumeration.
    blocking = tuple(prune(stats, 2))
    recorded = tuple(dict.fromkeys(prune(stats, 1) + list(blocking)))
    # Starting slots are all unbroken, so distinct shapes render distinctly.
    facts = {"-".join(map(render_slot, slots)):
             {"dim": dim, "triplet_counts": sorted(reachable_triplet_counts(slots))}
             for slots, (dim, _) in state.shapes().items()}
    if blocking:
        return ChainReport(chain.chain_id, dist.stage.names, stats,
                           recorded, [], [], [], [], facts, chain.note)
    res = enumerate_phase2(state, target)
    # Each plan is one path of the enumeration tree, so no scheme repeats.
    schemes = [Scheme(chain.chain_id, plan[:-1], op, tuple(masks), pre_count, full_count)
               for plan, op, masks, pre_count, full_count in res.schemes]
    verdict = () if schemes else (NO_SURVIVING_SCHEME,)
    return ChainReport(chain.chain_id, dist.stage.names, stats, verdict,
                       schemes, res.near_misses, res.nodes, res.pruned,
                       facts, chain.note)


def full_search(target=None) -> SearchReport:
    """Search every catalog representation through every registered chain."""
    target = target or GENETIC_CODE_TARGET
    algebras = []
    for entry in CATALOG:
        dist = first_step_distribution(entry.key)
        stats = distribution_stats(dist)
        phase1 = tuple(prune(stats, 1))
        chains = [analyze_chain(c, target) for c in CHAINS if c.rep_key == entry.key]
        algebras.append(AlgebraReport(entry.key, stats, phase1, chains))
    return SearchReport(dict(target), algebras)


def apply_plan(chain_id: str, plan) -> Phase2State:
    """Run a chain and a phase-2 plan given as 'kind:slot' tokens."""
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
                "options": [{"plan": list(n.plan_render()),
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
