"""Independent oracles used to cross-check the character engine and the
phase-2 statistics.

These deliberately avoid the code paths they verify: characters come from an
explicit alternating-sum quotient over a brute-force-enumerated Weyl group,
not from the Freudenthal recursion; typicality from Fraction inner products,
not from the integer vectors of ``super_branch``; phase-2 statistics and
freeze groups from ``slot_dim`` and ``slot_conjugate`` alone, multiplying
every dimension out and reading the pieces' dimensions off the broken
slot's; reachable triplet counts from a search over tuples of piece
states, freezing masks from a depth-first search that rechecks the whole
histogram at every step, and the schemes of a target from a walk over every
plan with no pruning at all.
"""

import heapq
import math
from collections import Counter
from fractions import Fraction

from codonbranch.lie_core import RootSystem, vdot, vscale, vsub
from codonbranch.phase2 import (
    render_slot,
    slot_conjugate,
    slot_dim,
    soft_break_slot,
    strong_break_slot,
)
from codonbranch.super_branch import kac_weight

# (series, rank) -> the Weyl group of that root system on an integer lattice.
_WEYL: dict = {}


def _weyl(rs: RootSystem):
    """The Weyl group of ``rs``, enumerated once per (series, rank).

    Returns ``(scale, roots, tree, rho_orbit)``: every weight of ``rs`` times
    ``scale`` is an integer vector; ``roots`` are the simple roots times
    ``scale``; ``tree`` lists the group breadth-first over the free orbit of
    rho0, each element after the first as ``(parent index, simple root
    index, det)``; ``rho_orbit`` maps w(rho0) * scale to det(w).
    """
    key = (rs.series, rs.rank)
    if key not in _WEYL:
        scale = math.lcm(*(x.denominator for v in (rs.rho0, *rs.simple_roots,
                                                   *rs.fundamental_weights) for x in v))
        roots = [tuple(int(x * scale) for x in a) for a in rs.simple_roots]
        start = tuple(int(x * scale) for x in rs.rho0)
        images, dets, tree, index = [start], [1], [], {start: 0}
        for k, v in enumerate(images):  # grows while it is walked: breadth first
            for i, a in enumerate(roots):
                w = _reflect(v, a)
                if w not in index:
                    index[w] = len(images)
                    images.append(w)
                    dets.append(-dets[k])
                    tree.append((k, i, dets[-1]))
        _WEYL[key] = scale, roots, tree, dict(zip(images, dets))
    return _WEYL[key]


def _reflect(v, a):
    """Reflection of the integer vector ``v`` in the integer root ``a``."""
    c, r = divmod(2 * sum(x * y for x, y in zip(v, a)), sum(y * y for y in a))
    assert r == 0, (v, a)
    return tuple(x - c * y for x, y in zip(v, a))


def brute_weyl_elements(rs: RootSystem):
    """All Weyl group elements, as a map from w(rho0) to det(w).

    Elements are closed under composition starting from the simple
    reflections; each is represented by its action on the regular vector
    rho0 (times the lattice scale of :func:`_weyl`), which is all the
    character oracle needs.
    """
    return _weyl(rs)[3]


def _alternating_sum(rs: RootSystem, v):
    """N(v) = sum over the Weyl group of det(w) e^{w v}, for a regular weight
    ``v`` given as an integer vector on the lattice of :func:`_weyl`."""
    _, roots, tree, _ = _weyl(rs)
    images = [v]
    for parent, i, _ in tree:
        images.append(_reflect(images[parent], roots[i]))
    return dict(zip(images, [1] + [det for _, _, det in tree]))


def weyl_walk(w, simple_roots):
    """Dominant chamber representative of a Fraction weight and the sign of
    the Weyl element, by iterated Fraction reflections, each in the first
    simple root with a negative label."""
    sign = 1
    while True:
        for a in simple_roots:
            label = 2 * vdot(w, a) / vdot(a, a)
            if label < 0:
                w = vsub(w, vscale(a, label))
                sign = -sign
                break
        else:
            return w, sign


def integer_weyl_walk(v, simple_roots):
    """:func:`weyl_walk` on an integer vector and integer simple roots, for
    roots whose reflections keep integer vectors integral: each reflection
    asserts that its division is exact."""
    v, sign = tuple(v), 1
    while True:
        for a in simple_roots:
            if sum(x * y for x, y in zip(v, a)) < 0:
                v = _reflect(v, a)
                sign = -sign
                break
        else:
            return v, sign


def weyl_quotient_character(rs: RootSystem, labels):
    """Character by exact division of alternating sums (independent oracle).

    Long division of Laurent polynomials on the integer lattice of
    :func:`_weyl`, leading terms first in the order (height, lexicographic),
    which is compatible with addition; the denominator is the cached rho0
    orbit.
    """
    scale, _, _, den = _weyl(rs)
    lam = rs.highest_weight(labels)
    num = _alternating_sum(rs, tuple(int((x + r) * scale) for x, r in zip(lam, rs.rho0)))
    rho = tuple(int(x * scale) for x in rs.rho0)

    def key(w):  # a min-heap key of the descending order
        return (-sum(x * y for x, y in zip(w, rho)), tuple(-x for x in w))

    den_top = min(den, key=key)
    heap = [key(w) for w in num]
    heapq.heapify(heap)
    quotient = {}
    while heap:
        w = tuple(-x for x in heapq.heappop(heap)[1])
        c = num.get(w)
        if not c:  # cancelled, or a stale duplicate
            continue
        q = tuple(x - y for x, y in zip(w, den_top))
        quotient[q] = quotient.get(q, 0) + c
        for dw, dc in den.items():
            t = tuple(x + y for x, y in zip(q, dw))
            left = num.get(t, 0) - c * dc
            if left:
                if t not in num:
                    heapq.heappush(heap, key(t))
                num[t] = left
            else:
                num.pop(t, None)
    assert all(m > 0 for m in quotient.values())
    return {tuple(Fraction(x, scale) for x in q): m for q, m in quotient.items()}


def is_typical_reference(sa, labels) -> bool:
    """Typicality in Fractions: (Lambda + rho, beta) != 0 for every isotropic
    odd positive root beta, in the algebra's signed form.  Lambda is the
    public ``kac_weight`` (pinned by ``kac_weight.json``); rho is half the sum
    of the even positive roots minus the odd ones, summed here."""
    lam = kac_weight(sa, labels)
    roots = [(1, a) for a in sa.even_positive_roots] + [(-1, b) for b in sa.odd_positive_roots]
    rho = [sum(Fraction(s * a[i], 2) for s, a in roots) for i in range(sa.dim)]
    lam_rho = [x + r for x, r in zip(lam, rho)]
    return all(sa.sdot(lam_rho, b) != 0 for b in sa.odd_positive_roots if sa.sdot(b, b) == 0)


def _shape_dim(slots):
    return math.prod(slot_dim(s) for s in slots)


def phase2_stats_reference(entries) -> dict:
    """The fields of ``phase2.Stats`` for ``(slots, mult)`` entries, every
    dimension multiplied out from ``slot_dim``; a conjugation class is the set
    of a shape and its ``slot_conjugate`` image."""
    hist, classes = Counter(), Counter()
    for slots, n in entries:
        hist[_shape_dim(slots)] += n
        classes[frozenset((slots, tuple(slot_conjugate(s) for s in slots)))] += n
    return {"n_multiplets": sum(hist.values()),
            "d3": sum(d * n for d, n in hist.items() if d % 3 == 0),
            "n_singlets": hist[1],
            "n_odd": sum(n for d, n in hist.items() if d % 2),
            "total_pairing": bool(classes) and all(n % 2 == 0 for n in classes.values()),
            "dim_histogram": tuple(sorted(hist.items(), reverse=True))}


def freeze_groups_reference(entries, kind, idx) -> list:
    """``(slots, count, dim, pieces, neutral)`` per distinct slot tuple of the
    ``(slots, mult)`` entries, sorted by slots, for a break of slot ``idx``.

    The pieces' dimension histogram is read off the broken slot's dimension
    d alone: a soft break leaves d // 2 doublets and d % 2 singlets in that
    slot, a strong one d singlets.
    """
    counts = Counter()
    for slots, n in entries:
        counts[slots] += n
    out = []
    for slots in sorted(counts):
        dim = _shape_dim(slots)
        d = slot_dim(slots[idx])
        rest = dim // d
        parts = {2 * rest: d // 2, rest: d % 2} if kind == "soft" else {rest: d}
        pieces = tuple(sorted(((k, n) for k, n in parts.items() if n), reverse=True))
        out.append((slots, counts[slots], dim, pieces, pieces == ((dim, 1),)))
    return out


# The slot rules each slot state admits, by breaking kind: soft or strong
# breaking of an unbroken slot, strong breaking of a soft-broken one.
_RULES = {"u": (("soft", soft_break_slot), ("strong", strong_break_slot)),
          "o": (("strong_after_soft", strong_break_slot),), "s": ()}


def reachable_triplet_counts_bfs(slots) -> frozenset:
    """Counts of dimension-3 pieces reachable from one multiplet, by a search
    over tuples of piece states: every slot operation applies to all pieces
    at once, and the count at every state reached is collected."""
    found = set()
    seen = set()
    stack = [(tuple(slots),)]
    while stack:
        states = stack.pop()
        if states in seen:
            continue
        seen.add(states)
        found.add(sum(_shape_dim(st) == 3 for st in states))
        for i in range(len(slots)):
            for _, rule in _RULES[states[0][i][0]]:
                stack.append(tuple(sorted(st[:i] + (p,) + st[i + 1:]
                                          for st in states for p in rule(st[i]))))
    return frozenset(found)


def solve_freezing_reference(groups, target) -> list:
    """The sorted ``frozen`` tuples of the freezing masks that hit ``target``,
    for ``(slots, count, dim, pieces, neutral)`` groups: each non-neutral
    group freezes all its copies or none (a dimension above the target's
    largest always breaks), and every step rechecks the whole histogram
    against the target."""
    top = max(target)
    if any(dim > top and max(pieces)[0] > top for _, _, dim, pieces, _ in groups):
        return []
    base = Counter()
    for _, count, dim, _, neutral in groups:
        if neutral:
            base[dim] += count
    active = [g for g in groups if not g[4]]
    masks = []

    def fits(hist):
        return all(d in target and n <= target[d] for d, n in hist.items())

    def walk(i, hist, frozen):
        if not fits(hist):
            return
        if i == len(active):
            if hist == Counter(target):
                masks.append(tuple(frozen))
            return
        slots, count, dim, pieces, _ = active[i]
        walk(i + 1, hist + Counter({d: n * count for d, n in pieces}), frozen)
        if dim <= top:
            walk(i + 1, hist + Counter({dim: count}),
                 frozen + [("-".join(map(render_slot, slots)), dim, count)])

    walk(0, base, [])
    return sorted(masks)


def schemes_reference(slot_names, fold, target) -> set:
    """``(pre-final fold, final op, masks)`` of every scheme reachable from
    the ``{slots: mult}`` fold of a phase-2 start, by a walk over every plan
    with no pruning.

    Every op breaks the named slot of every shape with the slot rules; a
    fold is expanded once, however it was reached.  An op is a last step
    when no piece is larger than the target's largest dimension, and its
    masks come from :func:`freeze_groups_reference` and
    :func:`solve_freezing_reference`.  A pre-final fold is the sorted tuple
    of its ``(slots, mult)`` items, an op its ``kind:slot`` token and the
    masks their ``frozen`` tuples.
    """
    found, seen, stack = set(), set(), [dict(fold)]
    while stack:
        fold = stack.pop()
        key = tuple(sorted(fold.items()))
        if key in seen:
            continue
        seen.add(key)
        for i, name in enumerate(slot_names):
            for kind, rule in _RULES[key[0][0][i][0]]:
                child = Counter()
                for slots, n in key:
                    for piece in rule(slots[i]):
                        child[slots[:i] + (piece,) + slots[i + 1:]] += n
                stack.append(child)
                if max(map(_shape_dim, child)) <= max(target):
                    masks = solve_freezing_reference(freeze_groups_reference(key, kind, i),
                                                     target)
                    if masks:
                        found.add((key, f"{kind}:{name}", tuple(masks)))
    return found
