"""Independent oracles used to cross-check the character engine, the first
step, the catalog and the phase-2 statistics.

These deliberately avoid the code paths they verify: characters come from an
explicit alternating-sum quotient over a brute-force-enumerated Weyl group,
not from the Freudenthal recursion; typicality from Fraction inner products,
not from the integer vectors of ``super_branch``; the first step of a
type-I irrep from the hook Schur-function rule on its superdiagram and from
the Kac-module product Lambda(g_-1) (x) L0(lambda), not from the signed
subset expansion and the even Weyl walk; phase-2 statistics and
freeze groups from ``slot_dim`` and ``slot_conjugate`` alone, multiplying
every dimension out and reading the pieces' dimensions off the broken
slot's; reachable triplet counts from a search over tuples of piece
states, freezing masks from a depth-first search that rechecks the whole
histogram at every step, and the schemes of a target from a walk over every
plan with no pruning at all.

A type-II irrep has no product rule for its first step: its odd part is one
irreducible g0-module, with no grading g_-1 + g0 + g_1 to induce from, so
it is no exterior algebra times its top component.  The catalog's label
sets, and so its aliases, come from a scan of every top component of
dimension at most 64 under Kac's finite-dimensionality condition (type II)
and from the Kac-module dimension count (type I).
"""

import heapq
import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from codonbranch.lie_core import RootSystem, vadd, vdot, vscale, vsub, weyl_dimension
from codonbranch.phase2 import (
    render_slot,
    slot_conjugate,
    slot_dim,
    soft_break_slot,
    strong_break_slot,
)
from codonbranch.super_branch import (
    branch_to_even,
    build_super,
    is_typical,
    kac_labels,
    kac_weight,
    typical_dimension,
)

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


# ---------------------------------------------------------------------------
# the first step of the type-I entries, and the catalog, derived another way


def _ssyt_contents(outer, inner, n) -> Counter:
    """Content vectors of the semistandard tableaux of the skew shape
    ``outer / inner`` with entries 1..n, counted: the monomials of the skew
    Schur polynomial in n variables."""
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    cells = [(r, c) for r, row in enumerate(outer) for c in range(inner[r], row)]
    found, filling = Counter(), {}

    def fill(k):
        if k == len(cells):
            content = [0] * n
            for v in filling.values():
                content[v - 1] += 1
            found[tuple(content)] += 1
            return
        r, c = cells[k]
        low = max(filling.get((r, c - 1), 1), filling.get((r - 1, c), 0) + 1)
        for v in range(low, n + 1):
            filling[r, c] = v
            fill(k + 1)
        filling.pop((r, c), None)

    fill(0)
    return found


def _schur_peel(poly: Counter, n) -> list:
    """``(partition, mult)`` of a symmetric polynomial in n variables, given
    by its monomials: peel the lexicographically largest content, which is
    the partition of a Schur polynomial in it, until nothing is left."""
    poly, out = Counter(poly), []
    while poly:
        top = max(poly)
        mult = poly[top]
        for content, k in _ssyt_contents(top, (), n).items():
            poly[content] -= mult * k
            if not poly[content]:
                del poly[content]
        out.append((top, mult))
    return out


def _conjugate_partition(rows) -> tuple:
    return tuple(sum(r >= j for r in rows) for j in range(1, (rows[0] if rows else 0) + 1))


def _sl_dynkin(partition, k) -> tuple:
    """sl(k) Dynkin labels of the gl(k) irrep of a partition of <= k rows."""
    p = tuple(partition) + (0,) * (k - len(partition))
    return tuple(p[i] - p[i + 1] for i in range(k - 1))


def hook_branching(rows, m, n) -> Counter:
    """The even part of the sl(m|n) covariant irrep of the diagram ``rows``,
    by the hook Schur-function rule (Berele & Regev, Adv. Math. 64, 1987;
    Sergeev, Math. USSR Sb. 51, 1985): s_lambda(x / y) is the sum over
    mu inside lambda of s_mu(x) s_(lambda'/mu')(y), with m variables x and
    n variables y.  Charges dropped: ``{(sl(m) labels, sl(n) labels): mult}``,
    each factor present only when its rank is positive, as in
    ``branch_to_even``."""
    out = Counter()
    conj = _conjugate_partition(rows)
    subdiagrams = [()]
    for row in rows[:m]:  # mu has at most m rows, mu_i <= lambda_i
        subdiagrams = [mu + (k,) for mu in subdiagrams
                       for k in range(min(row, mu[-1] if mu else row) + 1)]
    for mu in subdiagrams:
        mu = tuple(x for x in mu if x)
        skew = _ssyt_contents(conj, _conjugate_partition(mu), n)
        for nu, mult in _schur_peel(skew, n):
            labels = tuple(lab for lab, k in ((_sl_dynkin(mu, m), m), (_sl_dynkin(nu, n), n))
                           if k >= 2)
            out[labels] += mult
    return out


def _factor_labels(sa, v) -> tuple:
    """Per-factor Dynkin labels of a super-coordinate weight ``v``: the plain
    ratio 2 (v, a) / (a, a) at each factor's simple root a."""
    return tuple(tuple(Fraction(2 * sum(x * y for x, y in zip(v, a)), sum(y * y for y in a))
                       for a in simples) for simples in sa.factor_simples)


def _realized(rs: RootSystem, labels) -> tuple:
    """The weight of ``labels`` in the orthonormal realization of ``rs``."""
    return tuple(sum(l * w[i] for l, w in zip(labels, rs.fundamental_weights))
                 for i in range(rs.dim))


def _realized_labels(rs: RootSystem, w) -> tuple:
    return tuple(int(2 * vdot(w, a) / vdot(a, a)) for a in rs.simple_roots)


def _product_character(systems, labels) -> Counter:
    """Character of an irrep of a product of factors, as concatenated
    realization weights, from the Weyl-quotient character of each factor."""
    out = Counter({(): 1})
    for rs, lab in zip(systems, labels):
        ch = weyl_quotient_character(rs, tuple(map(int, lab)))
        out = Counter({w + u: n * k for w, n in out.items() for u, k in ch.items()})
    return out


def kac_module_branching(sa, labels) -> Counter:
    """The even part of a typical type-I irrep as the Kac module
    Lambda(g_-1) (x) L0(lambda) (Kac, Comm. Algebra 5, 1977): the weights of
    the exterior algebra of the negative odd roots times the character of
    the top component, peeled by lexicographically largest weight.  Weights
    are concatenated realizations of the semisimple factors, so the u(1)
    charge is dropped from the start: ``{factor labels: mult}``."""
    systems = sa.factor_systems

    def realize(v):
        return sum((_realized(rs, lab) for rs, lab in zip(systems, _factor_labels(sa, v))), ())

    exterior = Counter({realize((0,) * sa.dim): 1})
    for beta in sa.odd_positive_roots:
        minus = realize(tuple(-x for x in beta))
        exterior += Counter({vadd(w, minus): n for w, n in exterior.items()})
    top = _product_character(systems, _factor_labels(sa, kac_weight(sa, labels)))
    ch = Counter()
    for w, n in exterior.items():
        for u, k in top.items():
            ch[vadd(w, u)] += n * k
    out = Counter()
    while ch:
        w = max(ch)
        mult, lab, start = ch[w], [], 0
        for rs in systems:
            lab.append(_realized_labels(rs, w[start:start + rs.dim]))
            start += rs.dim
        for u, k in _product_character(systems, lab).items():
            ch[u] -= mult * k
            if not ch[u]:
                del ch[u]
        out[tuple(lab)] += mult
    return out


def _irreps_up_to(systems, bound) -> list:
    """``(factor labels, dim)`` of every irrep of the product of ``systems``
    of dimension at most ``bound``: the dimension grows with every label, so
    each label runs up from 0 until the irrep with the remaining labels 0
    is too large."""
    out = []

    def walk(f, prefix, lab, dim):
        if f == len(systems):
            out.append((prefix, dim))
            return
        rs = systems[f]
        if len(lab) == rs.rank:
            walk(f + 1, prefix + (lab,), (), dim * weyl_dimension(rs, lab))
            return
        k = 0
        while True:
            trial = lab + (k,) + (0,) * (rs.rank - len(lab) - 1)
            if dim * weyl_dimension(rs, trial) > bound:
                return
            walk(f, prefix, lab + (k,), dim)
            k += 1

    walk(0, (), (), 1)
    return out


def _solve(rows, rhs) -> tuple:
    """The Fraction solution x of rows . x = rhs, for an invertible square
    system, by Gauss-Jordan elimination."""
    n = len(rows)
    aug = [[Fraction(x) for x in row] + [Fraction(r)] for row, r in zip(rows, rhs)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
    return tuple(row[n] for row in aug)


def _symmetries(sa) -> list:
    """The permutations of the even factors that map each factor to one with
    the same root system."""
    systems = sa.factor_systems
    return [p for p in itertools.permutations(range(len(systems)))
            if all(systems[i] == systems[j] for i, j in enumerate(p))]


@lru_cache(maxsize=None)
def type_ii_label_sets(kind: str) -> tuple:
    """The label sets of the 64-dimensional typical irreps of a type-II
    osp(M|2n), grouped by first-step branching up to a permutation of equal
    even factors, each group in ascending order of the highest weight in
    the code's coordinates (delta | epsilon).

    The scan covers every weight whose top even component L0(lambda) has
    dimension at most 64, since L0(lambda) is a component of V(lambda):
    the highest weight is solved from its even labels, kept when it passes
    Kac's finite-dimensionality condition (its last delta coordinate is at
    least its number of nonzero epsilon coordinates; the others hold for
    dominant integral even labels), and read back as Kac-Dynkin labels."""
    sa = build_super(kind)
    roots = [a for simples in sa.factor_simples for a in simples]
    groups: dict = {}
    for labels, _ in _irreps_up_to(sa.factor_systems, 64):
        rhs = [Fraction(l * sum(x * x for x in a), 2)
               for l, a in zip(itertools.chain(*labels), roots)]
        lam = _solve(roots, rhs)
        if lam[sa.deltas - 1] < sum(x != 0 for x in lam[sa.deltas:]):
            continue
        kac = kac_labels(sa, lam)
        if not is_typical(sa, kac) or typical_dimension(sa, kac) != 64:
            continue
        branch = [(e.labels, e.mult) for e in branch_to_even(sa, kac)]
        key = min(tuple(sorted((tuple(lab[i] for i in p), n) for lab, n in branch))
                  for p in _symmetries(sa))
        groups.setdefault(key, []).append((lam, kac))
    return tuple(tuple(kac for _, kac in sorted(g)) for g in groups.values())


def _odd_node(sa) -> int:
    even = set(itertools.chain(*sa.factor_simples))
    (i,) = [i for i, a in enumerate(sa.simple_roots) if a not in even]
    return i


def type_i_even_labels(kind: str) -> set:
    """The even labels of the 64-dimensional typical irreps of a type-I
    superalgebra, in closed form: V(lambda) is the Kac module, of dimension
    2^|odd positive roots| dim L0(lambda), so these are the semisimple labels
    of dimension 64 / 2^|odd positive roots|; the odd label, the u(1) charge,
    is free."""
    sa = build_super(kind)
    size, rest = divmod(64, 2 ** len(sa.odd_positive_roots))
    assert rest == 0, kind
    return {labels for labels, dim in _irreps_up_to(sa.factor_systems, size) if dim == size}


def even_labels(sa, labels) -> tuple:
    """The per-factor even labels inside a Kac-Dynkin label set."""
    return tuple(tuple(labels[sa.simple_roots.index(a)] for a in simples)
                 for simples in sa.factor_simples)


def even_automorphism_images(sa, labels) -> list:
    """The images of a type-I label set under the automorphisms of the even
    Dynkin diagram, with the same odd label: a permutation of equal factors
    and a conjugation of each.  The label set itself comes first."""
    even = even_labels(sa, labels)
    images = [tuple(labels)]
    for p in _symmetries(sa):
        for flips in itertools.product((False, True), repeat=len(even)):
            out = list(labels)
            for f, simples in enumerate(sa.factor_simples):
                lab = even[p[f]]
                lab = sa.factor_systems[f].conjugate(lab) if flips[f] else lab
                for a, x in zip(simples, lab):
                    out[sa.simple_roots.index(a)] = x
            if tuple(out) not in images:
                images.append(tuple(out))
    return images


def catalog_aliases(entry) -> tuple:
    """The label sets equivalent to a catalog entry's, other than its own:
    for type II the other members of its group in
    :func:`type_ii_label_sets`, for type I its other
    :func:`even_automorphism_images`."""
    sa = entry.build()
    if sa.deltas:
        (group,) = [g for g in type_ii_label_sets(sa.name) if entry.labels in g]
    else:
        group = even_automorphism_images(sa, entry.labels)
    return tuple(labels for labels in group if labels != entry.labels)
