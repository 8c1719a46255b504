"""Independent oracles used to cross-check the character engine.

These deliberately avoid the code paths they verify: characters come from an
explicit alternating-sum quotient over a brute-force-enumerated Weyl group,
not from the Freudenthal recursion.
"""

from codonbranch.lie_core import RootSystem, vadd, vdot, vscale, vsub


def brute_weyl_elements(rs: RootSystem):
    """All Weyl group elements as (matrix action on a regular orbit, det).

    Elements are closed under composition starting from the simple
    reflections; each is represented by its action on a regular vector plus
    an accumulated determinant, which is all the character oracle needs.
    """
    def reflect_vec(v, a):
        return vsub(v, vscale(a, 2 * vdot(v, a) / vdot(a, a)))

    start = rs.rho0  # regular, so the orbit is free
    seen = {start: 1}
    frontier = [start]
    parents = {start: None}
    while frontier:
        nxt = []
        for v in frontier:
            for a in rs.simple_roots:
                w = reflect_vec(v, a)
                if w not in seen:
                    seen[w] = -seen[v]
                    nxt.append(w)
        frontier = nxt
    return seen  # map: w(rho0) -> det(w)


def alternating_sum(rs: RootSystem, v):
    """N(v) = sum over the Weyl group of det(w) e^{w v}, as a weight dict."""
    def reflect_vec(x, a):
        return vsub(x, vscale(a, 2 * vdot(x, a) / vdot(a, a)))

    terms = {v: 1}
    frontier = [v]
    while frontier:
        nxt = []
        for x in frontier:
            for a in rs.simple_roots:
                y = reflect_vec(x, a)
                if y not in terms:
                    terms[y] = -terms[x]
                    nxt.append(y)
        frontier = nxt
    return terms


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


def weyl_quotient_character(rs: RootSystem, labels):
    """Character by exact division of alternating sums (independent oracle)."""
    lam = rs.highest_weight(labels)
    num = dict(alternating_sum(rs, vadd(lam, rs.rho0)))
    den = alternating_sum(rs, rs.rho0)

    def key(w):
        return (vdot(w, rs.rho0), w)

    den_top = max(den, key=key)
    quotient = {}
    while num:
        w = max(num, key=key)
        c = num[w]
        q = vsub(w, den_top)
        quotient[q] = quotient.get(q, 0) + c
        for dw, dc in den.items():
            t = vadd(q, dw)
            left = num.get(t, 0) - c * dc
            if left:
                num[t] = left
            else:
                num.pop(t, None)
    assert all(m > 0 for m in quotient.values())
    return quotient
