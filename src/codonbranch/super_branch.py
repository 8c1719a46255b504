"""Root data and first-step branching for basic classical Lie superalgebras.

The supported algebras are sl(m|n) and osp(M|N) at the sizes carrying
64-dimensional typical irreducibles.  Weights live in a common coordinate
space carrying a signature: the invariant form is +1 on sp-type (delta)
coordinates and -1 on so-type (epsilon) coordinates, and for sl(m|n) it is
+1 on the first block and -1 on the second.  Only the typicality test needs
the signed form; reflections, dominance and Dynkin labels are ratios and are
computed with the plain dot product.

Branching to the even part is done by expanding the typical character as a
signed sum of virtual even characters over subsets of the positive odd
roots, then cancelling.  This replaces any diagrammatic bookkeeping with a
single exact algorithm covering both families.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import sub

from .lie_core import (
    InvalidLabelsError,
    SemisimpleAlgebra,
    _chamber_roots,
    _scaled,
    _to_chamber,
    _unscaled,
    build_root_system,
    fr,
    vadd,
    vdot,
    vscale,
    vsub,
    zero,
)


class AtypicalError(ValueError):
    """Operation requires a typical highest weight."""


class UnknownNameError(KeyError):
    """A catalog key, chain id or table id that is not registered."""

    def __str__(self):
        return str(self.args[0]) if self.args else ""


def _basis(dim):
    return [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]


@dataclass(frozen=True)
class SuperAlgebra:
    """Distinguished root data of one basic classical Lie superalgebra."""

    name: str
    family: str  # "sl", "ospB", "ospC", "ospD"
    m: int
    n: int
    dim: int
    form_signs: tuple
    even_simple_roots: tuple
    even_positive_roots: tuple
    odd_positive_roots: tuple
    odd_isotropic: tuple
    factor_systems: tuple  # RootSystem per semisimple even factor
    factor_simples: tuple  # simple roots of each factor, as super-space vectors
    factor_names: tuple
    charge_count: int
    chamber_roots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "chamber_roots", _chamber_roots(self.even_simple_roots))

    def sdot(self, a, b) -> Fraction:
        return sum((s * x * y for s, x, y in zip(self.form_signs, a, b)),
                   start=Fraction(0))

    @property
    def rho0(self):
        acc = zero(self.dim)
        for a in self.even_positive_roots:
            acc = vadd(acc, a)
        return vscale(acc, Fraction(1, 2))

    @property
    def rho1(self):
        acc = zero(self.dim)
        for a in self.odd_positive_roots:
            acc = vadd(acc, a)
        return vscale(acc, Fraction(1, 2))

    @property
    def rho(self):
        return vsub(self.rho0, self.rho1)

    def even_label(self, w, root) -> Fraction:
        return 2 * vdot(w, root) / vdot(root, root)

    def to_dominant_regular(self, w: tuple):
        """Dominant chamber representative of the integer vector ``w`` (a
        super-space vector times any common scale) under the even Weyl group,
        with the sign of the reflecting element; ``None`` on a wall."""
        return _to_chamber(w, self.chamber_roots, True)

    def factor_labels(self, w):
        """Per-factor Dynkin labels of an even highest weight vector."""
        out = []
        for name, simples in zip(self.factor_names, self.factor_simples):
            labs = []
            for a in simples:
                l = self.even_label(w, a)
                if l.denominator != 1 or l < 0:
                    raise InvalidLabelsError(
                        f"{self.name}: {name} label {l} of the even highest weight "
                        f"({', '.join(map(str, w))}) is not a nonnegative integer")
                labs.append(int(l))
            out.append(tuple(labs))
        return tuple(out)


def _sl(m: int, n: int) -> SuperAlgebra:
    dim = m + n
    e = _basis(dim)
    signs = (1,) * m + (-1,) * n
    even_simple, factors, fsimples, fnames = [], [], [], []
    if m >= 2:
        blk = tuple(vsub(e[i], e[i + 1]) for i in range(m - 1))
        even_simple += list(blk)
        factors.append(build_root_system("A", m - 1))
        fsimples.append(blk)
        fnames.append(f"sl({m})")
    if n >= 2:
        blk = tuple(vsub(e[m + i], e[m + i + 1]) for i in range(n - 1))
        even_simple += list(blk)
        factors.append(build_root_system("A", n - 1))
        fsimples.append(blk)
        fnames.append(f"sl({n})")
    even_pos = [vsub(e[i], e[j]) for i in range(m) for j in range(i + 1, m)]
    even_pos += [vsub(e[m + i], e[m + j]) for i in range(n) for j in range(i + 1, n)]
    odd = [vsub(e[i], e[m + j]) for i in range(m) for j in range(n)]
    return SuperAlgebra(f"sl({m}|{n})", "sl", m, n, dim, signs,
                        tuple(even_simple), tuple(even_pos), tuple(odd),
                        (True,) * len(odd),
                        tuple(factors), tuple(fsimples), tuple(fnames), 1)


def _sp_block(e, n):
    """C_n data on the delta coordinates (first n basis vectors of ``e``)."""
    simple = tuple(vsub(e[i], e[i + 1]) for i in range(n - 1)) + (vscale(e[n - 1], 2),)
    pos = [vsub(e[i], e[j]) for i in range(n) for j in range(i + 1, n)]
    pos += [vadd(e[i], e[j]) for i in range(n) for j in range(i + 1, n)]
    pos += [vscale(e[i], 2) for i in range(n)]
    rs = build_root_system("C", n) if n >= 2 else build_root_system("A", 1)
    return rs, simple, pos, f"sp({2 * n})"


def _osp(M: int, N: int) -> SuperAlgebra:
    n = N // 2
    if M % 2 == 1:
        family, m = "ospB", (M - 1) // 2
    elif M == 2:
        family, m = "ospC", 1
    else:
        family, m = "ospD", M // 2
    dim = n + m if family != "ospC" else 1 + n
    e = _basis(dim)

    if family == "ospC":
        # Coordinates: (epsilon | delta_1 .. delta_n); epsilon is a pure charge.
        eps, delta = e[0], e[1:]
        signs = (-1,) + (1,) * n
        rs, simple, pos, name = _sp_block(delta, n)
        odd = [vsub(eps, d) for d in delta] + [vadd(eps, d) for d in delta]
        return SuperAlgebra(f"osp({M}|{N})", family, m, n, dim, signs,
                            tuple(simple), tuple(pos), tuple(odd),
                            (True,) * len(odd),
                            (rs,), (tuple(simple),), (name,), 1)

    # Coordinates: (delta_1 .. delta_n | epsilon_1 .. epsilon_m).
    delta, eps = e[:n], e[n:]
    signs = (1,) * n + (-1,) * m
    rs_sp, sp_simple, even_pos, sp_name = _sp_block(delta, n)
    factors = [rs_sp]
    fsimples = [tuple(sp_simple)]
    fnames = [sp_name]
    even_simple = list(sp_simple[:-1])  # 2*delta_n is not a distinguished node
    even_simple_extra = [sp_simple[-1]]

    if family == "ospB":
        so_simple = [vsub(eps[i], eps[i + 1]) for i in range(m - 1)] + [eps[m - 1]]
        even_pos = list(even_pos)
        even_pos += [vsub(eps[i], eps[j]) for i in range(m) for j in range(i + 1, m)]
        even_pos += [vadd(eps[i], eps[j]) for i in range(m) for j in range(i + 1, m)]
        even_pos += list(eps)
        factors.append(build_root_system("B", m) if m >= 2 else build_root_system("A", 1))
        fsimples.append(tuple(so_simple))
        fnames.append(f"so({M})")
        odd = list(delta)
        iso = [False] * n
        for d in delta:
            for x in eps:
                odd += [vsub(d, x), vadd(d, x)]
                iso += [True, True]
    else:  # ospD, m == 2 only
        if m != 2:
            raise InvalidLabelsError("only osp(4|2n) is supported in the D family")
        so_simple = [vsub(eps[0], eps[1]), vadd(eps[0], eps[1])]
        even_pos = list(even_pos) + list(so_simple)
        factors += [build_root_system("A", 1), build_root_system("A", 1)]
        fsimples += [(so_simple[0],), (so_simple[1],)]
        fnames += ["sl(2)", "sl(2)"]
        odd, iso = [], []
        for d in delta:
            for x in eps:
                odd += [vsub(d, x), vadd(d, x)]
                iso += [True, True]

    even_simple = even_simple + even_simple_extra + so_simple
    return SuperAlgebra(f"osp({M}|{N})", family, m, n, dim, signs,
                        tuple(even_simple), tuple(even_pos), tuple(odd),
                        tuple(iso),
                        tuple(factors), tuple(fsimples), tuple(fnames), 0)


_KIND_RE = re.compile(r"(sl|osp)\((\d+)\|(\d+)\)")
_SUPPORTED_SL = {(2, 1), (3, 1), (4, 1), (6, 1), (2, 2), (3, 2)}
_SUPPORTED_OSP = {(2, 4), (2, 6), (3, 2), (3, 4), (4, 2), (5, 2)}

_CACHE: dict = {}


def build_super(kind: str) -> SuperAlgebra:
    """Construct the distinguished root data for a supported superalgebra."""
    if kind in _CACHE:
        return _CACHE[kind]
    mm = _KIND_RE.fullmatch(kind.replace(" ", ""))
    if not mm:
        raise InvalidLabelsError(f"cannot parse algebra name {kind!r}")
    fam, a, b = mm.group(1), int(mm.group(2)), int(mm.group(3))
    if fam == "sl":
        if (a, b) not in _SUPPORTED_SL:
            raise InvalidLabelsError(f"unsupported algebra {kind}")
        sa = _sl(a, b)
    else:
        if (a, b) not in _SUPPORTED_OSP:
            raise InvalidLabelsError(f"unsupported algebra {kind}")
        sa = _osp(a, b)
    _CACHE[kind] = sa
    return sa


def kac_weight(sa: SuperAlgebra, labels) -> tuple:
    """Highest weight vector from distinguished Kac-Dynkin labels."""
    labels = tuple(fr(x) for x in labels)
    # Number of nodes: sl(m|n): m+n-1; ospB/C: n+m; ospD: n+m.
    expected = {"sl": sa.m + sa.n - 1, "ospB": sa.n + sa.m,
                "ospC": 1 + sa.n, "ospD": sa.n + sa.m}[sa.family]
    if len(labels) != expected:
        raise InvalidLabelsError(
            f"{sa.name} takes {expected} labels, got {len(labels)}")

    if sa.family == "sl":
        m, n = sa.m, sa.n
        a = [Fraction(0)] * m
        for i in range(m - 2, -1, -1):
            a[i] = a[i + 1] + labels[i]
        b = [Fraction(0)] * n
        b[0] = labels[m - 1] - a[m - 1]
        for j in range(1, n):
            b[j] = b[j - 1] - labels[m - 1 + j]
        return tuple(a + b)

    if sa.family == "ospC":
        n = sa.n
        c = [Fraction(0)] * n
        c[n - 1] = labels[n]
        for j in range(n - 2, -1, -1):
            c[j] = c[j + 1] + labels[j + 1]
        a0 = -(labels[0] + c[0])
        return (a0,) + tuple(c)

    n, m = sa.n, sa.m
    so_labels = labels[n:]
    if sa.family == "ospB":
        a = [Fraction(0)] * m
        a[m - 1] = so_labels[m - 1] / 2
        for i in range(m - 2, -1, -1):
            a[i] = a[i + 1] + so_labels[i]
    else:  # ospD, m == 2
        a = [(so_labels[0] + so_labels[1]) / 2, (so_labels[1] - so_labels[0]) / 2]
    c = [Fraction(0)] * n
    c[n - 1] = labels[n - 1] - a[0]
    for j in range(n - 2, -1, -1):
        c[j] = c[j + 1] + labels[j]
    return tuple(c) + tuple(a)


def kac_labels(sa: SuperAlgebra, w) -> tuple:
    """Distinguished Kac-Dynkin labels of a weight vector (round trip)."""
    out = []
    if sa.family == "sl":
        m, n = sa.m, sa.n
        out += [w[i] - w[i + 1] for i in range(m - 1)]
        out.append(w[m - 1] + w[m])
        out += [w[m + j] - w[m + j + 1] for j in range(n - 1)]
    elif sa.family == "ospC":
        n = sa.n
        out.append(-w[0] - w[1])
        out += [w[1 + j] - w[2 + j] for j in range(n - 1)]
        out.append(w[n])
    else:
        n, m = sa.n, sa.m
        out += [w[j] - w[j + 1] for j in range(n - 1)]
        out.append(w[n - 1] + w[n])
        eps = w[n:]
        if sa.family == "ospB":
            out += [eps[i] - eps[i + 1] for i in range(m - 1)]
            out.append(2 * eps[m - 1])
        else:
            out += [eps[0] - eps[1], eps[0] + eps[1]]
    return tuple(out)


def is_typical(sa: SuperAlgebra, labels) -> bool:
    """Typicality: (Lambda + rho, beta) != 0 for every isotropic odd root."""
    lam_rho = vadd(kac_weight(sa, labels), sa.rho)
    return all(sa.sdot(lam_rho, b) != 0
               for b, iso in zip(sa.odd_positive_roots, sa.odd_isotropic) if iso)


@dataclass(frozen=True)
class BranchEntry:
    """One even-part constituent, before or after dropping u(1) charges."""

    labels: tuple      # per-factor Dynkin labels
    weight: tuple      # even highest weight in super coordinates (charge info)
    mult: int

    def dim(self, sa: SuperAlgebra) -> int:
        return SemisimpleAlgebra(sa.factor_systems).dimension(self.labels)


def branch_to_even(sa: SuperAlgebra, labels, drop_charges: bool = True):
    """Decompose the typical irrep over the even part.

    Expands the typical character as a signed sum over subsets of the
    positive odd roots: each subset S contributes the virtual even character
    at Lambda - sum(S).  Signs must cancel to a nonnegative multiset; a
    residual negative multiplicity means the root data is wrong and raises.
    A highest weight whose even part is not dominant integral raises
    :class:`InvalidLabelsError` before the expansion.
    """
    if not is_typical(sa, labels):
        raise AtypicalError(
            f"{sa.name} weight ({', '.join(map(str, labels))}) is atypical")
    lam = kac_weight(sa, labels)
    sa.factor_labels(lam)
    rho0 = sa.rho0
    # The expansion runs on integer vectors: Lambda + rho0 times the lcm of
    # its denominators, and the odd roots (integral) times the same scale.
    shifted = vadd(lam, rho0)
    scale = math.lcm(*(x.denominator for x in shifted))
    terms = [_scaled(shifted, scale)]
    for beta in sa.odd_positive_roots:
        step = _scaled(beta, scale)
        terms += [tuple(map(sub, t, step)) for t in terms]
    acc: dict = {}
    for t in terms:
        res = sa.to_dominant_regular(t)
        if res is None:
            continue
        dom, sign = res
        acc[dom] = acc.get(dom, 0) + sign
    entries = []
    for dom, mult in acc.items():
        if mult == 0:
            continue
        hw = vsub(_unscaled(dom, scale), rho0)
        if mult < 0:
            raise InvalidLabelsError(
                f"negative multiplicity {mult} at {hw}: inconsistent root data")
        entries.append(BranchEntry(sa.factor_labels(hw), hw, mult))
    entries.sort(key=lambda e: (-e.dim(sa), e.labels, e.weight))
    return drop_abelian_charges(sa, entries) if drop_charges else entries


def drop_abelian_charges(sa: SuperAlgebra, entries):
    """Erase u(1) charges, merging entries that only differed by charge."""
    merged: dict = {}
    for e in entries:
        merged[e.labels] = merged.get(e.labels, 0) + e.mult
    out = [BranchEntry(lab, None, mult) for lab, mult in merged.items()]
    out.sort(key=lambda e: (-e.dim(sa), e.labels))
    return out


def typical_dimension(sa: SuperAlgebra, labels) -> int:
    """Total dimension of the typical irrep (64 for every catalog entry)."""
    return sum(e.mult * e.dim(sa) for e in branch_to_even(sa, labels))


@dataclass(frozen=True)
class CatalogEntry:
    """One codon representation: algebra, highest weight, provenance."""

    key: str
    algebra: str
    labels: tuple
    table: int
    aliases: tuple = ()
    diagram_rows: tuple = ()  # sl superdiagram row lengths, where applicable

    def build(self) -> SuperAlgebra:
        return build_super(self.algebra)


def _labs(*xs):
    return tuple(fr(x) for x in xs)


CATALOG: tuple = (
    CatalogEntry("sl(2|1)", "sl(2|1)", _labs(15, 1), 1, diagram_rows=(16, 1)),
    CatalogEntry("sl(3|1)", "sl(3|1)", _labs(1, 1, 1), 1, diagram_rows=(3, 2, 1)),
    CatalogEntry("sl(4|1)", "sl(4|1)", _labs(1, 0, 0, 1), 1,
                 aliases=(_labs(0, 0, 1, 1),), diagram_rows=(2, 1, 1, 1)),
    CatalogEntry("sl(6|1)", "sl(6|1)", _labs(0, 0, 0, 0, 0, 1), 1,
                 diagram_rows=(1, 1, 1, 1, 1, 1)),
    CatalogEntry("sl(2|2)(3,2,0)", "sl(2|2)", _labs(3, 2, 0), 2,
                 aliases=(_labs(0, 2, 3),), diagram_rows=(5, 2)),
    CatalogEntry("sl(2|2)(1,3,1)", "sl(2|2)", _labs(1, 3, 1), 2,
                 diagram_rows=(3, 2, 1)),
    CatalogEntry("sl(3|2)", "sl(3|2)", _labs(0, 0, 2, 0), 2,
                 diagram_rows=(2, 2, 2)),
    CatalogEntry("osp(2|4)", "osp(2|4)", _labs(1, 1, 0), 2),
    CatalogEntry("osp(2|6)", "osp(2|6)", _labs(3, 0, 0, 0), 2),
    CatalogEntry("osp(3|2)", "osp(3|2)", _labs(Fraction(17, 2), 15), 3),
    CatalogEntry("osp(3|4)", "osp(3|4)", _labs(0, Fraction(5, 2), 3), 3),
    CatalogEntry("osp(5|2)", "osp(5|2)", _labs(Fraction(5, 2), 0, 1), 3),
    CatalogEntry("osp(4|2)(5,0,0)", "osp(4|2)", _labs(5, 0, 0), 3,
                 aliases=(_labs(Fraction(7, 2), 3, 0), _labs(Fraction(7, 2), 0, 3))),
    CatalogEntry("osp(4|2)(7/2,0,1)", "osp(4|2)", _labs(Fraction(7, 2), 0, 1), 3,
                 aliases=(_labs(3, 1, 1), _labs(Fraction(7, 2), 1, 0))),
)


def catalog_entry(key: str) -> CatalogEntry:
    for e in CATALOG:
        if e.key == key:
            return e
    raise UnknownNameError(f"unknown catalog entry {key!r}; "
                           f"known: {[e.key for e in CATALOG]}")
