"""Root data and first-step branching for basic classical Lie superalgebras.

The supported algebras are those of the catalog of 64-dimensional typical
irreducibles, each entry typed once: an sl(m|n) one by its superdiagram rows,
an osp one by its labels.  Each algebra is one table of integer root data:
its distinguished simple roots, its even and odd positive roots and its even
factors.  Everything else is derived from that table without per-family code.

Weights live in a common coordinate space carrying a signature: the
invariant form is +1 on sp-type (delta) coordinates and -1 on so-type
(epsilon) coordinates, and for sl(m|n) it is +1 on the first block and -1 on
the second.  The Kac-Dynkin labels and the typicality test use this signed
form.  Each even factor's roots lie in coordinates of one sign, so the even
reflections, dominance and Dynkin labels are ratios that the plain dot
product gives as well.  All of it runs on integer vectors over a common
scale (see :mod:`lie_core`); Fractions are read from labels and built only
for weights that are returned or reported.

Branching to the even part expands the typical character as a signed sum
of virtual even characters over subsets of the positive odd roots, then
cancels.  Kac's closed-form condition first decides whether the labels have
a finite-dimensional irrep, so a negative or empty expansion is a fault of
the program, never of the input.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import mul, sub

from . import InputError
from .lie_core import (
    InvalidLabelsError,
    NotACharacterError,
    Record,
    SemisimpleAlgebra,
    UnknownNameError,
    _chain,
    _chamber_roots,
    _scaled,
    _shifted_labels,
    _sparse_roots,
    _to_chamber,
    _units,
    _unscaled,
    build_root_system,
    fr,
    vadd,
    vsub,
)


class AtypicalError(InputError, ValueError):
    """Operation requires a typical highest weight."""


def _inverse(rows, cols: int) -> tuple:
    """``(b, d)``: the first ``cols`` columns of the inverse of an invertible
    square integer matrix are the integer rows ``b`` over the least ``d > 0``,
    by fraction-free Gauss-Jordan elimination."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        for r in range(n):
            if r != c and aug[r][c]:
                a, b = aug[c][c], aug[r][c]
                aug[r] = [a * x - b * y for x, y in zip(aug[r], aug[c])]
    # The left half is now diagonal: row i of the inverse is row i's right
    # half over its pivot.
    d = math.lcm(*(row[i] for i, row in enumerate(aug)))
    inv = [[d // row[i] * x for x in row[n:n + cols]] for i, row in enumerate(aug)]
    g = math.gcd(d, *chain.from_iterable(inv))
    return tuple(tuple(x // g for x in row) for row in inv), d // g


class SuperAlgebra(Record):
    """Distinguished root data of one basic classical Lie superalgebra.

    Stored, as int vectors: the distinguished simple roots (one per
    Kac-Dynkin node, in label order), the odd positive roots, the even
    factors as (RootSystem, simple roots, name) triples and, for sl(m|n),
    the ``gauge`` coordinate that is 0 in every Kac weight and, for type-II
    osp(M|2n), the number ``deltas`` of leading delta coordinates.

    Derived once, and ignored by equality: ``dim``; the even positive roots,
    each positive root of each factor written on that factor's simple roots;
    ``rho0``, ``rho1`` and ``rho`` as Fractions, and ``two_rho0`` and
    ``two_rho`` (twice rho0 and rho) as ints; the tuples ``factor_systems``,
    ``factor_simples`` and ``factor_names``; the even part ``even_algebra``,
    the :class:`SemisimpleAlgebra` of ``factor_systems``; each factor's
    ``(root, (root, root))`` chamber pairs and their concatenation in sparse
    form, ``sparse_roots`` (see :func:`_sparse_roots`); the isotropic odd
    positive roots ``isotropic_odd_roots``; and the inverse of
    :func:`kac_labels` as integer rows ``kac_inverse`` (one per coordinate,
    one column per label) over the least positive ``kac_denominator``.
    """

    __slots__ = ("name", "form_signs", "simple_roots", "odd_positive_roots", "factors",
                 "gauge", "deltas", "dim", "even_positive_roots", "rho0", "rho1", "rho",
                 "two_rho0", "two_rho", "factor_systems", "factor_simples", "factor_names",
                 "even_algebra", "factor_chambers", "sparse_roots", "isotropic_odd_roots",
                 "kac_inverse", "kac_denominator")

    def __init__(self, name: str, form_signs: tuple, simple_roots: tuple,
                 odd_positive_roots: tuple, factors: tuple, gauge: int | None = None,
                 deltas: int | None = None):
        self.name = name
        self.form_signs = form_signs
        self.simple_roots = simple_roots
        self.odd_positive_roots = odd_positive_roots
        self.factors = factors
        self.gauge = gauge
        self.deltas = deltas
        dim = self.dim = len(form_signs)
        systems, simples, names = zip(*factors)
        self.even_positive_roots = tuple(
            tuple(sum(map(mul, rs.root_coefficients(a), col)) for col in zip(*simple))
            for rs, simple in zip(systems, simples) for a in rs.positive_roots)
        self.two_rho0 = tuple(map(sum, zip(*self.even_positive_roots)))
        two_rho1 = tuple(map(sum, zip(*odd_positive_roots)))
        self.two_rho = vsub(self.two_rho0, two_rho1)
        self.rho0 = _unscaled(self.two_rho0, 2)
        self.rho1 = _unscaled(two_rho1, 2)
        self.rho = _unscaled(self.two_rho, 2)
        self.factor_systems = systems
        self.factor_simples = simples
        self.factor_names = names
        self.even_algebra = SemisimpleAlgebra(systems)
        self.factor_chambers = tuple(_chamber_roots(s) for s in simples)
        self.sparse_roots = _sparse_roots(sum(self.factor_chambers, ()))
        self.isotropic_odd_roots = tuple(b for b in odd_positive_roots if self.sdot(b, b) == 0)
        # Row i of the label map holds the i-th (integer) labels of the unit
        # vectors; the sl gauge adds the row that reads coordinate ``gauge``.
        # Its label is always 0, so its column is dropped from the inverse.
        units = _units(dim)
        rows = list(zip(*(_scaled(kac_labels(self, u), 1) for u in units)))
        if gauge is not None:
            rows.append(units[gauge])
        self.kac_inverse, self.kac_denominator = _inverse(rows, len(simple_roots))

    def sdot(self, a, b):
        return sum(s * x * y for s, x, y in zip(self.form_signs, a, b))

    def to_dominant_regular(self, w: tuple):
        """Dominant chamber representative of the integer vector ``w`` (a
        super-space vector times any common scale) under the even Weyl group,
        with the sign of the reflecting element; ``None`` on a wall."""
        return _to_chamber(w, self.sparse_roots)

    def factor_labels(self, v: tuple, scale: int) -> tuple:
        """Per-factor Dynkin labels of the even weight ``v / scale - rho0``
        for the integer vector ``v``; raises unless they are nonnegative
        integers."""
        out = []
        for name, roots in zip(self.factor_names, self.factor_chambers):
            labs = _shifted_labels(v, roots, scale)
            for l in labs:
                if not isinstance(l, int) or l < 0:
                    w = vsub(_unscaled(v, scale), self.rho0)
                    raise InvalidLabelsError(
                        f"{self.name}: {name} label {l} of the even highest weight "
                        f"({', '.join(map(str, w))}) is not a nonnegative integer")
            out.append(labs)
        return tuple(out)


@lru_cache(maxsize=None)
def _sl(m: int, n: int) -> SuperAlgebra:
    e = _units(m + n)
    factors = [(build_root_system("A", len(b) - 1), _chain(b), f"sl({len(b)})")
               for b in (e[:m], e[m:]) if len(b) >= 2]
    odd = [vsub(x, y) for x in e[:m] for y in e[m:]]
    # The distinguished simple roots are e_i - e_(i+1); e_(m-1) - e_m is odd.
    return SuperAlgebra(f"sl({m}|{n})", (1,) * m + (-1,) * n, _chain(e),
                        tuple(odd), tuple(factors), gauge=m - 1)


@lru_cache(maxsize=None)
def _osp(M: int, N: int) -> SuperAlgebra:
    n, m = N // 2, M // 2
    e = _units(n + m)
    if M == 2:
        # Coordinates (epsilon | delta_1 .. delta_n); epsilon is a pure charge.
        eps, delta, signs = e[:1], e[1:], (-1,) + (1,) * n
    else:
        # Coordinates (delta_1 .. delta_n | epsilon_1 .. epsilon_m).
        delta, eps, signs = e[:n], e[n:], (1,) * n + (-1,) * m
    sp_simple = _chain(delta) + (vadd(delta[-1], delta[-1]),)
    factors = [(build_root_system("C", n), sp_simple, f"sp({N})")]
    if M == 2:
        simple = (vsub(eps[0], delta[0]),) + sp_simple
        odd = [vsub(eps[0], d) for d in delta] + [vadd(eps[0], d) for d in delta]
    else:
        if M % 2:
            so_simple = _chain(eps) + (eps[-1],)
            factors.append((build_root_system("B", m), so_simple, f"so({M})"))
            odd = list(delta)  # the non-isotropic odd roots
        else:  # so(4) = sl(2) + sl(2)
            so_simple = (vsub(eps[0], eps[1]), vadd(eps[0], eps[1]))
            factors += [(build_root_system("A", 1), (a,), "sl(2)") for a in so_simple]
            odd = []
        odd += [f(d, x) for d in delta for x in eps for f in (vsub, vadd)]
        simple = sp_simple[:-1] + (vsub(delta[-1], eps[0]),) + so_simple
    return SuperAlgebra(f"osp({M}|{N})", signs, simple, tuple(odd), tuple(factors),
                        deltas=None if M == 2 else n)


_KIND_RE = re.compile(r"(sl|osp)\((\d+)\|(\d+)\)")


def build_super(kind: str) -> SuperAlgebra:
    """Construct the distinguished root data for a supported superalgebra, one
    with a catalog entry; one object per algebra, however its name is spaced."""
    mm = isinstance(kind, str) and _KIND_RE.fullmatch(kind.replace(" ", ""))
    if not mm:
        raise InvalidLabelsError(f"cannot parse algebra name {kind!r}")
    fam, a, b = mm.group(1), int(mm.group(2)), int(mm.group(3))
    if f"{fam}({a}|{b})" not in {e.algebra for e in CATALOG}:
        raise InvalidLabelsError(f"unsupported algebra {kind}")
    return (_sl if fam == "sl" else _osp)(a, b)


def kac_labels(sa: SuperAlgebra, w) -> tuple:
    """Distinguished Kac-Dynkin labels of a weight vector, in the signed
    form: (w, a) at an isotropic simple root a, 2(w, a)/(a, a) at any other."""
    if type(w) is not tuple or len(w) != sa.dim or any(type(x) not in (int, Fraction) for x in w):
        raise InvalidLabelsError(f"{sa.name} weight {w!r} is not {sa.dim} rational numbers")
    out = []
    for a in sa.simple_roots:
        wa, aa = sa.sdot(w, a), sa.sdot(a, a)
        out.append(wa if aa == 0 else Fraction(2 * wa, aa))
    return tuple(out)


def _label(sa: SuperAlgebra, x) -> Fraction:
    try:
        if type(x) is not bool:
            return fr(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidLabelsError(f"{sa.name} label {x!r} is not a finite rational number")


def _kac_vector(sa: SuperAlgebra, labels) -> tuple:
    """``(v, scale)``: the highest weight of distinguished Kac-Dynkin labels
    is the integer vector ``v`` over ``scale``.  Each label must be a finite
    rational number, not a bool; a string is read as one label."""
    try:
        labels = tuple(_label(sa, x) for x in ((labels,) if isinstance(labels, str) else labels))
    except TypeError:
        raise InvalidLabelsError(f"{sa.name} labels {labels!r} are not a sequence") from None
    if len(labels) != len(sa.simple_roots):
        raise InvalidLabelsError(
            f"{sa.name} takes {len(sa.simple_roots)} labels, got {len(labels)}")
    q = math.lcm(*(x.denominator for x in labels))
    ints = [x.numerator * (q // x.denominator) for x in labels]
    return tuple(sum(map(mul, row, ints)) for row in sa.kac_inverse), q * sa.kac_denominator


def kac_weight(sa: SuperAlgebra, labels) -> tuple:
    """Highest weight vector from distinguished Kac-Dynkin labels: the
    inverse of :func:`kac_labels`, with the sl(m|n) gauge coordinate 0."""
    return _unscaled(*_kac_vector(sa, labels))


def _typical(sa: SuperAlgebra, v: tuple, scale: int) -> bool:
    w = tuple(2 * x + scale * r for x, r in zip(v, sa.two_rho))  # 2 scale (Lambda + rho)
    return all(sa.sdot(w, b) for b in sa.isotropic_odd_roots)


def is_typical(sa: SuperAlgebra, labels) -> bool:
    """Typicality: (Lambda + rho, beta) != 0 for every isotropic odd root."""
    return _typical(sa, *_kac_vector(sa, labels))


class BranchEntry(Record):
    """One even-part constituent, before or after dropping u(1) charges:
    per-factor Dynkin labels, the even highest weight in super coordinates
    (the charge information, or ``None``) and the multiplicity."""

    __slots__ = ("labels", "weight", "mult")

    def dim(self, sa: SuperAlgebra) -> int:
        return sa.even_algebra.dimension(self.labels)


def _check_finite(sa: SuperAlgebra, v: tuple, scale: int, labels) -> None:
    """Kac's bound for type II, on a weight ``v / scale`` whose even part is
    dominant integral: its last delta coordinate k is at least the number
    of its nonzero epsilon coordinates."""
    n = sa.deltas
    nonzero = n and sum(map(bool, v[n:]))
    if n and v[n - 1] < scale * nonzero:
        raise InvalidLabelsError(
            f"{sa.name} weight ({', '.join(map(str, labels))}): k = "
            f"{Fraction(v[n - 1], scale)} is below its {nonzero} nonzero ε coordinate"
            f"{'s' * (nonzero > 1)}, so no finite-dimensional irrep has this highest weight")


def branch_to_even(sa: SuperAlgebra, labels, drop_charges: bool = True):
    """Decompose the typical irrep over the even part.

    Expands the typical character as a signed sum over subsets of the
    positive odd roots: each subset S contributes the virtual even character
    at Lambda - sum(S).  An atypical label set raises :class:`AtypicalError`
    and one with no finite-dimensional irrep (its even part is not dominant
    integral, or it fails Kac's type-II bound) :class:`InvalidLabelsError`,
    both before the expansion.  After it, a negative multiplicity or an empty
    even part is a fault of the program and raises :class:`NotACharacterError`.
    """
    if not isinstance(labels, str) and hasattr(labels, "__iter__"):
        labels = tuple(labels)  # read an iterator once: the messages name the labels
    v, s = _kac_vector(sa, labels)
    if not _typical(sa, v, s):
        raise AtypicalError(
            f"{sa.name} weight ({', '.join(map(str, labels))}) is atypical")
    # The expansion runs on integer vectors: Lambda + rho0 over its least
    # common denominator, and the odd roots (integral) times the same scale.
    top = tuple(2 * x + s * r for x, r in zip(v, sa.two_rho0))
    g = math.gcd(2 * s, *top)
    top, scale = tuple(x // g for x in top), 2 * s // g
    sa.factor_labels(top, scale)
    _check_finite(sa, v, s, labels)
    terms = [top]
    for beta in sa.odd_positive_roots:
        step = tuple(scale * x for x in beta)
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
        # The Fraction highest weight is built only to be reported or returned.
        hw = vsub(_unscaled(dom, scale), sa.rho0) if mult < 0 or not drop_charges else None
        if mult < 0:
            raise NotACharacterError(
                f"negative multiplicity {mult} at {hw}: inconsistent root data")
        if mult:
            entries.append(BranchEntry(sa.factor_labels(dom, scale), hw, mult))
    if not entries:
        raise NotACharacterError(f"{sa.name} weight ({', '.join(map(str, labels))}) has an "
                                 "empty even part: inconsistent root data")
    return (drop_abelian_charges(sa, entries) if drop_charges  # it merges and sorts
            else sorted(entries, key=lambda e: (-e.dim(sa), e.labels, e.weight)))


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


def _labs(*xs):
    return tuple(fr(x) for x in xs)


def _sl_labels(rows: tuple, m: int, n: int) -> tuple:
    """Kac-Dynkin labels of the sl(m|n) irrep whose superdiagram has the rows
    b_1 >= b_2 >= ...: b_i - b_(i+1) on the even nodes of sl(m), b_m + c'_1 on
    the odd node and c'_j - c'_(j+1) on those of sl(n), where c'_j =
    max(c_j - m, 0) are the reduced columns; legal exactly when b_(m+1) <= n."""
    b = tuple(rows) + (0,) * (m + 1)
    if b[m] > n:
        raise InvalidLabelsError(f"b_{m + 1} = {b[m]} exceeds {n}: not an sl({m}|{n}) shape")
    c = [max(sum(r >= j for r in rows) - m, 0) for j in range(1, n + 1)]
    return _labs(*(b[i] - b[i + 1] for i in range(m - 1)), b[m - 1] + c[0],
                 *(c[j] - c[j + 1] for j in range(n - 1)))


class CatalogEntry(Record):
    """One codon representation: its key, algebra, table and highest weight,
    typed once: an sl(m|n) entry by its superdiagram rows ``diagram_rows``,
    whose labels :func:`_sl_labels` derives, an osp entry by its labels."""

    __slots__ = ("key", "algebra", "table", "labels", "diagram_rows")

    def __init__(self, key: str, algebra: str, table: int, labels=(), diagram_rows=()):
        self.key, self.algebra, self.table, self.diagram_rows = key, algebra, table, diagram_rows
        m, n = map(int, _KIND_RE.fullmatch(algebra).group(2, 3))
        self.labels = _sl_labels(diagram_rows, m, n) if diagram_rows else labels

    def build(self) -> SuperAlgebra:
        return build_super(self.algebra)

    def diagram(self) -> tuple:
        """The entry's superdiagram as text rows, ``#`` per box and ``s`` per
        half box.  An sl(m|n) entry draws its rows.  A type-II osp(M|2n)
        entry reads its highest weight: its rows are the delta coordinates
        and its columns 1 + the epsilon coordinates, whose boxes below the
        rows are drawn as whole rows, then one row of half boxes.
        osp(2|2n) draws nothing."""
        if self.diagram_rows:
            return tuple("#" * r for r in self.diagram_rows)
        sa = self.build()
        if sa.deltas is None:
            return ()
        n = sa.deltas
        w = kac_weight(sa, self.labels)
        below = [1 + x - n for x in w[n:]]  # each column's length under the rows
        lines = ["#" * int(r) for r in w[:n]]
        lines += ["#" * sum(b >= k for b in below) for k in range(1, int(max(below)) + 1)]
        lines.append("s" * sum(b % 1 > 0 for b in below))
        return tuple(filter(None, lines))


CATALOG: tuple = (
    CatalogEntry("sl(2|1)", "sl(2|1)", 1, diagram_rows=(16, 1)),
    CatalogEntry("sl(3|1)", "sl(3|1)", 1, diagram_rows=(3, 2, 1)),
    CatalogEntry("sl(4|1)", "sl(4|1)", 1, diagram_rows=(2, 1, 1, 1)),
    CatalogEntry("sl(6|1)", "sl(6|1)", 1, diagram_rows=(1, 1, 1, 1, 1, 1)),
    CatalogEntry("sl(2|2)(3,2,0)", "sl(2|2)", 2, diagram_rows=(5, 2)),
    CatalogEntry("sl(2|2)(1,3,1)", "sl(2|2)", 2, diagram_rows=(3, 2, 1)),
    CatalogEntry("sl(3|2)", "sl(3|2)", 2, diagram_rows=(2, 2, 2)),
    CatalogEntry("osp(2|4)", "osp(2|4)", 2, _labs(1, 1, 0)),
    CatalogEntry("osp(2|6)", "osp(2|6)", 2, _labs(3, 0, 0, 0)),
    CatalogEntry("osp(3|2)", "osp(3|2)", 3, _labs(Fraction(17, 2), 15)),
    CatalogEntry("osp(3|4)", "osp(3|4)", 3, _labs(0, Fraction(5, 2), 3)),
    CatalogEntry("osp(5|2)", "osp(5|2)", 3, _labs(Fraction(5, 2), 0, 1)),
    CatalogEntry("osp(4|2)(5,0,0)", "osp(4|2)", 3, _labs(5, 0, 0)),
    CatalogEntry("osp(4|2)(7/2,0,1)", "osp(4|2)", 3, _labs(Fraction(7, 2), 0, 1)),
)


def catalog_entry(key: str) -> CatalogEntry:
    for e in CATALOG:
        if e.key == key:
            return e
    raise UnknownNameError(f"unknown catalog entry {key!r}; "
                           f"known: {[e.key for e in CATALOG]}")


def render_hw(labels) -> str:
    """Highest-weight labels as the catalog and the tables print them: ``5/2,0,1``."""
    return ",".join(str(x) for x in labels)
