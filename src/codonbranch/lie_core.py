"""Exact root systems, characters and Casimirs for classical Lie algebras.

No floating point anywhere.  Each series is built from integer unit vectors
e_i in an orthonormal coordinate realization:

* ``A1``: a single coordinate; weights are spin projections m, the simple
  root is (1), and the Dynkin label of a weight w is 2w.  This is the
  normalization in which the quadratic Casimir of the spin-s irrep is
  s(s+1).
* ``A_r`` (r >= 2): r+1 coordinates summing to zero, roots e_i - e_j.
* ``B_r``: r coordinates, roots +-e_i +- e_j and +-e_i.
* ``C_r``: r coordinates, roots +-e_i +- e_j and +-2 e_i.

so(4) is never built as a D-series object; use two A1 factors instead.

Roots are int vectors.  Fractions are kept at the boundaries: public
highest weights and fundamental weights, labels of Fraction weights, the
weights that :meth:`FormalCharacter.items` gives, and Casimirs.  The hot
loops (chamber maps, the weight-set search, the Freudenthal recursion,
Weyl dimensions, product characters, restriction and :func:`peel`) run on
integer vectors instead: a weight times the system's ``scale``, the lcm of
the denominators of its fundamental weights; a weight of a product of
factors concatenates its per-factor blocks, each on its own factor's scale.
A :class:`FormalCharacter` is keyed by these integer vectors, and adopts
the fresh dict it is built from.  Restriction projects a whole character
in one pass over the sparse integer rows of an embedding
(:meth:`.embed_chains.Embedding.project_terms`), derived from its defining
decomposition.  Every positive root of these realizations, and of a
product's concatenated blocks, is lexicographically positive, so descending
lexicographic order of the integer vectors extends the dominance order: it
is the order of Freudenthal's dominant weights and of :func:`peel`'s maxima.
:meth:`RootSystem.to_dominant` is a closed form (a sort, written out for A1,
B2 and C2) that gives the chamber representative alone.  The even Weyl walk
of :mod:`.super_branch` needs the sign of the Weyl element and stops on a
wall, so it reflects step by step in :func:`_to_chamber`.  Every simple
root has at most two nonzero coordinates, so the walk takes each root as
its nonzero ``(index, coefficient)`` pairs, derived once per superalgebra:
a dot product or a reflection touches at most two coordinates of a vector
it keeps as a list.
The simple roots are integral and their squared lengths (a, a) are 1, 2 or
4, and 4 only for a = 2e_i, whose dot product with an integer vector is
even.  So the reflection coefficient 2(w, a) // (a, a) of an integer vector
is exact, whether or not the vector is a scaled weight.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import combinations
from operator import add, mul, sub

from . import InputError

Weight = tuple  # tuple[Fraction, ...]
Labels = tuple  # tuple[int, ...], one entry per node


class UnsupportedAlgebraError(InputError, ValueError):
    """Requested series/rank outside the supported catalog."""


class InvalidLabelsError(InputError, ValueError):
    """Labels that are not dominant integral where they must be."""


class UnknownNameError(InputError, KeyError):
    """A catalog key, embedding name, chain id or table id that is not registered."""

    def __str__(self):
        return str(self.args[0]) if self.args else ""


class NotACharacterError(ArithmeticError):
    """A formal weight sum that is not a nonnegative sum of irreducible characters."""


def fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def vadd(a: Weight, b: Weight) -> Weight:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Weight, b: Weight) -> Weight:
    return tuple(x - y for x, y in zip(a, b))


def vscale(a: Weight, k) -> Weight:
    k = fr(k)
    return tuple(k * x for x in a)


def vdot(a: Weight, b: Weight) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), start=Fraction(0))


class FormalCharacter:
    """Finite formal sum of weights with signed integer multiplicities.

    ``terms`` maps the integer vector ``scale * w`` of each weight ``w`` to
    its nonzero int multiplicity.  The constructor adopts the dict it is
    given, without a copy or a check: every caller builds a fresh one with
    no zero multiplicity (:func:`char_add` drops the zeros it makes).
    :meth:`items` speaks of the weights ``w`` themselves, as Fractions,
    built only when asked.  A product character (see
    :meth:`SemisimpleAlgebra.character`) has scale 1: its keys concatenate
    blocks that are each on their own factor's scale, and :meth:`items`
    gives those blocks as they are.  Instances, and so the dicts they hold,
    are treated as immutable: a one-factor product character shares its
    factor's dict.
    """

    __slots__ = ("terms", "scale")

    def __init__(self, terms: dict, scale: int = 1):
        self.terms = terms
        self.scale = scale

    def total(self) -> int:
        return sum(self.terms.values())

    def items(self) -> list:
        """The ``(weight, multiplicity)`` pairs, weights as Fractions."""
        s = self.scale
        return [(tuple(Fraction(x, s) for x in v), m) for v, m in self.terms.items()]

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return (isinstance(other, FormalCharacter) and self.scale == other.scale
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.scale, frozenset(self.terms.items())))

    def __repr__(self):
        return f"FormalCharacter({len(self.terms)} weights, total {self.total()})"


def char_add(a: FormalCharacter, b: FormalCharacter, sign: int = 1) -> FormalCharacter:
    if a.scale != b.scale:
        raise ValueError(f"characters on scales {a.scale} and {b.scale} do not add")
    terms = dict(a.terms)
    for v, m in b.terms.items():
        m = terms.get(v, 0) + sign * m
        if m:
            terms[v] = m
        else:
            terms.pop(v, None)
    return FormalCharacter(terms, a.scale)


def _scaled(w: Weight, scale: int) -> tuple:
    """The integer vector ``scale * w``; raises if ``w`` is off that lattice."""
    out = []
    for x in w:
        q, r = divmod(x.numerator * scale, x.denominator)
        if r:
            raise InvalidLabelsError(f"{w} times {scale} is not an integer vector")
        out.append(q)
    return tuple(out)


def _unscaled(v: tuple, scale: int) -> Weight:
    """The weight ``v / scale`` of an integer vector, as Fractions."""
    return tuple(Fraction(x, scale) for x in v)


def _chamber_roots(simple_roots) -> tuple:
    """Integral simple roots as ``(root, (root, root))`` pairs of ints."""
    return tuple((a, sum(map(mul, a, a))) for a in simple_roots)


def _sparse_roots(chamber_roots) -> tuple:
    """Chamber pairs with each root as its nonzero ``(index, coefficient)`` pairs."""
    return tuple((tuple((i, c) for i, c in enumerate(a) if c), aa) for a, aa in chamber_roots)


def _units(dim: int) -> list:
    return [tuple(int(i == j) for j in range(dim)) for i in range(dim)]


def _chain(e) -> tuple:
    """The roots e_i - e_(i+1) along the unit vectors ``e``."""
    return tuple(vsub(x, y) for x, y in zip(e, e[1:]))


def _pairs(e, signs=(-1, 1)) -> list:
    """The roots e_i + s e_j for i < j, for each sign s of ``signs`` in turn."""
    return [tuple(x + s * y for x, y in zip(e[i], e[j]))
            for s in signs for i, j in combinations(range(len(e)), 2)]


def _shifted_labels(v: tuple, roots: tuple, scale: int) -> tuple:
    """Labels of the weight ``v / scale - rho`` on the simple ``roots`` (see
    :func:`_chamber_roots`), for the integer vector ``v``: ints, and a
    Fraction for a label that is not integral.  rho has label 1 on every
    simple root, so each label is 2(v, a) / ((a, a) scale) - 1."""
    out = []
    for a, aa in roots:
        q, r = divmod(2 * sum(map(mul, v, a)) - aa * scale, aa * scale)
        out.append(q + Fraction(r, aa * scale) if r else q)
    return tuple(out)


def _to_chamber(w: tuple, roots: tuple):
    """Walk the integer vector ``w`` into the dominant chamber of the Weyl
    group generated by the reflections in ``roots``, sparse chamber pairs
    (see :func:`_sparse_roots`): the even Weyl walk of
    :meth:`.super_branch.SuperAlgebra.to_dominant_regular`.

    Returns the chamber representative and the sign of the Weyl element
    used, or ``None`` as soon as ``w`` lies on a wall: walls are
    Weyl-invariant, so the representative would lie on one too.
    """
    sign = 1
    w = list(w)
    while True:
        for a, aa in roots:
            d = 0
            for i, c in a:
                d += c * w[i]
            if d < 0:
                k = 2 * d // aa
                for i, c in a:
                    w[i] -= k * c
                sign = -sign
                break
            if d == 0:
                return None
        else:
            return tuple(w), sign


class Record:
    """Base of the package's record classes.  A record is its constructor's
    arguments: its fields are the parameters of ``__init__``, in order.
    Instances of exactly the same class are equal when their fields are, and
    hash as the tuple of them (what ``_key`` returns); an instance never
    equals one of a subclass or a base class.  A record that callers may
    change sets ``__hash__ = None``.

    A class that writes its own ``__init__`` validates or derives, and may
    set attributes beyond its fields, which equality ignores.  For a class
    that writes none, ``__init__`` takes the ``__slots__`` of its bases,
    then its own, in order, and stores each under its name; the trailing
    slots named in the class's ``_defaults`` mapping default to their values
    there.  ``__init__`` and ``_key`` are generated source compiled once per
    class, as in ``dataclasses``: a function body reads slots faster than
    ``operator.attrgetter`` does."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        defaults = vars(cls).get("_defaults", {})
        if "__init__" in vars(cls):
            code = cls.__init__.__code__
            fields, src = code.co_varnames[1:code.co_argcount], ""
        else:
            fields = tuple(f for c in reversed(cls.__mro__)
                           for f in vars(c).get("__slots__", ()))
            params = "".join(f", {f}=_defaults[{f!r}]" if f in defaults else f", {f}"
                             for f in fields)
            body = "".join(f"\n    self.{f} = {f}" for f in fields)
            src = f"def __init__(self{params}):{body}\n"
        src += f"def _key(self):\n    return ({''.join(f'self.{f}, ' for f in fields)})\n"
        ns = {}
        exec(src, {"_defaults": defaults}, ns)
        for name, fn in ns.items():
            fn.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, fn)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class RootSystem(Record):
    """A simple classical root system in its orthonormal realization, built
    from its series and rank on the integer unit vectors e_i: int simple and
    positive roots, Fraction fundamental weights and rho0.  A1 is built like
    B1: one coordinate, with the short root e_1.

    Derived from these, on integer vectors (see the module docstring):
    ``scale``, ``chamber_roots``, ``scaled_rho0``, ``scaled_fundamentals``
    and ``sign_flips`` (the Weyl group also flips coordinate signs: A1, B,
    C).  The series and rank fix the rest, so equality and hashing read only
    them, never the Fraction root data.  The hash of ``(series, rank)`` is
    computed once, in ``_hash``: every lookup in a cache keyed by a root
    system, or by an algebra of them, hashes it."""

    __slots__ = ("series", "rank", "dim", "simple_roots", "positive_roots",
                 "fundamental_weights", "rho0", "weyl_order", "scale", "chamber_roots",
                 "scaled_rho0", "scaled_fundamentals", "sign_flips", "_hash")

    def __init__(self, series: str, rank: int):
        self.series = series
        self.rank = rank
        self._hash = hash((series, rank))
        if series == "A" and rank >= 2:
            e = _units(rank + 1)
            simple, positive = _chain(e), _pairs(e, (-1,))
            # e_1 + ... + e_i, moved into the trace-zero slice
            fund = [[x - Fraction(i, rank + 1) for x in v]
                    for i, v in enumerate(itertools.accumulate(e, vadd), 1)][:rank]
            self.weyl_order = math.factorial(rank + 1)
        else:
            e = _units(rank)
            ends = [vadd(x, x) for x in e] if series == "C" else e  # 2 e_i or e_i
            simple, positive = _chain(e) + (ends[-1],), _pairs(e) + ends
            fund = list(itertools.accumulate(e, vadd))
            if series != "C":
                fund[-1] = vscale(fund[-1], Fraction(1, 2))
            self.weyl_order = 2 ** rank * math.factorial(rank)
        self.dim = len(e)
        self.simple_roots = simple
        self.positive_roots = tuple(positive)
        self.fundamental_weights = fund = tuple(tuple(map(fr, w)) for w in fund)
        self.rho0 = tuple(sum(col, start=Fraction(0)) for col in zip(*fund))
        self.scale = scale = math.lcm(*(x.denominator for om in fund for x in om))
        self.chamber_roots = _chamber_roots(simple)
        self.scaled_rho0 = _scaled(self.rho0, scale)
        self.scaled_fundamentals = tuple(_scaled(w, scale) for w in fund)
        self.sign_flips = series != "A" or rank == 1

    def __hash__(self):
        return self._hash

    def label_of(self, w: Weight, i: int) -> Fraction:
        a = self.simple_roots[i]
        return 2 * vdot(w, a) / vdot(a, a)

    def labels_of(self, w: Weight) -> tuple:
        return tuple(self.label_of(w, i) for i in range(self.rank))

    def highest_weight(self, labels: Labels) -> Weight:
        return _unscaled(self.scaled_highest_weight(labels), self.scale)

    def scaled_highest_weight(self, labels: Labels) -> tuple:
        self.check_dominant(labels)
        return tuple(sum(map(mul, labels, col)) for col in zip(*self.scaled_fundamentals))

    def check_dominant(self, labels: Labels) -> None:
        try:
            arity = len(labels)
        except TypeError:
            arity = None
        if arity != self.rank:
            raise InvalidLabelsError(f"expected {self.rank} labels, got {labels}")
        if any(type(l) is not int or l < 0 for l in labels):
            raise InvalidLabelsError(f"labels must be nonnegative integers: {labels}")

    def canonicalize(self, w: Weight) -> Weight:
        # A-series weights (r >= 2) live in the trace-zero slice.
        if self.series == "A" and self.rank >= 2:
            mean = sum(w, start=Fraction(0)) / self.dim
            return tuple(x - mean for x in w)
        return w

    def reflect(self, w: Weight, i: int) -> Weight:
        a = self.simple_roots[i]
        return vsub(w, vscale(a, 2 * vdot(w, a) / vdot(a, a)))

    def to_dominant(self, w: tuple) -> tuple:
        """Dominant Weyl-chamber representative of the integer vector ``w``
        (a weight times ``scale``), on the same scale: the coordinates
        (A_r, r >= 2) or their absolute values (A1, B, C) sorted in
        descending order.  With sign flips and one or two coordinates (A1,
        B2, C2) the sort is written out: it costs several times as much."""
        if self.sign_flips:
            n = self.dim
            if n == 1:
                return (abs(w[0]),)
            if n == 2:
                a, b = abs(w[0]), abs(w[1])
                return (a, b) if a >= b else (b, a)
            w = map(abs, w)
        return tuple(sorted(w, reverse=True))

    def root_coefficients(self, v: tuple) -> tuple:
        """Coordinates of the integer vector ``v`` in the simple-root basis
        (closed forms), for ``v`` in the root lattice (a root, say) or in
        ``scale`` times it, where the coordinates are multiples of
        ``scale``."""
        if self.series == "A" and self.rank == 1:
            return (v[0],)
        partial = list(itertools.accumulate(v))
        if self.series == "C":
            # The root lattice of C_r has an even coordinate sum.
            partial[-1] //= 2
        elif self.series == "A":
            partial.pop()  # zero: A-series vectors have trace zero
        return tuple(partial)

    def conjugate(self, labels: Labels) -> Labels:
        # Label reversal for A-series; B and C irreps are self-conjugate.
        if self.series == "A":
            return tuple(reversed(labels))
        return tuple(labels)


_SUPPORTED = {("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
              ("B", 2), ("C", 2), ("C", 3)}


def build_root_system(series: str, rank: int) -> RootSystem:
    """Root system for the requested classical series at desk-scale ranks.
    The series must be a ``str`` and the rank exactly an ``int``, checked
    before the lookup: ``True`` and ``1.0`` hash and compare equal to ``1``,
    so they would find A1 once it is cached, or build and cache it first."""
    if type(series) is not str or type(rank) is not int:
        raise UnsupportedAlgebraError(f"unsupported series/rank: {series!r}, {rank!r}")
    return _root_system(series, rank)


@lru_cache(maxsize=None)
def _root_system(series: str, rank: int) -> RootSystem:
    if series in ("B", "C") and rank == 1:
        # so(3) and sp(2) are used as plain sl(2) factors.
        return _root_system("A", 1)
    if series == "D":
        raise UnsupportedAlgebraError(
            "so(4) is modeled as the product A1+A1, not as a D-series system")
    if (series, rank) not in _SUPPORTED:
        raise UnsupportedAlgebraError(f"unsupported series/rank: {series}{rank}")
    return RootSystem(series, rank)


def sl2() -> RootSystem:
    return build_root_system("A", 1)


def _label_cache(fn):
    """``lru_cache`` of ``fn(key, labels)`` that also takes labels as a list
    or any other iterable.  Each label must be exactly an ``int``, checked
    before the lookup: ``1.0``, ``True`` and ``Fraction(1)`` hash and compare
    equal to ``1``, so they would find its entry once it is cached.  An
    unhashable key is an unknown name."""
    cached = lru_cache(maxsize=None)(fn)

    @wraps(fn)
    def call(key, labels):
        try:
            labels = tuple(labels)
            for x in labels:
                if type(x) is not int:
                    raise TypeError  # reported below, as labels that are not iterable
        except TypeError:
            raise InvalidLabelsError(
                f"labels must be a sequence of integers: {labels!r}") from None
        try:
            return cached(key, labels)
        except TypeError:  # from the key, or from fn: only the first is bad input
            try:
                hash(key)
            except TypeError:
                raise UnknownNameError(f"{fn.__name__}: unknown name {key!r}") from None
            raise

    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return call


@_label_cache
def irrep_character(rs: RootSystem, labels: Labels) -> FormalCharacter:
    """Character of the irrep with the given Dynkin labels (Freudenthal).

    The full weight set is generated by walking down simple roots from the
    highest weight, keeping points whose dominant representative is below it
    in the dominance order; dominant multiplicities then follow from the
    Freudenthal recursion, in descending lexicographic order (see the module
    docstring), and spread over Weyl orbits.  All of it runs on
    integer vectors scaled by ``rs.scale``, the scale of the result.
    """
    scale = rs.scale
    lam = rs.scaled_highest_weight(labels)
    lowering = [tuple(scale * x for x in a) for a, _ in rs.chamber_roots]
    # Each dominant representative met, mapped to whether lam dominates it:
    # whether every simple-root coefficient of lam - mu is nonnegative.
    below = {lam: True}
    weights = {lam}
    queue = [lam]
    while queue:
        w = queue.pop()
        for a in lowering:
            w2 = tuple(map(sub, w, a))
            if w2 in weights:
                continue
            dom = rs.to_dominant(w2)
            b = below.get(dom)
            if b is None:
                b = below[dom] = min(rs.root_coefficients(tuple(map(sub, lam, dom)))) >= 0
            if b:
                weights.add(w2)
                queue.append(w2)

    # Descending lexicographic order extends dominance (module docstring).
    dominants = sorted({rs.to_dominant(w) for w in weights}, reverse=True)
    # With w = scale * w', acc = scale * acc' and denom = scale^2 * denom',
    # so the multiplicity 2 acc' / denom' is 2 scale acc / denom.  Along the
    # string nu = mu + k step, (nu, a) grows by (step, a) = scale (a, a).
    raising = [(a, tuple(scale * x for x in a), scale * sum(map(mul, a, a)))
               for a in rs.positive_roots]
    rho = rs.scaled_rho0
    lam_rho = tuple(map(add, lam, rho))
    top = sum(map(mul, lam_rho, lam_rho))
    mult = {}
    for mu in dominants:
        if mu == lam:
            mult[mu] = 1
            continue
        acc = 0
        for a, step, grow in raising:
            nu = tuple(map(add, mu, step))
            if nu in weights:
                d = sum(map(mul, nu, a))
                while True:
                    acc += mult[rs.to_dominant(nu)] * d
                    nu = tuple(map(add, nu, step))
                    if nu not in weights:
                        break
                    d += grow
        mu_rho = tuple(map(add, mu, rho))
        denom = top - sum(map(mul, mu_rho, mu_rho))
        m, r = divmod(2 * scale * acc, denom)
        if r or m <= 0:
            raise NotACharacterError(f"Freudenthal failure at {_unscaled(mu, scale)}: "
                                     f"{Fraction(2 * scale * acc, denom)}")
        mult[mu] = m
    return FormalCharacter({w: mult[rs.to_dominant(w)] for w in weights}, scale)


@_label_cache
def weyl_dimension(rs: RootSystem, labels: Labels) -> int:
    """Dimension of the irrep via the Weyl product formula."""
    shifted = tuple(map(add, rs.scaled_highest_weight(labels), rs.scaled_rho0))
    num = math.prod(sum(map(mul, shifted, a)) for a in rs.positive_roots)
    den = math.prod(sum(map(mul, rs.scaled_rho0, a)) for a in rs.positive_roots)
    d, r = divmod(num, den)
    if r or d <= 0:
        raise NotACharacterError(f"Weyl dimension {Fraction(num, den)} of {labels}")
    return d


def casimir2(rs: RootSystem, labels: Labels) -> Fraction:
    """Quadratic Casimir eigenvalue (Lambda, Lambda + 2 rho0)."""
    lam = rs.highest_weight(labels)
    return vdot(lam, vadd(lam, vscale(rs.rho0, 2)))


class SemisimpleAlgebra(Record):
    """Ordered direct sum of simple factors; weights are concatenated."""

    __slots__ = ("factors",)

    def slices(self):
        out = []
        start = 0
        for f in self.factors:
            out.append(slice(start, start + f.dim))
            start += f.dim
        return out

    def split(self, w: Weight):
        return tuple(w[s] for s in self.slices())

    def canonicalize(self, w: Weight) -> Weight:
        return sum((f.canonicalize(p) for f, p in zip(self.factors, self.split(w))), start=())

    def check_arity(self, labels) -> None:
        try:
            arity = len(labels)
        except TypeError:
            arity = None
        if arity != len(self.factors):
            raise InvalidLabelsError(
                f"expected labels for {len(self.factors)} factors, got {labels}")

    def dimension(self, labels) -> int:
        self.check_arity(labels)
        d = 1
        for f, l in zip(self.factors, labels):
            d *= weyl_dimension(f, l)
        return d

    def conjugate(self, labels):
        return tuple(f.conjugate(l) for f, l in zip(self.factors, labels))

    def character(self, labels) -> FormalCharacter:
        """Product character, keyed by integer vectors: each factor's block
        is its weight times that factor's ``scale`` (the character's own
        scale is 1).  Each label must be exactly an ``int``, checked before
        the lookup, as :func:`_label_cache` checks it."""
        self.check_arity(labels)
        try:
            labels = tuple(map(tuple, labels))
            for block in labels:
                for x in block:
                    if type(x) is not int:
                        raise TypeError  # reported below, as labels that are not sequences
        except TypeError:
            raise InvalidLabelsError(
                f"labels must be sequences of integers: {labels!r}") from None
        return _product_character(self, labels)


@lru_cache(maxsize=None)
def _product_character(alg: SemisimpleAlgebra, labels) -> FormalCharacter:
    blocks = [irrep_character(f, l).terms for f, l in zip(alg.factors, labels)]
    if len(blocks) == 1:  # the keys are already the factor's own vectors
        return FormalCharacter(blocks[0])
    terms = {(): 1}
    for block in blocks:
        # Distinct block pairs concatenate to distinct keys.
        terms = {w + v: m * n for w, m in terms.items() for v, n in block.items()}
    return FormalCharacter(terms)


@lru_cache(maxsize=None)
def _lattice(alg: SemisimpleAlgebra) -> tuple:
    """Integer data of ``alg`` on the lattice of :func:`_product_character`:
    per factor its slice and its simple roots ``a`` with ``(a, a) * scale``."""
    return tuple((sl, tuple((a, aa * f.scale) for a, aa in f.chamber_roots))
                 for sl, f in zip(alg.slices(), alg.factors))


def peel(alg: SemisimpleAlgebra, ch: FormalCharacter):
    """Decompose a Weyl-invariant weight sum into irreducibles.

    ``ch`` is keyed by integer vectors as :meth:`SemisimpleAlgebra.character`
    is.  Repeatedly strips the character of the irrep headed by the first
    remaining weight in descending lexicographic order.  Raises
    :class:`NotACharacterError` if the input is not a true character
    (negative multiplicity, or a non-dominant maximum).  Returns
    ``[(labels, mult), ...]`` in the order stripped, highest first.
    """
    blocks = _lattice(alg)
    work = dict(ch.terms)
    out = {}
    # Descending lexicographic order extends the dominance order (see the
    # module docstring), and distinct vectors never tie.  Subtracting a
    # character only lowers multiplicities, and every other weight of it
    # lies strictly below its highest weight, so the current maximal weight
    # is the first one remaining in that order.
    for w in sorted(work, reverse=True):
        m = work.get(w)
        if m is None:
            continue
        if m < 0:
            raise NotACharacterError(f"negative multiplicity {m} at {w}")
        labels = []
        for sl, roots in blocks:
            v = w[sl]
            lab = []
            for a, d in roots:
                q, r = divmod(2 * sum(map(mul, v, a)), d)
                if r or q < 0:
                    raise NotACharacterError(f"maximal lattice vector {w} not dominant integral")
                lab.append(q)
            labels.append(tuple(lab))
        labels = tuple(labels)
        for w2, m2 in alg.character(labels).terms.items():
            left = work.get(w2, 0) - m * m2
            if left < 0:
                raise NotACharacterError(f"negative multiplicity {left} at {w2}")
            if left:
                work[w2] = left
            else:
                work.pop(w2, None)
        out[labels] = out.get(labels, 0) + m
    return list(out.items())
