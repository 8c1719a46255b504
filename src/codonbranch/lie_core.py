"""Exact root systems, characters and Casimirs for classical Lie algebras.

No floating point anywhere.  Weights are tuples of Fractions in an
orthonormal coordinate realization, one per series:

* ``A1``: a single coordinate; weights are spin projections m, the simple
  root is (1), and the Dynkin label of a weight w is 2w.  This is the
  normalization in which the quadratic Casimir of the spin-s irrep is
  s(s+1).
* ``A_r`` (r >= 2): r+1 coordinates summing to zero, roots e_i - e_j.
* ``B_r``: r coordinates, roots +-e_i +- e_j and +-e_i.
* ``C_r``: r coordinates, roots +-e_i +- e_j and +-2 e_i.

so(4) is never built as a D-series object; use two A1 factors instead
(see :func:`semisimple`).

Fractions are kept at the boundaries: highest weights, Dynkin labels,
character keys, projections and Casimirs.  The hot loops (Weyl-chamber
walks, the weight-set search and the Freudenthal recursion) run on integer
vectors instead: a weight times the system's ``scale``, the lcm of the
denominators of its fundamental weights, so that every weight coordinate
becomes an int.  The simple roots are integral and their squared lengths
(a, a) are 1, 2 or 4, and 4 only for a = 2e_i, whose dot product with an
integer vector is even.  So the reflection coefficient 2(w, a) // (a, a) of
an integer vector is exact, whether or not the vector is a scaled weight.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub

Weight = tuple  # tuple[Fraction, ...]
Labels = tuple  # tuple[int, ...], one entry per node


class UnsupportedAlgebraError(ValueError):
    """Requested series/rank outside the supported catalog."""


class InvalidLabelsError(ValueError):
    """Labels that are not dominant integral where they must be."""


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


def zero(dim: int) -> Weight:
    return (Fraction(0),) * dim


class FormalCharacter:
    """Finite formal sum of weights with signed integer multiplicities.

    Zero multiplicities are dropped on construction.  Instances are treated
    as immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        self.terms = {w: int(m) for w, m in items if m}

    def total(self) -> int:
        return sum(self.terms.values())

    def mult(self, w: Weight) -> int:
        return self.terms.get(w, 0)

    def items(self):
        return self.terms.items()

    def __len__(self):
        return len(self.terms)

    def __contains__(self, w):
        return w in self.terms

    def __eq__(self, other):
        return isinstance(other, FormalCharacter) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"FormalCharacter({len(self.terms)} weights, total {self.total()})"


def char_add(a: FormalCharacter, b: FormalCharacter, sign: int = 1) -> FormalCharacter:
    terms = dict(a.terms)
    for w, m in b.items():
        terms[w] = terms.get(w, 0) + sign * m
    return FormalCharacter(terms)


def char_product(a: FormalCharacter, b: FormalCharacter) -> FormalCharacter:
    """Outer product; weights concatenate."""
    terms = {}
    for wa, ma in a.items():
        for wb, mb in b.items():
            w = wa + wb
            terms[w] = terms.get(w, 0) + ma * mb
    return FormalCharacter(terms)


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
    return tuple((_scaled(a, 1), int(vdot(a, a))) for a in simple_roots)


def _to_chamber(w: tuple, roots: tuple, regular: bool):
    """Walk the integer vector ``w`` into the dominant chamber of the Weyl
    group generated by the reflections in ``roots`` (see
    :func:`_chamber_roots`).

    Returns the chamber representative and the sign of the Weyl element used.
    With ``regular`` set, returns ``None`` as soon as ``w`` lies on a wall:
    walls are Weyl-invariant, so the representative would lie on one too.
    """
    sign = 1
    while True:
        for a, aa in roots:
            d = sum(map(mul, w, a))
            if d < 0:
                k = 2 * d // aa
                w = tuple([x - k * y for x, y in zip(w, a)])
                sign = -sign
                break
            if regular and d == 0:
                return None
        else:
            return w, sign


@dataclass(frozen=True)
class RootSystem:
    """A simple classical root system in its orthonormal realization."""

    series: str
    rank: int
    dim: int
    simple_roots: tuple
    positive_roots: tuple
    fundamental_weights: tuple
    rho0: Weight
    weyl_order: int
    # Integer-vector data (see the module docstring), derived from the above.
    scale: int = field(init=False, repr=False, compare=False)
    chamber_roots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scale = math.lcm(*(x.denominator for om in self.fundamental_weights for x in om))
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "chamber_roots", _chamber_roots(self.simple_roots))

    def __hash__(self):
        # The series and rank fix the rest; hashing the Fraction root data
        # would make every cache lookup keyed by a root system slow.
        return hash((self.series, self.rank))

    def label_of(self, w: Weight, i: int) -> Fraction:
        a = self.simple_roots[i]
        return 2 * vdot(w, a) / vdot(a, a)

    def labels_of(self, w: Weight) -> tuple:
        return tuple(self.label_of(w, i) for i in range(self.rank))

    def integer_labels_of(self, w: Weight) -> Labels:
        labs = self.labels_of(w)
        if any(l.denominator != 1 for l in labs):
            raise InvalidLabelsError(f"non-integral labels {labs} for weight {w}")
        return tuple(int(l) for l in labs)

    def highest_weight(self, labels: Labels) -> Weight:
        self.check_dominant(labels)
        v = zero(self.dim)
        for l, om in zip(labels, self.fundamental_weights):
            v = vadd(v, vscale(om, l))
        return v

    def check_dominant(self, labels: Labels) -> None:
        if len(labels) != self.rank:
            raise InvalidLabelsError(f"expected {self.rank} labels, got {labels}")
        if any((not isinstance(l, int)) or l < 0 for l in labels):
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

    def to_dominant(self, w: tuple):
        """Dominant Weyl-chamber representative of the integer vector ``w``
        (a weight times ``scale``) and the sign of the element used
        (meaningful only for regular weights).  The representative is an
        integer vector on the same scale."""
        return _to_chamber(w, self.chamber_roots, False)

    def root_coefficients(self, v: tuple) -> tuple:
        """Coordinates of the integer vector ``v`` in the simple-root basis
        (closed forms), for ``v`` in ``scale`` times the root lattice; the
        coordinates are then multiples of ``scale``."""
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


def _a1() -> RootSystem:
    one = (Fraction(1),)
    half = (Fraction(1, 2),)
    return RootSystem("A", 1, 1, (one,), (one,), (half,), half, 2)


def _a_series(r: int) -> RootSystem:
    n = r + 1
    e = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    simple = tuple(vsub(e[i], e[i + 1]) for i in range(r))
    positive = tuple(vsub(e[i], e[j]) for i in range(n) for j in range(i + 1, n))
    fund = []
    for i in range(1, n):
        v = [Fraction(1) if k < i else Fraction(0) for k in range(n)]
        mean = Fraction(i, n)
        fund.append(tuple(x - mean for x in v))
    rho = tuple(sum(col, start=Fraction(0)) for col in zip(*fund))
    return RootSystem("A", r, n, simple, positive, tuple(fund), rho, math.factorial(n))


def _bc_series(series: str, r: int) -> RootSystem:
    e = [tuple(Fraction(int(i == j)) for j in range(r)) for i in range(r)]
    simple = [vsub(e[i], e[i + 1]) for i in range(r - 1)]
    positive = [vsub(e[i], e[j]) for i in range(r) for j in range(i + 1, r)]
    positive += [vadd(e[i], e[j]) for i in range(r) for j in range(i + 1, r)]
    if series == "B":
        simple.append(e[r - 1])
        positive += [e[i] for i in range(r)]
        fund = [tuple(Fraction(int(k < i)) for k in range(r)) for i in range(1, r)]
        fund.append((Fraction(1, 2),) * r)
    else:
        simple.append(vscale(e[r - 1], 2))
        positive += [vscale(e[i], 2) for i in range(r)]
        fund = [tuple(Fraction(int(k < i)) for k in range(r)) for i in range(1, r + 1)]
    rho = tuple(sum(col, start=Fraction(0)) for col in zip(*fund))
    return RootSystem(series, r, r, tuple(simple), tuple(positive), tuple(fund), rho,
                      2 ** r * math.factorial(r))


_SUPPORTED = {("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5),
              ("B", 2), ("C", 2), ("C", 3)}


@lru_cache(maxsize=None)
def build_root_system(series: str, rank: int) -> RootSystem:
    """Root system for the requested classical series at desk-scale ranks."""
    if series in ("B", "C") and rank == 1:
        # so(3) and sp(2) are used as plain sl(2) factors.
        return build_root_system("A", 1)
    if series == "D":
        raise UnsupportedAlgebraError(
            "so(4) is modeled as the product A1+A1, not as a D-series system")
    if (series, rank) not in _SUPPORTED:
        raise UnsupportedAlgebraError(f"unsupported series/rank: {series}{rank}")
    if series == "A":
        return _a1() if rank == 1 else _a_series(rank)
    return _bc_series(series, rank)


def sl2() -> RootSystem:
    return build_root_system("A", 1)


def semisimple(spec: str) -> "SemisimpleAlgebra":
    """Parse a product such as ``"A1+A1"`` or ``"B2"`` into an algebra."""
    factors = []
    for part in spec.split("+"):
        part = part.strip()
        factors.append(build_root_system(part[0], int(part[1:])))
    return SemisimpleAlgebra(tuple(factors))


def _dominates(rs: RootSystem, lam: tuple, mu: tuple) -> bool:
    """True when ``lam - mu`` is a nonnegative sum of simple roots, for
    integer vectors whose difference lies in the scaled root lattice."""
    return all(c >= 0 for c in rs.root_coefficients(tuple(map(sub, lam, mu))))


def _depth(rs: RootSystem, lam: tuple, mu: tuple) -> int:
    return sum(rs.root_coefficients(tuple(map(sub, lam, mu))))


@lru_cache(maxsize=None)
def irrep_character(rs: RootSystem, labels: Labels) -> FormalCharacter:
    """Character of the irrep with the given Dynkin labels (Freudenthal).

    The full weight set is generated by walking down simple roots from the
    highest weight, keeping points whose dominant representative is below it
    in the dominance order; dominant multiplicities then follow from the
    Freudenthal recursion and spread over Weyl orbits.  All of it runs on
    integer vectors scaled by ``rs.scale``; the keys of the result are
    Fraction weights.
    """
    scale = rs.scale
    lam = _scaled(rs.highest_weight(labels), scale)
    lowering = [_scaled(a, scale) for a in rs.simple_roots]
    weights = {lam}
    queue = [lam]
    while queue:
        w = queue.pop()
        for a in lowering:
            w2 = tuple(map(sub, w, a))
            if w2 in weights:
                continue
            dom, _ = rs.to_dominant(w2)
            if _dominates(rs, lam, dom):
                weights.add(w2)
                queue.append(w2)

    dominants = sorted({rs.to_dominant(w)[0] for w in weights},
                       key=lambda w: _depth(rs, lam, w))
    # With w = scale * w', acc = scale * acc' and denom = scale^2 * denom',
    # so the multiplicity 2 acc' / denom' is 2 scale acc / denom.
    raising = [(_scaled(a, 1), _scaled(a, scale)) for a in rs.positive_roots]
    rho = _scaled(rs.rho0, scale)
    lam_rho = tuple(map(add, lam, rho))
    top = sum(map(mul, lam_rho, lam_rho))
    mult = {}
    for mu in dominants:
        if mu == lam:
            mult[mu] = 1
            continue
        acc = 0
        for a, step in raising:
            nu = tuple(map(add, mu, step))
            while nu in weights:
                acc += mult[rs.to_dominant(nu)[0]] * sum(map(mul, nu, a))
                nu = tuple(map(add, nu, step))
        mu_rho = tuple(map(add, mu, rho))
        denom = top - sum(map(mul, mu_rho, mu_rho))
        m, r = divmod(2 * scale * acc, denom)
        if r or m <= 0:
            raise NotACharacterError(f"Freudenthal failure at {_unscaled(mu, scale)}: "
                                     f"{Fraction(2 * scale * acc, denom)}")
        mult[mu] = m
    return FormalCharacter({_unscaled(w, scale): mult[rs.to_dominant(w)[0]]
                            for w in weights})


@lru_cache(maxsize=None)
def weyl_dimension(rs: RootSystem, labels: Labels) -> int:
    """Dimension of the irrep via the Weyl product formula."""
    lam = rs.highest_weight(labels)
    num, den = Fraction(1), Fraction(1)
    shifted = vadd(lam, rs.rho0)
    for a in rs.positive_roots:
        num *= vdot(shifted, a)
        den *= vdot(rs.rho0, a)
    d = num / den
    assert d.denominator == 1 and d > 0
    return int(d)


def virtual_character_decomp(rs: RootSystem, mu: Weight):
    """Resolve a virtual highest weight under the shifted Weyl action.

    Returns ``None`` when ``mu + rho0`` lies on a wall, otherwise the pair
    ``(sign, labels)`` identifying the signed irreducible character equal to
    the alternating orbit sum of ``mu``.
    """
    res = _to_chamber(_scaled(vadd(mu, rs.rho0), rs.scale), rs.chamber_roots, True)
    if res is None:
        return None
    dom, sign = res
    labels = rs.integer_labels_of(vsub(_unscaled(dom, rs.scale), rs.rho0))
    if any(l < 0 for l in labels):
        raise InvalidLabelsError(f"dot-dominant weight not dominant: {labels}")
    return sign, labels


def casimir2(rs: RootSystem, labels: Labels) -> Fraction:
    """Quadratic Casimir eigenvalue (Lambda, Lambda + 2 rho0)."""
    lam = rs.highest_weight(labels)
    return vdot(lam, vadd(lam, vscale(rs.rho0, 2)))


@dataclass(frozen=True)
class SemisimpleAlgebra:
    """Ordered direct sum of simple factors; weights are concatenated."""

    factors: tuple

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    def slices(self):
        out = []
        start = 0
        for f in self.factors:
            out.append(slice(start, start + f.dim))
            start += f.dim
        return out

    def split(self, w: Weight):
        return tuple(w[s] for s in self.slices())

    def rho0(self) -> Weight:
        return sum((f.rho0 for f in self.factors), start=())

    def height(self, w: Weight) -> Fraction:
        return vdot(w, self.rho0())

    def labels_of(self, w: Weight):
        return tuple(f.integer_labels_of(p) for f, p in zip(self.factors, self.split(w)))

    def highest_weight(self, labels) -> Weight:
        return sum((f.highest_weight(l) for f, l in zip(self.factors, labels)), start=())

    def canonicalize(self, w: Weight) -> Weight:
        return sum((f.canonicalize(p) for f, p in zip(self.factors, self.split(w))), start=())

    def dimension(self, labels) -> int:
        d = 1
        for f, l in zip(self.factors, labels):
            d *= weyl_dimension(f, l)
        return d

    def conjugate(self, labels):
        return tuple(f.conjugate(l) for f, l in zip(self.factors, labels))

    def character(self, labels) -> FormalCharacter:
        return _product_character(self, tuple(labels))


@lru_cache(maxsize=None)
def _product_character(alg: SemisimpleAlgebra, labels) -> FormalCharacter:
    ch = FormalCharacter({(): 1})
    for f, l in zip(alg.factors, labels):
        ch = char_product(ch, irrep_character(f, l))
    return ch


def peel(alg: SemisimpleAlgebra, ch: FormalCharacter):
    """Decompose a Weyl-invariant weight sum into irreducibles.

    Repeatedly strips the character of the irrep headed by the current
    maximal weight.  Raises :class:`NotACharacterError` if the input is not
    a true character (negative multiplicity, or a non-dominant maximum).
    """
    work = dict(ch.terms)
    out = {}
    # Subtracting a character only lowers multiplicities, so the current
    # maximal weight is the highest remaining one in this fixed order.
    for w in sorted(work, key=lambda x: (alg.height(x), x), reverse=True):
        m = work.get(w)
        if m is None:
            continue
        if m < 0:
            raise NotACharacterError(f"negative multiplicity {m} at {w}")
        try:
            labels = alg.labels_of(w)
        except InvalidLabelsError as exc:
            raise NotACharacterError(f"maximal weight {w} not dominant") from exc
        if any(v < 0 for lab in labels for v in lab):
            raise NotACharacterError(f"maximal weight {w} not dominant: {labels}")
        for w2, m2 in alg.character(labels).items():
            left = work.get(w2, 0) - m * m2
            if left < 0:
                raise NotACharacterError(f"negative multiplicity {left} at {w2}")
            if left:
                work[w2] = left
            else:
                work.pop(w2, None)
        out[labels] = out.get(labels, 0) + m
    return sorted(out.items(), key=lambda kv: (-alg.dimension(kv[0]), kv[0]))
