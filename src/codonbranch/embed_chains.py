"""Subalgebra embeddings and chain branching for the symmetry-breaking search.

Every embedding is stated once, by how the source's defining representation
decomposes over its targets (Slansky's tables); the weight-space projection
is derived from that decomposition when the registry is built.  Restricting
any irrep is then an integer projection of its exact character, from the
source's scaled weight lattice to the target's (see :mod:`.lie_core`),
followed by an integer peel over the target.

Chains are sequences of steps applied to the even-part distribution of a
codon representation: either a registered embedding acting on one factor, or
a diagonal contraction of two sl(2) factors.

Importing this module loads :mod:`.lie_core` and no other layer: only
:func:`first_step_distribution`, the start of every chain, needs
:mod:`.super_branch`, and it imports it when it runs.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from . import InputError
from .lie_core import (
    FormalCharacter,
    NotACharacterError,
    Record,
    RootSystem,
    SemisimpleAlgebra,
    UnknownNameError,
    _label_cache,
    _scaled,
    build_root_system,
    irrep_character,
    peel,
    weyl_dimension,
)


class ChainError(InputError, ValueError):
    """Chain steps that do not compose, or unknown chain ids."""


class Embedding(Record):
    """A named subalgebra inclusion, given by ``defining_decomposition``, the
    decomposition ``((per-factor labels, mult), ...)`` of the source's
    defining representation over ``targets``.

    That decomposition fixes the weight projection.  Its weights, as integer
    vectors (the concatenated target blocks, each times its factor's
    ``scale``), with multiplicity and sorted in descending order, are the
    images of the source's unit vectors e_i: all of them for A_r (r >= 2),
    whose defining weights are e_i - mean (the weights sum to zero, so e_i -
    mean goes to the i-th too), and the first r for B_r and C_r, whose
    defining weights are +-e_i (and 0 for B_r).  Any other linear map
    onto those weights differs from this one by a source Weyl element, so
    every restriction is the same.  ``rows / denominator``, derived here and
    ignored by equality, is that map as an integer matrix from the source's
    scaled weight ``scale * w`` to the target blocks; each row is kept as its
    nonzero ``(index, coefficient)`` pairs.
    """

    __slots__ = ("name", "source", "targets", "defining_decomposition", "rows", "denominator")

    def __init__(self, name: str, source: RootSystem, targets: tuple,
                 defining_decomposition: tuple):
        self.name = name
        self.source = source
        self.targets = targets
        self.defining_decomposition = defining_decomposition
        if source.rank == 1:
            raise ChainError(f"{name}: the defining weights of an A1 source do not fix a projection")
        n = {"A": source.dim, "B": 2 * source.rank + 1, "C": 2 * source.rank}[source.series]
        weights = []
        # The uncached Freudenthal body: the registry is built at import, and
        # leaves irrep_character's cache as a command's first call finds it.
        character = irrep_character.__wrapped__
        for labels, mult in defining_decomposition:
            blocks = [character(t, l).terms.items() for t, l in zip(targets, labels)]
            for combo in itertools.product(*blocks):
                v = sum((w for w, _ in combo), start=())
                weights += [v] * (mult * math.prod(m for _, m in combo))
        if len(weights) != n:
            raise ChainError(f"{name}: {len(weights)} defining weights, "
                             f"{source.series}{source.rank} has {n}")
        if source.series != "A" and \
                sorted(weights) != sorted(tuple(-x for x in v) for v in weights):
            raise ChainError(f"{name}: the defining weights of {source.series}{source.rank} "
                             "are closed under negation, these are not")
        cols = sorted(weights, reverse=True)[:source.dim]
        g = math.gcd(source.scale, *(x for v in cols for x in v))
        self.rows = tuple(tuple((i, v[j] // g) for i, v in enumerate(cols) if v[j])
                          for j in range(len(cols[0])))
        self.denominator = source.scale // g

    def target_algebra(self) -> SemisimpleAlgebra:
        return SemisimpleAlgebra(self.targets)

    def project_terms(self, terms: dict) -> dict:
        """The source lattice vectors of ``terms`` projected to the target
        lattice, with the multiplicities of those that meet summed; raises
        :class:`NotACharacterError` if one lands off the target lattice."""
        rows, den = self.rows, self.denominator
        out = {}
        get = out.get
        for v, m in terms.items():
            pv = []
            for row in rows:
                s = 0
                for j, c in row:
                    s += c * v[j]
                q, r = divmod(s, den)
                if r:
                    raise NotACharacterError(
                        f"{self.name} projects {v} off the target weight lattice")
                pv.append(q)
            pv = tuple(pv)
            out[pv] = get(pv, 0) + m
        return out

    def project(self, w):
        """The canonical target weight of the source weight ``w``."""
        (v,) = self.project_terms({_scaled(w, self.source.scale): 1})
        v = iter(v)
        return tuple(Fraction(next(v), t.scale) for t in self.targets for _ in range(t.dim))


def _rs(spec: str) -> RootSystem:
    return build_root_system(spec[0], int(spec[1:]))


def _mk(name, source, targets, defining):
    return Embedding(name, _rs(source), tuple(_rs(t) for t in targets), tuple(defining))


_EMBEDDINGS = (
    # sl(4) chains
    _mk("A3>A2", "A3", ("A2",), [(((1, 0),), 1), (((0, 0),), 1)]),
    _mk("A3>C2", "A3", ("C2",), [(((1, 0),), 1)]),
    _mk("A3>A1+A1", "A3", ("A1", "A1"), [(((1,), (1,)), 1)]),
    # sp(4) chains (also used from so(5) contexts via its own embeddings)
    _mk("C2>A1+A1", "C2", ("A1", "A1"), [(((1,), (0,)), 1), (((0,), (1,)), 1)]),
    _mk("C2>A1", "C2", ("A1",), [(((3,),), 1)]),
    # sl(6) chains
    _mk("A5>A4", "A5", ("A4",), [(((1, 0, 0, 0),), 1), (((0, 0, 0, 0),), 1)]),
    _mk("A5>A3", "A5", ("A3",), [(((1, 0, 0),), 1), (((0, 0, 0),), 2)]),
    _mk("A5>C3", "A5", ("C3",), [(((1, 0, 0),), 1)]),
    # defining 6 -> symmetric square of the sl(3) triplet
    _mk("A5>A2", "A5", ("A2",), [(((2, 0),), 1)]),
    _mk("A5>A1+A3", "A5", ("A1", "A3"), [(((1,), (0, 0, 0)), 1), (((0,), (1, 0, 0)), 1)]),
    _mk("A5>A2+A2", "A5", ("A2", "A2"), [(((1, 0), (0, 0)), 1), (((0, 0), (1, 0)), 1)]),
    _mk("A5>A1+A2", "A5", ("A1", "A2"), [(((1,), (1, 0)), 1)]),
    # su(3) reductions
    _mk("A2>A1(1)", "A2", ("A1",), [(((1,),), 1), (((0,),), 1)]),
    _mk("A2>A1(2)", "A2", ("A1",), [(((2,),), 1)]),
    # so(5) reductions
    _mk("B2>A1+A1", "B2", ("A1", "A1"), [(((1,), (1,)), 1), (((0,), (0,)), 1)]),
    _mk("B2>A1", "B2", ("A1",), [(((4,),), 1)]),
)

REGISTRY = {e.name: e for e in _EMBEDDINGS}


def builtin_registry():
    return list(_EMBEDDINGS)


@_label_cache
def branch_embedding(name: str, labels) -> tuple:
    """Restrict one source irrep through a registered embedding."""
    emb = REGISTRY.get(name)
    if emb is None:
        raise UnknownNameError(f"unknown embedding {name!r}; registered: {list(REGISTRY)}")
    alg = emb.target_algebra()
    proj = emb.project_terms(irrep_character(emb.source, labels).terms)
    # Largest irrep first; each dimension is computed once, for the order
    # and for the check that the pieces add up to the source irrep.
    rows = sorted((-alg.dimension(l), l, m) for l, m in peel(alg, FormalCharacter(proj)))
    if sum(-d * m for d, _, m in rows) != weyl_dimension(emb.source, labels):
        raise NotACharacterError(f"{name} lost dimension on {labels}")
    return tuple((l, m) for _, l, m in rows)


def diagonal_clebsch(a: int, b: int) -> tuple:
    """sl(2) tensor product: labels a+b, a+b-2, ..., |a-b|, multiplicity 1."""
    if not (type(a) is type(b) is int and min(a, b) >= 0):
        raise ChainError(f"labels {a!r}, {b!r} must be nonnegative integers")
    return tuple((c,) for c in range(a + b, abs(a - b) - 1, -2))


class StageAlgebra(SemisimpleAlgebra):
    """The residual symmetry at one point of a chain, with a display name
    per factor; pure-sl(2) stages use slot names "1", "12", ..."""

    __slots__ = ("names",)

    def all_sl2(self) -> bool:
        return all(f.series == "A" and f.rank == 1 for f in self.factors)


def render_labels(labels) -> str:
    """Per-factor Dynkin labels as ``(a,b)-(c)``."""
    return "-".join("(" + ",".join(str(v) for v in lab) + ")" for lab in labels)


class DistEntry(Record):
    """One multiplet instance with its ancestry through earlier stages: its
    per-factor labels at the current stage, its multiplicity, and its
    labels at each earlier stage, oldest first."""

    __slots__ = ("labels", "mult", "history")


class Distribution(Record):
    """The ``StageAlgebra`` of each visited stage, the last one current,
    and the :class:`DistEntry` tuple at the current stage."""

    __slots__ = ("stages", "entries")

    @property
    def stage(self) -> StageAlgebra:
        return self.stages[-1]

    def total_dim(self) -> int:
        return sum(e.mult * self.stage.dimension(e.labels) for e in self.entries)


def first_step_distribution(key: str) -> Distribution:
    """Even-part distribution of a catalog representation (charges dropped)."""
    from .super_branch import branch_to_even, catalog_entry
    entry = catalog_entry(key)
    sa = entry.build()
    branch = branch_to_even(sa, entry.labels)
    factors = sa.factor_systems
    names = sa.factor_names
    stage = StageAlgebra(tuple(factors), tuple(names))
    stage = _positional_names(stage)
    return Distribution((stage,),
                        tuple(DistEntry(e.labels, e.mult, ()) for e in branch))


def _positional_names(stage: StageAlgebra) -> StageAlgebra:
    if stage.all_sl2():
        return StageAlgebra(stage.factors, tuple(str(i + 1) for i in range(len(stage.factors))))
    return stage


class ChainStep(Record):
    """A ``"restrict"`` step through a registered embedding on one factor,
    or a ``"diagonal"`` step on the ``pair`` of positions of two sl(2)
    factors."""

    __slots__ = ("kind", "embedding", "factor", "pair")
    _defaults = {"embedding": "", "factor": 0, "pair": ()}


def apply_step(dist: Distribution, step: ChainStep) -> Distribution:
    stage = dist.stage
    if step.kind == "restrict":
        emb = REGISTRY.get(step.embedding)
        if emb is None:
            raise ChainError(f"unknown embedding {step.embedding!r}")
        if (not 0 <= step.factor < len(stage.factors)
                or stage.factors[step.factor] != emb.source):
            raise ChainError(
                f"{step.embedding} does not apply to factor {step.factor} of {stage.names}")
        factors = (stage.factors[:step.factor] + emb.targets
                   + stage.factors[step.factor + 1:])
        names = (stage.names[:step.factor]
                 + tuple(f"sl(2)" if t.rank == 1 else t.series + str(t.rank)
                         for t in emb.targets)
                 + stage.names[step.factor + 1:])
        new_stage = _positional_names(StageAlgebra(factors, names))
        entries = []
        for e in dist.entries:
            for sub, m in branch_embedding(step.embedding, e.labels[step.factor]):
                labels = e.labels[:step.factor] + sub + e.labels[step.factor + 1:]
                entries.append(DistEntry(labels, e.mult * m, e.history + (e.labels,)))
        return Distribution(dist.stages + (new_stage,), tuple(entries))

    if step.kind == "diagonal":
        i, j = step.pair
        if not stage.all_sl2():
            raise ChainError("diagonal steps need a pure sl(2) stage")
        if not (0 <= i < j < len(stage.factors)):
            raise ChainError(f"bad diagonal pair {step.pair}")

        def merge(seq, x):
            """``seq`` with ``x`` at ``i`` and entry ``j`` dropped."""
            return seq[:i] + (x,) + seq[i + 1:j] + seq[j + 1:]

        new_stage = StageAlgebra(merge(stage.factors, stage.factors[i]),
                                 merge(stage.names, stage.names[i] + stage.names[j]))
        entries = [DistEntry(merge(e.labels, c), e.mult, e.history + (e.labels,))
                   for e in dist.entries
                   for c in diagonal_clebsch(e.labels[i][0], e.labels[j][0])]
        return Distribution(dist.stages + (new_stage,), tuple(entries))

    raise ChainError(f"unknown step kind {step.kind!r}")


class ChainDef(Record):
    """A registered symmetry-breaking chain for one catalog representation."""

    __slots__ = ("chain_id", "rep_key", "steps", "note")
    _defaults = {"note": ""}


def _restrict(name, factor=0):
    return ChainStep("restrict", embedding=name, factor=factor)


def _diag(i, j):
    return ChainStep("diagonal", pair=(i, j))


CHAINS: tuple = (
    ChainDef("sl(2|1)/1", "sl(2|1)", (), "single sl(2) remains"),
    ChainDef("sl(3|1)/1", "sl(3|1)", (), "stops at sl(3)"),
    ChainDef("sl(4|1)/1", "sl(4|1)", (_restrict("A3>A2"),)),
    ChainDef("sl(4|1)/2", "sl(4|1)", (_restrict("A3>C2"), _restrict("C2>A1+A1"))),
    ChainDef("sl(4|1)/3", "sl(4|1)", (_restrict("A3>C2"), _restrict("C2>A1"))),
    ChainDef("sl(4|1)/4", "sl(4|1)", (_restrict("A3>A1+A1"),)),
    ChainDef("sl(6|1)/1", "sl(6|1)", (_restrict("A5>A4"),)),
    ChainDef("sl(6|1)/2", "sl(6|1)", (_restrict("A5>A3"),)),
    ChainDef("sl(6|1)/3", "sl(6|1)", (_restrict("A5>C3"),)),
    ChainDef("sl(6|1)/4", "sl(6|1)", (_restrict("A5>A2"),)),
    ChainDef("sl(6|1)/5", "sl(6|1)", (_restrict("A5>A1+A3"),)),
    ChainDef("sl(6|1)/6", "sl(6|1)", (_restrict("A5>A2+A2"),)),
    ChainDef("sl(6|1)/7", "sl(6|1)", (_restrict("A5>A1+A2"), _restrict("A2>A1(1)", 1))),
    ChainDef("sl(6|1)/8", "sl(6|1)", (_restrict("A5>A1+A2"), _restrict("A2>A1(2)", 1))),
    ChainDef("sl(2|2)(3,2,0)/1", "sl(2|2)(3,2,0)", (), "even part is already sl(2)+sl(2)"),
    ChainDef("sl(2|2)(1,3,1)/1", "sl(2|2)(1,3,1)", (), "even part is already sl(2)+sl(2)"),
    ChainDef("sl(3|2)/1", "sl(3|2)", (_restrict("A2>A1(1)"),)),
    ChainDef("sl(3|2)/2", "sl(3|2)", (_restrict("A2>A1(2)"),)),
    ChainDef("osp(2|4)/1", "osp(2|4)", (_restrict("C2>A1+A1"),)),
    ChainDef("osp(2|4)/2", "osp(2|4)", (_restrict("C2>A1"),)),
    ChainDef("osp(2|6)/1", "osp(2|6)", (), "stops at sp(6)"),
    ChainDef("osp(3|2)/1", "osp(3|2)", (), "even part is already sl(2)+sl(2)"),
    ChainDef("osp(3|4)/1", "osp(3|4)", (_restrict("C2>A1+A1"),)),
    ChainDef("osp(3|4)/2", "osp(3|4)", (_restrict("C2>A1"),)),
    ChainDef("osp(3|4)/3", "osp(3|4)", (_restrict("C2>A1+A1"), _diag(0, 1))),
    ChainDef("osp(3|4)/4", "osp(3|4)", (_restrict("C2>A1+A1"), _diag(0, 2))),
    ChainDef("osp(3|4)/5", "osp(3|4)", (_restrict("C2>A1+A1"), _diag(1, 2))),
    ChainDef("osp(5|2)/1", "osp(5|2)", (_restrict("B2>A1+A1", 1),)),
    ChainDef("osp(5|2)/2", "osp(5|2)", (_restrict("B2>A1", 1),)),
    ChainDef("osp(5|2)/3", "osp(5|2)", (_restrict("B2>A1+A1", 1), _diag(0, 1))),
    ChainDef("osp(5|2)/4", "osp(5|2)", (_restrict("B2>A1+A1", 1), _diag(1, 2))),
    ChainDef("osp(4|2)(5,0,0)/1", "osp(4|2)(5,0,0)", ()),
    ChainDef("osp(4|2)(5,0,0)/2", "osp(4|2)(5,0,0)", (_diag(0, 1),)),
    ChainDef("osp(4|2)(5,0,0)/3", "osp(4|2)(5,0,0)", (_diag(1, 2),)),
    ChainDef("osp(4|2)(7/2,0,1)/1", "osp(4|2)(7/2,0,1)", ()),
    ChainDef("osp(4|2)(7/2,0,1)/2", "osp(4|2)(7/2,0,1)", (_diag(0, 1),)),
    ChainDef("osp(4|2)(7/2,0,1)/3", "osp(4|2)(7/2,0,1)", (_diag(0, 2),)),
)

CHAIN_INDEX = {c.chain_id: c for c in CHAINS}


def chain_ids():
    return [c.chain_id for c in CHAINS]


def apply_chain(chain_id: str) -> Distribution:
    """Run a registered chain from its representation's first-step output."""
    try:
        chain = CHAIN_INDEX.get(chain_id)
    except TypeError:  # unhashable: no chain has that id
        chain = None
    if chain is None:
        raise ChainError(f"unknown chain id {chain_id!r}; known: {chain_ids()}")
    dist = first_step_distribution(chain.rep_key)
    for step in chain.steps:
        dist = apply_step(dist, step)
    return dist


def export_registry() -> str:
    """Human-readable registry dump: name, spaces, defining data, and the
    derived projection, one row per target coordinate in weight units."""
    lines = []
    for emb in _EMBEDDINGS:
        src = emb.source
        tgt = "+".join(t.series + str(t.rank) for t in emb.targets)
        lines.append(f"embedding {emb.name}")
        lines.append(f"  source: {src.series}{src.rank}")
        lines.append(f"  target: {tgt}")
        parts = []
        for labels, mult in emb.defining_decomposition:
            lab = render_labels(labels)
            parts.append(lab if mult == 1 else f"{mult}x{lab}")
        lines.append("  defining: " + " + ".join(parts))
        scales = [t.scale for t in emb.targets for _ in range(t.dim)]
        for row, scale in zip(emb.rows, scales):
            row = dict(row)
            lines.append("  row: " + " ".join(
                str(Fraction(row.get(i, 0) * src.scale, emb.denominator * scale))
                for i in range(src.dim)))
    return "\n".join(lines) + "\n"
