"""Subalgebra embeddings and chain branching for the symmetry-breaking search.

Every embedding is pinned by the decomposition of the source's defining
representation; the weight-space projection matrix is written down from that
decomposition and frozen here.  Restricting any irrep is then an integer
projection of its exact character, from the source's scaled weight lattice
to the target's (see :mod:`.lie_core`), followed by an integer peel over the
target.

Chains are sequences of steps applied to the even-part distribution of a
codon representation: either a registered embedding acting on one factor, or
a diagonal contraction of two sl(2) factors.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .lie_core import (
    FormalCharacter,
    NotACharacterError,
    Record,
    RootSystem,
    SemisimpleAlgebra,
    _label_cache,
    _scaled,
    build_root_system,
    fr,
    irrep_character,
    weyl_dimension,
)
from .super_branch import UnknownNameError, branch_to_even, catalog_entry


class ChainError(ValueError):
    """Chain steps that do not compose, or unknown chain ids."""


class Embedding(Record):
    """A named subalgebra inclusion realized as a weight projection.

    ``projection`` has rows over target coordinates and columns over source
    coordinates; ``defining_decomposition`` is ``((per-factor labels, mult),
    ...)``.  ``matrix / denominator``, derived from the projection and
    ignored by equality, sends the source's scaled weight ``scale * w`` to
    the concatenated target blocks ``t.scale * t.canonicalize(P_t w)``,
    where ``P_t`` is the block of ``projection`` rows for target ``t``.
    """

    __slots__ = ("name", "source", "targets", "projection", "defining_decomposition",
                 "validation_vectors", "matrix", "denominator")

    def __init__(self, name: str, source: RootSystem, targets: tuple, projection: tuple,
                 defining_decomposition: tuple, validation_vectors: tuple = ()):
        self.name = name
        self.source = source
        self.targets = targets
        self.projection = projection
        self.defining_decomposition = defining_decomposition
        self.validation_vectors = validation_vectors
        n_rows = sum(t.dim for t in targets)
        if (len(projection) != n_rows
                or any(len(row) != source.dim for row in projection)):
            raise ChainError(f"{name}: the projection must be {n_rows} rows "
                             f"of {source.dim} entries")
        rows, start = [], 0
        for t in targets:
            block = projection[start:start + t.dim]
            start += t.dim
            # canonicalize is linear, so it applies column by column.
            cols = [t.canonicalize(col) for col in zip(*block)]
            ratio = Fraction(t.scale, source.scale)
            rows += [[x * ratio for x in row] for row in zip(*cols)]
        den = math.lcm(*(x.denominator for row in rows for x in row))
        self.matrix = tuple(tuple(int(x * den) for x in row) for row in rows)
        self.denominator = den

    def _key(self):
        return (self.name, self.source, self.targets, self.projection,
                self.defining_decomposition, self.validation_vectors)

    def target_algebra(self) -> SemisimpleAlgebra:
        return SemisimpleAlgebra(self.targets)

    def project_scaled(self, v: tuple) -> tuple:
        """The target lattice vector of the source lattice vector ``v``;
        raises :class:`NotACharacterError` if it is off the target lattice."""
        out = []
        for row in self.matrix:
            q, r = divmod(sum(map(mul, row, v)), self.denominator)
            if r:
                raise NotACharacterError(
                    f"{self.name} projects {v} off the target weight lattice")
            out.append(q)
        return tuple(out)

    def project(self, w):
        """The canonical target weight of the source weight ``w``."""
        v = iter(self.project_scaled(_scaled(w, self.source.scale)))
        return tuple(Fraction(next(v), t.scale) for t in self.targets for _ in range(t.dim))


def _F(rows):
    return tuple(tuple(fr(x) for x in row) for row in rows)


def _rs(spec: str) -> RootSystem:
    return build_root_system(spec[0], int(spec[1:]))


def _mk(name, source, targets, rows, defining, validation=()):
    return Embedding(name, _rs(source), tuple(_rs(t) for t in targets), _F(rows),
                     tuple(defining), tuple(validation))


H = Fraction(1, 2)

_EMBEDDINGS = (
    # sl(4) chains
    _mk("A3>A2", "A3", ("A2",),
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        [(((1, 0),), 1), (((0, 0),), 1)],
        [((1, 0, 0), ((((1, 0),), 1), (((0, 0),), 1)))]),
    _mk("A3>C2", "A3", ("C2",),
        [[1, 0, 0, -1], [0, 1, -1, 0]],
        [(((1, 0),), 1)],
        [((0, 1, 0), ((((0, 1),), 1), (((0, 0),), 1)))]),
    _mk("A3>A1+A1", "A3", ("A1", "A1"),
        [[H, H, -H, -H], [H, -H, H, -H]],
        [(((1,), (1,)), 1)],
        [((1, 0, 0), ((((1,), (1,)), 1),))]),
    # sp(4) chains (also used from so(5) contexts via its own embeddings)
    _mk("C2>A1+A1", "C2", ("A1", "A1"),
        [[H, 0], [0, H]],
        [(((1,), (0,)), 1), (((0,), (1,)), 1)],
        [((1, 0), ((((1,), (0,)), 1), (((0,), (1,)), 1))),
         ((0, 1), ((((1,), (1,)), 1), (((0,), (0,)), 1))),
         ((2, 0), ((((1,), (1,)), 1), (((2,), (0,)), 1), (((0,), (2,)), 1)))]),
    _mk("C2>A1", "C2", ("A1",),
        [[Fraction(3, 2), H]],
        [(((3,),), 1)],
        [((1, 0), ((((3,),), 1),)),
         ((0, 1), ((((4,),), 1),)),
         ((2, 0), ((((6,),), 1), (((2,),), 1)))]),
    # sl(6) chains
    _mk("A5>A4", "A5", ("A4",),
        [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
         [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]],
        [(((1, 0, 0, 0),), 1), (((0, 0, 0, 0),), 1)]),
    _mk("A5>A3", "A5", ("A3",),
        [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
         [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]],
        [(((1, 0, 0),), 1), (((0, 0, 0),), 2)]),
    _mk("A5>C3", "A5", ("C3",),
        [[1, 0, 0, 0, 0, -1], [0, 1, 0, 0, -1, 0], [0, 0, 1, -1, 0, 0]],
        [(((1, 0, 0),), 1)],
        [((0, 1, 0, 0, 0), ((((0, 1, 0),), 1), (((0, 0, 0),), 1))),
         ((0, 0, 1, 0, 0), ((((0, 0, 1),), 1), (((1, 0, 0),), 1)))]),
    _mk("A5>A2", "A5", ("A2",),
        # defining 6 -> symmetric square of the sl(3) triplet
        [[2, 1, 1, 0, 0, 0], [0, 1, 0, 2, 1, 0], [0, 0, 1, 0, 1, 2]],
        [(((2, 0),), 1)],
        [((1, 0, 0, 0, 0), ((((2, 0),), 1),)),
         ((0, 0, 1, 0, 0), ((((3, 0),), 1), (((0, 3),), 1)))]),
    _mk("A5>A1+A3", "A5", ("A1", "A3"),
        [[H, 0, 0, 0, 0, -H],
         [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
         [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0]],
        [(((1,), (0, 0, 0)), 1), (((0,), (1, 0, 0)), 1)]),
    _mk("A5>A2+A2", "A5", ("A2", "A2"),
        [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0],
         [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]],
        [(((1, 0), (0, 0)), 1), (((0, 0), (1, 0)), 1)]),
    _mk("A5>A1+A2", "A5", ("A1", "A2"),
        [[H, H, H, -H, -H, -H],
         [1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1]],
        [(((1,), (1, 0)), 1)]),
    # su(3) reductions
    _mk("A2>A1(1)", "A2", ("A1",),
        [[H, -H, 0]],
        [(((1,),), 1), (((0,),), 1)],
        [((1, 1), ((((2,),), 1), (((1,),), 2), (((0,),), 1)))]),
    _mk("A2>A1(2)", "A2", ("A1",),
        [[1, 0, -1]],
        [(((2,),), 1)],
        [((1, 1), ((((4,),), 1), (((2,),), 1)))]),
    # so(5) reductions
    _mk("B2>A1+A1", "B2", ("A1", "A1"),
        [[H, H], [H, -H]],
        [(((1,), (1,)), 1), (((0,), (0,)), 1)],
        [((0, 1), ((((1,), (0,)), 1), (((0,), (1,)), 1))),
         ((1, 1), ((((2,), (1,)), 1), (((1,), (2,)), 1),
                   (((1,), (0,)), 1), (((0,), (1,)), 1)))]),
    _mk("B2>A1", "B2", ("A1",),
        [[2, 1]],
        [(((4,),), 1)],
        [((0, 1), ((((3,),), 1),)),
         ((1, 1), ((((7,),), 1), (((5,),), 1), (((1,),), 1)))]),
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
    proj: dict = {}
    for w, m in irrep_character(emb.source, labels).terms.items():
        pw = emb.project_scaled(w)
        proj[pw] = proj.get(pw, 0) + m
    from .lie_core import peel  # local import to keep module load cheap
    out = peel(alg, FormalCharacter(proj))
    total = sum(m * alg.dimension(l) for l, m in out)
    if total != weyl_dimension(emb.source, labels):
        raise NotACharacterError(f"{name} lost dimension on {labels}")
    return tuple(out)


def diagonal_clebsch(a: int, b: int) -> tuple:
    """sl(2) tensor product: labels a+b, a+b-2, ..., |a-b|, multiplicity 1."""
    if a < 0 or b < 0:
        raise ChainError("labels must be nonnegative")
    return tuple((c,) for c in range(a + b, abs(a - b) - 1, -2))


class StageAlgebra(SemisimpleAlgebra):
    """The residual symmetry at one point of a chain, with a display name
    per factor; pure-sl(2) stages use slot names "1", "12", ..."""

    __slots__ = ("names",)

    def __init__(self, factors: tuple, names: tuple):
        self.factors = factors
        self.names = names

    def _key(self):
        return (self.factors, self.names)

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

    def __init__(self, labels: tuple, mult: int, history: tuple):
        self.labels = labels
        self.mult = mult
        self.history = history

    def _key(self):
        return (self.labels, self.mult, self.history)


class Distribution(Record):
    """The ``StageAlgebra`` of each visited stage, the last one current,
    and the :class:`DistEntry` tuple at the current stage."""

    __slots__ = ("stages", "entries")

    def __init__(self, stages: tuple, entries: tuple):
        self.stages = stages
        self.entries = entries

    def _key(self):
        return (self.stages, self.entries)

    @property
    def stage(self) -> StageAlgebra:
        return self.stages[-1]

    def total_dim(self) -> int:
        return sum(e.mult * self.stage.dimension(e.labels) for e in self.entries)


def first_step_distribution(key: str) -> Distribution:
    """Even-part distribution of a catalog representation (charges dropped)."""
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

    def __init__(self, kind: str, embedding: str = "", factor: int = 0, pair: tuple = ()):
        self.kind = kind
        self.embedding = embedding
        self.factor = factor
        self.pair = pair

    def _key(self):
        return (self.kind, self.embedding, self.factor, self.pair)


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

    def __init__(self, chain_id: str, rep_key: str, steps: tuple, note: str = ""):
        self.chain_id = chain_id
        self.rep_key = rep_key
        self.steps = steps
        self.note = note

    def _key(self):
        return (self.chain_id, self.rep_key, self.steps, self.note)


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
    chain = CHAIN_INDEX.get(chain_id)
    if chain is None:
        raise ChainError(f"unknown chain id {chain_id!r}; known: {chain_ids()}")
    dist = first_step_distribution(chain.rep_key)
    for step in chain.steps:
        dist = apply_step(dist, step)
    return dist


def validate_registry():
    """Check defining decompositions and validation vectors; raises on mismatch."""
    for emb in _EMBEDDINGS:
        defining = (1,) + (0,) * (emb.source.rank - 1)
        got = branch_embedding(emb.name, defining)
        if sorted(got) != sorted(emb.defining_decomposition):
            raise ChainError(
                f"{emb.name} defining decomposition mismatch: {got}")
        for labels, expected in emb.validation_vectors:
            got = branch_embedding(emb.name, labels)
            if sorted(got) != sorted(expected):
                raise ChainError(
                    f"{emb.name} validation failed on {labels}: {got} != {expected}")
    return True


def export_registry() -> str:
    """Human-readable registry dump: name, spaces, defining data, projection."""
    lines = []
    for emb in _EMBEDDINGS:
        tgt = "+".join(t.series + str(t.rank) for t in emb.targets)
        lines.append(f"embedding {emb.name}")
        lines.append(f"  source: {emb.source.series}{emb.source.rank}")
        lines.append(f"  target: {tgt}")
        parts = []
        for labels, mult in emb.defining_decomposition:
            lab = render_labels(labels)
            parts.append(lab if mult == 1 else f"{mult}x{lab}")
        lines.append("  defining: " + " + ".join(parts))
        for row in emb.projection:
            lines.append("  row: " + " ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"
