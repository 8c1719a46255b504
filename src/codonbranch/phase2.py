"""Second-phase breaking calculus on direct sums of sl(2) factors.

Each sl(2) slot of a multiplet is in one of three states:

* ``("u", 2s)``   unbroken spin-s factor, dimension 2s+1;
* ``("o", 2|m|)`` soft-broken (Lz^2 eigenvalue label), dimension 2 when
  |m| > 0 and 1 when m = 0; the +-m pair counts as one multiplet;
* ``("s", 2m)``   strong-broken (Lz eigenvalue label, signed), dimension 1.

Values are stored doubled so half-integer spins stay integral.  Breaking
operations apply distribution-wide; exempting individual multiplets is the
job of final-step freezing in the search layer.

Each state carries its entries folded by shape, with each shape's dimension
multiplied out from its slots once; a break splits each shape once and
carries the dimension to each piece, swapping the broken slot's factor.
There is no module-level cache keyed by slot tuples, which would keep every
shape a search meets (~1.9 MB more RSS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from fractions import Fraction

from .embed_chains import Distribution
from .lie_core import build_root_system, casimir2, fr

Slot = tuple  # (state, value)


class SlotError(ValueError):
    """Breaking applied to a slot in the wrong state."""


def slot_dim(slot: Slot) -> int:
    state, v = slot
    if state == "u":
        return v + 1
    if state == "o":
        return 2 if v else 1
    if state == "s":
        return 1
    raise SlotError(f"unknown slot state {slot}")


def slot_conjugate(slot: Slot) -> Slot:
    state, v = slot
    return ("s", -v) if state == "s" else slot


def render_slot(slot: Slot) -> str:
    state, v = slot
    if state == "u":
        return str(v)
    if v == 0:
        return "0"
    if state == "o":
        return f"(±{v})"
    return f"(+{v})" if v > 0 else f"(-{-v})"


def soft_break_slot(slot: Slot):
    """Soft breaking of one unbroken slot: s doublets, plus a singlet when
    the spin is integral."""
    state, v = slot
    if state != "u":
        raise SlotError(f"soft breaking needs an unbroken slot, got {slot}")
    return [("o", k) for k in range(v, -1, -2)]


def strong_break_slot(slot: Slot):
    """Strong breaking: an unbroken slot shatters into 2s+1 singlets; a soft
    slot splits its +-m pair."""
    state, v = slot
    if state == "u":
        return [("s", k) for k in range(v, -v - 1, -2)]
    if state == "o":
        return [("s", v), ("s", -v)] if v else [("s", 0)]
    raise SlotError(f"slot already strong-broken: {slot}")


def _shape_dim(slots: tuple) -> int:
    return math.prod(map(slot_dim, slots))


@dataclass(frozen=True)
class Multiplet:
    """Product of slot states with a multiplicity and its ancestry."""

    slots: tuple
    mult: int
    history: tuple

    def dim(self) -> int:
        return _shape_dim(self.slots)

    def render(self) -> str:
        return "-".join(render_slot(s) for s in self.slots)


@dataclass(frozen=True)
class Phase2State:
    """A distribution of multiplets over named sl(2) slots.

    ``shapes`` folds the entries by slot tuple, ``{slots: [dim, total mult]}``
    in entry order, and is read-only; statistics, freeze groups and breaking
    read only it.  A state made by :func:`apply_op` splits its entries from
    its parent's on first access: a search reads none, so it builds none.
    """

    slot_names: tuple
    stages: tuple    # StageAlgebra history from the chain, for ancestry lookups
    entries: tuple   # Multiplet
    shapes: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "shapes", {})
        for e in self.entries:
            self.shapes.setdefault(e.slots, [e.dim(), 0])[1] += e.mult
        if not self.shapes:
            raise SlotError("a phase-2 state needs at least one multiplet")

    def __getattr__(self, name):
        # Only the entries of a state made by apply_op are ever missing.
        if name != "entries" or "_split" not in vars(self):
            raise AttributeError(name)
        parent, pieces = vars(self).pop("_split")
        vars(self)["entries"] = tuple(Multiplet(s, e.mult, e.history)
                                      for e in parent.entries for s, _ in pieces[e.slots])
        return self.entries

    def statuses(self) -> tuple:
        """Each slot's state, the same in every entry of a state that
        distribution-wide operations made."""
        return tuple(st for st, _ in next(iter(self.shapes)))

    def count(self) -> int:
        return sum(n for _, n in self.shapes.values())

    def total_dim(self) -> int:
        return sum(d * n for d, n in self.shapes.values())

    def slot_index(self, slot: str, where: str) -> int:
        """Position of the named slot; an unknown name raises
        :class:`SlotError` listing the valid slots."""
        if slot not in self.slot_names:
            raise SlotError(f"unknown slot {slot!r} in {where}; "
                            f"valid slots: {', '.join(self.slot_names)}")
        return self.slot_names.index(slot)


def from_distribution(dist: Distribution) -> Phase2State:
    """Adopt an all-sl(2) chain end as the phase-2 starting state."""
    stage = dist.stage
    if not stage.all_sl2():
        raise SlotError(f"stage {stage.names} is not a sum of sl(2) factors")
    return Phase2State(stage.names, dist.stages,
                       tuple(Multiplet(tuple(("u", lab[0]) for lab in e.labels), e.mult,
                                       e.history + (e.labels,)) for e in dist.entries))


# Breaking kinds by the slot state they act on.
_KINDS = {"u": ("soft", "strong"), "o": ("strong_after_soft",), "s": ()}
_NEEDS = {kind: st for st, kinds in _KINDS.items() for kind in kinds}


def _split(kind: str, old: Slot, slot):
    """Dimension of slot ``old``, named ``slot``, and ``(piece, dim)`` of each
    of its pieces; every split checks here that ``kind`` acts on its state."""
    if kind not in _NEEDS:
        raise SlotError(f"unknown breaking kind {kind!r}; kinds are {', '.join(_NEEDS)}")
    if old[0] != _NEEDS[kind]:
        raise SlotError(f"{kind}:{slot} needs state {_NEEDS[kind]!r} in slot {slot}, found {old}")
    rule = soft_break_slot if kind == "soft" else strong_break_slot
    return slot_dim(old), [(p, slot_dim(p)) for p in rule(old)]


def _break(shapes: dict, kind: str, idx: int, slot):
    """The pieces ``{slots: [(piece slots, piece dim), ...]}`` of each shape
    of a fold under a break of slot ``idx`` (named ``slot``), each carrying
    its parent's dimension with the broken slot's factor swapped, and the fold."""
    splits: dict = {}
    pieces: dict = {}
    fold: dict = {}
    for slots, (dim, n) in shapes.items():
        old = slots[idx]
        if old not in splits:
            old_dim, parts = _split(kind, old, slot)
            splits[old] = old_dim, [((p,), d) for p, d in parts]
        old_dim, parts = splits[old]
        head, tail, rest = slots[:idx], slots[idx + 1:], dim // old_dim
        pieces[slots] = [(head + p + tail, rest * d) for p, d in parts]
        for s, d in pieces[slots]:
            fold.setdefault(s, [d, 0])[1] += n
    return pieces, fold


def break_multiplet(m: Multiplet, kind: str, idx: int):
    """All pieces of one multiplet under a soft or strong break of slot ``idx``."""
    pieces, _ = _break({m.slots: (m.dim(), m.mult)}, kind, idx, idx)
    return [Multiplet(s, m.mult, m.history) for s, _ in pieces[m.slots]]


@dataclass(frozen=True)
class PhaseOp:
    """One distribution-wide breaking operation, by slot name."""

    kind: str  # "soft" | "strong" | "strong_after_soft"
    slot: str

    @classmethod
    def parse(cls, token: str) -> "PhaseOp":
        """The operation written as a ``kind:slot`` token."""
        kind, sep, slot = token.partition(":")
        if not sep:
            raise SlotError(f"breaking op {token!r} is not of the form kind:slot")
        return cls(kind, slot)

    def render(self) -> str:
        return f"{self.kind}:{self.slot}"


def apply_op(state: Phase2State, op: PhaseOp) -> Phase2State:
    idx = state.slot_index(op.slot, op.render())
    pieces, fold = _break(state.shapes, op.kind, idx, op.slot)
    child = object.__new__(Phase2State)  # its entries come from __getattr__
    vars(child).update(slot_names=state.slot_names, stages=state.stages, shapes=fold,
                       _split=(state, pieces))
    return child


def available_ops(state: Phase2State):
    """Operations applicable to the current slot states (uniform across entries)."""
    return [PhaseOp(kind, name) for name, st in zip(state.slot_names, state.statuses())
            for kind in _KINDS[st]]


@dataclass(frozen=True)
class Stats:
    """Summary statistics driving the exclusion criteria."""

    n_multiplets: int
    d3: int
    n_singlets: int
    n_odd: int
    total_pairing: bool
    dim_histogram: tuple  # sorted ((dim, count), ...)

    def histogram(self) -> dict:
        return dict(self.dim_histogram)


def _add(counts: dict, key, n: int) -> None:
    counts[key] = counts.get(key, 0) + n


def _stats(rows, paired: bool) -> Stats:
    """Statistics of (dim, mult) rows; ``paired``: every conjugation class
    has an even count."""
    dims: dict = {}
    for d, n in rows:
        dims[d] = dims.get(d, 0) + n
    hist = tuple(sorted(dims.items(), reverse=True))
    return Stats(sum(dims.values()), sum(d * n for d, n in hist if d % 3 == 0),
                 dims.get(1, 0), sum(n for d, n in hist if d % 2), bool(hist) and paired, hist)


def phase2_stats(state: Phase2State) -> Stats:
    """Statistics of the state's fold.  A shape's conjugation class is the
    shape and its conjugate, the signs of its strong slots flipped."""
    shapes = state.shapes
    flip = {s: slot_conjugate(s) for s in set(chain.from_iterable(shapes))}.__getitem__
    return _stats(shapes.values(), all(
        (n + (shapes[c][1] if (c := tuple(map(flip, s))) != s and c in shapes else 0)) % 2 == 0
        for s, (_, n) in shapes.items()))


def distribution_stats(dist: Distribution) -> Stats:
    stage = dist.stage
    classes: dict = {}
    for e in dist.entries:
        _add(classes, min(e.labels, stage.conjugate(e.labels)), e.mult)
    return _stats(((stage.dimension(e.labels), e.mult) for e in dist.entries),
                  all(n % 2 == 0 for n in classes.values()))


@dataclass(frozen=True)
class Couplings:
    """Coefficients of the model Hamiltonian, all exact rationals."""

    h0: Fraction = Fraction(0)
    lam: Fraction = Fraction(0)
    a1: Fraction = Fraction(0)
    a2: Fraction = Fraction(0)
    a3: Fraction = Fraction(0)
    a12: Fraction = Fraction(0)
    b3: Fraction = Fraction(0)
    g12: Fraction = Fraction(0)

    @classmethod
    def of(cls, *vals):
        return cls(*(fr(v) for v in vals))


class AncestryError(ValueError):
    """Multiplet history lacks a stage the Hamiltonian needs."""


def _stage_labels(state: Phase2State, m: Multiplet, names) -> tuple:
    for stage, labels in zip(state.stages, m.history):
        if stage.names == names:
            return labels
    raise AncestryError(f"no ancestor stage {names} in {m.history}")


def _spin_term(two_s: int) -> Fraction:
    s = Fraction(two_s, 2)
    return s * (s + 1)


def _mz2(slot: Slot, what: str) -> Fraction:
    state, v = slot
    if state == "u":
        raise AncestryError(f"{what} needs a broken slot, found unbroken {slot}")
    return Fraction(v, 2) ** 2


def hamiltonian_eigenvalue(state: Phase2State, m: Multiplet, c: Couplings) -> Fraction:
    """Eigenvalue of the model Hamiltonian on one final multiplet.

    H = H0 + lam C2(so(5)) + a1 L1^2 + a2 L2^2 + a3 L3^2 + a12 (L1+L2)^2
        + b3 L3z^2 + g12 ((L1+L2)^2 - 2) (L1z+L2z)^2,
    with L^2 eigenvalues s(s+1) and the (L1+L2)^2 - 2 factor read as
    s12(s12+1) - 2.
    """
    so5 = _stage_labels(state, m, ("sp(2)", "so(5)"))[1]
    spins = _stage_labels(state, m, ("1", "2", "3"))
    value = c.h0 + c.lam * casimir2(build_root_system("B", 2), so5)
    for coeff, lab in zip((c.a1, c.a2, c.a3), spins):
        value += coeff * _spin_term(lab[0])
    s12 = None
    if c.a12 or c.g12:
        s12 = _stage_labels(state, m, ("12", "3"))[0][0]
        value += c.a12 * _spin_term(s12)
    if c.b3:
        idx = state.slot_index("3", "the b3 term")
        value += c.b3 * _mz2(m.slots[idx], "b3 term")
    if c.g12:
        idx = state.slot_index("12", "the g12 term")
        value += c.g12 * (_spin_term(s12) - 2) * _mz2(m.slots[idx], "g12 term")
    return value
