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
carries the dimension to each piece, swapping the broken slot's factor.  A
state made by :func:`apply_op` keeps that fold, and its parent, op and slot
index to split its entries on first read, which a search never does.
How one slot splits is read from a table keyed by (kind, slot): the slot's
dimension, its pieces with theirs, and the histogram of the pieces'
dimensions, which a freeze group scales to its own.  A search and tables 1-9
fill it with 34 entries; there is no cache keyed by slot tuples, which would
keep every shape a search meets (~1.9 MB more RSS).
"""

from __future__ import annotations

import math
from functools import lru_cache
from fractions import Fraction

from .embed_chains import Distribution
from .lie_core import Record, build_root_system, casimir2, fr

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


class Multiplet(Record):
    """Product of slot states with a multiplicity and its ancestry."""

    __slots__ = ("slots", "mult", "history")

    def dim(self) -> int:
        return _shape_dim(self.slots)

    def render(self) -> str:
        return "-".join(render_slot(s) for s in self.slots)


class Phase2State(Record):
    """A distribution of :class:`Multiplet` entries over named sl(2) slots,
    with the chain's ``StageAlgebra`` history for ancestry lookups.

    ``shapes`` folds the entries by slot tuple, ``{slots: [dim, total mult]}``
    in entry order, and is read-only; statistics, freeze groups and breaking
    read only it, and equality ignores it.  A state made by :func:`apply_op`
    splits its entries from its parent's on first access (so it keeps an
    instance dict): a search reads none, so it builds none.
    """

    def __init__(self, slot_names: tuple, stages: tuple, entries: tuple):
        self.slot_names = slot_names
        self.stages = stages
        self.entries = entries
        self.shapes = {}
        for e in entries:
            self.shapes.setdefault(e.slots, [e.dim(), 0])[1] += e.mult
        if not self.shapes:
            raise SlotError("a phase-2 state needs at least one multiplet")

    def __getattr__(self, name):
        # Only the entries of a state made by apply_op are ever missing.
        if name != "entries" or "_split" not in vars(self):
            raise AttributeError(name)
        parent, op, idx = vars(self).pop("_split")
        vars(self)["entries"] = tuple(Multiplet(s, e.mult, e.history) for e in parent.entries
                                      for s in _pieces(e.slots, op.kind, idx, op.slot))
        return self.entries

    def statuses(self) -> tuple:
        """Each slot's state, the same in every entry of a state that
        distribution-wide operations made."""
        return tuple(st for st, _ in next(iter(self.shapes)))

    def count(self) -> int:
        return sum(n for _, n in self.shapes.values())

    def total_dim(self) -> int:
        return sum(d * n for d, n in self.shapes.values())

    def slot_index(self, slot: str, where: object) -> int:
        """Position of the named slot; an unknown name raises
        :class:`SlotError` naming ``where`` (formatted only then, so an op
        may pass itself) and listing the valid slots."""
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


@lru_cache(maxsize=None)
def _split_table(kind: str, old: Slot) -> tuple:
    rule = soft_break_slot if kind == "soft" else strong_break_slot
    parts = tuple(((p,), slot_dim(p)) for p in rule(old))
    dims = [d for _, d in parts]
    return slot_dim(old), parts, tuple((d, dims.count(d)) for d in sorted(set(dims), reverse=True))


def _split(kind: str, old: Slot, slot):
    """Dimension of slot ``old``, named ``slot``, ``((piece,), dim)`` per
    piece, and the histogram ``((dim, count), ...)`` of the pieces' dimensions,
    largest first; every split checks here that ``kind`` acts on its state."""
    if kind not in _NEEDS:
        raise SlotError(f"unknown breaking kind {kind!r}; kinds are {', '.join(_NEEDS)}")
    if old[0] != _NEEDS[kind]:
        raise SlotError(f"{kind}:{slot} needs state {_NEEDS[kind]!r} in slot {slot}, found {old}")
    return _split_table(kind, old)


def _pieces(slots: tuple, kind: str, idx: int, slot) -> list:
    """The slot tuples of one shape's pieces under a break of slot ``idx``
    (named ``slot``)."""
    head, tail = slots[:idx], slots[idx + 1:]
    return [head + p + tail for p, _ in _split(kind, slots[idx], slot)[1]]


def _break(shapes: dict, kind: str, idx: int, slot) -> dict:
    """The fold of the pieces of a fold's shapes under a break of slot
    ``idx`` (named ``slot``), each piece carrying its parent's dimension
    with the broken slot's factor swapped."""
    splits: dict = {}
    fold: dict = {}
    for slots, (dim, n) in shapes.items():
        old = slots[idx]
        if old not in splits:
            splits[old] = _split(kind, old, slot)
        old_dim, parts, _ = splits[old]
        head, tail, rest = slots[:idx], slots[idx + 1:], dim // old_dim
        for p, d in parts:
            fold.setdefault(head + p + tail, [rest * d, 0])[1] += n
    return fold


def break_multiplet(m: Multiplet, kind: str, idx: int):
    """All pieces of one multiplet under a soft or strong break of slot ``idx``."""
    return [Multiplet(s, m.mult, m.history) for s in _pieces(m.slots, kind, idx, idx)]


class PhaseOp(Record):
    """One distribution-wide breaking operation, by slot name; the kind is
    ``"soft"``, ``"strong"`` or ``"strong_after_soft"``."""

    __slots__ = ("kind", "slot")

    @classmethod
    def parse(cls, token: str) -> "PhaseOp":
        """The operation written as a ``kind:slot`` token."""
        kind, sep, slot = token.partition(":")
        if not sep:
            raise SlotError(f"breaking op {token!r} is not of the form kind:slot")
        return cls(kind, slot)

    def render(self) -> str:
        return f"{self.kind}:{self.slot}"

    __str__ = render


def apply_op(state: Phase2State, op: PhaseOp) -> Phase2State:
    idx = state.slot_index(op.slot, op)
    fold = _break(state.shapes, op.kind, idx, op.slot)
    child = object.__new__(Phase2State)  # its entries come from __getattr__
    vars(child).update(slot_names=state.slot_names, stages=state.stages, shapes=fold,
                       _split=(state, op, idx))
    return child


def available_ops(state: Phase2State):
    """Operations applicable to the current slot states (uniform across entries)."""
    return [PhaseOp(kind, name) for name, st in zip(state.slot_names, state.statuses())
            for kind in _KINDS[st]]


class Stats(Record):
    """Summary statistics driving the exclusion criteria; ``dim_histogram``
    is ``((dim, count), ...)``, largest dimension first."""

    __slots__ = ("n_multiplets", "d3", "n_singlets", "n_odd", "total_pairing",
                 "dim_histogram")

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
    shape and its conjugate, the signs of its strong slots flipped.  Every
    class has an even count exactly when no odd-count shape is its own
    conjugate and the odd-count shapes pair off under conjugation (the two
    shapes of a class have counts of equal parity), so only the odd-count
    shapes are conjugated."""
    odd = {s for s, (_, n) in state.shapes.items() if n % 2}
    return _stats(state.shapes.values(), all(
        (c := tuple(map(slot_conjugate, s))) != s and c in odd for s in odd))


def distribution_stats(dist: Distribution) -> Stats:
    stage = dist.stage
    classes: dict = {}
    for e in dist.entries:
        _add(classes, min(e.labels, stage.conjugate(e.labels)), e.mult)
    return _stats(((stage.dimension(e.labels), e.mult) for e in dist.entries),
                  all(n % 2 == 0 for n in classes.values()))


_ZERO = Fraction(0)


class Couplings(Record):
    """Coefficients of the model Hamiltonian, all exact rationals."""

    __slots__ = ("h0", "lam", "a1", "a2", "a3", "a12", "b3", "g12")
    _defaults = dict.fromkeys(__slots__, _ZERO)

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
