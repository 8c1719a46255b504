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
How one slot splits is read from a table keyed by (kind, slot): the slot's
dimension, its pieces with theirs, and the histogram of the pieces'
dimensions, which a freeze group scales to its own.  A search and tables 1-9
fill it with 34 entries; there is no cache keyed by slot tuples, which would
keep every shape a search meets (~1.9 MB more RSS).

A shape's conjugate flips the signs of its strong slots, and a state is
totally paired when each shape and its conjugate together have an even
count.  A fold is symmetric when every shape has its conjugate's count.  A
start state is symmetric, every slot unbroken, and a distribution-wide
break keeps a fold symmetric: soft pieces and unbroken slots are their own
conjugates and strong pieces come in +-m sets, so the pieces of a shape's
conjugate are the conjugates of its pieces.  In a symmetric fold, pairing
fails exactly at an odd-count shape that is its own conjugate, one with
every strong slot at 0.  Each state records whether its fold is uniform
and symmetric; the states that are not (a final state with frozen groups,
some hand-built states) are checked class by class.

So the statistics of a symmetric state need only its dimension histogram
and its odd-count self-conjugate shapes, and :func:`apply_op` derives both
from the parent without building the child's fold.  The histogram comes
from the parent's copies per slot class, (slot at the broken index,
dimension), since every shape of a class splits into pieces of the same
dimensions.  A child shape's count is odd exactly when an odd number of
odd-count parent shapes split onto it, and a self-conjugate child shape
comes only from self-conjugate parent shapes (a nonzero strong slot never
returns to 0), so walking those parent shapes finds the child's by parity.
A child refers to no other state.  It keeps its parent's fold, its op and
the slot index, and splits its own fold from them on first read, dropping
the parent's; it keeps the entries of its nearest ancestor that has them
with the ops taken since, and replays those on the first read of its
entries.  A search reads the fold of a state it expands and no entries.

Nothing in a state depends on a search target.  A state keeps only what
a search reads twice: one table of slot-class rows per op
(:meth:`Phase2State.class_rows`, read by :func:`apply_op` and by the mask
solver) and two things the search builds from these on first use: the mask
solver's last-step entry per op (``_totals``: the largest piece, the number
of dimensions with neutral copies, the fewest and most copies per dimension
and, once a step passes those bounds, its move table, each active group
with both its alternatives, so that a target of any largest dimension reads
it) and, once the walk expands it, its edge rows (``_edges``, each op with
its child, the child's statistics and the walk's key).  The edge rows are
the only way one state refers to another, so no state is in a reference
cycle and each is freed when its last reference goes.  The start states
that ``search`` caches per chain keep every child any search expanded
below them, at most one per route, 2,877 over the 28 all-sl(2) chain ends
(265 after a standard search), and ``cache_clear()`` on that cache frees
them.  No memo is keyed by a target, and none by slot tuples.
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


def _add(counts: dict, key, n: int) -> None:
    counts[key] = counts.get(key, 0) + n


def _shape_dim(slots: tuple) -> int:
    return math.prod(map(slot_dim, slots))


def _symmetric(shapes: dict) -> bool:
    """Whether a fold is uniform, every shape with the same slot states, and
    symmetric, every shape with the count of its conjugate (the shape with
    the signs of its strong slots flipped)."""
    statuses = [st for st, _ in next(iter(shapes))]
    for slots, (_, n) in shapes.items():
        if [st for st, _ in slots] != statuses or \
                shapes.get(tuple(map(slot_conjugate, slots)), (0, 0))[1] != n:
            return False
    return True


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
    in entry order, and is read-only; freeze groups and breaking read only
    it, and equality ignores it.  Beside it a state keeps what its
    statistics read: ``dims``, its dimension histogram ``{dim: count}``, and
    ``odd0``, a list of its odd-count shapes that are their own conjugates
    (every strong slot at 0).  A state made by :func:`apply_op` has both
    from its parent and builds its fold and its entries on first access,
    from what it keeps instead of a parent (see the module docstring), so
    it keeps an instance dict.

    ``symmetric`` says whether every shape of the fold has the same slot
    states and the count of its conjugate, which decides the pairing rule
    of :func:`phase2_stats`.  It is checked when a state is built from its
    entries; a state made by :func:`apply_op` inherits its parent's, since
    a break keeps a uniform fold uniform and a symmetric one symmetric.
    Equality ignores it, and the tables the module docstring lists.
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
        self.symmetric = _symmetric(self.shapes)
        self._statuses = tuple(st for st, _ in next(iter(self.shapes)))
        self.dims = {}
        for dim, n in self.shapes.values():
            _add(self.dims, dim, n)
        self.odd0 = [slots for slots, (_, n) in self.shapes.items()
                     if n % 2 and tuple(map(slot_conjugate, slots)) == slots]
        self._rows, self._totals, self._edges = {}, {}, None

    def __getattr__(self, name):
        # Only the fold and the entries of a state made by apply_op are ever
        # missing; each is built on first read from what apply_op left in
        # ``_shapes_from`` or ``_entries_from``, which is then dropped.
        source = vars(self).get(f"_{name}_from") if name in ("shapes", "entries") else None
        if source is None:
            raise AttributeError(name)
        if name == "shapes":
            shapes, op, idx = source
            value = _break(shapes, op.kind, idx, op.slot)
        else:
            value, steps = source
            for op, idx in steps:
                value = tuple(Multiplet(s, e.mult, e.history) for e in value
                              for s in _pieces(e.slots, op.kind, idx, op.slot))
        vars(self)[name] = value
        del vars(self)[f"_{name}_from"]
        return value

    def statuses(self) -> tuple:
        """Each slot's state, the same in every entry of a state that
        distribution-wide operations made."""
        return self._statuses

    def count(self) -> int:
        return sum(self.dims.values())

    def total_dim(self) -> int:
        return sum(d * n for d, n in self.dims.items())

    def slot_index(self, slot: str, where: object) -> int:
        """Position of the named slot; an unknown name raises
        :class:`SlotError` naming ``where`` (formatted only then, so an op
        may pass itself) and listing the valid slots."""
        if slot not in self.slot_names:
            raise SlotError(f"unknown slot {slot!r} in {where}; "
                            f"valid slots: {', '.join(self.slot_names)}")
        return self.slot_names.index(slot)

    def class_rows(self, op) -> dict:
        """The slot classes under ``op``, ``{(slot at idx, dim): (copies,
        split)}`` in fold order, for the broken slot ``idx``: the shapes of a
        class split alike.  ``split`` is the split-table entry of the class's
        slot (see :func:`_split`).  Built on the first call per op, which
        checks the op on every class, and kept on the state."""
        rows = self._rows.get(op)
        if rows is None:
            if not isinstance(op, PhaseOp):
                raise SlotError(f"breaking op {op!r} is not a PhaseOp; "
                                "PhaseOp.parse reads a kind:slot token")
            idx = self.slot_index(op.slot, op)
            copies: dict = {}
            for slots, (dim, n) in self.shapes.items():
                _add(copies, (slots[idx], dim), n)
            rows = self._rows[op] = {(old, dim): (n, _split(op.kind, old, op.slot))
                                     for (old, dim), n in copies.items()}
        return rows


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
_LEAVES = {"soft": "o", "strong": "s", "strong_after_soft": "s"}


@lru_cache(maxsize=None)
def _split_table(kind: str, old: Slot) -> tuple:
    rule = soft_break_slot if kind == "soft" else strong_break_slot
    parts = tuple(((p,), slot_dim(p)) for p in rule(old))
    dims = [d for _, d in parts]
    hist = tuple((d, dims.count(d)) for d in sorted(set(dims), reverse=True))
    return slot_dim(old), parts, hist, tuple(p for p, _ in parts if slot_conjugate(p[0]) == p[0])


def _split(kind: str, old: Slot, slot):
    """Dimension of slot ``old``, named ``slot``, ``((piece,), dim)`` per
    piece, the histogram ``((dim, count), ...)`` of the pieces' dimensions,
    largest first, and the ``(piece,)`` that are their own conjugates; every
    split checks here that ``kind`` acts on its state."""
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
        old_dim, parts, _, _ = splits[old]
        head, tail, rest = slots[:idx], slots[idx + 1:], dim // old_dim
        for p, d in parts:
            fold.setdefault(head + p + tail, [rest * d, 0])[1] += n
    return fold


def break_multiplet(m: Multiplet, kind: str, idx: int):
    """All pieces of one multiplet under a soft or strong break of slot ``idx``."""
    return [Multiplet(s, m.mult, m.history) for s in _pieces(m.slots, kind, idx, idx)]


class PhaseOp(Record):
    """One distribution-wide breaking operation, by slot name; the kind is
    ``"soft"``, ``"strong"`` or ``"strong_after_soft"``.  Its hash and its
    ``kind:slot`` text are computed once, in ``_hash`` and ``_text``: every
    table a state keeps is keyed by an op, and every report renders its
    plans."""

    __slots__ = ("kind", "slot", "_text", "_hash")

    def __init__(self, kind: str, slot: str):
        self.kind = kind
        self.slot = slot
        self._text = f"{kind}:{slot}"
        self._hash = hash((kind, slot))

    def __hash__(self):
        return self._hash

    @classmethod
    def parse(cls, token: str) -> "PhaseOp":
        """The operation written as a ``kind:slot`` token."""
        if not isinstance(token, str):
            raise SlotError(f"breaking op {token!r} is not a kind:slot token")
        kind, sep, slot = token.partition(":")
        if not sep:
            raise SlotError(f"breaking op {token!r} is not of the form kind:slot")
        return cls(kind, slot)

    def render(self) -> str:
        return self._text

    __str__ = render


def apply_op(state: Phase2State, op: PhaseOp) -> Phase2State:
    """The state after ``op``.  Its dimension histogram comes from the
    parent's slot classes, its odd-count self-conjugate shapes by parity
    from the parent's, and its fold and entries only on first read; it
    refers to no state (see the module docstring)."""
    rows = state.class_rows(op)
    idx = state.slot_index(op.slot, op)
    splits: dict = {}
    dims: dict = {}
    for (old, dim), (copies, split) in rows.items():
        splits[old] = split
        old_dim, _, hist, _ = split
        for d, n in hist:
            key = dim // old_dim * d
            dims[key] = dims.get(key, 0) + n * copies
    hits: dict = {}  # odd-count parents per self-conjugate child shape
    for slots in state.odd0:
        head, tail = slots[:idx], slots[idx + 1:]
        for p in splits[slots[idx]][3]:
            key = head + p + tail
            hits[key] = hits.get(key, 0) + 1
    entries, steps = vars(state).get("_entries_from") or (state.entries, ())
    statuses = state.statuses()
    child = object.__new__(Phase2State)  # its fold and entries come from __getattr__
    vars(child).update(slot_names=state.slot_names, stages=state.stages,
                       symmetric=state.symmetric, dims=dims,
                       odd0=[s for s, n in hits.items() if n % 2],
                       _statuses=statuses[:idx] + (_LEAVES[op.kind],) + statuses[idx + 1:],
                       _shapes_from=(state.shapes, op, idx),
                       _entries_from=(entries, steps + ((op, idx),)),
                       _rows={}, _totals={}, _edges=None)
    return child


def available_ops(state: Phase2State) -> tuple:
    """Operations applicable to the current slot states (uniform across
    entries)."""
    return tuple(PhaseOp(kind, name)
                 for name, st in zip(state.slot_names, state.statuses())
                 for kind in _KINDS[st])


class Stats(Record):
    """Summary statistics driving the exclusion criteria; ``dim_histogram``
    is ``((dim, count), ...)``, largest dimension first."""

    __slots__ = ("n_multiplets", "d3", "n_singlets", "n_odd", "total_pairing",
                 "dim_histogram")

    def histogram(self) -> dict:
        return dict(self.dim_histogram)


def _stats(dims: dict, paired: bool) -> Stats:
    """Statistics of a ``{dim: count}`` histogram; ``paired``: every
    conjugation class has an even count."""
    hist = tuple(sorted(dims.items(), reverse=True))
    return Stats(sum(dims.values()), sum(d * n for d, n in hist if d % 3 == 0),
                 dims.get(1, 0), sum(n for d, n in hist if d % 2), bool(hist) and paired, hist)


def phase2_stats(state: Phase2State) -> Stats:
    """Statistics of the state's dimension histogram and pairing.

    A shape's conjugation class is the shape and its conjugate, the signs of
    its strong slots flipped; the state is totally paired when every class
    has an even count.  In a state flagged ``symmetric`` (see
    :class:`Phase2State`) a shape and its conjugate have equal counts, so a
    class of two shapes is even, and pairing fails exactly at an odd-count
    shape that is its own conjugate, one of ``odd0``.  Every other state (a
    final state with frozen groups, a hand-built state whose conjugate
    shapes differ in count) is checked class by class on its fold: each
    odd-count shape must differ from its conjugate, whose count must be odd
    too."""
    if state.symmetric:
        return _stats(state.dims, not state.odd0)
    shapes = state.shapes
    return _stats(state.dims, all((c := tuple(map(slot_conjugate, s))) != s
                                  and shapes.get(c, (0, 0))[1] % 2
                                  for s, (_, n) in shapes.items() if n % 2))


def distribution_stats(dist: Distribution) -> Stats:
    stage = dist.stage
    classes: dict = {}
    dims: dict = {}
    for e in dist.entries:
        _add(classes, min(e.labels, stage.conjugate(e.labels)), e.mult)
        _add(dims, stage.dimension(e.labels), e.mult)
    return _stats(dims, all(n % 2 == 0 for n in classes.values()))


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
    """The one value of m_z^2 on a slot: broken, or unbroken of spin <= 1/2."""
    state, v = slot
    if state == "u" and v > 1:
        raise AncestryError(f"{what} needs a broken slot, found unbroken {slot}")
    return Fraction(v, 2) ** 2


def hamiltonian_eigenvalue(state: Phase2State, m: Multiplet, c: Couplings) -> Fraction:
    """Eigenvalue of the model Hamiltonian on one final multiplet.

    H = H0 + lam C2(so(5)) + a1 L1^2 + a2 L2^2 + a3 L3^2 + a12 (L1+L2)^2
        + b3 L3z^2 + g12 ((L1+L2)^2 - 2) (L1z+L2z)^2,
    with L^2 eigenvalues s(s+1) and the (L1+L2)^2 - 2 factor read as
    s12(s12+1) - 2.  That factor is 0 where s12 = 1, so there the g12 term
    is 0 whether or not slot 12 is broken.
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
    if c.g12 and _spin_term(s12) != 2:
        idx = state.slot_index("12", "the g12 term")
        value += c.g12 * (_spin_term(s12) - 2) * _mz2(m.slots[idx], "g12 term")
    return value
