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
from the parent without building the child's fold.  The histogram is read
off the parent's record for the op (:meth:`Phase2State.op_record`).  A
child shape's count is odd exactly when an odd number of odd-count parent
shapes split onto it, and a self-conjugate child shape comes only from
self-conjugate parent shapes (a nonzero strong slot never returns to 0),
so walking those parent shapes finds the child's by parity.
A child refers to no other state.  Its fold and its entries are cached
properties: it keeps its parent's fold, its op and the slot index, and
splits its own fold from them on first read, dropping the parent's; it
keeps the entries of its nearest ancestor that has them with the ops taken
since, and replays those through :func:`break_multiplet` on the first read
of its entries.  A search reads the fold of a state it expands and no entries.

Nothing in a state depends on a search target.  A state keeps only what
a search reads twice: its record per op (:meth:`Phase2State.op_record`),
read by :func:`apply_op` and by the mask solver, and, once the walk expands
it, its edge rows (``_edges``, each op with its child, the child's
statistics and the walk's key).  The edge rows are the only way one state
refers to another, so no state is in a reference cycle and each is freed
when its last reference goes.  The start states that ``search`` caches per
chain keep every child any search expanded below them, at most one per
route, 2,877 over the 28 all-sl(2) chain ends (265 after a standard
search), and ``cache_clear()`` on that cache frees them.  No memo is keyed
by a target, and none by slot tuples.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from fractions import Fraction

from . import InputError
from .embed_chains import Distribution
from .lie_core import Record, build_root_system, casimir2, fr

Slot = tuple  # (state, value)


class SlotError(InputError, ValueError):
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


def _render_shape(slots: tuple) -> str:
    """A shape as every record and table names it: its slots joined by ``-``."""
    return "-".join(map(render_slot, slots))


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
        return _render_shape(self.slots)


class Phase2State(Record):
    """A distribution of :class:`Multiplet` entries over named sl(2) slots,
    with the chain's ``StageAlgebra`` history for ancestry lookups.

    ``shapes`` folds the entries by slot tuple, ``{slots: [dim, total mult]}``
    in entry order, and is read-only; freeze groups and breaking read only
    it, and equality ignores it.  Beside it a state keeps what its
    statistics read: ``dims``, its dimension histogram ``{dim: count}``, and
    ``odd0``, a list of its odd-count shapes that are their own conjugates
    (every strong slot at 0).  A state made by :func:`apply_op` has both
    from its parent; its fold and its entries are cached properties, which
    ``__init__`` sets and it builds on first read from what it keeps instead
    of a parent (see the module docstring), so it keeps an instance dict.

    ``symmetric`` says whether every shape of the fold has the same slot
    states and the count of its conjugate, which decides the pairing rule
    of :func:`phase2_stats`.  It is checked when a state is built from its
    entries; a state made by :func:`apply_op` inherits its parent's, since
    a break keeps a uniform fold uniform and a symmetric one symmetric.
    Equality ignores it, and what the module docstring says a state keeps.
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
        self._records, self._edges = {}, None

    @cached_property
    def shapes(self) -> dict:
        shapes, op, idx = vars(self).pop("_shapes_from")
        return _break(shapes, op.kind, idx, op.slot)

    @cached_property
    def entries(self) -> tuple:
        entries, steps = vars(self).pop("_entries_from")
        for op, idx in steps:
            entries = tuple(p for e in entries for p in break_multiplet(e, op.kind, idx))
        return entries

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

    def op_record(self, op) -> list:
        """The state's record for ``op``, ``[rows, largest piece, neutral,
        bounds, move table]``, built on the first call per op in one pass
        over the slot classes, (slot at the broken index, dim), whose shapes
        split alike.  ``rows`` maps each class to its slot's split-table
        entry (see :func:`_split`).  ``bounds`` maps each dimension to
        ``[fewest, most when dim <= top, most when dim > top]``, the copies
        the op can leave there as a last step for a target whose largest
        dimension is ``top``: a neutral class's one piece keeps the class's
        dimension, so its copies count in all three, and ``neutral`` counts
        the dimensions that have some; every other class adds its pieces to
        both maxima, and its own copies, frozen, to its dimension where that
        is at most ``top``.  So the last column, nothing frozen, is the
        child's histogram.  The first last step that passes the bounds fills
        the move table (see ``search.solve_freezing``).  The first call
        checks the op's slot on every class; every call checks the op's type
        first, since a list op is unhashable."""
        if not isinstance(op, PhaseOp):
            raise SlotError(f"breaking op {op!r} is not a PhaseOp; "
                            "PhaseOp.parse reads a kind:slot token")
        record = self._records.get(op)
        if record is None:
            record = self._records[op] = _op_record(self, op)
        return record


def _op_record(state: Phase2State, op) -> list:
    idx = state.slot_index(op.slot, op)
    copies: dict = {}
    for slots, (dim, n) in state.shapes.items():
        _add(copies, (slots[idx], dim), n)
    rows, top_piece, neutral, bounds = {}, 0, 0, {}
    for (old, dim), count in copies.items():
        old_dim, _, hist, _ = rows[old, dim] = _split(op.kind, old, op.slot)
        scale = dim // old_dim
        top_piece = max(top_piece, scale * hist[0][0])  # pieces: largest first
        row = bounds.setdefault(dim, [0, 0, 0])
        if hist == ((old_dim, 1),):
            if not row[0]:
                neutral += 1
            row[0] += count
            row[1] += count
            row[2] += count
            continue
        row[1] += count
        for d, n in hist:
            row = bounds.setdefault(scale * d, [0, 0, 0])
            row[1] += n * count
            row[2] += n * count
    return [rows, top_piece, neutral, bounds, None]


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
    head, tail = m.slots[:idx], m.slots[idx + 1:]
    return [Multiplet(head + p + tail, m.mult, m.history)
            for p, _ in _split(kind, m.slots[idx], idx)[1]]


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
    """The state after ``op``, from the parent's record for ``op`` and its
    odd-count self-conjugate shapes; its fold and entries come only on
    first read, and it refers to no state (see the module docstring)."""
    bounds = state.op_record(op)[3]
    idx = state.slot_index(op.slot, op)
    hits: dict = {}  # odd-count parents per self-conjugate child shape
    for slots in state.odd0:
        head, tail = slots[:idx], slots[idx + 1:]
        for p in _split(op.kind, slots[idx], op.slot)[3]:
            key = head + p + tail
            hits[key] = hits.get(key, 0) + 1
    entries, steps = vars(state).get("_entries_from") or (state.entries, ())
    statuses = state.statuses()
    child = object.__new__(Phase2State)  # __init__ would need the entries
    vars(child).update(slot_names=state.slot_names, stages=state.stages,
                       symmetric=state.symmetric,
                       dims={d: high for d, (_, _, high) in bounds.items() if high},
                       odd0=[s for s, n in hits.items() if n % 2],
                       _statuses=statuses[:idx] + (_LEAVES[op.kind],) + statuses[idx + 1:],
                       _shapes_from=(state.shapes, op, idx),
                       _entries_from=(entries, steps + ((op, idx),)),
                       _records={}, _edges=None)
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


class AncestryError(InputError, ValueError):
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
