"""Second-phase breaking calculus on direct sums of sl(2) factors.

Each sl(2) slot of a multiplet is in one of three states:

* ``("u", 2s)``   unbroken spin-s factor, dimension 2s+1;
* ``("o", 2|m|)`` soft-broken (Lz^2 eigenvalue label), dimension 2 when
  |m| > 0 and 1 when m = 0; the +-m pair counts as one multiplet;
* ``("s", 2m)``   strong-broken (Lz eigenvalue label, signed), dimension 1.

Values are stored doubled so half-integer spins stay integral.  Breaking
operations apply distribution-wide; exempting individual multiplets is the
job of final-step freezing in the search layer.

A multiplet's dimension is multiplied out from its slots once, in
``from_distribution`` (or on demand for a hand-built one); a break carries
it to each piece, swapping the broken slot's factor.  Per-shape work goes
through dicts local to each call, not a module-level cache keyed by slot
tuples, which would keep every shape a search meets (~1.9 MB more RSS).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    carried_dim: int = field(default=0, compare=False, repr=False)  # 0: not carried

    def dim(self) -> int:
        return self.carried_dim or _shape_dim(self.slots)

    def render(self) -> str:
        return "-".join(render_slot(s) for s in self.slots)


@dataclass(frozen=True)
class Phase2State:
    """A distribution of multiplets over named sl(2) slots."""

    slot_names: tuple
    stages: tuple    # StageAlgebra history from the chain, for ancestry lookups
    entries: tuple   # Multiplet

    def count(self) -> int:
        return sum(e.mult for e in self.entries)

    def total_dim(self) -> int:
        return sum(e.mult * e.dim() for e in self.entries)

    def shapes(self) -> dict:
        """``{slots: [dim, total mult]}`` over the entries, in entry order."""
        out: dict = {}
        for e in self.entries:
            out.setdefault(e.slots, [e.dim(), 0])[1] += e.mult
        return out

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
    entries = []
    for e in dist.entries:
        slots = tuple(("u", lab[0]) for lab in e.labels)
        entries.append(Multiplet(slots, e.mult, e.history + (e.labels,), _shape_dim(slots)))
    return Phase2State(stage.names, dist.stages, tuple(entries))


# Breaking kinds by the slot state they act on.
_KINDS = {"u": ("soft", "strong"), "o": ("strong_after_soft",), "s": ()}
_NEEDS = {kind: st for st, kinds in _KINDS.items() for kind in kinds}


def _split(kind: str, old: Slot):
    """Dimension of slot ``old`` and ``(piece, dim)`` of each of its pieces."""
    if kind not in _NEEDS:
        raise SlotError(f"unknown breaking kind {kind!r}")
    rule = soft_break_slot if kind == "soft" else strong_break_slot
    return slot_dim(old), [(p, slot_dim(p)) for p in rule(old)]


def _break(entries, kind: str, idx: int) -> list:
    """Pieces of the entries under a break of slot ``idx``, each carrying its
    parent's dimension with the broken slot's factor swapped."""
    splits: dict = {}
    out = []
    for e in entries:
        old = e.slots[idx]
        if old not in splits:
            splits[old] = _split(kind, old)
        old_dim, parts = splits[old]
        rest = e.dim() // old_dim
        head, tail = e.slots[:idx], e.slots[idx + 1:]
        out += [Multiplet(head + (p,) + tail, e.mult, e.history, rest * d) for p, d in parts]
    return out


def break_multiplet(m: Multiplet, kind: str, idx: int):
    """All pieces of one multiplet under a soft or strong break of slot ``idx``."""
    return _break((m,), kind, idx)


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
    if op.kind not in _NEEDS:
        raise SlotError(f"unknown breaking kind {op.kind!r}; kinds are {', '.join(_NEEDS)}")
    idx = state.slot_index(op.slot, op.render())
    want = _NEEDS[op.kind]
    for e in state.entries:
        if e.slots[idx][0] != want:
            raise SlotError(
                f"{op.render()} needs state {want!r} in slot {op.slot}, "
                f"found {e.slots[idx]}")
    return Phase2State(state.slot_names, state.stages, tuple(_break(state.entries, op.kind, idx)))


def available_ops(state: Phase2State):
    """Operations applicable to the current slot states (uniform across entries)."""
    ops = []
    for i, name in enumerate(state.slot_names):
        st = state.entries[0].slots[i][0] if state.entries else "u"
        ops += [PhaseOp(kind, name) for kind in _KINDS[st]]
    return ops


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


def _stats(rows) -> Stats:
    """Statistics of (dim, key, conjugate key, mult) rows.  Keys identify a
    multiplet and its conjugate; the distribution is totally paired when every
    conjugation class has an even count."""
    dims: dict = {}
    classes: dict = {}
    total = d3 = singlets = odd = 0
    for d, key, conj, n in rows:
        total += n
        dims[d] = dims.get(d, 0) + n
        if d % 3 == 0:
            d3 += d * n
        if d == 1:
            singlets += n
        if d % 2 == 1:
            odd += n
        cls = min(key, conj)
        classes[cls] = classes.get(cls, 0) + n
    pairing = bool(classes) and all(n % 2 == 0 for n in classes.values())
    return Stats(total, d3, singlets, odd, pairing,
                 tuple(sorted(dims.items(), reverse=True)))


def phase2_stats(state: Phase2State) -> Stats:
    return _stats((dim, slots, tuple(map(slot_conjugate, slots)), n)
                  for slots, (dim, n) in state.shapes().items())


def distribution_stats(dist: Distribution) -> Stats:
    stage = dist.stage
    return _stats((stage.dimension(e.labels), e.labels, stage.conjugate(e.labels), e.mult)
                  for e in dist.entries)


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
