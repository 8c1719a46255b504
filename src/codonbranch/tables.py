"""Branching-table construction, rendering, and golden-fixture comparison.

Tables 1-3 are the first-step branchings per algebra; tables 4, 5 and 9 are
chain branchings rendered as trees (one column per stage); tables 6-8 show
the three surviving second-phase schemes, with the multiplets frozen at the
last step marking the rows they would otherwise have produced.
"""

from __future__ import annotations

import json

from .embed_chains import apply_chain, render_labels
from .lie_core import Record
from .phase2 import PhaseOp, break_multiplet
from .search import apply_plan, freeze_groups, solve_freezing
from .super_branch import UnknownNameError, branch_to_even, catalog_entry


def render_hw(labels) -> str:
    return ",".join(str(x) for x in labels)


class Node(Record):
    """One row of a table tree: a label, its dimension and multiplicity, its
    freeze marks, and the rows below it."""

    __slots__ = ("label", "dim", "mult", "frozen", "neutral", "children")
    __hash__ = None

    def __init__(self, label: str, dim: int, mult: int = 1, frozen: bool = False,
                 neutral: bool = False, children: list | None = None):
        self.label = label
        self.dim = dim
        self.mult = mult
        self.frozen = frozen
        self.neutral = neutral
        self.children = [] if children is None else children

    def _key(self):
        return (self.label, self.dim, self.mult, self.frozen, self.neutral, self.children)

    def to_dict(self):
        d = {"label": self.label, "dim": self.dim}
        if self.mult != 1:
            d["mult"] = self.mult
        if self.frozen:
            d["frozen"] = True
        if self.neutral:
            d["neutral"] = True
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(d["label"], d["dim"], d.get("mult", 1), d.get("frozen", False),
                   d.get("neutral", False),
                   [cls.from_dict(c) for c in d.get("children", ())])

    def canonical(self):
        """Comparison form: freeze marks count only where freezing has an
        effect (a node whose single piece keeps its dimension is a no-op),
        and only on nodes that break (leaves inherit their parent's mark)."""
        noop = len(self.children) == 1 and self.children[0].dim == self.dim
        frozen = self.frozen and bool(self.children) and not noop
        return (self.label, self.dim, self.mult, frozen,
                tuple(sorted(c.canonical() for c in self.children)))


class TableDoc(Record):
    """One table: its rows are :class:`Node` trees, or flat row dicts for
    tables 1-3; its kind is ``"branch"``, ``"chain"`` or ``"scheme"``."""

    __slots__ = ("table", "title", "columns", "rows", "kind", "meta")
    __hash__ = None

    def __init__(self, table: int, title: str, columns: tuple, rows: list, kind: str,
                 meta: dict | None = None):
        self.table = table
        self.title = title
        self.columns = columns
        self.rows = rows
        self.kind = kind
        self.meta = {} if meta is None else meta

    def _key(self):
        return (self.table, self.title, self.columns, self.rows, self.kind, self.meta)

    def to_dict(self):
        rows = [r.to_dict() if isinstance(r, Node) else r for r in self.rows]
        return {"table": self.table, "title": self.title, "kind": self.kind,
                "columns": list(self.columns), "meta": self.meta, "rows": rows}

    @classmethod
    def from_dict(cls, d):
        rows = [Node.from_dict(r) if d["kind"] != "branch" else r
                for r in d["rows"]]
        return cls(d["table"], d["title"], tuple(d["columns"]), rows,
                   d["kind"], d.get("meta", {}))


def emit_json(doc: TableDoc) -> str:
    return json.dumps(doc.to_dict(), indent=1, sort_keys=True) + "\n"


def parse_json(text: str) -> TableDoc:
    return TableDoc.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# tables 1-3: first-step branchings

_TABLE_REPS = {
    1: ["sl(2|1)", "sl(3|1)", "sl(4|1)", "sl(6|1)"],
    2: ["sl(2|2)(3,2,0)", "sl(2|2)(1,3,1)", "sl(3|2)", "osp(2|4)", "osp(2|6)"],
    3: ["osp(3|2)", "osp(3|4)", "osp(5|2)", "osp(4|2)(5,0,0)", "osp(4|2)(7/2,0,1)"],
}

_TABLE_CHAINS = {4: "osp(3|4)/3", 5: "osp(5|2)/3", 9: "osp(4|2)(5,0,0)/3"}

_TABLE_SCHEMES = {6: ("osp(5|2)/3", ("soft:3",), "soft:12"),
                  7: ("osp(5|2)/3", ("soft:3",), "strong:12"),
                  8: ("osp(5|2)/3", ("soft:3",), "strong_after_soft:3")}


def build_branch_table(table: int) -> TableDoc:
    rows = []
    for key in _TABLE_REPS[table]:
        entry = catalog_entry(key)
        sa = entry.build()
        branch = branch_to_even(sa, entry.labels)
        rows.append({
            "algebra": entry.algebra,
            "highest_weight": render_hw(entry.labels),
            "entries": [{"labels": render_labels(e.labels), "mult": e.mult,
                         "dim": e.dim(sa)} for e in branch],
        })
    return TableDoc(table, f"first-step branching (table {table})",
                    ("algebra", "highest_weight", "labels", "dim"), rows, "branch")


def _descend(roots: list, index: dict, path, mult: int = 1):
    """The node at the end of ``path``, a sequence of (label, dim) steps down
    from ``roots``, creating each missing node with ``mult``; ``index`` maps
    label paths to nodes.  Also says whether the last node is new."""
    key, children = (), roots
    for label, dim in path:
        key += (label,)
        new = key not in index
        if new:
            index[key] = Node(label, dim, mult)
            children.append(index[key])
        children = index[key].children
    return index[key], new


def _chain_tree(chain_id: str):
    dist = apply_chain(chain_id)
    columns = tuple("+".join(s.names) for s in dist.stages)
    roots: list = []
    index: dict = {}
    for e in dist.entries:
        path = [(render_labels(labels), stage.dimension(labels))
                for labels, stage in zip(e.history + (e.labels,), dist.stages)]
        node, new = _descend(roots, index, path, e.mult)
        if not new:
            node.mult += e.mult
    return columns, roots


def build_chain_table_doc(table: int) -> TableDoc:
    chain_id = _TABLE_CHAINS[table]
    columns, tree = _chain_tree(chain_id)
    return TableDoc(table, f"chain branching (table {table})", columns, tree,
                    "chain", {"chain": chain_id})


def build_scheme_table(table: int) -> TableDoc:
    chain_id, plan, final = _TABLE_SCHEMES[table]
    state = apply_plan(chain_id, plan)
    final_op = PhaseOp.parse(final)
    masks = solve_freezing(state, final_op)
    if len(masks) != 1:
        raise ValueError(f"table {table}: expected a unique mask, got {len(masks)}")
    mask = masks[0]
    frozen_groups = {g for g, _, _ in mask.frozen}
    neutral_groups = {g.render() for g in freeze_groups(state, final_op) if g.neutral}

    index: dict = {}
    roots: list = []
    for e in state.entries:
        # Columns: sl(2)^3 labels, merged-slot labels, current state, pieces.
        sl3 = e.history[1]
        merged = e.history[2]
        path = [("-".join(str(l[0]) for l in sl3), state.stages[1].dimension(sl3)),
                ("-".join(str(l[0]) for l in merged), state.stages[2].dimension(merged))]
        render = e.render()
        me = Node(render, e.dim(), e.mult,
                  frozen=render in frozen_groups,
                  neutral=render in neutral_groups)
        _descend(roots, index, path)[0].children.append(me)
        for piece in break_multiplet(e, final_op.kind, state.slot_index(final_op.slot, final)):
            me.children.append(Node(piece.render(), piece.dim(),
                                    frozen=me.frozen, neutral=me.neutral))
    columns = ("sl(2)^3", "+".join(state.slot_names), "after " + " ".join(plan),
               "final " + final)
    return TableDoc(table, f"second-phase scheme (table {table})", columns, roots,
                    "scheme", {"chain": chain_id, "plan": list(plan), "final": final,
                               "mask": mask.render()})


def build_table(table: int) -> TableDoc:
    if table in _TABLE_REPS:
        return build_branch_table(table)
    if table in _TABLE_CHAINS:
        return build_chain_table_doc(table)
    if table in _TABLE_SCHEMES:
        return build_scheme_table(table)
    raise UnknownNameError(f"no table {table}; valid ids are 1..9")


# ---------------------------------------------------------------------------
# rendering


def _preorder(nodes, depth=0):
    """(depth, node) pairs of a table tree; children run largest first."""
    for node in nodes:
        yield depth, node
        yield from _preorder(sorted(node.children, key=lambda n: (-n.dim, n.label)),
                             depth + 1)


def render_text(doc: TableDoc) -> str:
    out = [f"table {doc.table}: {doc.title}"]
    if doc.kind == "branch":
        for row in doc.rows:
            out.append(f"{row['algebra']}  highest weight ({row['highest_weight']})")
            for e in row["entries"]:
                mult = f"{e['mult']} x " if e["mult"] != 1 else ""
                out.append(f"    {mult}{e['labels']}  d={e['dim']}")
    else:
        out.append("columns: " + " -> ".join(doc.columns))
        if "mask" in doc.meta:
            out.append("frozen at last step: " + doc.meta["mask"])
        for depth, node in _preorder(doc.rows):
            mark = "  *frozen*" if node.frozen else ""
            mult = f"{node.mult} x " if node.mult != 1 else ""
            out.append("    " * depth + f"{mult}{node.label}  d={node.dim}{mark}")
    return "\n".join(out) + "\n"


def _csv(rows) -> str:
    """CSV of (stage, label, dim, multiplicity) rows, with the running sum of
    dimension times multiplicity over dimensions divisible by 3, per stage."""
    lines = ["stage,label,dim,multiplicity,d3_running"]
    running: dict = {}
    for stage, label, dim, mult in rows:
        running[stage] = running.get(stage, 0) + (dim * mult if dim % 3 == 0 else 0)
        lines.append(f"{stage},{label},{dim},{mult},{running[stage]}")
    return "\n".join(lines) + "\n"


def render_csv(doc: TableDoc) -> str:
    if doc.kind == "branch":
        return _csv((row["algebra"] + "(" + row["highest_weight"] + ")", e["labels"],
                     e["dim"], e["mult"])
                    for row in doc.rows for e in row["entries"])
    return _csv((doc.columns[depth], node.label, node.dim, node.mult)
                for depth, node in _preorder(doc.rows))


# ---------------------------------------------------------------------------
# golden comparison


def table_diff(got: TableDoc, want: TableDoc) -> list:
    """Cell-level differences between two table documents."""
    diffs = []
    if got.table != want.table or got.kind != want.kind:
        return [f"table identity differs: {got.table}/{got.kind} vs {want.table}/{want.kind}"]
    if got.kind == "branch":
        for grow, wrow in zip(got.rows, want.rows):
            if grow["algebra"] != wrow["algebra"] or \
                    grow["highest_weight"] != wrow["highest_weight"]:
                diffs.append(f"row header: {grow['algebra']} vs {wrow['algebra']}")
                continue
            gset = sorted((e["labels"], e["mult"], e["dim"]) for e in grow["entries"])
            wset = sorted((e["labels"], e["mult"], e["dim"]) for e in wrow["entries"])
            if gset != wset:
                for cell in sorted(set(wset) - set(gset)):
                    diffs.append(f"{grow['algebra']}: missing {cell}")
                for cell in sorted(set(gset) - set(wset)):
                    diffs.append(f"{grow['algebra']}: unexpected {cell}")
        if len(got.rows) != len(want.rows):
            diffs.append(f"row count {len(got.rows)} vs {len(want.rows)}")
        return diffs
    gset = sorted(n.canonical() for n in got.rows)
    wset = sorted(n.canonical() for n in want.rows)
    if gset != wset:
        for cell in wset:
            if cell not in gset:
                diffs.append(f"missing subtree {cell[0]} d={cell[1]}")
        for cell in gset:
            if cell not in wset:
                diffs.append(f"unexpected subtree {cell[0]} d={cell[1]}")
        if not diffs:
            diffs.append("tree structure differs")
    return diffs
