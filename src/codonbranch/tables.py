"""Branching-table construction, rendering, and golden-fixture comparison.

Tables 1-3 are the first-step branchings of the catalog entries, by their
``table``; tables 4, 5 and 9 are chain branchings rendered as trees (one
column per stage); tables 6-8 show the three surviving second-phase schemes,
with the frozen multiplets of the last step marking the rows they would
otherwise have produced.

A table is its JSON document, the dict that :func:`emit_json` dumps and
:func:`parse_json` reads: ``table``, ``title``, ``kind`` (``"branch"``,
``"chain"`` or ``"scheme"``), ``columns``, ``meta`` and ``rows``.  The rows
of a branch table are ``{algebra, highest_weight, entries}`` dicts; those of
the other kinds are trees of nodes ``{label, dim, mult, frozen, neutral,
children}`` that leave out ``mult`` when it is 1, ``frozen`` and ``neutral``
when false, and ``children`` when there are none.
"""

from __future__ import annotations

import json

from .embed_chains import apply_chain, render_labels
from .lie_core import UnknownNameError
from .phase2 import PhaseOp, break_multiplet
from .search import apply_plan, freeze_groups, solve_freezing
from .super_branch import CATALOG, branch_to_even, render_hw


def _node(label: str, dim: int, mult: int = 1, frozen: bool = False,
          neutral: bool = False) -> dict:
    node = {"label": label, "dim": dim}
    if mult != 1:
        node["mult"] = mult
    if frozen:
        node["frozen"] = True
    if neutral:
        node["neutral"] = True
    return node


def emit_json(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _check_fields(obj: dict, **types) -> None:
    """Raise ``KeyError`` if a field of ``types`` is missing from ``obj``,
    and ``TypeError`` if one is not of its type there."""
    for field, kind in types.items():
        if not isinstance(obj[field], kind):
            raise TypeError(f"{field} {obj[field]!r} is not of type {kind.__name__}")


def _check_tree(nodes) -> None:
    for node in nodes:
        _check_fields({"mult": 1, "frozen": False, "neutral": False, **node},
                      label=str, dim=int, mult=int, frozen=bool, neutral=bool)
        _check_tree(node.get("children", ()))


def _check_branch(rows) -> None:
    for row in rows:
        row["algebra"], row["highest_weight"]
        for e in row["entries"]:
            _check_fields(e, labels=str, mult=int, dim=int)


def parse_json(text: str) -> dict:
    """The table document in ``text``.  Reading each field that the renderers
    and :func:`table_diff` need raises ``KeyError`` or ``TypeError`` on a
    document of the wrong shape; the fields that :func:`table_diff` sorts
    must also be of their types."""
    doc = json.loads(text)
    doc["table"], doc["title"], doc["columns"], doc["rows"]
    if doc["kind"] == "branch":
        _check_branch(doc["rows"])
    else:
        _check_tree(doc["rows"])
    return doc


# ---------------------------------------------------------------------------
# tables 1-3: first-step branchings

_TABLE_CHAINS = {4: "osp(3|4)/3", 5: "osp(5|2)/3", 9: "osp(4|2)(5,0,0)/3"}

_TABLE_SCHEMES = {6: ("osp(5|2)/3", ("soft:3",), "soft:12"),
                  7: ("osp(5|2)/3", ("soft:3",), "strong:12"),
                  8: ("osp(5|2)/3", ("soft:3",), "strong_after_soft:3")}


def build_branch_table(table: int) -> dict:
    rows = []
    for entry in (e for e in CATALOG if e.table == table):
        sa = entry.build()
        rows.append({
            "algebra": entry.algebra,
            "highest_weight": render_hw(entry.labels),
            "entries": [{"labels": render_labels(e.labels), "mult": e.mult,
                         "dim": e.dim(sa)} for e in branch_to_even(sa, entry.labels)],
        })
    return {"table": table, "title": f"first-step branching (table {table})",
            "kind": "branch", "columns": ["algebra", "highest_weight", "labels", "dim"],
            "meta": {}, "rows": rows}


def _descend(roots: list, index: dict, path, mult: int = 1):
    """The node at the end of ``path``, a sequence of (label, dim) steps down
    from ``roots``, creating each missing node with ``mult``; ``index`` maps
    label paths to nodes.  Also says whether the last node is new."""
    key, node = (), None
    for label, dim in path:
        key += (label,)
        new = key not in index
        if new:
            siblings = roots if node is None else node.setdefault("children", [])
            index[key] = _node(label, dim, mult)
            siblings.append(index[key])
        node = index[key]
    return node, new


def _chain_tree(chain_id: str):
    dist = apply_chain(chain_id)
    columns = ["+".join(s.names) for s in dist.stages]
    roots: list = []
    index: dict = {}
    for e in dist.entries:
        path = [(render_labels(labels), stage.dimension(labels))
                for labels, stage in zip(e.history + (e.labels,), dist.stages)]
        node, new = _descend(roots, index, path, e.mult)
        if not new:
            node["mult"] = node.get("mult", 1) + e.mult
    return columns, roots


def build_chain_table_doc(table: int) -> dict:
    chain_id = _TABLE_CHAINS[table]
    columns, tree = _chain_tree(chain_id)
    return {"table": table, "title": f"chain branching (table {table})", "kind": "chain",
            "columns": columns, "meta": {"chain": chain_id}, "rows": tree}


def build_scheme_table(table: int) -> dict:
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
        marks = {"frozen": render in frozen_groups, "neutral": render in neutral_groups}
        pieces = break_multiplet(e, final_op.kind, state.slot_index(final_op.slot, final))
        me = _node(render, e.dim(), e.mult, **marks)
        me["children"] = [_node(p.render(), p.dim(), **marks) for p in pieces]
        _descend(roots, index, path)[0].setdefault("children", []).append(me)
    columns = ["sl(2)^3", "+".join(state.slot_names), "after " + " ".join(plan),
               "final " + final]
    return {"table": table, "title": f"second-phase scheme (table {table})",
            "kind": "scheme", "columns": columns,
            "meta": {"chain": chain_id, "plan": list(plan), "final": final,
                     "mask": mask.render()},
            "rows": roots}


def build_table(table: int) -> dict:
    if type(table) is int:
        if table in (1, 2, 3):
            return build_branch_table(table)
        if table in _TABLE_CHAINS:
            return build_chain_table_doc(table)
        if table in _TABLE_SCHEMES:
            return build_scheme_table(table)
    raise UnknownNameError(f"no table {table!r}; valid ids are 1..9")


# ---------------------------------------------------------------------------
# rendering


def _preorder(nodes, depth=0):
    """(depth, node) pairs of a table tree; children run largest first."""
    for node in nodes:
        yield depth, node
        yield from _preorder(sorted(node.get("children", ()),
                                    key=lambda n: (-n["dim"], n["label"])), depth + 1)


def render_text(doc: dict) -> str:
    out = [f"table {doc['table']}: {doc['title']}"]
    if doc["kind"] == "branch":
        for row in doc["rows"]:
            out.append(f"{row['algebra']}  highest weight ({row['highest_weight']})")
            for e in row["entries"]:
                mult = f"{e['mult']} x " if e["mult"] != 1 else ""
                out.append(f"    {mult}{e['labels']}  d={e['dim']}")
    else:
        out.append("columns: " + " -> ".join(doc["columns"]))
        if "mask" in doc["meta"]:
            out.append("frozen at last step: " + doc["meta"]["mask"])
        for depth, node in _preorder(doc["rows"]):
            mark = "  *frozen*" if node.get("frozen") else ""
            mult = f"{node['mult']} x " if node.get("mult", 1) != 1 else ""
            out.append("    " * depth + f"{mult}{node['label']}  d={node['dim']}{mark}")
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


def render_csv(doc: dict) -> str:
    if doc["kind"] == "branch":
        return _csv((row["algebra"] + "(" + row["highest_weight"] + ")", e["labels"],
                     e["dim"], e["mult"])
                    for row in doc["rows"] for e in row["entries"])
    return _csv((doc["columns"][depth], node["label"], node["dim"], node.get("mult", 1))
                for depth, node in _preorder(doc["rows"]))


# ---------------------------------------------------------------------------
# golden comparison


def _canonical(node: dict) -> tuple:
    """Comparison form of a tree node: freeze marks count only where freezing
    has an effect (a node whose single piece keeps its dimension is a no-op),
    and only on nodes that break (leaves inherit their parent's mark)."""
    children = node.get("children", ())
    noop = len(children) == 1 and children[0]["dim"] == node["dim"]
    frozen = node.get("frozen", False) and bool(children) and not noop
    return (node["label"], node["dim"], node.get("mult", 1), frozen,
            tuple(sorted(_canonical(c) for c in children)))


def table_diff(got: dict, want: dict) -> list:
    """Cell-level differences between two table documents."""
    diffs = []
    if got["table"] != want["table"] or got["kind"] != want["kind"]:
        return [f"table identity differs: {got['table']}/{got['kind']} vs "
                f"{want['table']}/{want['kind']}"]
    if got["kind"] == "branch":
        for grow, wrow in zip(got["rows"], want["rows"]):
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
        if len(got["rows"]) != len(want["rows"]):
            diffs.append(f"row count {len(got['rows'])} vs {len(want['rows'])}")
        return diffs
    gset = sorted(_canonical(n) for n in got["rows"])
    wset = sorted(_canonical(n) for n in want["rows"])
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
