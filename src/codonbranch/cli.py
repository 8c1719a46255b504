"""Command-line interface: branchings, chains, schemes, search, golden tables.

Each command imports the layers it calls when it runs, so importing this
module loads no layer and a process compiles only the layers its command
needs: ``list-catalog`` loads neither ``phase2`` nor ``search``.  Nor does
the import load ``argparse`` or ``fractions``: ``main`` builds the parser
and ``_parse_hw`` reads a weight, each importing its module then.  A command
reports bad input, any ``codonbranch.InputError``, with exit code 2.

``run`` is the process entry: ``python -m codonbranch.cli`` and the
``codonbranch`` console script call it.  It runs ``main``, and so imports the
layers, with the cycle collector off and then freezes every live object with
``gc.freeze()``, so that the collector's pass at interpreter shutdown has
nothing to walk; module teardown, ``atexit`` and the flush of stdout still
run.  Turning the collector off is safe because the library's objects form
no reference cycles (a phase-2 state refers to others only through its edge
rows, and none refers back; ``tests/test_search.py`` checks it), so what a
whole command leaves to the collector is 256 objects of argparse's parser,
and the process exits soon after.  ``main(argv)`` leaves interpreter state
alone, so tests and library callers keep a working collector.

``search --format structured`` prints its report through :func:`_dump_json`,
which writes what ``json.dumps(doc, indent=1, ensure_ascii=False)`` writes in
one pass: any ``indent`` sends ``json.dumps`` to the standard library's
pure-Python encoder, which is slower on the ~90 KB report.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from json.encoder import encode_basestring

from . import InputError


def _parse_hw(text: str):
    from fractions import Fraction
    try:
        return tuple(Fraction(tok) for tok in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        from .lie_core import InvalidLabelsError
        raise InvalidLabelsError(
            f"bad highest weight {text!r}: expected comma-separated rationals "
            f"such as 5/2,0,1") from exc


def _data_dir() -> str:
    env = os.environ.get("CODONBRANCH_DATA")
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "data")


def cmd_list_catalog(args) -> int:
    from .super_branch import CATALOG, render_hw, typical_dimension
    from .young_forms import osp_superdiagram_from_labels, render_diagram, sl_superdiagram
    for e in CATALOG:
        sa = e.build()
        total = typical_dimension(sa, e.labels)
        print(f"{e.key:22s} table {e.table}  highest weight ({render_hw(e.labels)})  dim {total}")
        if args.diagrams and (e.diagram_rows or sa.deltas):
            diagram = (sl_superdiagram(e.diagram_rows) if e.diagram_rows
                       else osp_superdiagram_from_labels(sa.name, e.labels))
            for line in render_diagram(diagram).splitlines():
                print("    " + line)
    return 0


def cmd_branch(args) -> int:
    from .embed_chains import render_labels
    from .super_branch import branch_to_even, build_super
    sa = build_super(args.algebra)
    hw = _parse_hw(args.hw)
    branch = branch_to_even(sa, hw)
    rows = [{"labels": render_labels(e.labels), "mult": e.mult,
             "dim": e.dim(sa)} for e in branch]
    if args.format == "structured":
        print(json.dumps({"algebra": args.algebra, "highest_weight": args.hw,
                          "entries": rows}, indent=1))
    elif args.format == "csv":
        from .tables import _csv
        print(_csv((args.algebra, r["labels"], r["dim"], r["mult"])
                   for r in rows), end="")
    else:
        print(f"{args.algebra} ({args.hw}) -> " + "+".join(sa.factor_names))
        for r in rows:
            mult = f"{r['mult']} x " if r["mult"] != 1 else ""
            print(f"  {mult}{r['labels']}  d={r['dim']}")
    return 0


def cmd_chain(args) -> int:
    from .embed_chains import apply_chain, render_labels
    from .phase2 import distribution_stats
    dist = apply_chain(args.chain_id)
    stats = distribution_stats(dist)
    if args.format == "structured":
        doc = {"chain": args.chain_id,
               "stages": ["+".join(s.names) for s in dist.stages],
               "entries": [{"labels": render_labels(e.labels),
                            "dim": dist.stage.dimension(e.labels), "mult": e.mult,
                            "history": [render_labels(h) for h in e.history]}
                           for e in dist.entries],
               "stats": {"multiplets": stats.n_multiplets, "d3": stats.d3}}
        print(json.dumps(doc, indent=1))
    elif args.format == "csv":
        from .tables import _csv
        stage = "+".join(dist.stage.names)
        print(_csv((stage, render_labels(e.labels), dist.stage.dimension(e.labels), e.mult)
                   for e in dist.entries), end="")
    else:
        print(f"{args.chain_id}: " + " -> ".join("+".join(s.names) for s in dist.stages))
        for e in dist.entries:
            print(f"  {render_labels(e.labels)}  d={dist.stage.dimension(e.labels)}")
        print(f"{stats.n_multiplets} multiplets, d3 = {stats.d3}")
    return 0


def cmd_phase2(args) -> int:
    from .phase2 import phase2_stats
    from .search import apply_plan, match_target
    plan = [tok for tok in (args.plan or "").split(",") if tok]
    state = apply_plan(args.chain_id, plan)
    stats = phase2_stats(state)
    if args.format == "structured":
        doc = {"chain": args.chain_id, "plan": plan,
               "entries": [{"state": e.render(), "dim": e.dim(), "mult": e.mult}
                           for e in state.entries],
               "stats": {"multiplets": stats.n_multiplets, "d3": stats.d3,
                         "histogram": {str(d): n for d, n in stats.dim_histogram},
                         "matches_target": match_target(stats)}}
        print(json.dumps(doc, indent=1))
    else:
        for e in state.entries:
            mult = f"{e.mult} x " if e.mult != 1 else ""
            print(f"  {mult}{e.render()}  d={e.dim()}")
        print(f"{stats.n_multiplets} multiplets, d3 = {stats.d3}, "
              f"histogram {dict(stats.dim_histogram)}")
    return 0


def cmd_search(args) -> int:
    from .lie_core import UnknownNameError
    from .search import full_search, report_summary, report_to_dict
    from .super_branch import CATALOG
    keys = [e.key for e in CATALOG]
    if not any(k.startswith(args.algebra) for k in keys):
        raise UnknownNameError(f"no catalog entry starts with {args.algebra!r}; "
                               f"known: {keys}")
    rep = full_search()
    if args.algebra:
        rep.algebras = [a for a in rep.algebras if a.key.startswith(args.algebra)]
    if args.format == "structured":
        print(_dump_json(report_to_dict(rep)))
    else:
        print(report_summary(rep), end="")
    return 0


def _dump_json(doc) -> str:
    """``json.dumps(doc, indent=1, ensure_ascii=False)`` for a document of
    dicts with str keys, lists, tuples, strs, ints, bools and None; any
    other key or value raises ``TypeError``."""
    parts: list = []
    _put_json(doc, "\n", parts.append)
    return "".join(parts)


def _put_json(value, nl: str, put) -> None:
    """Put ``value`` as ``json.dumps`` with ``indent=1`` writes it, where
    ``nl`` is a newline and the indent of the line ``value`` starts on."""
    if isinstance(value, str):
        put(encode_basestring(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            put("[]")
            return
        inner = nl + " "
        sep = "[" + inner
        for item in value:
            put(sep)
            _put_json(item, inner, put)
            sep = "," + inner
        put(nl + "]")
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = nl + " "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(sep + encode_basestring(key) + ": ")
            _put_json(item, inner, put)
            sep = "," + inner
        put(nl + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def cmd_tables(args) -> int:
    from . import tables as tables_mod
    doc = tables_mod.build_table(args.id)
    if args.format == "structured":
        print(tables_mod.emit_json(doc), end="")
    elif args.format == "csv":
        print(tables_mod.render_csv(doc), end="")
    else:
        print(tables_mod.render_text(doc), end="")
    return 0


def cmd_verify_golden(args) -> int:
    from . import tables as tables_mod
    from .embed_chains import export_registry

    def registry_diff(want):
        got = export_registry()
        if got == want:
            return []
        import difflib  # only to show a mismatch
        return [line.rstrip("\n") for line in difflib.unified_diff(
            want.splitlines(True), got.splitlines(True), "fixture", "registry", n=0)]

    # Each fixture: its name in the report, its file, how to parse it and
    # how to list its differences from what the program builds now.
    fixtures = [(f"table {t}", f"table{t}.json", tables_mod.parse_json,
                 lambda want, t=t: tables_mod.table_diff(tables_mod.build_table(t), want))
                for t in range(1, 10)]
    fixtures.append(("embeddings.txt", "embeddings.txt", str, registry_diff))
    failures = 0
    for name, filename, parse, diff in fixtures:
        # UnicodeDecodeError is a ValueError; misshapen JSON raises KeyError or TypeError.
        try:
            with open(os.path.join(_data_dir(), filename), encoding="utf-8") as fh:
                want = parse(fh.read())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"{name}: cannot read fixture: {exc}")
            failures += 1
            continue
        diffs = diff(want)
        print(f"{name}: {'MISMATCH' if diffs else 'ok'}")
        for d in diffs:
            print(f"    {d}")
        failures += bool(diffs)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    import argparse
    p = argparse.ArgumentParser(
        prog="codonbranch",
        description="Branching schemes of 64-dimensional typical codon "
                    "representations of basic classical Lie superalgebras.")
    sub = p.add_subparsers(dest="command", required=True)

    lc = sub.add_parser("list-catalog", help="list the codon representations")
    lc.add_argument("--diagrams", action="store_true",
                    help="show the superdiagram shapes where a conversion exists")

    b = sub.add_parser("branch", help="first-step branching of one representation")
    b.add_argument("--algebra", required=True, help='e.g. "osp(5|2)"')
    b.add_argument("--hw", required=True, help='comma-separated labels, e.g. "5/2,0,1"')
    b.add_argument("--format", choices=("text", "structured", "csv"), default="text")

    c = sub.add_parser("chain", help="apply a registered symmetry-breaking chain")
    c.add_argument("--chain-id", required=True)
    c.add_argument("--format", choices=("text", "structured", "csv"), default="text")

    ph = sub.add_parser("phase2", help="apply second-phase breaking operations")
    ph.add_argument("--chain-id", required=True)
    ph.add_argument("--plan", default="",
                    help='comma-separated ops like "soft:3,strong:12"')
    ph.add_argument("--format", choices=("text", "structured"), default="text")

    s = sub.add_parser("search", help="run the full scheme search")
    s.add_argument("--algebra", default="", help="restrict to one algebra key prefix")
    s.add_argument("--format", choices=("text", "structured"), default="text")

    t = sub.add_parser("tables", help="emit one of the branching tables 1..9")
    t.add_argument("--id", type=int, required=True, choices=range(1, 10))
    t.add_argument("--format", choices=("text", "structured", "csv"), default="text")

    sub.add_parser("verify-golden", help="recompute tables and diff the fixtures")
    return p


_COMMANDS = {
    "list-catalog": cmd_list_catalog,
    "branch": cmd_branch,
    "chain": cmd_chain,
    "phase2": cmd_phase2,
    "search": cmd_search,
    "tables": cmd_tables,
    "verify-golden": cmd_verify_golden,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return status
    except InputError as exc:
        # Bad input: exit code 2.  Anything else is a fault of the program
        # and propagates with its traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early.  Python flushes stdout again at
        # exit, so point it at devnull ("Note on SIGPIPE" in the signal
        # module's documentation).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def run(argv=None) -> int:
    """``main(argv)`` for a process that exits when it returns.  The cycle
    collector is off while ``main`` imports the command's layers and runs it
    (the library makes no cycles, see the module docstring) and is left on
    or off as the caller had it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return main(argv)
    finally:
        # The process is about to exit and nothing it holds needs
        # finalizing: spare the shutdown collection its walk over them all.
        gc.freeze()
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(run())
