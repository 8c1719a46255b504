"""Which functions in ``src/codonbranch`` the command-line tool runs.

Runs a corpus of ``cli.main`` commands, the last one through ``cli.run``,
under ``sys.setprofile`` and lists every ``def`` in the package that no
command called.  A function that stays for a reason other than the CLI sits
on ``ALLOWED`` with that reason; the audit also reports allow-list entries
that were called or no longer exist, so the list cannot go stale.

Run it as ``PYTHONPATH=src python tests/reachability.py``: it prints each
unreached function with its line count (and its reason, if allowed) and
exits 1 when an unreached function is not allowed or an entry is stale.
With ``--called`` it prints the called definitions as JSON instead, which
``test_reachability.py`` reads from a fresh ``python -S`` process.
"""

import ast
import contextlib
import io
import json
import os
import sys

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "codonbranch")

# Unreached functions that stay, by why they stay.  Names are module-relative
# qualified names, as the report prints them.
_ALLOWED_BY_REASON = {
    "imported by the benchmark harness (benchmarks/)": (
        "embed_chains.builtin_registry", "embed_chains.Embedding.project",
        "lie_core.FormalCharacter.items", "lie_core.FormalCharacter.total",
        "lie_core.RootSystem.label_of", "lie_core.RootSystem.labels_of",
        "lie_core.SemisimpleAlgebra.split", "lie_core.SemisimpleAlgebra.canonicalize",
        "lie_core.RootSystem.canonicalize",
    ),
    "API of tests/test_acceptance.py": (
        "lie_core.char_add", "lie_core.sl2", "lie_core.casimir2", "search.final_state",
        "embed_chains.Distribution.total_dim", "phase2.Phase2State.total_dim",
        "phase2.Couplings.of", "search.SearchReport.chain_report",
    ),
    "the paper's model Hamiltonian, not yet run by a command": (
        "phase2.hamiltonian_eigenvalue", "phase2._stage_labels", "phase2._spin_term",
        "phase2._mz2",
    ),
    "reference that tests compare the tool's code against": (
        "lie_core.RootSystem.reflect", "lie_core.RootSystem.highest_weight",
        "lie_core.vdot", "super_branch.is_typical",
    ),
    "value dunder of FormalCharacter": (
        "lie_core.FormalCharacter.__eq__", "lie_core.FormalCharacter.__hash__",
        "lie_core.FormalCharacter.__len__", "lie_core.FormalCharacter.__repr__",
    ),
}
ALLOWED = {name: reason for reason, names in _ALLOWED_BY_REASON.items() for name in names}


def _commands():
    """``(argv, exit status)`` pairs: every command and format, ``chain`` for
    every registered chain, ``branch`` for every catalog entry, a few
    ``phase2`` plans and the bad-input exits.  Reads the registries, so call
    it once ``codonbranch`` is imported under the profiler."""
    from codonbranch.embed_chains import CHAINS
    from codonbranch.super_branch import CATALOG

    formats = ("text", "csv", "structured")
    out = [(["list-catalog"], 0), (["list-catalog", "--diagrams"], 0)]
    out += [(["branch", "--algebra", e.algebra, "--hw", ",".join(map(str, e.labels)),
              "--format", formats[i % 3]], 0) for i, e in enumerate(CATALOG)]
    out += [(["chain", "--chain-id", c.chain_id, "--format", formats[i % 3]], 0)
            for i, c in enumerate(CHAINS)]
    out += [(["phase2", "--chain-id", "osp(5|2)/3", "--plan", plan, "--format", fmt], 0)
            for plan, fmt in (("", "text"), ("soft:3,soft:12", "structured"),
                              ("soft:3,strong_after_soft:3,strong:12", "text"))]
    out += [(["search"], 0), (["search", "--format", "structured"], 0),
            (["search", "--algebra", "osp(5|2)"], 0)]
    out += [(["tables", "--id", str(t), "--format", f], 0)
            for t, f in ((1, "text"), (6, "csv"), (9, "structured"))]
    out += [(["verify-golden"], 0)]
    out += [(argv, 2) for argv in (
        ["branch", "--algebra", "osp(5|2)", "--hw", "5/2,x,1"],
        ["branch", "--algebra", "osp(5|2)", "--hw", "0,0,0"],
        ["branch", "--algebra", "osp(4|2)", "--hw", "3/2,0,1"],
        ["branch", "--algebra", "osp(9|2)", "--hw", "1"],
        ["chain", "--chain-id", "osp(5|2)/9"],
        ["phase2", "--chain-id", "osp(5|2)/3", "--plan", "soft:9"],
        ["search", "--algebra", "gl"],
    )]
    return out


def called_definitions() -> set:
    """``(file, first line)`` of every function in the package that the
    corpus calls, run in this process under ``sys.setprofile``.  The package
    is imported under the profiler, so a function that runs at import time
    counts as called."""
    codes = {}

    def profile(frame, event, arg):
        if event == "call":
            codes[id(frame.f_code)] = frame.f_code

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        from codonbranch import cli

        commands = _commands()
        for i, (argv, status) in enumerate(commands):
            # The last command goes through the process entry, which freezes
            # the collector's objects: this process only reports after it.
            entry = cli.run if i == len(commands) - 1 else cli.main
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                got = entry(argv)
            if got != status:
                raise AssertionError(f"{argv}: exit {got}, expected {status}\n{sink.getvalue()}")
    finally:
        sys.setprofile(previous)
    out = set()
    for code in codes.values():
        path = os.path.abspath(code.co_filename)
        # Modules, lambdas and comprehensions are code objects but no def.
        if os.path.dirname(path) == PACKAGE and not code.co_name.startswith("<"):
            out.add((os.path.basename(path), code.co_firstlineno))
    return out


def definitions() -> dict:
    """The package's functions by ``(file, first line)``, each as its
    module-relative qualified name and its line count from ``def`` to its
    end.  A decorated function's first line is its first decorator's, as in
    its code object's ``co_firstlineno``."""
    functions = {}

    def visit(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    functions[file, first] = name, child.end_lineno - child.lineno + 1
                visit(child, file, name)
            else:
                visit(child, file, prefix)

    for file in sorted(os.listdir(PACKAGE)):
        if file.endswith(".py"):
            with open(os.path.join(PACKAGE, file), encoding="utf-8") as fh:
                visit(ast.parse(fh.read()), file, file[:-3])
    return functions


def audit(called) -> dict:
    """What the ``called`` definitions leave over: ``unreached`` maps each
    uncalled function to its line count, ``not_allowed`` lists those missing
    from ``ALLOWED``, and ``stale`` the allow-list entries that were called
    or name no function."""
    unreached = {name: n for key, (name, n) in definitions().items() if key not in called}
    return {"unreached": unreached,
            "not_allowed": sorted(set(unreached) - set(ALLOWED)),
            "stale": sorted(n for n in ALLOWED if n not in unreached)}


def main(argv) -> int:
    if argv == ["--called"]:
        print(json.dumps(sorted(called_definitions())))
        return 0
    report = audit(called_definitions())
    for name, n in sorted(report["unreached"].items()):
        print(f"{name}  {n} lines" + (f"  ({ALLOWED[name]})" if name in ALLOWED else ""))
    print(f"{len(report['unreached'])} unreached functions, "
          f"{sum(report['unreached'].values())} lines")
    for label in ("not_allowed", "stale"):
        for item in report[label]:
            print(f"{label}: {item}")
    return 1 if report["not_allowed"] or report["stale"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
