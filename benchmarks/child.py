"""Fresh-process helper for the benchmark.

    python benchmarks/child.py setup <workload> <seed>
        Import the package and run the workload's set-up once.

    python benchmarks/child.py cli [--trace] -- <codonbranch arguments>
        Run ``codonbranch.cli.main`` in this fresh process, optionally
        traced, with its standard output captured.

Each mode prints one JSON object as its last line: the import time of
``codonbranch.cli``, and for ``cli`` the exit code, the captured output, the
in-process time of ``main`` and, when traced, the operation's summary and
spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time


def main(argv) -> int:
    t0 = time.perf_counter()
    import codonbranch.cli as cli
    import_s = time.perf_counter() - t0
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    if argv[0] == "setup":
        from workloads import load_expected, make_workload
        make_workload(argv[1], load_expected()).setup(int(argv[2]))
        print(json.dumps({"import_s": import_s}))
        return 0
    if argv[0] != "cli":
        raise SystemExit(f"unknown mode {argv[0]!r}")
    trace = argv[1] == "--trace"
    cli_argv = argv[argv.index("--") + 1:]
    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        if tracer is None:
            code = cli.main(cli_argv)
        else:
            code = tracer.run_op(1, cli.main, cli_argv)
    main_s = time.perf_counter() - t1
    doc = {"import_s": import_s, "main_s": main_s, "returncode": code,
           "stdout": out.getvalue()}
    if tracer is not None:
        tracer.uninstall()
        doc["summary"] = tracer.summary().get(1)
        doc["spans"] = tracer.spans
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
