"""Regenerate ``expected.json``, the outputs the benchmark's gate pins.

    PYTHONPATH=src python3 benchmarks/pin.py

Run it only at a commit whose outputs are trusted: every later run of the
benchmark compares against these values.  ``test_harness.py`` cross-checks
the pinned characters against the independent Weyl-quotient oracle.

Pinned:

* the structured search report's target, survivors (chain, plan, last step,
  masks) and the verdict codes of every chain;
* the ``verify-golden`` output lines;
* for every embedding source and every dominant label with Weyl dimension in
  ``[DIM_LO, DIM_HI]``: the character digest, the digest of its restriction
  through each registered embedding from that source, and its cost, the
  number of Weyl-chamber walks (``RootSystem.to_dominant`` calls) that
  building it and its restrictions from empty caches takes.  The
  ``characters-large`` sampler balances passes on that cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    EXPECTED_PATH,
    branching_digest,
    character_digest,
    clear_lie_caches,
    search_digest,
)

DIM_LO, DIM_HI = 60, 400


def dominant_labels(rs, lo, hi):
    """Every dominant label of ``rs`` with Weyl dimension in ``[lo, hi]``."""
    from codonbranch.lie_core import weyl_dimension
    found = []

    def extend(prefix):
        if len(prefix) == rs.rank:
            if lo <= weyl_dimension(rs, prefix) <= hi:
                found.append(prefix)
            return
        v = 0
        # The dimension grows with every label, so the zero-padded probe
        # bounds each coordinate.
        while weyl_dimension(rs, prefix + (v,) + (0,) * (rs.rank - len(prefix) - 1)) <= hi:
            extend(prefix + (v,))
            v += 1

    extend(())
    return sorted(found, key=lambda l: (weyl_dimension(rs, l), l))


def pin_characters():
    from codonbranch.embed_chains import branch_embedding, builtin_registry
    from codonbranch.lie_core import build_root_system, irrep_character, weyl_dimension
    sources = {}
    for emb in builtin_registry():
        sources.setdefault(emb.source.series + str(emb.source.rank), []).append(emb.name)
    out = {}
    for source, names in sorted(sources.items()):
        rs = build_root_system(source[0], int(source[1:]))
        entries = []
        for labels in dominant_labels(rs, DIM_LO, DIM_HI):
            clear_lie_caches()
            tracer = Tracer()
            tracer.install()
            try:
                ch, branchings = tracer.run_op(1, lambda: (
                    irrep_character(rs, labels),
                    [branch_embedding(n, labels) for n in names]))
            finally:
                tracer.uninstall()
            entries.append({
                "labels": list(labels),
                "dim": weyl_dimension(rs, labels),
                "digest": character_digest(rs, ch),
                "restrictions": {n: branching_digest(b)
                                 for n, b in zip(names, branchings)},
                "cost": tracer.counts[1]["lie_core.to_dominant.calls"],
            })
            print(source, labels, entries[-1]["cost"], file=sys.stderr)
        out[source] = entries
    return out


def main() -> int:
    from codonbranch import cli
    from codonbranch.search import full_search, report_to_dict
    verify = io.StringIO()
    with contextlib.redirect_stdout(verify):
        if cli.main(["verify-golden"]) != 0:
            raise SystemExit("verify-golden fails: refusing to pin")
    digest = search_digest(report_to_dict(full_search()))
    expected = {
        "search": digest,
        "verify_golden": verify.getvalue().splitlines(),
        "characters": pin_characters(),
    }
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True, ensure_ascii=False)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
