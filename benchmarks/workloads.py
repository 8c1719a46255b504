"""The benchmark's workloads: set-up, one operation, and the output gate.

Every workload is a closed loop from one client process with no extra
threads: the next operation starts when the previous one has returned.

* ``cli-cold``: each operation is two fresh ``python -m codonbranch.cli``
  processes, ``search --format structured`` and then ``verify-golden``,
  which is what a command-line user pays every time: every ``lru_cache``
  starts empty.  Only here do ``tables`` and ``cli`` work.
* ``search-warm``: ``full_search()`` already ran once in set-up; each
  operation repeats it in-process and serializes the report, as the test
  suite and library callers do.  The character and restriction caches are
  all hits, so the time goes to the uncached first-step branching and to the
  phase-2 enumeration.
* ``characters-large``: each operation is one pass over a seeded sample of
  dominant labels (Weyl dimension 60-400) for every embedding source, with
  the ``lie_core`` and ``embed_chains`` caches cleared first.  It builds each
  character and restricts it through every registered embedding from that
  source: only ``lie_core`` and ``embed_chains`` work.

The seed selects only the ``characters-large`` sample.  The search workloads
use the standard-code target, the only target ``prune()`` is sound for.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")

CHILD_TIMEOUT_S = 150


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    """Environment for processes that import the package from this checkout."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("CODONBRANCH_DATA", None)  # fixtures must come from the checkout
    return env


def run_process(argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


# ---------------------------------------------------------------------------
# output gates


def search_digest(doc: dict) -> dict:
    """The parts of a structured search report that the gate pins, as JSON
    values (lists, not tuples)."""
    return json.loads(json.dumps({
        "target": doc["target"],
        "survivors": sorted(
            ({"chain": s["chain"], "plan": s["plan"], "final": s["final"],
              "masks": s["masks"]} for s in doc["survivors"]),
            key=lambda s: json.dumps(s, sort_keys=True)),
        "verdicts": {c["chain"]: c["verdict"]
                     for a in doc["algebras"] for c in a["chains"]},
    }))


def check_search(doc: dict, expected: dict) -> list:
    """Problems with a structured search report, as messages (empty: passed)."""
    got = search_digest(doc)
    want = expected["search"]
    problems = []
    if got["target"] != want["target"]:
        problems.append(f"target {got['target']} != {want['target']}")
    if got["survivors"] != want["survivors"]:
        problems.append(f"{len(got['survivors'])} survivors differ from the pinned "
                        f"{len(want['survivors'])}")
    if got["verdicts"] != want["verdicts"]:
        bad = sorted(k for k in set(got["verdicts"]) | set(want["verdicts"])
                     if got["verdicts"].get(k) != want["verdicts"].get(k))
        problems.append(f"verdicts differ for {bad}")
    return problems


def character_digest(rs, character) -> str:
    """Digest of a character as (Dynkin labels, multiplicity) pairs."""
    items = sorted((tuple(str(x) for x in rs.labels_of(w)), m)
                   for w, m in character.items())
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def branching_digest(branching) -> str:
    items = sorted((tuple(tuple(l) for l in labels), m) for labels, m in branching)
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# workloads


class ColdCli:
    """Fresh ``python -m codonbranch.cli`` processes: one operation is a
    structured search followed by ``verify-golden``."""

    name = "cli-cold"
    in_process = False
    COMMANDS = (("search", "--format", "structured"), ("verify-golden",))

    def __init__(self, expected):
        self.expected = expected
        # One step per command, so that the reference gauge runs between
        # the two processes.
        self.op = tuple(functools.partial(run_process, ["-m", "codonbranch.cli", *argv])
                        for argv in self.COMMANDS)

    def setup(self, seed):
        pass

    def check(self, procs) -> list:
        return [p for argv, proc in zip(self.COMMANDS, procs)
                for p in self.check_output(argv, proc.returncode, proc.stdout)]

    def check_output(self, argv, returncode, stdout) -> list:
        where = argv[0]
        problems = [] if returncode == 0 else [f"{where}: exit code {returncode}"]
        if where == "search":
            try:
                doc = json.loads(stdout)
            except ValueError as exc:
                return problems + [f"unparsable search output: {exc}"]
            return problems + check_search(doc, self.expected)
        lines = stdout.splitlines()
        if lines != self.expected["verify_golden"]:
            problems.append("verify-golden output: " + "; ".join(
                l for l in lines if not l.endswith(": ok")))
        return problems


class SearchWarm:
    """``full_search()`` repeated in-process on warm caches."""

    name = "search-warm"
    in_process = True

    def __init__(self, expected):
        self.expected = expected

    def setup(self, seed):
        from codonbranch.search import full_search
        full_search()

    def op(self):
        from codonbranch.search import full_search, report_to_dict
        return report_to_dict(full_search())

    def check(self, doc) -> list:
        return check_search(doc, self.expected)


def clear_lie_caches():
    """Empty every function cache of ``lie_core`` and ``embed_chains``."""
    from codonbranch import embed_chains, lie_core
    for mod in (lie_core, embed_chains):
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)) and not isinstance(obj, type):
                obj.cache_clear()


# Labels per pass for each embedding source, and the pinned cost (counted
# Weyl-chamber walks, from the seed commit) a pass's sample of that source
# must total within COST_TOLERANCE.  Balancing on a pinned count keeps the
# work of a pass nearly the same for every seed while the labels differ.
SAMPLE_PLAN = {"A2": (2, 2400), "A3": (2, 2000), "A5": (1, 1351),
               "B2": (2, 2000), "C2": (2, 2000)}
COST_TOLERANCE = 0.04


def draw_sample(pool: dict, seed: int) -> list:
    """Seeded, cost-balanced sample: [(source, pool entry), ...]."""
    rng = random.Random(seed)
    sample = []
    for source, (count, budget) in SAMPLE_PLAN.items():
        entries = pool[source]
        for _ in range(100000):
            pick = rng.sample(entries, count)
            if abs(sum(e["cost"] for e in pick) - budget) <= COST_TOLERANCE * budget:
                break
        else:
            raise ValueError(f"no {source} sample within the cost budget")
        sample.extend((source, e) for e in pick)
    return sample


class CharactersLarge:
    """Characters and restrictions far larger than the search ever builds."""

    name = "characters-large"
    in_process = True

    def __init__(self, expected):
        self.expected = expected
        self.sample = []

    def setup(self, seed):
        from codonbranch.embed_chains import builtin_registry
        from codonbranch.lie_core import build_root_system
        embeddings = {}
        for emb in builtin_registry():
            embeddings.setdefault(emb.source.series + str(emb.source.rank),
                                  []).append(emb.name)
        self.sample = []
        for source, entry in draw_sample(self.expected["characters"], seed):
            rs = build_root_system(source[0], int(source[1:]))
            self.sample.append((rs, tuple(entry["labels"]), embeddings[source], entry))

    def op(self):
        from codonbranch.embed_chains import branch_embedding
        from codonbranch.lie_core import irrep_character
        clear_lie_caches()
        return [(irrep_character(rs, labels),
                 [branch_embedding(name, labels) for name in names])
                for rs, labels, names, _entry in self.sample]

    def check(self, results) -> list:
        from codonbranch.lie_core import weyl_dimension
        problems = []
        for (rs, labels, names, entry), (ch, branchings) in zip(self.sample, results):
            where = f"{rs.series}{rs.rank}{labels}"
            if ch.total() != weyl_dimension(rs, labels):
                problems.append(f"{where}: total {ch.total()} != Weyl dimension")
            if character_digest(rs, ch) != entry["digest"]:
                problems.append(f"{where}: character differs from the pinned digest")
            for name, br in zip(names, branchings):
                if branching_digest(br) != entry["restrictions"][name]:
                    problems.append(f"{where}: {name} differs from the pinned digest")
        return problems


WORKLOAD_NAMES = ("cli-cold", "search-warm", "characters-large")


def make_workload(name: str, expected: dict):
    if name == "cli-cold":
        return ColdCli(expected)
    if name == "search-warm":
        return SearchWarm(expected)
    if name == "characters-large":
        return CharactersLarge(expected)
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOAD_NAMES)}")
