"""Self-test of the benchmark harness.

    PYTHONPATH=src python3 -m pytest benchmarks/test_harness.py -q

Runs every workload once (``--smoke``), untraced and traced, and checks the
result line against ``BENCHMARK.json``; checks that the gate reports a wrong
pinned survivor set as a failure; checks the deterministic work counters of
one cold search against their known values; and cross-checks the pinned
character and restriction digests against the Weyl-quotient oracle in
``tests/oracles.py``.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "tests"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import reference  # noqa: E402
import run  # noqa: E402
from workloads import (  # noqa: E402
    COST_TOLERANCE,
    SAMPLE_PLAN,
    WORKLOAD_NAMES,
    SearchWarm,
    branching_digest,
    character_digest,
    load_expected,
)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)
with open(run.LAYERS_PATH, encoding="utf-8") as _fh:
    LAYERS = json.load(_fh)

# One cold `codonbranch search`, counted at the commit that defined the
# benchmark.
SEED_COUNTERS = {
    "lie_core.irrep_character.calls": 206,
    "lie_core.irrep_character.misses": 49,
    "embed_chains.branch_embedding.calls": 179,
    "embed_chains.branch_embedding.misses": 91,
    "lie_core.to_dominant.calls": 1732,
    "super_branch.to_dominant_regular.calls": 1800,
    "embed_chains.first_step_distribution.calls": 51,
    "super_branch.branch_to_even.calls": 51,
    "phase2.apply_op.calls": 265,
    "phase2.phase2_stats.calls": 265,
    "search.option_nodes": 265,
    "search.pruned_nodes": 192,
    "search.solve_freezing.calls": 168,
    "search.reachable_triplet_counts.calls": 201,
}

_RUNS = {}


def smoke_run(workload, trace, tag=0):
    """Result line and full record of one smoke run (cached per workload,
    trace mode and tag)."""
    key = (workload, trace, tag)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "1", "--trace", str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        path = os.path.join(run.OUT_DIR, f"{workload}-seed1-trace{trace}.json")
        with open(path, encoding="utf-8") as fh:
            _RUNS[key] = json.loads(proc.stdout.splitlines()[-1]), json.load(fh)
    return _RUNS[key]


def smoke(workload, trace, tag=0):
    """Result line of one smoke run."""
    return smoke_run(workload, trace, tag)[0]


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert all(m["better"] == "lower" for m in BENCHMARK["end_to_end"])
    assert BENCHMARK["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in LAYERS]
    e2e = {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in LAYERS:
        for move in m["moves"]:
            assert move["metric"] in e2e and move["workload"] in WORKLOAD_NAMES, m


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_prints_every_metric(workload, trace):
    res = smoke(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {n: m["unit"] for n, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in res["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_cold_search_counters_match_the_seed():
    counts = smoke_run("cli-cold", 1)[1]["commands"]["search"]
    assert {k: counts.get(k, 0) for k in SEED_COUNTERS} == SEED_COUNTERS


def test_cold_op_counters_add_up_the_commands():
    res, rec = smoke_run("cli-cold", 1)
    for name, m in res["metrics"].items():
        if m["unit"] == "count":
            assert m["value"] == sum(c.get(name, 0) for c in rec["commands"].values())


def test_scaled_time_is_wall_time_at_the_reference_speed():
    assert reference.scale(2.0, reference.REF_SECONDS,
                           reference.REF_SECONDS) == pytest.approx(2.0)
    assert reference.scale(2.0, 2 * reference.REF_SECONDS,
                           2 * reference.REF_SECONDS) == pytest.approx(1.0)
    assert reference.gauge() > 0


@pytest.mark.parametrize("workload", ["cli-cold", "characters-large"])
def test_counters_repeat_exactly(workload):
    counts = [{n: m["value"] for n, m in smoke(workload, 1, tag)["metrics"].items()
               if m["unit"] == "count"} for tag in (0, 1)]
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_wrong_survivor_set_is_a_failure():
    expected = load_expected()
    wrong = copy.deepcopy(expected)
    wrong["search"]["survivors"][0]["masks"][0].pop()
    right_wl, wrong_wl = SearchWarm(expected), SearchWarm(wrong)
    right_wl.setup(1)
    passed, scaled, times, failures = run.measure(right_wl.op, right_wl.check, 0, 1)
    assert failures == [] and len(passed) == len(scaled) == 1
    passed, scaled, times, failures = run.measure(wrong_wl.op, wrong_wl.check, 0, 1)
    assert passed == scaled == [] and len(times) == 1
    assert failures and "survivors differ" in failures[0][0]


def test_wrong_verify_output_is_a_failure():
    from workloads import ColdCli
    wl = ColdCli(load_expected())
    lines = list(wl.expected["verify_golden"])
    assert wl.check_output(("verify-golden",), 0, "\n".join(lines) + "\n") == []
    lines[4] = "table 5: MISMATCH"
    assert wl.check_output(("verify-golden",), 1, "\n".join(lines) + "\n")


def test_run_refuses_a_directory_without_sources():
    bare = os.path.join(run.OUT_DIR, "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(BENCHMARK["command"] + [
            "--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1",
            "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


def sampled_entries():
    """Every pinned (source, entry) that some seed's sample can contain."""
    pool = load_expected()["characters"]
    out = []
    for source, (count, budget) in SAMPLE_PLAN.items():
        reachable = {}
        for pick in itertools.combinations(pool[source], count):
            if abs(sum(e["cost"] for e in pick) - budget) <= COST_TOLERANCE * budget:
                reachable.update((tuple(e["labels"]), e) for e in pick)
        assert reachable, source
        out.extend((source, e) for _, e in sorted(reachable.items()))
    return out


def test_pinned_digests_agree_with_the_weyl_quotient_oracle():
    from codonbranch.embed_chains import REGISTRY, branch_embedding
    from codonbranch.lie_core import FormalCharacter, build_root_system
    from oracles import weyl_quotient_character

    def oracle(rs, labels):
        return FormalCharacter(weyl_quotient_character(rs, tuple(labels)))

    for source, entry in sampled_entries():
        rs = build_root_system(source[0], int(source[1:]))
        ch = oracle(rs, entry["labels"])
        assert character_digest(rs, ch) == entry["digest"], (source, entry["labels"])
        for name, digest in entry["restrictions"].items():
            emb = REGISTRY[name]
            alg = emb.target_algebra()
            projected = {}
            for w, m in ch.items():
                pw = alg.canonicalize(emb.project(w))
                projected[pw] = projected.get(pw, 0) + m
            branching = branch_embedding(name, tuple(entry["labels"]))
            assert branching_digest(branching) == digest, (name, entry["labels"])
            rebuilt = {}
            for labels, mult in branching:
                factor_chars = [oracle(f, l) for f, l in zip(alg.factors, labels)]
                for combo in itertools.product(*(c.items() for c in factor_chars)):
                    w = sum((wm[0] for wm in combo), start=())
                    m = mult
                    for wm in combo:
                        m *= wm[1]
                    rebuilt[w] = rebuilt.get(w, 0) + m
            assert {w: m for w, m in rebuilt.items() if m} == projected, name
