"""codonbranch benchmark: end-to-end times, or per-layer spans and counters.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload search-warm --smoke

Run it from the root of a source checkout: the package is imported from
``src/`` there, never from an installed copy.  Workloads are described in
``workloads.py``, per-layer metrics and the end-to-end metric each should
move in ``layers.json``.

With ``--trace 0`` the run sets up (several times, in fresh processes, for
``setup_s``), then runs operations back to back for ``--seconds`` and checks
every output.  A fixed reference computation (``reference.py``) runs before
and after every set-up and operation, and the reported times are scaled by
it to a pinned machine speed, so that co-tenant load on a shared host does
not move them.  With ``--trace 1`` it alternates untraced and traced
operations and reports the per-layer metrics; the difference between the
two is the tracing overhead.  ``--smoke`` runs one operation (one of each
when traced).

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record (environment, every sample,
failures) goes to ``.bench_out/`` in the checkout, with the spans of a
traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time

from reference import gauge, scale

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
LAYERS_PATH = os.path.join(HERE, "layers.json")

# Set-up is repeated in fresh processes until both limits are reached;
# setup_s is the median.
SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 3.0
MAX_FAILURES_KEPT = 5

# The end-to-end metrics, each printed for every workload: the median
# operation time and the median set-up time, both scaled to the reference
# speed, and the peak memory.  Unscaled times are printed and recorded too.
E2E_UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Descriptive names of the operation times, for ``--workload all``.
ALL_NAMES = {
    ("cli-cold", "op_s"): "cli_cold_s",
    ("search-warm", "op_s"): "search_warm_s",
    ("characters-large", "op_s"): "characters_pass_s",
}


def checkout_ok() -> bool:
    return os.path.isfile(os.path.join(SRC, "codonbranch", "__init__.py"))


# ---------------------------------------------------------------------------
# environment record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    """HEAD of the checkout when it is a git work tree, else ``None``."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources and data, which identifies the code
    measured when the checkout is not a git work tree."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "codonbranch")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, pkg).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_used": (sorted(os.sched_getaffinity(0))
                      if hasattr(os, "sched_getaffinity") else None),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# statistics


def tail(samples):
    """Highest percentile with at least ten samples beyond it, or ``None``."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return {"percentile": round(100 * (n - 10) / n, 1), "value": ordered[n - 11],
            "beyond": 10, "n": n}


def describe(samples) -> dict:
    return {"n": len(samples), "min": min(samples), "median": statistics.median(samples),
            "max": max(samples), "tail": tail(samples)}


# ---------------------------------------------------------------------------
# measurement


def measure(op, check, seconds, max_ops=None, gauged=True):
    """Closed loop: run ``op`` until ``seconds`` have passed (at least once).

    ``op`` is a callable, or a tuple of callables (steps) that together make
    one operation whose output is the list of their outputs; the reference
    gauge runs before the first operation and after every step, and an
    operation's scaled time is the sum of its steps' scaled times.

    Returns ``(times of passed ops, the same scaled to the reference speed,
    all op times, failures)``; an op that raises or whose output fails
    ``check`` is a failure.  Outputs are dropped once checked, so they do
    not add to the peak memory.  With ``gauged`` false the reference gauge
    does not run and no scaled times are returned.
    """
    steps = op if isinstance(op, tuple) else (op,)
    passed, scaled, times, failures = [], [], [], []
    before = gauge() if gauged else None
    deadline = time.perf_counter() + seconds
    while True:
        dt = op_scaled = 0.0
        outs, problems = [], []
        for step in steps:
            t0 = time.perf_counter()
            try:
                outs.append(step())
            except Exception as exc:  # a failing operation is counted, not fatal
                problems = [f"{type(exc).__name__}: {exc}"]
            step_s = time.perf_counter() - t0
            after = gauge() if gauged else None
            dt += step_s
            if gauged:
                op_scaled += scale(step_s, before, after)
            before = after
            if problems:
                break
        if not problems:
            try:
                problems = check(outs if isinstance(op, tuple) else outs[0])
            except Exception as exc:
                problems = [f"{type(exc).__name__}: {exc}"]
        outs = None
        times.append(dt)
        if problems:
            failures.append(problems)
        else:
            passed.append(dt)
            if gauged:
                scaled.append(op_scaled)
        if (max_ops and len(times) >= max_ops) or time.perf_counter() >= deadline:
            return passed, scaled, times, failures


def setup_samples(workload, seed, min_reps, min_seconds):
    """Wall times of fresh processes that each run the workload's set-up (at
    least ``min_reps`` of them, and for at least ``min_seconds``), the same
    scaled to the reference speed, and the ``codonbranch.cli`` import time
    each reported."""
    from workloads import run_process
    walls, scaled, imports = [], [], []
    before = gauge()
    start = time.perf_counter()
    while len(walls) < min_reps or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        proc = run_process([os.path.join(HERE, "child.py"), "setup", workload.name,
                            str(seed)])
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
        imports.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])
        after = gauge()
        scaled.append(scale(walls[-1], before, after))
        before = after
    return walls, scaled, imports


def cli_child(cli_argv, traced):
    """One fresh-process ``cli.main`` run through ``child.py``."""
    from workloads import run_process
    argv = [os.path.join(HERE, "child.py"), "cli"]
    argv += ["--trace"] if traced else []
    proc = run_process(argv + ["--", *cli_argv])
    if proc.returncode != 0:
        raise RuntimeError(f"child failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def layer_values(summaries, layer_names) -> dict:
    """Median over operations of each per-layer metric."""
    from tracing import op_metrics
    per_op = [op_metrics(s) for s in summaries] or [{}]
    return {name: statistics.median(m.get(name, 0) for m in per_op)
            for name in layer_names}


def merge_summaries(summaries) -> dict:
    """One operation's summary from the summaries of its processes."""
    from collections import Counter
    out = {"self": Counter(), "calls": Counter(), "counts": Counter()}
    for s in summaries:
        for key, counter in out.items():
            counter.update(s[key])
    return out


def run_untraced(workload, args, record):
    if args.smoke:
        walls, setups, imports = setup_samples(workload, args.seed, 1, 0)
    else:
        walls, setups, imports = setup_samples(workload, args.seed, SETUP_MIN_REPS,
                                               SETUP_MIN_SECONDS)
    record["setup"] = {"walls": walls, "scaled": setups, "import_s": imports}
    workload.setup(args.seed)
    passed, scaled, times, failures = measure(workload.op, workload.check,
                                              args.seconds, 1 if args.smoke else None)
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_kb = resource.getrusage(who).ru_maxrss
    record["ops"] = {"times": times, "scaled": scaled,
                     "passed": describe(passed) if passed else None,
                     "passed_scaled": describe(scaled) if scaled else None}
    # Every op failing still yields a time, so that the failure is what shows.
    metrics = {"op_s": statistics.median(scaled or times),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": peak_kb / 1024}
    return metrics, len(times), failures


def alternate(plain_op, traced_op, check, seconds, max_pairs):
    """Untraced and traced operations in turn, so that both halves see the
    same machine; returns (untraced times, traced times, failures)."""
    untraced, traced, failures = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        for op, times in ((plain_op, untraced), (traced_op, traced)):
            _, _, t, f = measure(op, check, 0, 1, gauged=False)
            times += t
            failures += f
        if (max_pairs and len(traced) >= max_pairs) or time.perf_counter() >= deadline:
            return untraced, traced, failures


def run_traced(workload, args, record, layer_names):
    """Untraced and traced operations in turn; per-layer metrics from the
    traced ones."""
    from tracing import Tracer
    max_pairs = 1 if args.smoke else None
    extra = {}
    if workload.in_process:
        _, _, imports = setup_samples(workload, args.seed, 1, 0)
        extra["cli.import_s"] = imports[0]
        workload.setup(args.seed)
        tracer = Tracer()
        ids = itertools.count(1)

        def traced_op():
            tracer.install()
            try:
                return tracer.run_op(next(ids), workload.op)
            finally:
                tracer.uninstall()

        untraced, traced, failures = alternate(workload.op, traced_op, workload.check,
                                               args.seconds, max_pairs)
        summaries = list(tracer.summary().values())
        spans = tracer.spans
    else:
        def check(docs):
            return [p for d in docs
                    for p in workload.check_output(d["argv"], d["returncode"], d["stdout"])]

        def child_op(traced, keep):
            docs = []
            for argv in workload.COMMANDS:
                t0 = time.perf_counter()
                doc = cli_child(argv, traced)
                docs.append({"argv": argv, "wall_s": time.perf_counter() - t0, **doc})
            keep.append([{k: v for k, v in d.items() if k != "stdout"} for d in docs])
            return docs

        plain, ops = [], []
        untraced, traced, failures = alternate(
            lambda: child_op(False, plain), lambda: child_op(True, ops), check,
            args.seconds, max_pairs)
        summaries = [merge_summaries(d["summary"] for d in docs) for docs in ops]
        spans = [[op, *s[1:]] for op, docs in enumerate(ops, 1)
                 for d in docs for s in d["spans"]]
        # Counters of each command on its own, from the first traced op.
        from tracing import op_metrics
        record["commands"] = {d["argv"][0]: {k: v for k, v in op_metrics(d["summary"]).items()
                                             if not k.endswith("_s")}
                              for d in ops[0]} if ops else {}
        if plain:
            extra["cli.import_s"] = statistics.median(
                d["import_s"] for docs in plain for d in docs)
            extra["cli.process_overhead_s"] = statistics.median(
                sum(d["wall_s"] - d["main_s"] for d in docs) for docs in plain)
    metrics = layer_values(summaries, layer_names)
    metrics.update({k: v for k, v in extra.items() if k in metrics})
    metrics["harness.trace_overhead_s"] = (statistics.median(traced)
                                           - statistics.median(untraced))
    record["ops"] = {"untraced": describe(untraced), "traced": describe(traced)}
    # Self times partition each traced operation's span (cli.main in a fresh
    # process), so their sum plus the process overhead is the traced time.
    record["accounting"] = {
        "traced_op_median_s": statistics.median(traced),
        "span_self_sum_median_s": statistics.median(
            sum(s["self"].values()) for s in summaries) if summaries else 0.0,
        "process_overhead_s": extra.get("cli.process_overhead_s", 0.0),
        "untraced_op_median_s": statistics.median(untraced),
        "trace_overhead_s": metrics["harness.trace_overhead_s"],
    }
    record["spans"] = spans
    return metrics, len(untraced) + len(traced), failures


def pin_to_one_cpu():
    """Keep this process and every process it starts on one CPU, so that the
    reference gauge runs where the measured work runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args) -> int:
    pin_to_one_cpu()
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import codonbranch
    if os.path.dirname(os.path.dirname(os.path.abspath(codonbranch.__file__))) != SRC:
        print(f"codonbranch imported from {codonbranch.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import load_expected, make_workload
    with open(LAYERS_PATH, encoding="utf-8") as fh:
        layers = json.load(fh)
    workload = make_workload(args.workload, load_expected())
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "env": environment(),
              "loadavg_before": os.getloadavg()}
    if args.trace:
        values, attempted, failures = run_traced(workload, args, record,
                                                 [m["name"] for m in layers])
        units = {m["name"]: m["unit"] for m in layers}
    else:
        values, attempted, failures = run_untraced(workload, args, record)
        units = E2E_UNITS
    record["loadavg_after"] = os.getloadavg()
    record["attempted"], record["failed"] = attempted, len(failures)
    record["failed_frac"] = len(failures) / attempted
    record["failures"] = failures[:MAX_FAILURES_KEPT]
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    record["metrics"] = metrics
    write_record(record)
    print_summary(record)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def write_record(record):
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans", None)
    with open(os.path.join(OUT_DIR, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans is not None:
        with open(os.path.join(OUT_DIR, stem + "-spans.jsonl"), "w", encoding="utf-8") as fh:
            fh.write('["op", "span", "parent", "name", "start", "end"]\n')
            for s in spans:
                fh.write(json.dumps(list(s)) + "\n")


def print_summary(record):
    env = record["env"]
    print(f"# {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['attempted']} ops, {record['failed']} failed "
          f"(failed_frac {record['failed_frac']:.3f}); python {env['python']}, "
          f"{env['nproc']} cpus, {env['cpu_model']}, load "
          f"{record['loadavg_before'][0]:.2f} -> {record['loadavg_after'][0]:.2f}")
    for problems in record["failures"]:
        print("#   failure: " + "; ".join(problems)[:500])
    for key, label in (("passed", "op wall"), ("passed_scaled", "op scaled")):
        stats = record["ops"].get(key)
        if not stats:
            continue
        t = stats["tail"]
        tail_text = (f"p{t['percentile']} {t['value']:.4f} s ({t['beyond']} beyond)"
                     if t else "no percentile with 10 samples beyond")
        print(f"#   {label}: median {stats['median']:.4f} s, {tail_text}, "
              f"best {stats['min']:.4f} s, n={stats['n']}")
    setup = record.get("setup")
    if setup and "scaled" in setup:
        print(f"#   setup wall: median {statistics.median(setup['walls']):.4f} s, "
              f"n={len(setup['walls'])}")
    acc = record.get("accounting")
    if acc:
        print(f"#   traced op median {acc['traced_op_median_s']:.4f} s = span self "
              f"times {acc['span_self_sum_median_s']:.4f} s + process overhead "
              f"{acc['process_overhead_s']:.4f} s (+ rest); untraced median "
              f"{acc['untraced_op_median_s']:.4f} s, tracing overhead "
              f"{acc['trace_overhead_s']:.4f} s")
    for name, m in record["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")


def run_all(args) -> int:
    """Every workload in turn, each in its own process, under descriptive names."""
    import subprocess
    from workloads import WORKLOAD_NAMES
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(proc.stdout.splitlines()[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for metric, m in res["metrics"].items():
            metrics[ALL_NAMES.get((name, metric), f"{name}.{metric}")] = m
        metrics[f"{name}.failed_frac"] = {"value": res["failed"] / res["attempted"],
                                          "unit": "fraction"}
    for metric, m in metrics.items():
        print(f"# {metric} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one operation per workload")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not checkout_ok():
        print(f"no codonbranch sources under {SRC}: run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
