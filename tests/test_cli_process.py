"""The command line as a process: ``python -m codonbranch.cli`` and the
console script go through ``cli.run``, which freezes the collector's objects
before the interpreter exits; ``cli.main`` called in-process must not."""

import gc
import hashlib
import os
import re
import subprocess
import sys

import pytest

from codonbranch import cli
from test_cli_bytes import PINNED

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _process(*args):
    """A fresh ``python`` on the checkout's ``src/`` and its fixtures; the
    hash seed is inherited, so CI runs this under each of its seeds."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    env.pop("CODONBRANCH_DATA", None)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def test_search_process_prints_the_pinned_bytes():
    proc = _process("-m", "codonbranch.cli", "search", "--format", "structured")
    assert (proc.returncode, proc.stderr) == (0, "")
    digest = hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()
    assert digest == PINNED["search", "structured"]


def test_verify_golden_process_reports_every_fixture_ok():
    proc = _process("-m", "codonbranch.cli", "verify-golden")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == (
        [f"table {t}: ok" for t in range(1, 10)] + ["embeddings.txt: ok"])


def test_run_returns_the_status_of_main_and_freezes():
    code = ("import gc, sys, codonbranch.cli as cli\n"
            "status = cli.run(['branch', '--algebra', 'osp(4|2)', '--hw', '3/2,0,1'])\n"
            "print(status, gc.get_freeze_count() > 0, gc.isenabled(), file=sys.stderr)\n")
    proc = _process("-c", code)
    assert (proc.returncode, proc.stdout) == (0, "")
    assert proc.stderr.splitlines()[-1] == "2 True True"


# One command line per command, each exiting 0.
IN_PROCESS = {
    "list-catalog": ["list-catalog", "--diagrams"],
    "branch": ["branch", "--algebra", "osp(5|2)", "--hw", "5/2,0,1"],
    "chain": ["chain", "--chain-id", "osp(5|2)/3", "--format", "csv"],
    "phase2": ["phase2", "--chain-id", "osp(5|2)/3", "--plan", "soft:3,strong:12"],
    "search": ["search", "--algebra", "osp(5|2)"],
    "tables": ["tables", "--id", "6"],
    "verify-golden": ["verify-golden"],
}


def test_in_process_corpus_covers_every_command():
    assert set(IN_PROCESS) == set(cli._COMMANDS)


@pytest.mark.parametrize("command", sorted(IN_PROCESS))
def test_main_leaves_the_collector_alone(command, capsys):
    before = gc.get_freeze_count(), gc.isenabled()
    assert cli.main(IN_PROCESS[command]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_console_script_is_run():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        text = fh.read()
    # tomllib is 3.11+; the section is short enough to read by line.
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text, re.M | re.S)
    assert section is not None
    assert 'codonbranch = "codonbranch.cli:run"' in section.group(1).splitlines()
