"""Every function in src/ is run by some CLI command, or is allowed to stay
for a stated reason (see ``reachability.py``)."""

import json
import os
import subprocess
import sys

import pytest

import reachability


@pytest.fixture(scope="module")
def report():
    # A fresh process without site packages, so that every cache is cold and
    # the package is imported under the profiler.
    src = os.path.dirname(reachability.PACKAGE)
    proc = subprocess.run([sys.executable, "-S", reachability.__file__, "--called"],
                          env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return reachability.audit({tuple(key) for key in json.loads(proc.stdout)})


def test_every_unreached_function_is_allowed(report):
    assert report["not_allowed"] == [], \
        "functions that no CLI command runs; delete them or allow them with a reason"


def test_the_allow_list_names_only_unreached_functions(report):
    assert report["stale"] == [], "allow-list entries that a command runs or that are gone"
