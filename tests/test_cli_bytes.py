"""Byte-identity guard for the command line.

Each (command, format) pair runs over its full set of inputs, and the
sha256 of the concatenated stdout is pinned.  The digests were recorded
before the duplicate code paths behind these commands were merged, so any
change to what a user sees fails here with the pair that moved.
"""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codonbranch.cli import _dump_json, main
from codonbranch.embed_chains import chain_ids
from codonbranch.search import full_search, report_to_dict
from codonbranch.super_branch import CATALOG
from test_search import MEMO_TARGETS

SURVIVOR_PLANS = ("soft:3,soft:12", "soft:3,strong:12", "soft:3,strong_after_soft:3")


def _hw(labels):
    return ",".join(str(x) for x in labels)


def _runs(command, fmt):
    """Argument lists of one (command, format) pair, in a fixed order."""
    flag = [] if fmt is None else ["--format", fmt]
    if command == "branch":
        return [["branch", "--algebra", e.algebra, "--hw", _hw(labels), *flag]
                for e in CATALOG for labels in (e.labels, *e.aliases)]
    if command == "chain":
        return [["chain", "--chain-id", c, *flag] for c in chain_ids()]
    if command == "tables":
        return [["tables", "--id", str(t), *flag] for t in range(1, 10)]
    if command == "phase2":
        return [["phase2", "--chain-id", "osp(5|2)/3", "--plan", p, *flag]
                for p in SURVIVOR_PLANS]
    if command == "search":
        return [["search", *flag]]
    return [["list-catalog", "--diagrams"]]


PINNED = {
    ("branch", "text"):
        "736585238b4d4e7b32d56b3f82b64f58058956163d228f03bd78541d30459200",
    ("branch", "csv"):
        "c28cf18dd5df7edf0ad4d70c2476eee43da38b5e1aa6bcdb228c86d69f651051",
    ("branch", "structured"):
        "3c9cfbf7747165d28e7fa2de6433822cdc1246b38b1c771061491b5f50bdd1e2",
    ("chain", "text"):
        "5bbceb143172b6320a21f359c1d9ddb556b2596564f4b1c2fd96ee59bc0fcf9c",
    ("chain", "csv"):
        "6516ba1083cc731dfc585e4ab037d11f5a01393cdee53878a2e29dcaebbea97d",
    ("chain", "structured"):
        "207530acf07a6bd462c954e1cf0a442cbfd8531c1794e4e1c7ac98121ccfba0e",
    ("tables", "text"):
        "da7e1e85d1eb52be2f390c65160b22957d134b31f8b8841912a56972e738f71b",
    ("tables", "csv"):
        "5347595b36e6dd3d4ce29d97b8d760b42544b40ccab484158de8a9127da4242d",
    ("tables", "structured"):
        "bdd4f964069d6341fcc74280874207a0845055d22b569d824875f0f06d28058d",
    ("phase2", "text"):
        "e18aa80c1975e0ecb5cf70cd84f8a7aaabd3318d522429b7d9bc7728cb149dd7",
    ("phase2", "structured"):
        "fd704df5ae4c82de7bfad1e5dde0d0d72e33e17a360783b2b4a7515b78ed56cb",
    ("search", "text"):
        "1d45c2aabfcb7ec78c5a395a628f14e299d2229b943952a8b812e14d1cd66f42",
    ("search", "structured"):
        "68d0d7e562aefb9ce647504efbd1831953d79fe48f79a397d9a08950b880b261",
    ("list-catalog", None):
        "4737b18b36c4a0e2d25cbca8ab1486006e1cea1b5a44333fec4015546aac9ea0",
}


def stdout_digest(capsys, command, fmt):
    digest = hashlib.sha256()
    for argv in _runs(command, fmt):
        assert main(argv) == 0, argv
        digest.update(capsys.readouterr().out.encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("command,fmt", list(PINNED), ids=lambda x: str(x))
def test_cli_stdout_is_byte_identical(capsys, command, fmt):
    assert stdout_digest(capsys, command, fmt) == PINNED[command, fmt]


# ---------------------------------------------------------------------------
# the one-pass writer of `search --format structured`

# Quotes, backslashes, control characters, non-ASCII (U+00B1 as in "2-(±2)")
# and surrogates besides arbitrary text.
_TEXT = st.text(st.sampled_from('a"\\/\b\f\n\r\t\x00\x1f\x7f\u00b1\u2028\ud800')) | st.text()
_SCALARS = (st.none() | st.booleans() | _TEXT
            | st.integers() | st.integers(min_value=-2**200, max_value=2**200))
_DOCS = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=30)


def _dumps(doc) -> str:
    return json.dumps(doc, indent=1, ensure_ascii=False)


@settings(max_examples=100, deadline=None)
@given(_DOCS)
@example([])
@example(())
@example({})
@example({"a": [{}, ()], "b": [[[]]]})
@example([True, False, None, 0, -1, 2**64, -2**65, '"\\\n\x00\u00b1'])
def test_writer_is_json_dumps_with_indent_1(doc):
    assert _dump_json(doc) == _dumps(doc)


def test_writer_on_the_search_report_of_every_memo_target():
    for target in MEMO_TARGETS:
        doc = report_to_dict(full_search(target))
        assert _dump_json(doc) == _dumps(doc), target


@pytest.mark.parametrize("doc", [{1: 2}, {None: 1}, [1.5], {"a": {2}}, object()])
def test_writer_refuses_what_the_report_never_holds(doc):
    with pytest.raises(TypeError):
        _dump_json(doc)
