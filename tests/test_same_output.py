"""``tools/same_output.py`` finds a changed byte and only a changed byte,
on stdout and on stderr."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import shutil
from pathlib import Path

import pytest

from toricap.cli import run

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _tool():
    spec = importlib.util.spec_from_file_location("same_output", ROOT / "tools" / "same_output.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _edited_copy(tmp_path, old: str, new: str, count: int) -> Path:
    """A copy of ``src`` whose ``cli.py`` has each of its ``count``
    occurrences of ``old`` replaced by ``new``."""
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    cli = copy / "toricap" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count(old) == count
    cli.write_text(text.replace(old, new), encoding="utf-8")
    return copy


def test_compare_finds_one_edited_output_string(tmp_path):
    tool = _tool()
    cases = tool.golden_cases()
    argvs = [
        cases["caps_polydisk"] + ["--format", "table"],
        cases["caps_polydisk"] + ["--format", "csv"],
        cases["cube_polydisk"] + ["--format", "json"],
    ]
    assert tool.compare(str(SRC), str(SRC), argvs) == []

    header = 'f"domain: {domain}\\n" + _format_table'  # the caps table's first line
    copy = _edited_copy(tmp_path, header, header.replace("domain", "Domain", 1), 1)
    assert tool.compare(str(SRC), str(copy), argvs) == [argvs[0]]


def test_compare_finds_an_edited_error_prefix(tmp_path):
    """Only stderr differs, and only where ``cli.run`` prints its own error:
    the argvs that exit 1, not argparse's usage errors (exit 2)."""
    tool = _tool()
    argvs = tool.error_argvs(str(tmp_path / "specs"))
    codes = []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(run(argv))
    failing = [argv for argv, code in zip(argvs, codes) if code == 1]
    assert failing and set(codes) == {1, 2}

    copy = _edited_copy(tmp_path, '"toricap: error:', '"toricap: ERROR:', 3)
    assert tool.compare(str(SRC), str(copy), argvs) == failing
    for _, (code, out, err), (edited_code, edited_out, edited_err) in tool.differences(
        str(SRC), str(copy), failing
    ):
        assert (code, out) == (edited_code, edited_out) and err != edited_err


def test_an_exception_names_the_tree_and_the_argv(tmp_path):
    tool = _tool()
    argv = tool.golden_cases()["cube_polydisk"]
    copy = _edited_copy(tmp_path, "    parser = build_parser()\n", "    raise KeyError(0)\n", 1)
    with pytest.raises(RuntimeError, match=r"toricap_change \(.*\) raised on \['cube'"):
        tool.compare(str(SRC), str(copy), [argv])
