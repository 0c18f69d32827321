"""``tools/same_output.py`` finds a changed byte and only a changed byte."""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _tool():
    spec = importlib.util.spec_from_file_location("same_output", ROOT / "tools" / "same_output.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_finds_one_edited_output_string(tmp_path):
    tool = _tool()
    cases = tool.golden_cases()
    argvs = [
        cases["caps_polydisk"] + ["--format", "table"],
        cases["caps_polydisk"] + ["--format", "csv"],
        cases["cube_polydisk"] + ["--format", "json"],
    ]
    assert tool.compare(str(SRC), str(SRC), argvs) == []

    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    cli = copy / "toricap" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    header = 'f"domain: {domain}\\n" + _format_table'  # the caps table's first line
    assert text.count(header) == 1
    cli.write_text(text.replace(header, header.replace("domain", "Domain", 1)), encoding="utf-8")
    assert tool.compare(str(SRC), str(copy), argvs) == [argvs[0]]
