"""Each CLI request loads only the modules it runs.

Most of a cold ``toricap`` request is interpreter start-up and imports.
``dataclasses`` pulls in ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``) and generates each record's methods by ``exec``; none of it
is needed, so these tests keep both out.  No field of a report needs CSV
quoting, so the CLI joins its CSV rows itself and ``csv`` stays out too.
``import toricap`` loads no submodule, and the scalar subcommands never
load the lattice search (``capacities``) or the brute-force ``oracle``.
Each check runs in a fresh ``python -S``: ``site``'s ``.pth`` files could
import any of these modules and hide a regression.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"
AVOIDED = ("csv", "dataclasses", "inspect")
SEARCH = ("toricap.capacities", "toricap.oracle")
ELLIPSOID = '{"type": "ellipsoid", "a": ["1", "2"]}'
CONCAVE = '{"type": "concave", "sigma": [["3", "0"], ["1", "1"], ["0", "2"]]}'


def _fresh(script: str, *args: str):
    """The JSON that ``script`` prints last, run with ``args`` in a fresh
    ``python -S`` that has imported ``json`` and ``sys``."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", f"import json, sys\n{script}", *args],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _loaded(script: str, *args: str) -> list[str]:
    """The ``toricap`` modules loaded once ``script`` has run."""
    listed = "print(json.dumps([m for m in sys.modules if m.startswith('toricap')]))"
    return _fresh(f"{script}\n{listed}", *args)


def _run_cli(*argv: str) -> list[str]:
    """The ``toricap`` modules loaded once ``argv`` has run through ``cli.run``."""
    return _loaded("import toricap.cli\nassert toricap.cli.run(sys.argv[1:]) == 0", *argv)


def test_cli_import_loads_no_dataclasses_or_inspect():
    listed = f"print(json.dumps(sorted(set({AVOIDED!r}) & set(sys.modules))))"
    assert _fresh(f"import toricap.cli\n{listed}") == []


def test_import_toricap_loads_no_submodule():
    assert _loaded("import toricap") == ["toricap"]


def test_cli_import_loads_neither_the_search_nor_the_oracle():
    loaded = _loaded("import toricap.cli")
    assert "toricap.cli" in loaded
    assert not set(SEARCH) & set(loaded)


@pytest.mark.parametrize("command, spec", [
    ("cube", ELLIPSOID), ("lagrangian-bound", ELLIPSOID), ("gromov", CONCAVE),
], ids=["cube", "lagrangian-bound", "gromov"])
def test_scalar_subcommands_load_neither_the_search_nor_the_oracle(tmp_path, command, spec):
    path = tmp_path / "d.json"
    path.write_text(spec, encoding="utf-8")
    loaded = _run_cli(command, "-d", str(path))
    assert "toricap.embeddings" in loaded
    assert not set(SEARCH) & set(loaded)


@pytest.mark.parametrize("oracle", [False, True])
def test_caps_loads_the_oracle_only_under_its_flag(tmp_path, oracle):
    path = tmp_path / "e.json"
    path.write_text(ELLIPSOID, encoding="utf-8")
    loaded = _run_cli("caps", "-d", str(path), "-k", "4", *["--oracle"] * oracle)
    assert "toricap.capacities" in loaded
    assert ("toricap.oracle" in loaded) is oracle


def test_dir_and_star_import_give_every_public_name():
    script = (
        "import toricap\n"
        "listed = set(toricap.__all__) - set(dir(toricap))\n"
        "star = {}\n"
        "exec('from toricap import *', star)\n"
        "print(json.dumps([sorted(listed), sorted(set(toricap.__all__) - set(star))]))"
    )
    assert _fresh(script) == [[], []]
