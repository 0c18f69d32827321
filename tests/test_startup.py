"""Importing the CLI loads no module that only slows its start.

Most of a cold ``toricap`` request is interpreter start-up and imports.
``dataclasses`` pulls in ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``) and generates each record's methods by ``exec``; none of it
is needed, so this test keeps both out.  No field of a report needs CSV
quoting, so the CLI joins its CSV rows itself and ``csv`` stays out too.
``-S`` skips ``site``, whose ``.pth`` files could import any of them and
hide a regression.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src"
AVOIDED = ("csv", "dataclasses", "inspect")


def test_cli_import_loads_no_dataclasses_or_inspect():
    script = f"import sys, toricap.cli; print(sorted(set({AVOIDED!r}) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"
