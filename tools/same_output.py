"""Check that two source trees of toricap give the same CLI output.

    python3 tools/same_output.py PARENT_SRC CHANGE_SRC SEED

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding a
``toricap`` package.  The argv compared are:

* every CLI request of the benchmark's three workloads at SEED, from
  ``bench/workloads.build`` (which also works out each request's expected
  answer, some seconds of reference work; the bench files are only read);
* each ``caps`` request again with ``--oracle``, at K = min(K, 20);
* the golden cases of ``tests/test_golden.py``;

each in all three formats.  One child process per tree, with ``PYTHONPATH``
set to that tree, runs every argv through ``toricap.cli.run``.  Their exit
codes, stdout and stderr must agree.  The script prints the counts and
exits 1 naming the first argv that differs.  Standard library only.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("table", "csv", "json")
ORACLE_KMAX = 20

# Run each argv of the JSON list on stdin; print [code, stdout, stderr] per argv.
CHILD = """
import contextlib, io, json, sys
from toricap.cli import run
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def run_all(src: str, argvs: list[list[str]]) -> list[list]:
    """[exit code, stdout, stderr] of each argv, run by one child on ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CHILD],
        input=json.dumps(argvs),
        env=env,
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode:
        raise RuntimeError(f"child on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare(parent_src: str, change_src: str, argvs: list[list[str]]) -> list[list[str]]:
    """The argvs whose exit code, stdout or stderr differ between the trees."""
    parent, change = run_all(parent_src, argvs), run_all(change_src, argvs)
    return [argv for argv, a, b in zip(argvs, parent, change) if a != b]


def _in_every_format(argv: list[str]) -> list[list[str]]:
    if "--format" in argv:
        i = argv.index("--format")
        argv = argv[:i] + argv[i + 2 :]
    return [argv + ["--format", fmt] for fmt in FORMATS]


def _with_oracle(argv: list[str]) -> list[str]:
    i = argv.index("--kmax") + 1
    kmax = min(int(argv[i]), ORACLE_KMAX)
    return argv[:i] + [str(kmax)] + argv[i + 1 :] + ["--oracle"]


def golden_cases() -> dict[str, list[str]]:
    """Each golden case's argv by its name, read from ``tests/test_golden.py``."""
    source = (ROOT / "tests" / "test_golden.py").read_text(encoding="utf-8")
    (cases,) = (
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CASES"
    )
    specs = ROOT / "tests" / "golden" / "specs"
    return {
        name: [str(specs / a) if a.endswith(".json") else a for a in argv]
        for name, argv in ast.literal_eval(cases).items()
    }


def workload_argvs(seed: int, spec_dir: str) -> list[list[str]]:
    """Every CLI request of the three workloads, then each caps one with
    ``--oracle``."""
    sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode = True  # leave bench/ as it is
    import workloads

    argvs = [
        request.argv
        for name in workloads.WORKLOADS
        for request in workloads.build(name, seed, os.path.join(spec_dir, name))
        if request.argv is not None
    ]
    return argvs + [_with_oracle(argv) for argv in argvs if argv[0] == "caps"]


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: python3 tools/same_output.py PARENT_SRC CHANGE_SRC SEED", file=sys.stderr)
        return 2
    parent_src, change_src, seed = argv[0], argv[1], int(argv[2])
    with tempfile.TemporaryDirectory() as spec_dir:
        base = workload_argvs(seed, spec_dir) + list(golden_cases().values())
        unique = {tuple(a) for argv in base for a in _in_every_format(argv)}
        argvs = sorted(map(list, unique))
        differ = compare(parent_src, change_src, argvs)
    oracle = sum("--oracle" in a for a in argvs)
    print(f"{len(argvs)} argv ({oracle} with --oracle), {len(differ)} differ")
    if differ:
        print("first difference: " + " ".join(differ[0]))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
