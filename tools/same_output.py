"""Check that two source trees of toricap give the same CLI output.

    python3 tools/same_output.py PARENT_SRC CHANGE_SRC SEED

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding a
``toricap`` package.  The argv compared are:

* every CLI request at SEED of the workloads ``BENCHMARK.json`` names, from
  ``ab_latency.requests_of`` (which also works out each request's expected
  answer, some seconds of reference work; the bench files are only read);
* each ``caps`` request again with ``--oracle``, at K = min(K, 20);
* the golden cases of ``tests/test_golden.py``;
* the error paths of ``error_argvs``: a K of 0, -3 or ``x``, an ellipsoid
  with every axis infinite on every subcommand, a bad spec, a spec with a
  JSON integer past Python's digit limit, a missing file and ``gromov`` on
  hulls;

each in all three formats.  Both trees are loaded into this one process,
with no child process, as ``tools/ab_latency.py`` loads them, and each argv
runs on both in turn; their exit codes, stdout and stderr must agree.  The
script prints the counts and every argv that differs, with both trees'
stderr where that differs, and exits 1 if any does; an exception out of
``cli.run`` stops it, naming the tree and the argv.  Standard library only.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))  # for ab_latency, however loaded
from ab_latency import NAMES, load_tree, requests_of, run_cli  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
FORMATS = ("table", "csv", "json")
ORACLE_KMAX = 20


def differences(parent_src: str, change_src: str, argvs: list[list[str]]) -> list[tuple]:
    """(argv, parent's result, change's result) for each argv whose exit
    code, stdout or stderr differ between the trees, argv by argv, so only
    the differing results are kept."""
    trees = [load_tree(src, name) for src, name in zip((parent_src, change_src), NAMES)]
    results = ((argv, *(run_cli(tree, argv) for tree in trees)) for argv in argvs)
    return [(argv, a, b) for argv, a, b in results if a != b]


def compare(parent_src: str, change_src: str, argvs: list[list[str]]) -> list[list[str]]:
    """The argvs whose exit code, stdout or stderr differ between the trees."""
    return [argv for argv, _, _ in differences(parent_src, change_src, argvs)]


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


# The text of each spec file ``error_argvs`` writes, by file name.
ERROR_SPECS = {
    "e12.json": '{"type": "ellipsoid", "a": ["1", "2"]}',
    "all_infinite.json": '{"type": "ellipsoid", "a": ["inf", "inf"]}',
    "bad.json": '{"type": "ellipsoid", "a": ["1", "0.5"]}',
    "nines.json": '{"type": "polydisk", "a": [' + "9" * 5000 + "]}",
    "polydisk.json": '{"type": "polydisk", "a": ["1", "2"]}',
    "convex.json": '{"type": "convex", "generators": [["1", "0"], ["0", "2"]]}',
}


def error_argvs(spec_dir: str) -> list[list[str]]:
    """Requests that end in an error, on specs written into ``spec_dir``."""
    os.makedirs(spec_dir, exist_ok=True)
    path = {name: os.path.join(spec_dir, name) for name in (*ERROR_SPECS, "missing.json")}
    for name, text in ERROR_SPECS.items():
        Path(path[name]).write_text(text, encoding="utf-8")

    def every_subcommand(spec: str, k: str = "3") -> list[list[str]]:
        return [
            ["caps", "-d", spec, "-k", k], ["cube", "-d", spec], ["gromov", "-d", spec],
            ["obstruct", "--source", spec, "--target", spec, "-k", k],
            ["slope", "-d", spec, "-k", k], ["lagrangian-bound", "-d", spec],
        ]

    bad_k = [
        argv for k in ("0", "-3", "x") for argv in every_subcommand(path["e12.json"], k)
        if "-k" in argv
    ]
    failing = ("all_infinite.json", "bad.json", "nines.json", "missing.json")
    hulls = [["gromov", "-d", path[name]] for name in ("polydisk.json", "convex.json")]
    return bad_k + [a for name in failing for a in every_subcommand(path[name])] + hulls


def workload_argvs(seed: int, spec_dir: str) -> list[list[str]]:
    """Every CLI request of the three workloads, then each caps one with
    ``--oracle``."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    argvs = [
        request.argv
        for name in (workload["name"] for workload in benchmark["workloads"])
        for request in requests_of(name, seed, os.path.join(spec_dir, name))
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
        base += error_argvs(os.path.join(spec_dir, "errors"))
        unique = {tuple(a) for argv in base for a in _in_every_format(argv)}
        argvs = sorted(map(list, unique))
        differ = differences(parent_src, change_src, argvs)
    oracle = sum("--oracle" in a for a in argvs)
    print(f"{len(argvs)} argv ({oracle} with --oracle), {len(differ)} differ")
    for argv, (_, _, parent_err), (_, _, change_err) in differ:
        print("differs: " + " ".join(argv))
        if parent_err != change_err:
            print(f"  parent stderr: {parent_err!r}\n  change stderr: {change_err!r}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
