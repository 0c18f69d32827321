"""Compare the request latency of two source trees of toricap, interleaved.

    python3 tools/ab_latency.py PARENT_SRC CHANGE_SRC WORKLOAD SEED

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding a
``toricap`` package.  Both are loaded into this one process, under the
package names ``toricap_parent`` and ``toricap_change``, and run the
requests of one benchmark workload at SEED, read from
``bench/workloads.build`` (the bench files are only read): a CLI request
through ``cli.run``, a library ``product`` request through
``load_domain``, ``capacity_sequence`` and ``product_capacities``, as
``bench/run.py`` runs them.  ``tools/same_output.py`` runs trees the same way.

Every request first runs once on each tree, and their outputs (exit code,
stdout and stderr, or the product's values) must be identical; the script
lists any that differ and exits 1.  Then each request runs REPEATS times
on each tree, the trees alternating request by request and taking turns
to go first, so a drift in the machine's speed falls on both alike.  For
each tree the script prints the p50 and p90 over requests of each
request's median time, the sum of those medians, and that sum per command
and domain kind, each with the change's ratio to the parent.  Standard
library only.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 21
NAMES = ("toricap_parent", "toricap_change")


def load_tree(src: str, name: str):
    """The ``toricap`` package of ``src``, imported as ``name`` with its
    submodules; its relative imports keep it apart from the other tree.
    Any ``name`` or ``name.*`` module loaded before is dropped first, so a
    name can be loaded again in one process."""
    for module in [m for m in sys.modules if m.split(".")[0] == name]:
        del sys.modules[module]
    path = Path(src) / "toricap"
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    importlib.import_module(f"{name}.cli")
    return package


def run_cli(package, argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one CLI request on one tree.  An
    exception out of ``cli.run`` is raised again naming the tree and argv."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = package.cli.run(argv)
    except Exception as exc:
        raise RuntimeError(f"{package.__name__} ({package.__path__[0]}) raised on {argv}") from exc
    return code, out.getvalue(), err.getvalue()


def call(package, request) -> object:
    """One request on one tree: ``run_cli`` of a CLI request, the
    product's values of a library one."""
    if request.argv is None:
        left, right = (package.load_domain(p) for p in request.paths)
        seqs = [package.capacity_sequence(d, request.kmax) for d in (left, right)]
        return package.product_capacities(*seqs, request.kmax).raw_values()
    return run_cli(package, request.argv)


def requests_of(workload: str, seed: int, spec_dir: str) -> list:
    """The workload's requests at ``seed``, their spec files written into
    ``spec_dir``."""
    sys.path.insert(0, str(ROOT / "bench"))
    sys.dont_write_bytecode = True  # leave bench/ as it is
    import workloads

    return workloads.build(workload, seed, spec_dir)


def differing(trees: tuple, requests: list) -> list[str]:
    """The names of the requests whose output differs between the trees."""
    return [r.name for r in requests if call(trees[0], r) != call(trees[1], r)]


def medians(trees: tuple, requests: list, repeats: int) -> tuple[list[float], list[float]]:
    """Each request's median seconds on each tree, the trees alternated
    request by request and taking turns to go first."""
    times = [[[] for _ in requests] for _ in trees]
    for rep in range(repeats):
        for i, request in enumerate(requests):
            for t in (0, 1) if (rep + i) % 2 else (1, 0):
                start = perf_counter()
                call(trees[t], request)
                times[t][i].append(perf_counter() - start)
    parent, change = ([statistics.median(ts) for ts in per] for per in times)
    return parent, change


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q a multiple of 5), as ``bench/run.py`` takes it."""
    return statistics.quantiles(values, n=20, method="inclusive")[q // 5 - 1]


def report(requests: list, parent: list[float], change: list[float]) -> str:
    """p50, p90 and sum of the per-request medians, then the sum per
    command and kind; milliseconds, with the change's ratio to the parent."""

    def line(label: str, a: float, b: float) -> str:
        return f"{label:<36} {a * 1e3:10.3f} {b * 1e3:10.3f} {b / a:8.3f}"

    lines = [f"{'':<36} {'parent ms':>10} {'change ms':>10} {'ratio':>8}"]
    lines += [line(f"p{q} of medians", quantile(parent, q), quantile(change, q)) for q in (50, 90)]
    lines.append(line("sum of medians", sum(parent), sum(change)))
    groups: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0])
    for request, a, b in zip(requests, parent, change):
        command, kind = request.name.split(":")[1:3]
        groups[f"{command} {kind}"][0] += a
        groups[f"{command} {kind}"][1] += b
    lines += [line(f"  {group}", a, b) for group, (a, b) in sorted(groups.items())]
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(
            "usage: python3 tools/ab_latency.py PARENT_SRC CHANGE_SRC WORKLOAD SEED",
            file=sys.stderr,
        )
        return 2
    trees = tuple(load_tree(src, name) for src, name in zip(argv[:2], NAMES))
    with tempfile.TemporaryDirectory() as spec_dir:
        requests = requests_of(argv[2], int(argv[3]), os.path.join(spec_dir, argv[2]))
        differ = differing(trees, requests)
        print(f"{len(requests)} requests, {len(differ)} differ")
        for name in differ:
            print(f"differs: {name}")
        if differ:
            return 1
        parent, change = medians(trees, requests, REPEATS)
    print(f"{REPEATS} alternated runs per request and tree")
    print(report(requests, parent, change))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
