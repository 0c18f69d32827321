"""Offline benchmark of toricap: end-to-end metrics or, traced, per-layer ones.

Usage, from the root of a checkout:

    python3 bench/run.py --workload spectrum --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each request starts when the previous
one has finished.  A request is an in-process ``toricap.cli.run(argv)``
call, except ``product_capacities``, which only the library offers.  Every
answer is checked against values computed by ``reference.py`` before the
timed loop.  ``--trace 0`` reports the end-to-end metrics, each time taken
between two calibrations and reported at a reference machine speed (see
``calibration.py``); ``--trace 1`` reports the per-layer ones, as measured.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The program runs from ``src/`` on ``PYTHONPATH``, on its serial default
path: ``TORICAP_THREADS`` is removed here and in every child process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Optional

import calibration
import outputs
import reference
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

DEADLINE_S = 10  # per request, in process and in a child
MIN_PASSES = 2
COLD_REQUESTS = 12  # CLI requests spread evenly over the workload's list
PROCESS_REPEATS = 5
SETUP_REPEATS = 3  # set-up children per pass

# Traced layers each workload must reach, and the ones predicted to take
# most of its self time.
EXERCISED = {
    "spectrum": ["specfile.load", "capacities.closed_form", "capacities.product",
                 "capacities.sequence", "embeddings", "rationals.decimal",
                 "rationals.format", "cli"],
    "lattice_sweep": ["specfile.load", "capacities.convex", "capacities.concave",
                      "capacities.sequence", "rationals.decimal", "cli"],
    "single_query": ["specfile.load", "domains.diagonal", "embeddings",
                     "capacities.convex", "capacities.concave", "cli"],
}
PREDICTED = {
    "spectrum": ["capacities.closed_form", "capacities.product", "rationals.decimal",
                 "rationals.format", "cli"],
    "lattice_sweep": ["capacities.convex", "capacities.concave"],
    "single_query": ["domains.diagonal", "capacities.convex", "capacities.concave"],
}


class DeadlineExceeded(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds: float):
    def expire(signum, frame):
        raise DeadlineExceeded(f"over the {seconds} s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "TORICAP_THREADS"}
    env["PYTHONPATH"] = SRC
    return env


def spawn(args: list[str]) -> tuple[Optional[int], bytes, float, int]:
    """Run a fresh interpreter: (exit code or None on timeout, stdout,
    wall seconds, peak RSS in KiB)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=child_env(), cwd=ROOT)
    try:
        with deadline(DEADLINE_S):
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        code: Optional[int] = os.waitstatus_to_exitcode(status)
    except DeadlineExceeded:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        out, code = b"", None
    finally:
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return code, out, perf_counter() - start, usage.ru_maxrss


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for folder in (os.path.join(SRC, "toricap"), os.path.dirname(os.path.abspath(__file__))):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(name.encode() + handle.read())
    return digest.hexdigest()


class Runner:
    """Executes requests in process and checks every answer."""

    def __init__(self, requests) -> None:
        import toricap.cli

        self.toricap = sys.modules["toricap"]
        self.cli = toricap.cli
        self.requests = requests
        self.verified: dict[int, bytes] = {}  # request index -> digest of a checked answer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0  # exit code 0 but a wrong answer
        self.failures: dict[str, str] = {}
        self.output_bytes = 0

    def _call(self, request) -> tuple[int, object]:
        # names are looked up on each call, so a traced pass sees its wrappers
        if request.argv is None:
            left, right = (self.toricap.load_domain(p) for p in request.paths)
            seqs = [self.toricap.capacity_sequence(d, request.kmax) for d in (left, right)]
            return 0, self.toricap.product_capacities(*seqs, request.kmax).raw_values()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.run(request.argv)
        return code, out.getvalue()

    def execute(self, index: int) -> float:
        """Run one request in process and check it; returns its latency."""
        self.attempted += 1
        start = perf_counter()
        try:
            with deadline(DEADLINE_S):
                code, answer = self._call(self.requests[index])
        except DeadlineExceeded as exc:
            self._fail(index, str(exc), wrong=False)
            return perf_counter() - start
        latency = perf_counter() - start
        self.judge(index, code, answer)
        return latency

    def execute_cold(self, index: int) -> tuple[float, int]:
        """Run one CLI request in a fresh process; (seconds, peak RSS KiB)."""
        self.attempted += 1
        code, out, seconds, rss = spawn(["-m", "toricap.cli", *self.requests[index].argv])
        if code is None:
            self._fail(index, f"over the {DEADLINE_S} s deadline", wrong=False)
        else:
            self.judge(index, code, out.decode())
        return seconds, rss

    def judge(self, index: int, code: int, answer) -> None:
        """Check an answer; a repeat of an answer already checked is accepted
        by its digest."""
        request = self.requests[index]
        if request.argv is None:
            problem = outputs.check_values(request, answer)
        else:
            self.output_bytes += len(answer.encode())
            digest = hashlib.sha256(f"{code}\n{answer}".encode()).digest()
            if self.verified.get(index) == digest:
                return
            problem = outputs.check_cli(request, code, answer)
            if problem is None:
                self.verified[index] = digest
        if problem is not None:
            self._fail(index, problem, wrong=code == 0)

    def _fail(self, index: int, problem: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        self.failures.setdefault(self.requests[index].name, problem)

    def run_pass(self) -> list[float]:
        return [self.execute(i) for i in range(len(self.requests))]


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q a multiple of 5)."""
    return statistics.quantiles(values, n=20, method="inclusive")[q // 5 - 1]


def oracle_spot_check(requests) -> None:
    """The reference must agree with the program's own oracle where that is cheap."""
    import toricap

    for request in requests:
        for spec in request.specs:
            domain = toricap.parse_domain(json.dumps(spec))
            wanted = reference.capacities(spec, 2)
            got = [toricap.brute_capacity(domain, k) for k in (1, 2)]
            if got != wanted:
                raise SystemExit(f"bench: reference disagrees with brute_capacity on {spec}")


def setup_seconds(paths: list[str]) -> float:
    """Wall time of a fresh interpreter importing toricap and loading the specs."""
    script = "import sys, toricap\nfor p in sys.argv[1:]:\n    toricap.load_domain(p)"
    code, _, seconds, _ = spawn(["-c", script, *paths])
    if code != 0:
        raise SystemExit("bench: the set-up child failed")
    return seconds


def process_layer() -> dict:
    """Interpreter start-up and ``import toricap``, each in fresh processes."""
    starts, imports = [], []
    script = "import time\nt = time.perf_counter()\nimport toricap\nprint(time.perf_counter() - t)"
    for _ in range(PROCESS_REPEATS):
        starts.append(spawn(["-c", "pass"])[2])
        code, out, _, _ = spawn(["-c", script])
        if code != 0:
            raise SystemExit("bench: importing toricap failed in a child")
        imports.append(float(out))
    return {
        "process.interpreter_ms": (statistics.median(starts) * 1e3, "ms"),
        "process.import_ms": (statistics.median(imports) * 1e3, "ms"),
    }


def calibrated_pass(runner: Runner) -> list[tuple[float, float]]:
    """One pass over the workload, each request between two calibration
    blocks: per request (seconds at the reference speed, seconds as
    measured)."""
    times = []
    before = calibration.block()
    for index in range(len(runner.requests)):
        seconds = runner.execute(index)
        after = calibration.block()
        times.append((seconds * calibration.scale(before, after, calibration.BLOCK_S), seconds))
        before = after
    return times


def bare_start() -> float:
    """Seconds a fresh interpreter takes to start and exit, doing nothing."""
    return spawn(["-c", "pass"])[2]


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict, dict]:
    """Whole passes over the workload in process until ``seconds`` have
    passed, each pass followed by a few set-ups and the cold requests, each
    in a fresh process.

    Every time is taken between two calibrations and reported at the
    reference speed (see ``calibration.py``): a request between two blocks
    of work in this process, a child process between two bare interpreter
    starts.  The latency percentiles are taken over the requests' medians
    over passes; throughput (requests per second of request time, the blocks
    left out) is the median over passes.  The fresh-process measurements are
    spread over the run.  Also returns the same summary as measured, without
    the speed correction.
    """
    paths = sorted({p for r in runner.requests for p in r.paths})
    cli_requests = [i for i, r in enumerate(runner.requests) if r.argv is not None]
    cold_subset = cli_requests[:: len(cli_requests) // COLD_REQUESTS][:COLD_REQUESTS]
    passes: list[list[tuple[float, float]]] = []
    setup: list[tuple[float, float]] = []
    cold: list[tuple[float, float]] = []
    rss: list[int] = []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(calibrated_pass(runner))
        # each child process runs between two bare interpreter starts
        before = bare_start()
        for index in [None] * SETUP_REPEATS + cold_subset:
            if index is None:
                wall = setup_seconds(paths)
            else:
                wall, peak = runner.execute_cold(index)
                rss.append(peak)
            after = bare_start()
            times = setup if index is None else cold
            times.append((wall * calibration.scale(before, after, calibration.START_S), wall))
            before = after

    def summary(which: int) -> dict:
        # each request's median over the passes, then percentiles over requests
        typical = [statistics.median(p[i][which] for p in passes) for i in range(len(passes[0]))]
        return {
            "setup_s": statistics.median(t[which] for t in setup),
            "request_p50_ms": quantile(typical, 50) * 1e3,
            "request_p90_ms": quantile(typical, 90) * 1e3,
            "throughput_rps": statistics.median(len(p) / sum(t[which] for t in p) for p in passes),
            "cli_cold_p50_ms": statistics.median(t[which] for t in cold) * 1e3,
        }

    units = {"setup_s": "s", "request_p50_ms": "ms", "request_p90_ms": "ms",
             "throughput_rps": "1/s", "cli_cold_p50_ms": "ms"}
    metrics = {name: (value, units[name]) for name, value in summary(0).items()}
    metrics["peak_rss_mb"] = (max(rss) / 1024, "MB")
    measured = summary(1)
    per_pass = f"{len(passes)} passes x {len(runner.requests)}"
    samples = {"setup_s": len(setup), "request_p50_ms": per_pass, "request_p90_ms": per_pass,
               "throughput_rps": per_pass, "cli_cold_p50_ms": len(cold), "peak_rss_mb": len(rss)}
    return metrics, samples, measured


def per_layer(runner: Runner, workload: str, seconds: float, work_dir: str) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; the layers come from the traced ones."""
    untraced: list[float] = []
    passes: list[dict] = []
    cli_rows = sum(r.rows for r in runner.requests if r.argv is not None)
    start = perf_counter()
    while len(passes) < 2 or perf_counter() - start < seconds:
        untraced.append(sum(runner.run_pass()))
        tracer = tracing.Tracer()
        before = runner.output_bytes
        total = 0.0
        with tracing.traced(tracer):
            for index in range(len(runner.requests)):
                tracer.request = index
                total += runner.execute(index)
        inclusive, own, calls = tracer.layer_times()
        counts = dict(tracer.counts)
        counts["cli.rows"] = cli_rows
        counts["cli.output_bytes"] = runner.output_bytes - before
        passes.append({"total": total, "inclusive": inclusive, "self": own,
                       "calls": calls, "counts": counts})
    tracer.write(os.path.join(work_dir, "spans.jsonl"))  # the last traced pass

    counts = passes[0]["counts"]
    if any(p["counts"] != counts for p in passes):
        raise SystemExit("bench: computed counts differ between passes of one seed")
    calls = passes[0]["calls"]
    idle = [layer for layer in EXERCISED[workload] if not calls[layer]]
    if idle:
        raise SystemExit(f"bench: traced layers recorded no calls on {workload}: {idle}")

    def ms(kind: str, layer: str) -> float:
        return statistics.median(p[kind].get(layer, 0.0) for p in passes) * 1e3

    traced_total = statistics.median(p["total"] for p in passes)
    predicted = statistics.median(
        sum(p["self"].get(layer, 0.0) for layer in PREDICTED[workload]) / p["total"]
        for p in passes)
    metrics = {
        "specfile.load_ms": (ms("inclusive", "specfile.load"), "ms"),
        "capacities.closed_form_ms": (ms("self", "capacities.closed_form"), "ms"),
        "capacities.product_ms": (ms("self", "capacities.product"), "ms"),
        "capacities.sequence_self_ms": (ms("self", "capacities.sequence"), "ms"),
        "capacities.convex_ms": (ms("self", "capacities.convex"), "ms"),
        "capacities.concave_ms": (ms("self", "capacities.concave"), "ms"),
        "domains.diagonal_ms": (ms("self", "domains.diagonal"), "ms"),
        "embeddings.self_ms": (ms("self", "embeddings"), "ms"),
        "rationals.decimal_ms": (ms("self", "rationals.decimal"), "ms"),
        "rationals.format_ms": (ms("self", "rationals.format"), "ms"),
        "cli.self_ms": (ms("self", "cli"), "ms"),
        "bench.trace_overhead_pct": ((traced_total / statistics.median(untraced) - 1) * 100, "%"),
        "bench.predicted_share_pct": (predicted * 100, "%"),
    }
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    metrics.update(process_layer())
    remember_counts(work_dir, counts)
    notes = {"traced passes": len(passes), "untraced passes": len(untraced),
             "seconds per pass": f"{traced_total:.4f} traced, {statistics.median(untraced):.4f} untraced",
             "prediction": "holds" if predicted > 0.5 else "FAILS",
             "predicted layers": ", ".join(PREDICTED[workload])}
    return metrics, notes


COUNTS = [
    "specfile.calls", "specfile.bytes", "capacities.closed_form_values",
    "capacities.product_pairs", "capacities.convex_calls", "capacities.convex_space",
    "capacities.concave_calls", "capacities.concave_space", "domains.diagonal_calls",
    "domains.diagonal_systems", "rationals.decimal_calls", "cli.rows", "cli.output_bytes",
]


def remember_counts(work_dir: str, counts: dict) -> None:
    """Fail if an earlier run of this seed on the same sources counted otherwise."""
    path = os.path.join(work_dir, "counts.json")
    record = {"sources": source_digest(), "counts": {k: counts.get(k, 0) for k in COUNTS}}
    try:
        with open(path, encoding="utf-8") as handle:
            earlier = json.load(handle)
    except (OSError, ValueError):
        earlier = None
    if earlier and earlier["sources"] == record["sources"] and earlier["counts"] != record["counts"]:
        raise SystemExit("bench: computed counts differ from an earlier run of this seed")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)


def declared_metrics(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "toricap", "__init__.py")):
        print(f"bench: no toricap sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("TORICAP_THREADS", None)
    sys.path.insert(0, SRC)
    import toricap

    if not os.path.abspath(toricap.__file__).startswith(SRC + os.sep):
        print(f"bench: imported toricap from {toricap.__file__}, not {SRC}", file=sys.stderr)
        return 2

    work_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    prepared = perf_counter()
    requests = workloads.build(args.workload, args.seed, os.path.join(work_dir, "specs"))
    oracle_spot_check(requests)
    prepared = perf_counter() - prepared

    runner = Runner(requests)
    spawn(["-c", "import toricap"])  # writes the bytecode caches before timing
    if args.trace:
        metrics, notes = per_layer(runner, args.workload, args.seconds, work_dir)
        samples: dict = {}
    else:
        metrics, samples, measured = end_to_end(runner, args.seconds)
        notes = {"speed": "times at the reference speed; as measured: " + ", ".join(
            f"{name} {value:.6g}" for name, value in measured.items())}
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if declared != {name: unit for name, (_, unit) in metrics.items()}:
        print("bench: the metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1

    print(f"toricap bench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} nproc={os.cpu_count()} commit={git_commit()}")
    print(f"requests: {len(requests)} per pass, {runner.attempted} attempted, "
          f"expected values prepared in {prepared:.1f} s")
    for key, value in notes.items():
        print(f"{key}: {value}")
    print(f"{'metric':32} {'value':>14} {'unit':8} samples")
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:14.6g} {unit:8} {samples.get(name, '')}")
    share = runner.failed / runner.attempted
    print(f"{'failed_share':32} {share:14.6g} {'fraction':8} {runner.attempted}")
    for name, problem in runner.failures.items():
        print(f"failed: {name}: {problem}")
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
