"""The benchmark's traced run still sees every layer it needs.

``bench/tracing.py`` rebinds the public functions of toricap's modules to
timing wrappers, so a call the program makes through a reference it took
at import time (a dict of function objects, say) bypasses it, and
``bench/run.py --trace 1`` stops with "traced layers recorded no calls".
This test runs, under the tracer, the cheapest request of each command and
domain kind of every workload and checks that each layer the benchmark
requires (``run.EXERCISED``) records calls.  The bench modules are only
imported, never changed.  The tracer wraps functions of the modules already
imported, and the CLI imports ``capacities`` only when a request needs it,
so one untraced pass runs first, as ``run.per_layer`` runs its passes.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    pytest.importorskip("sympy")  # bench/reference.py solves the diagonal with it
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    return {name: importlib.import_module(name) for name in ("run", "tracing", "workloads")}


def _cheapest_per_kind(slots):
    """The slot with the smallest K for each (command, domain kind)."""
    chosen = {}
    for slot in slots:
        key = slot[:2]
        if key not in chosen or slot[4] < chosen[key][4]:
            chosen[key] = slot
    return list(chosen.values())


@pytest.mark.parametrize("workload", ["spectrum", "lattice_sweep", "single_query"])
def test_traced_requests_reach_every_exercised_layer(bench, workload, tmp_path, monkeypatch):
    run, tracing, workloads = bench["run"], bench["tracing"], bench["workloads"]
    slots = _cheapest_per_kind(workloads.WORKLOADS[workload]())
    monkeypatch.setitem(workloads.WORKLOADS, workload, lambda: slots)
    requests = workloads.build(workload, 1, str(tmp_path))
    runner = run.Runner(requests)
    runner.run_pass()  # untraced: imports every module the requests use
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        for index in range(len(requests)):
            tracer.request = index
            runner.execute(index)
    assert runner.failures == {}
    _, _, calls = tracer.layer_times()
    assert [layer for layer in run.EXERCISED[workload] if not calls[layer]] == []
