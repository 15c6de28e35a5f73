"""The benchmark's own traffic, replayed through `cli.main` in process, and
its per-layer tracer run on the package.

`bench/run.py` is loaded as a module and only read: one pass of each of its
workloads is built as the benchmark builds it, and every call must exit 0 and
pass the check that the benchmark applies to its stdout.  A change that would
make the benchmark count wrong answers fails here first.  `bench/tracer.py`
must still find and count the engine's layers, so that a renamed function
cannot leave a per-layer metric reading 0.
"""

import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from incidence_scrolls.cli import main
from oracles import checkout_env

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name, file):
    spec = importlib.util.spec_from_file_location(name, BENCH / file)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


bench_run = load_bench("bench_run", "run.py")
bench_tracer = load_bench("bench_tracer", "tracer.py")
REFS = json.loads((BENCH / "refs.json").read_text())


def test_manifest_matches_the_harness():
    # BENCHMARK.json declares what bench/run.py measures, metric by metric
    manifest = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in manifest["workloads"]) == bench_run.WORKLOADS
    for section, units in [("end_to_end", bench_run.END_TO_END),
                           ("per_layer", bench_run.PER_LAYER)]:
        metrics = [(m["name"], m["unit"]) for m in manifest[section]]
        assert sorted(metrics) == sorted(units.items()), section
    # each per-layer metric is a traced function's, the cli's or the tracer's
    layers = {f"{module}.{name}" for module, name, *_ in bench_tracer.TARGETS}
    for metric in manifest["per_layer"]:
        assert metric["name"].rpartition(".")[0] in layers | {"cli", "trace"}, metric


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_one_pass_passes_the_benchmark_checks(workload):
    calls = bench_run.make_pass(workload, random.Random(0), REFS)
    assert calls
    for call in calls:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(call.argv)
        assert (code, call.check(out.getvalue())) == (0, None), call.argv


def test_tracer_counts_the_engine_layers():
    argv = ["enumerate", "-n", "5", "--format", "json"]
    untraced = io.StringIO()
    with redirect_stdout(untraced):
        assert main(argv) == 0
    read, write = os.pipe()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "tracer.py"), *argv], pass_fds=(write,),
            env=dict(checkout_env(), BENCH_TRACE_FD=str(write)),
            capture_output=True, text=True, timeout=120)
    finally:
        os.close(write)
    # the report of -n 5 is far smaller than a pipe's buffer
    with os.fdopen(read) as trace:
        text = trace.read()
    assert (proc.returncode, proc.stdout) == (0, untraced.getvalue()), proc.stderr
    report = json.loads(text)
    # intersection_number is the one known-dead target: the kernel has no
    # function of that name, and only a change to the benchmark may re-wrap
    # its layer onto the kernel that replaced it
    assert report["absent"] == ["grassmann.intersection_number"]
    layers = report["layers"]
    for name in ("invariants.kappa", "invariants.degree", "invariants.directrix_degree",
                 "invariants.degeneration_tree", "bases.join", "bases.restrict_to_span"):
        assert layers[name]["calls"] > 0, name
