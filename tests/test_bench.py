"""The benchmark's own traffic, replayed through `cli.main` in process.

`bench/run.py` is loaded as a module and only read: one pass of each of its
workloads is built as the benchmark builds it, and every call must exit 0 and
pass the check that the benchmark applies to its stdout.  A change that would
make the benchmark count wrong answers fails here first.
"""

import importlib.util
import io
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from incidence_scrolls.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up there
    spec.loader.exec_module(module)
    return module


bench_run = load_bench_run()
REFS = json.loads((BENCH / "refs.json").read_text())


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_one_pass_passes_the_benchmark_checks(workload):
    calls = bench_run.make_pass(workload, random.Random(0), REFS)
    assert calls
    for call in calls:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(call.argv)
        assert (code, call.check(out.getvalue())) == (0, None), call.argv
