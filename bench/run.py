"""End-to-end benchmark of the `scrolls` command line.

    python3 bench/run.py --workload {sweep,query,witness} --seed N \\
        --seconds S --trace {0,1}

Runs the CLI of the checkout this file sits in (`python -m
incidence_scrolls.cli` with its src/ on PYTHONPATH), one fresh process at a
time: a closed loop with one client.  Inputs are drawn from --seed out of the
fixed pool in bench/refs.json, and every answer is checked against the
reference values stored there.  The loop runs whole passes until --seconds
have gone by.

With --trace 0 it reports the end-to-end metrics.  With --trace 1 each call
runs twice back to back, plain and under bench/tracer.py (again one fresh
interpreter per invocation, so the engine's in-process memo behaves as for
users), and it reports per-layer counts and times per pass plus the tracing
overhead.

Stdout carries a JSON report (provenance, every metric with its unit and
sample count, and the extra figures that are not gated) and, as its last
line, the summary {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(HERE, "tracer.py")
REFERENCE = os.path.join(HERE, "reference.py")

# Each workload stresses different layers; see BENCHMARK.json for the why.
WORKLOADS = ("sweep", "query", "witness")
# Invocation times are gated in units of the reference job ("ref": its time
# on the same host at the same moment, see bench/reference.py), because the
# shared host's speed drifts; the seconds are reported beside them.  Set-up
# time is normalized the same way and given in seconds on a host where the
# reference job takes REFERENCE_S.
END_TO_END = {"setup_s": "s", "latency_p50_ref": "ref", "bases_per_ref": "1/ref",
              "output_mb": "MB", "peak_rss_mb": "MB"}
PER_LAYER = {
    "grassmann.product_of_specials.calls": "count",
    "grassmann.product_of_specials.self_s": "s",
    "grassmann.product_of_specials.distinct_ratio": "ratio",
    "grassmann.intersection_number.calls": "count",
    "grassmann.intersection_number.self_s": "s",
    "invariants.directrix_degree.calls": "count",
    "invariants.directrix_degree.incl_s": "s",
    "invariants.kappa.calls": "count",
    "invariants.kappa.incl_s": "s",
    "invariants.degree.calls": "count",
    "invariants.degree.incl_s": "s",
    "invariants.classify.calls": "count",
    "invariants.classify.incl_s": "s",
    "invariants.classify.self_s": "s",
    "invariants.degeneration_tree.calls": "count",
    "invariants.degeneration_tree.self_s": "s",
    "invariants.degeneration_tree.distinct_ratio": "ratio",
    "bases.enumerate_bases.incl_s": "s",
    "bases.enumerate_bases.bases": "count",
    "bases.join.calls": "count",
    "bases.join.self_s": "s",
    "bases.restrict_to_span.calls": "count",
    "bases.restrict_to_span.self_s": "s",
    "closed_forms.table.calls": "count",
    "closed_forms.table.incl_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "B",
    "trace.overhead_s": "s",
}
REFERENCE_S = 0.3  # about the reference job's time on an idle 2-vCPU x86-64 host
PROBE_EVERY_S = 2.0  # a set-up and a reference probe at most this often
MIN_PROBES = 15
CALL_TIMEOUT_S = 120


@dataclass
class Call:
    """One CLI invocation of a pass and the check of its stdout."""

    argv: list[str]
    check: Callable[[str], str | None]  # None, or what was wrong
    bases: int  # bases it classifies
    entry: tuple[str, ...] = ("-m", "incidence_scrolls.cli")


def _no_check(text: str) -> None:
    return None


# interpreter start, package import and parser build, and no work
SETUP_CALL = Call(["--help"], _no_check, 0)
REFERENCE_CALL = Call([], _no_check, 0, entry=(REFERENCE,))


@dataclass
class Outcome:
    start: float
    wall: float
    nbytes: int
    rss_mb: float
    error: str | None
    trace: dict | None


def spawn(call: Call, traced: bool) -> Outcome:
    """Run one invocation in a fresh interpreter, drain stdout, reap it."""
    cmd = [sys.executable, *((TRACER,) if traced else call.entry), *call.argv]
    env = dict(os.environ, PYTHONPATH=SRC)
    read_fd = write_fd = None
    if traced:
        read_fd, write_fd = os.pipe()
        env["BENCH_TRACE_FD"] = str(write_fd)
    killed = threading.Event()
    chunks = []
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            pass_fds=(write_fd,) if traced else ())
    timer = threading.Timer(CALL_TIMEOUT_S, lambda: (killed.set(), proc.kill()))
    timer.start()
    try:
        if traced:
            os.close(write_fd)
        while chunk := proc.stdout.read1(1 << 20):
            chunks.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    out = b"".join(chunks)
    trace = None
    if traced:
        with os.fdopen(read_fd) as pipe:
            try:
                trace = json.loads(pipe.read())
            except ValueError:  # the child died before it wrote its report
                pass
    if killed.is_set():
        error = f"timeout after {CALL_TIMEOUT_S} s"
    elif proc.returncode != 0:
        error = f"exit code {proc.returncode}"
    elif traced and trace is None:
        error = "tracer wrote no report"
    else:
        try:
            error = call.check(out.decode())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            error = f"unreadable output: {exc!r}"
    if error:
        error = f"{' '.join(call.argv)}: {error}"
    return Outcome(start, wall, len(out), usage.ru_maxrss * 1024 / 1e6, error, trace)


# --- checks against bench/refs.json ---------------------------------------

def _directrix(text: str) -> list[list[int]]:
    """"C^3_0 in P^1; C^9_8 in P^3" -> [[1, 3, 0], [3, 9, 8]]."""
    return [[int(a), int(d), int(g)]
            for d, g, a in re.findall(r"C\^(\d+)_(\d+) in P\^(\d+)", text)]


def _mismatch(key: str, got: dict, refs: dict) -> str | None:
    want = refs["bases"][key]
    return None if got == want else f"{key}: got {got}, want {want}"


def _fields(span, degree, genus, h1, directrix) -> dict:
    return {"span": int(span), "degree": int(degree), "genus": int(genus),
            "h1": int(h1), "directrix": directrix}


def check_rows(keys: list[str], refs: dict):
    def check(text: str) -> str | None:
        rows = json.loads(text)
        if [row["base"] for row in rows] != keys:
            return f"listed {len(rows)} bases, not the {len(keys)} expected"
        for row in rows:
            got = _fields(row["span"], row["degree"], row["genus"], row["h1"],
                          _directrix(row["directrix"]))
            if problem := _mismatch(row["base"], got, refs):
                return problem
        return None
    return check


def _report_fields(text: str) -> dict:
    """Top-level fields of an `analyze --format json` report.

    Only the part before the witness is parsed when the witness is the
    trailing "tree" key, so its size and format do not matter.
    """
    cut = text.find('\n  "tree":')
    if cut >= 0:
        try:
            return json.loads(text[:cut].rstrip().rstrip(",") + "\n}")
        except ValueError:
            pass
    return json.loads(text)


def check_analyze(key: str, fmt: str, refs: dict):
    def check(text: str) -> str | None:
        if fmt == "json":
            doc = _report_fields(text)
            base = f"n={doc['ambient']} dims={','.join(map(str, doc['dims']))}"
            directrix = [[t["space_dim"], t["curve_degree"], t["curve_genus"]]
                         for t in doc["directrix"]]
            got = _fields(doc["span"], doc["degree"], doc["genus"], doc["h1"],
                          directrix)
        else:
            # text: a header line and one row, columns aligned under it
            header, row = text.split("\n", 2)[:2]
            starts = [m.start() for m in re.finditer(r"\S+", header)] + [None]
            cells = {name: row[a:b].strip() for name, a, b in
                     zip(header.split(), starts, starts[1:])}
            base = cells["base"]
            got = _fields(cells["span"], cells["degree"], cells["genus"],
                          cells["h1"], _directrix(cells["directrix"]))
        if base != key:
            return f"answered for {base}"
        return _mismatch(key, got, refs)
    return check


def check_table(want: list[dict]):
    def check(text: str) -> str | None:
        rows = json.loads(text)
        if [row["base"] for row in rows] != [w["base"] for w in want]:
            return "table lists other bases"
        for row, ref in zip(rows, want):
            got = {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", row["engine"])}
            expected = {k: v for k, v in ref.items() if k != "base" and v is not None}
            if got != expected:
                return f"{ref['base']}: got {got}, want {expected}"
        return None
    return check


def check_product(ref: dict):
    def check(text: str) -> str | None:
        doc = json.loads(text)
        if doc["grassmann"] != [1, ref["n"]] or doc["product"] != ref["product"]:
            return f"got {doc}, want {ref['product']}"
        return None
    return check


def analyze_call(key: str, fmt: str, tree: bool, refs: dict) -> Call:
    n, dims = re.fullmatch(r"n=(\d+) dims=([\d,]+)", key).groups()
    argv = ["analyze", "-n", n, "--base", dims, "--format", fmt]
    return Call(argv + ["--tree"] * tree, check_analyze(key, fmt, refs), 1)


# --- workloads -------------------------------------------------------------

def make_pass(workload: str, rng: random.Random, refs: dict) -> list[Call]:
    """The invocations of one pass, in the order they run."""
    if workload == "sweep":
        keys = refs["sweep"]["bases"]
        argv = ["enumerate", "-n", str(refs["sweep"]["n"]), "--force",
                "--format", "json"]
        return [Call(argv, check_rows(keys, refs), len(keys))]
    if workload == "query":
        # 20 requests: 14 analyze (two per n = 14..20), each table once and
        # three products.  Stratifying keeps every pass the same mix, so
        # seeds differ in the bases drawn but not in the kind of work.
        calls = [analyze_call(key, "json", False, refs)
                 for keys in refs["pool"].values() for key in rng.sample(keys, 2)]
        for table_id, rows in refs["tables"].items():
            calls.append(Call(["table", "--id", table_id, "--format", "json"],
                              check_table(rows), len(rows)))
        for ref in rng.sample(refs["products"], 3):
            argv = ["product", "--grassmann", f"1,{ref['n']}",
                    "--specials", ",".join(map(str, ref["specials"])),
                    "--format", "json"]
            calls.append(Call(argv, check_product(ref), 0))
        rng.shuffle(calls)
        return calls
    if workload == "witness":
        keys = refs["witness"]
        calls = [analyze_call(keys[0], "json", True, refs),
                 analyze_call(keys[1], "json", True, refs),
                 analyze_call(keys[2], "text", True, refs)]
        rng.shuffle(calls)
        return calls
    raise ValueError(f"unknown workload {workload!r}")


# --- measurement -----------------------------------------------------------

@dataclass
class Run:
    setup: list[Outcome] = field(default_factory=list)
    reference: list[Outcome] = field(default_factory=list)
    last_probe: float = float("-inf")
    calls: list[tuple[Call, Outcome]] = field(default_factory=list)
    passes: list[float] = field(default_factory=list)  # wall time of plain passes
    traced_passes: list[float] = field(default_factory=list)
    traced: list[tuple[Call, Outcome]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)  # of workload invocations
    probe_errors: list[str] = field(default_factory=list)

    def probe(self) -> None:
        for call, outcomes in ((SETUP_CALL, self.setup),
                               (REFERENCE_CALL, self.reference)):
            outcome = spawn(call, False)
            if outcome.error:
                self.probe_errors.append(outcome.error)
            outcomes.append(outcome)
        self.last_probe = time.perf_counter()

    def invoke(self, call: Call, traced: bool) -> float:
        outcome = spawn(call, traced)
        if outcome.error:
            self.errors.append(outcome.error)
        (self.traced if traced else self.calls).append((call, outcome))
        return outcome.wall

    def run_pass(self, calls: list[Call], trace: bool) -> None:
        plain = traced = 0.0
        for call in calls:
            if trace:
                # plain and traced back to back, alternating which goes first,
                # so a drift of the host's speed falls on both alike
                first = len(self.traced) % 2 == 1
                walls = {t: self.invoke(call, t) for t in (first, not first)}
                plain += walls[False]
                traced += walls[True]
            else:
                # probes spread evenly in time see the same host as the workload
                if time.perf_counter() - self.last_probe >= PROBE_EVERY_S:
                    self.probe()
                plain += self.invoke(call, False)
        self.passes.append(plain)
        if trace:
            self.traced_passes.append(traced)

    @property
    def attempted(self) -> int:
        return len(self.calls) + len(self.traced)


def measure(workload: str, seed: int, seconds: int, trace: bool, refs: dict) -> Run:
    rng = random.Random(seed)
    run = Run()
    # Untimed warm-up: byte-compiles the package once, as an install would.
    spawn(SETUP_CALL, False)
    deadline = time.perf_counter() + seconds
    while True:
        run.run_pass(make_pass(workload, rng, refs), trace)
        if time.perf_counter() >= deadline:
            break
    if not trace:
        run.probe()  # so the last invocations have a probe after them too
        while len(run.setup) < MIN_PROBES:
            run.probe()
    return run


def reference_around(run: Run, start: float) -> float:
    """Mean time of the reference probes just before and just after `start`."""
    before = [r.wall for r in run.reference if r.start < start][-1:]
    after = [r.wall for r in run.reference if r.start > start][:1]
    return statistics.mean(before + after)


def end_to_end(run: Run) -> tuple[dict, dict]:
    """Gated metrics, and the ungated figures in seconds beside them.

    Each invocation's and set-up probe's time is divided by the reference
    probes that bracket it, which removes the host's drift.
    """
    walls = sorted(o.wall for _, o in run.calls)
    n = len(walls)
    in_ref = [o.wall / reference_around(run, o.start) for _, o in run.calls]
    setup_ref = [o.wall / reference_around(run, o.start) for o in run.setup]
    bases = sum(c.bases for c, o in run.calls if not o.error)
    gated = {
        "setup_s": (statistics.median(setup_ref) * REFERENCE_S, len(run.setup)),
        "latency_p50_ref": (statistics.median(in_ref), n),
        "bases_per_ref": (bases / sum(in_ref), n),
        "output_mb": (sum(o.nbytes for _, o in run.calls) / len(run.passes) / 1e6,
                      len(run.passes)),
        "peak_rss_mb": (max(o.rss_mb for _, o in run.calls), n),
    }
    seconds = {
        "reference_s": _figure(statistics.median(r.wall for r in run.reference), "s",
                               len(run.reference)),
        "setup_raw_s": _figure(statistics.median(o.wall for o in run.setup), "s",
                               len(run.setup)),
        "latency_p50_s": _figure(statistics.median(walls), "s", n),
        "bases_per_s": _figure(bases / sum(walls), "1/s", n),
    }
    if n > 10:  # the highest percentile with ten samples beyond it
        seconds["latency_tail_s"] = dict(_figure(walls[-11], "s", n),
                                         percentile=round(100 * (n - 10) / n, 1))
    return gated, seconds


def _figure(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def per_layer(run: Run) -> tuple[dict, dict, list[str]]:
    totals: dict[str, dict[str, float]] = {}
    absent: set[str] = set()
    for _, outcome in run.traced:
        if outcome.trace is None:
            continue
        absent.update(outcome.trace["absent"])
        for name, layer in outcome.trace["layers"].items():
            total = totals.setdefault(name, dict.fromkeys(layer, 0))
            for field, value in layer.items():
                total[field] += value
    npasses = len(run.traced_passes)
    values = {}
    for name in PER_LAYER:
        layer_name, field = name.rsplit(".", 1)
        total = totals.get(layer_name)
        if name == "cli.output_bytes":
            value = sum(o.nbytes for _, o in run.traced) / npasses
        elif name == "trace.overhead_s":
            value = statistics.median(t - p for t, p in
                                      zip(run.traced_passes, run.passes))
        elif total is None:
            value = 0  # the function no longer exists, or was never called
        elif field == "distinct_ratio":
            value = total["distinct"] / total["keyed"] if total["keyed"] else 0
        elif field == "bases":
            value = total["items"] / npasses
        else:
            value = total[field] / npasses
        values[name] = (value, npasses)
    walls = {"trace.pass_wall_s": _figure(statistics.median(run.traced_passes), "s",
                                          npasses),
             "plain.pass_wall_s": _figure(statistics.median(run.passes), "s",
                                          len(run.passes))}
    return values, walls, sorted(absent)


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    try:
        # the ceiling keeps git from reading a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                text=True, capture_output=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # not a git checkout
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "incidence_scrolls", "cli.py")):
        print(f"error: no incidence_scrolls package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "refs.json")) as f:
        refs = json.load(f)

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace), refs)
    if args.trace:
        values, extra, absent = per_layer(run)
        units = PER_LAYER
    else:
        (values, extra), absent = end_to_end(run), []
        units = END_TO_END
    metrics = {name: _figure(v, units[name], n) for name, (v, n) in values.items()}
    failed = len(run.errors)
    extra["failed_ratio"] = _figure(failed / run.attempted, "ratio", run.attempted)
    report = {"provenance": provenance(args.workload, args.seed, args.seconds,
                                       bool(args.trace)),
              "samples": {"setup": len(run.setup), "reference": len(run.reference),
                          "invocations": len(run.calls),
                          "traced_invocations": len(run.traced),
                          "passes": len(run.passes),
                          "traced_passes": len(run.traced_passes)},
              "metrics": metrics, "extra": extra, "absent": absent,
              "errors": run.errors[:20], "probe_errors": run.probe_errors[:20]}
    print(json.dumps(report, indent=1))
    correct = failed == 0 and not run.probe_errors
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": failed,
                      "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                                  for name, m in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
