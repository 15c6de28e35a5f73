"""Run the benchmark repeatedly and record how steady it is.

    python3 bench/baseline.py

Runs bench/run.py ten times per workload in each of two sets, each run with
its own seed and BENCHMARK.json's run_seconds, interleaving the workloads so
that a slow spell of the machine hits all of them.  For every end-to-end
metric it records the ten values, their median and quartiles, and the
spread (q3 - q1) / median next to the bound BENCHMARK.json sets, and how
far the second set's median moved from the first.  One traced run per
workload then gives the per-layer figures and checks which layer dominates
each workload.  The results, with their provenance, go to
bench/results/baseline.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "results", "baseline.json")
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           check=True).stdout.splitlines()
    report = json.loads("\n".join(lines[:-1]))
    report["summary"] = json.loads(lines[-1])
    label = f"{workload} seed={seed} trace={trace}"
    values = " ".join(f"{k}={v['value']:.4g}" for k, v in report["metrics"].items()
                      if not k.startswith(("bases.", "closed_forms.")))
    print(f"{label}: correct={report['summary']['correct']} {values}", flush=True)
    return report


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def worsening(metric: dict, before: float, after: float) -> float:
    """Share by which `after` is worse than `before`; negative when better."""
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def rankings(traced: dict[str, dict]) -> dict:
    """Which layer dominates each workload, from the traced runs."""
    def value(workload, name):
        return traced[workload]["metrics"][name]["value"]

    self_times = [n for n in traced["sweep"]["metrics"] if n.endswith(".self_s")
                  and not n.startswith("trace.")]
    out = {}
    sweep_top = max(self_times, key=lambda n: value("sweep", n))
    out["sweep: grassmann.product_of_specials.self_s is the largest self time"] = {
        "holds": sweep_top == "grassmann.product_of_specials.self_s",
        "largest": sweep_top,
        "share_of_classify": value("sweep", "grassmann.product_of_specials.self_s")
        / value("sweep", "invariants.classify.incl_s")}
    below_classify = ["invariants.kappa.incl_s", "invariants.directrix_degree.incl_s",
                      "invariants.degree.incl_s"]
    kappa_share = (value("query", "invariants.kappa.incl_s")
                   / value("query", "invariants.classify.incl_s"))
    out["query: invariants.kappa.incl_s dominates the compute"] = {
        "holds": kappa_share > 0.5 and max(
            below_classify, key=lambda n: value("query", n)) == below_classify[0],
        "share_of_classify": kappa_share}
    witness_top = max(self_times, key=lambda n: value("witness", n))
    out["witness: cli.self_s is the largest self time"] = {
        "holds": witness_top == "cli.self_s", "largest": witness_top,
        "share_of_pass": value("witness", "cli.self_s")
        / traced["witness"]["extra"]["trace.pass_wall_s"]["value"]}
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    for set_index in range(SETS):
        reports: dict[str, list[dict]] = {w: [] for w in workloads}
        for i in range(RUNS):
            seed = 1 + set_index * RUNS + i
            # rotate the order so no workload always follows the same one
            for workload in workloads[i % len(workloads):] + workloads[:i % len(workloads)]:
                reports[workload].append(run_once(workload, seed, seconds, 0))
        sets.append(reports)

    results: dict = {"provenance": {}, "bounds": {n: m["bound"] for n, m in e2e.items()},
                     "run_seconds": seconds, "sets": [], "drift": {},
                     "traced": {}, "rankings": {}}
    for reports in sets:
        summary = {}
        for workload, runs in reports.items():
            summary[workload] = {
                "seeds": [r["provenance"]["seed"] for r in runs],
                "correct": all(r["summary"]["correct"] for r in runs),
                "failed": sum(r["summary"]["failed"] for r in runs),
                "attempted": sum(r["summary"]["attempted"] for r in runs),
                "samples_per_run": [r["samples"] for r in runs],
                "metrics": {}}
            for name, metric in e2e.items():
                stats = spread([r["metrics"][name]["value"] for r in runs])
                stats["within_bound"] = stats["spread"] <= metric["bound"]
                stats["below_third_of_bound"] = stats["spread"] < metric["bound"] / 3
                summary[workload]["metrics"][name] = stats
            # the seconds behind the gated ratios, for comparison; not gated
            summary[workload]["seconds"] = {
                name: spread([r["extra"][name]["value"] for r in runs])
                for name in ("reference_s", "setup_raw_s", "latency_p50_s",
                             "bases_per_s")}
        results["sets"].append(summary)
    first, second = results["sets"]
    for workload in workloads:
        results["drift"][workload] = {}
        for name, metric in e2e.items():
            worse = worsening(metric, first[workload]["metrics"][name]["median"],
                              second[workload]["metrics"][name]["median"])
            results["drift"][workload][name] = {
                "worse_by": worse, "within_bound": worse <= metric["bound"]}

    traced = {w: run_once(w, 1, seconds, 1) for w in workloads}
    for workload, report in traced.items():
        results["traced"][workload] = {
            "correct": report["summary"]["correct"], "samples": report["samples"],
            "metrics": {n: m["value"] for n, m in report["metrics"].items()},
            "pass_wall_s": report["extra"]["trace.pass_wall_s"]["value"],
            "absent": report["absent"]}
    results["rankings"] = rankings(traced)

    first_run = sets[0][workloads[0]][0]["provenance"]
    results["provenance"] = {k: first_run[k] for k in
                             ("commit", "python", "nproc")}
    results["provenance"]["seeds"] = "1..%d" % (SETS * RUNS)
    with open(OUT, "w") as out:
        json.dump(results, out, indent=1)
        out.write("\n")

    for set_index, summary in enumerate(results["sets"]):
        for workload, data in summary.items():
            for name, stats in data["metrics"].items():
                print(f"set {set_index + 1} {workload:8s} {name:14s} "
                      f"median={stats['median']:.5g} spread={stats['spread']:.3f} "
                      f"bound={e2e[name]['bound']} third={stats['below_third_of_bound']}")
            for name, stats in data["seconds"].items():
                print(f"set {set_index + 1} {workload:8s} {name:14s} "
                      f"median={stats['median']:.5g} spread={stats['spread']:.3f} (not gated)")
    for workload, drift in results["drift"].items():
        for name, d in drift.items():
            print(f"drift {workload:8s} {name:14s} worse_by={d['worse_by']:+.3f} "
                  f"ok={d['within_bound']}")
    for claim, data in results["rankings"].items():
        print(f"{claim}: {data}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
