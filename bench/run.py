"""Benchmark for the schur package: three CLI workloads, checked against reference data.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every op runs in a fresh worker process (bench/worker.py) that imports
``schur`` from ``src/``, one op at a time: a closed loop with one client.
Each op's output is checked against bench/reference.json, generated by
bench/make_reference.py at the commit that introduced the benchmark.

With --trace 0 the workload is repeated in passes for about --seconds (at
least one pass), and the last line of stdout is a JSON object with the
end-to-end metrics: setup_s (median of interpreter start plus
``import schur``, sampled before every pass), wall_s (sum over ops of each
op's median time), op_p50_s / op_p90_s (over every op sample), peak_rss_mib
(largest ru_maxrss of any worker) and pass_frac (ops that matched the
reference, over ops attempted).

With --trace 1 the run makes one pass in which every op runs four times
back to back: untraced, traced, untraced, traced. It reports per-layer
metrics from the spans of the traced runs (see bench/tracer.py). The result
is incorrect if counts differ between the two traced runs, if a function
named in FUNCTION_METRICS has no spans, if an lru_cache-wrapped function
saw more calls than its spans (a caller bypassed the tracer), or if on
enumerate-composite an op's first enumerate_rings call hits the memo.

The seed only shuffles the order of the worker processes within each pass.
Each worker starts with empty memo caches, so the order cannot change which
memo entries exist; the rows of table-sweep share one worker, in CLI order.
Workers run with the interpreter's default string-hash randomisation, as a
CLI user's process does, so the byte-identity check on ``enumerate --json``
also covers output that would change with the hash seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Each workload is a list of worker specs; each spec runs in a fresh process.
# Sizes keep a pass to a few seconds, so each op is sampled several times in a
# run and its median is steady. The two few-op workloads have an odd number of
# ops per pass, which puts op_p50_s inside one op's samples instead of between
# two ops. Every workload reaches every traced layer at least a little (a
# small verify or subgroup-lattice op), so no per-layer time reads exactly 0.
WORKLOADS = {
    # highly composite moduli, cold memo per op: wedge products dominate
    "enumerate-composite": [
        *({"op": "composite", "n": n} for n in (12, 24, 36, 48)),
        {"op": "subgroups", "group": [2, 2, 2]},
    ],
    # every semiprime row up to max, one shared memo: automorphic rings show
    "table-sweep": [
        {"op": "table", "family": "semiprime", "max": 200},
        {"op": "verify", "n": 6},
        {"op": "subgroups", "group": [2, 2, 2]},
    ],
    # forced brute-force oracle and the subgroup-lattice oracle
    "verify-deep": [
        *({"op": "verify", "n": n, "deep": True} for n in (16, 18, 20)),
        {"op": "subgroups", "group": [2, 3, 4]},
        {"op": "subgroups", "group": [5, 2, 2]},
    ],
}
PROBES_PER_PASS = 2
# A run must end within 180 s; a worker gets whatever is left of this limit.
HARD_LIMIT_S = 170.0


def group_key(group: list[int]) -> str:
    return ",".join(map(str, group))


def check_composite(n: int, ref: dict, op: dict) -> bool:
    return (
        op["rc"] == [0, 0]
        and op["sha256"] == ref["sha256"]
        and op["omega"] == ref["omega"]
        and op["verify_last"] == f"verify {n}: PASS"
    )


def check_row(n: int, value: int, op: dict) -> bool:
    return op["rc"] == 0 and op["line"] == f"{n:4d}  {value:5d}  ok"


def check_verify(n: int, rings: int, op: dict) -> bool:
    lines = op["lines"]
    return (
        op["rc"] == 0
        and f"PASS oracle: brute-force search found {rings} rings" in lines
        and lines[-1] == f"verify {n}: PASS"
    )


def check_subgroups(size: int, op: dict) -> bool:
    return op["count"] == op["closed_form"] == size


def checks(spec: dict, ref: dict) -> dict:
    """The reference check of every op a worker spec produces, by op label."""
    kind = spec["op"]
    if kind == "composite":
        n = spec["n"]
        return {f"n={n}": partial(check_composite, n, ref["enumerate"][str(n)])}
    if kind == "table":
        rows = ref["table"]["rows"]
        return {n: partial(check_row, int(n), value) for n, value in rows.items()}
    if kind == "verify":
        n = spec["n"]
        return {f"verify {n}": partial(check_verify, n, ref["oracle"][str(n)])}
    key = group_key(spec["group"])
    return {f"subgroups {key}": partial(check_subgroups, ref["subgroups"][key])}


def worker_env() -> dict[str, str]:
    drop = ("PYTHONPATH", "PYTHONHASHSEED", "SCHUR_ORACLE_LIMIT")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(spec: dict, env: dict[str, str], timeout: float) -> dict | None:
    """Run one worker and return its report, or None if it failed or timed out."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"worker timed out: {spec}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"worker failed: {spec}\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


class Runner:
    def __init__(self, workload: str, seed: int, ref: dict) -> None:
        self.workload = workload
        self.units = [(spec, checks(spec, ref)) for spec in WORKLOADS[workload]]
        self.rng = random.Random(seed)
        self.env = worker_env()
        self.t_begin = time.perf_counter()
        self.setup: list[float] = []
        self.samples: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.rss: list[float] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_begin

    def probe_setup(self) -> None:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import schur"], env=self.env, check=True)
        self.setup.append(time.perf_counter() - t0)

    def run_pass(self, tags: tuple[str, ...] = ("plain",)) -> tuple[dict, dict]:
        """One pass over the workload's ops in seeded order, each op once per tag.

        A tag starting with "trace" traces the run and writes its spans to
        bench/out/; any other tag is an untraced run. Running an op's tags
        back to back keeps the traced and untraced times of the op close
        together in time. Returns, per tag, the summed op time and the
        workers' trace summaries.
        """
        order = list(self.units)
        self.rng.shuffle(order)
        walls = dict.fromkeys(tags, 0.0)
        traces: dict[str, list[dict]] = {tag: [] for tag in tags}
        for k, (spec, expected) in enumerate(order):
            for tag in tags:
                run_spec = spec
                if tag.startswith("trace"):
                    run_spec = {**spec, "trace_out": str(OUT / f"{self.workload}.{tag}.{k}.tsv")}
                report = run_worker(run_spec, self.env, max(1.0, HARD_LIMIT_S - self.elapsed()))
                ops = {op["label"]: op for op in report["ops"]} if report else {}
                for label, check in expected.items():
                    op = ops.get(label)
                    self.attempted += 1
                    if op is None or not check(op):
                        self.failed += 1
                        print(f"{self.workload}: op {label} failed its reference check", file=sys.stderr)
                    if op is not None:
                        self.samples.append((label, op["seconds"]))
                        walls[tag] += op["seconds"]
                if report is not None:
                    self.rss.append(report["rss_mib"])
                    if tag.startswith("trace"):
                        traces[tag].append(report["trace"])
        return walls, traces

    def measure(self, seconds: int) -> dict:
        while True:
            t_pass = time.perf_counter()
            for _ in range(PROBES_PER_PASS):
                self.probe_setup()
            self.run_pass()
            # stop when another pass would end more than half a pass past the budget
            if self.elapsed() + (time.perf_counter() - t_pass) / 2 > seconds:
                break
        by_label: dict[str, list[float]] = {}
        for label, s in self.samples:
            by_label.setdefault(label, []).append(s)
        times = sorted(s for _, s in self.samples)
        values = {
            "setup_s": (statistics.median(self.setup), "s"),
            "wall_s": (sum(statistics.median(v) for v in by_label.values()), "s"),
            "op_p50_s": (statistics.median(times), "s"),
            "op_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[8], "s"),
            "peak_rss_mib": (max(self.rss), "MiB"),
            "pass_frac": ((self.attempted - self.failed) / self.attempted, "ratio"),
        }
        return {"correct": self.failed == 0, "metrics": values}

    def measure_traced(self) -> dict:
        OUT.mkdir(exist_ok=True)
        for old in OUT.glob(f"{self.workload}.*.tsv"):
            old.unlink()
        plain, tags = ("plain1", "plain2"), ("trace1", "trace2")
        walls, traces = self.run_pass((plain[0], tags[0], plain[1], tags[1]))
        runs = [merge(traces[tag]) for tag in tags]
        counts = [{k: v[0] for k, v in run["functions"].items()} | run["counters"] for run in runs]
        pinned = counts[0] == counts[1]
        if not pinned:
            print("trace: call counts differ between the two traced runs", file=sys.stderr)
        missing = sorted(set(FUNCTION_METRICS) - set(runs[0]["functions"]))
        if missing:
            print(f"trace: no spans for {', '.join(missing)}", file=sys.stderr)
        bypassed = sorted(
            {
                name
                for run in runs
                for name, calls in run["cache_calls"].items()
                if run["functions"].get(name, [0])[0] != calls
            }
        )
        if bypassed:
            print(f"trace: calls that bypassed the tracer: {', '.join(bypassed)}", file=sys.stderr)
        isolated = True
        if self.workload == "enumerate-composite":
            isolated = all(run["counters"]["enum_first_top_hit"] == 0 for run in runs)
            if not isolated:
                print("trace: an op's first enumerate_rings call hit the memo", file=sys.stderr)
        values = layer_metrics(runs)
        traced = statistics.fmean(walls[tag] for tag in tags)
        values["trace.wall_s"] = (traced, "s")
        values["trace.overhead_frac"] = (traced / statistics.fmean(walls[t] for t in plain) - 1, "ratio")
        ok = self.failed == 0 and pinned and isolated and not missing and not bypassed
        return {"correct": ok, "metrics": values}


def merge(traces: list[dict]) -> dict:
    """Sum the trace summaries of one pass's workers."""
    out = {"spans": 0, "functions": {}, "layers": {}, "counters": {}, "cache_calls": {}}
    for t in traces:
        out["spans"] += t["spans"]
        for key in ("functions", "layers"):
            for name, rec in t[key].items():
                acc = out[key].get(name, [0] * len(rec))
                out[key][name] = [a + b for a, b in zip(acc, rec)]
        for key in ("counters", "cache_calls"):
            for name, v in t[key].items():
                out[key][name] = out[key].get(name, 0) + v
    return out


FUNCTION_METRICS = {
    "constructions.wedge_product": ("calls", "self_s", "incl_s"),
    "constructions.wedge_core": ("calls", "self_s"),
    "constructions.direct_product": ("calls", "self_s"),
    "core.s_subgroups": ("calls", "self_s"),
    "core.quotient": ("calls", "self_s"),
    "core.restrict": ("calls", "self_s"),
    "core.from_sets": ("calls", "self_s"),
    "core.check_schur_axioms": ("calls", "self_s"),
    "automorphic.all_subgroups": ("calls", "self_s"),
    "automorphic.orbit_partition": ("calls", "self_s"),
    "automorphic.automorphic_rings": ("self_s",),
    "enumeration.enumerate_rings": ("calls", "self_s"),
    "brute_force.brute_force_schur_rings": ("self_s",),
    "brute_force.brute_force_subgroup_count": ("self_s",),
}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(runs: list[dict]) -> dict:
    """Per-layer metrics: counts from the first traced run, times averaged over both.

    A function with no spans reads 0 here; measure_traced marks that run incorrect.
    """
    first = runs[0]
    fn = first["functions"]

    def secs(get) -> float:
        return statistics.fmean(get(run) for run in runs) / 1e9

    values: dict[str, tuple[float, str]] = {}
    for name, fields in FUNCTION_METRICS.items():
        for field in fields:
            if field == "calls":
                values[f"{name}.calls"] = (fn.get(name, [0])[0], "count")
            else:
                col = 1 if field == "self_s" else 2
                values[f"{name}.{field}"] = (
                    secs(lambda run: run["functions"].get(name, [0, 0, 0])[col]),
                    "s",
                )
    for layer in first["layers"]:
        values[f"{layer}.self_s"] = (secs(lambda run: run["layers"][layer][0]), "s")
    for layer in ("automorphic", "brute_force"):
        values[f"{layer}.incl_s"] = (secs(lambda run: run["layers"][layer][1]), "s")
    c = first["counters"]
    wedge_calls = fn.get("constructions.wedge_product", [0])[0]
    values["enumeration.enumerate_rings.cache_hits"] = (c["enum_cache_hits"], "count")
    values["enumeration.candidates"] = (c["candidates"], "count")
    values["enumeration.dedup_yield"] = (ratio(c["omega"], c["candidates"]), "ratio")
    values["constructions.wedge_yield"] = (ratio(c["wedge_rings"], wedge_calls), "ratio")
    values["brute_force.leaf_checks"] = (c["leaf_checks"], "count")
    values["brute_force.leaf_yield"] = (ratio(c["oracle_rings"], c["leaf_checks"]), "ratio")
    values["trace.spans"] = (first["spans"], "count")
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "schur" / "__init__.py").is_file():
        print(f"error: no schur package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    ref = json.loads((BENCH / "reference.json").read_text())
    runner = Runner(args.workload, args.seed, ref)
    result = runner.measure_traced() if args.trace else runner.measure(args.seconds)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
