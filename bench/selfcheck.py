"""Check that the tracer's call counts are exact, so counts can back later claims.

Usage (from the repository root): python3 bench/selfcheck.py

Runs a cold ``schur enumerate 72 --json`` plus ``schur verify 72`` three
times, each in a fresh worker: twice traced and once under cProfile. It
passes when the two traced runs give identical call counts for every
wrapped function, and those counts equal the calls that really happened:
cProfile's count for a plain function, and the cache's hits plus misses for
an lru_cache-wrapped one (cProfile sees only its misses). Every wrapped
function is compared, including those with no spans, so a function the
tracer missed at some call site shows as a mismatch. Prints one line per
function and exits 0 on agreement, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

from run import OUT, SRC, run_worker, worker_env
from tracer import LAYERS, public_functions

N = 72


def main() -> int:
    sys.path.insert(0, str(SRC))
    env = worker_env()
    OUT.mkdir(exist_ok=True)
    spec = {"op": "composite", "n": N}
    reports = [
        run_worker({**spec, "trace_out": str(OUT / f"selfcheck.{k}.tsv")}, env, 600)
        for k in (1, 2)
    ]
    reports.append(run_worker({**spec, "profile": True}, env, 600))
    if None in reports:
        return 1
    traced = [{k: v[0] for k, v in r["trace"]["functions"].items()} for r in reports[:2]]
    cache_calls = reports[0]["trace"]["cache_calls"]
    profiled = reports[2]["profile"]
    names = {name for layer in LAYERS for name in public_functions(layer)} | {"core.from_sets"}
    ok = traced[0] == traced[1]
    for name in sorted(names):
        count = traced[0].get(name, 0)
        expected = cache_calls[name] if name in cache_calls else profiled.get(name, 0)
        ok &= count == expected
        print(f"{'ok' if count == expected else 'MISMATCH'}  {name}: {count} (expected {expected})")
    print(json.dumps({"n": N, "pinned": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
