"""Run one benchmark op in a fresh interpreter and report what it produced.

Usage: python3 bench/worker.py '<json spec>'

The spec names the op and its inputs, plus optional "trace_out" (a path:
trace the op and write its spans there) or "profile" (run it under cProfile
and report call counts). The worker times the op from inside the process,
so interpreter start and ``import schur`` are not part of the op time, and
prints one JSON object on stdout. It checks nothing against reference data;
run.py does that.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import schur
from schur import cli

SRC = Path(__file__).resolve().parent.parent / "src"


class LineClock(io.StringIO):
    """A stdout stand-in that records when each output line is completed."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[float] = []

    def write(self, s: str) -> int:
        if "\n" in s:
            self.stamps.extend([time.perf_counter()] * s.count("\n"))
        return super().write(s)


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def op_composite(spec: dict) -> list[dict]:
    """`schur enumerate n --json`, then `schur verify n`, in one process."""
    n = str(spec["n"])
    t0 = time.perf_counter()
    rc_enum, enum_out = run_cli(["enumerate", n, "--json"])
    rc_verify, verify_out = run_cli(["verify", n])
    seconds = time.perf_counter() - t0
    return [
        {
            "label": f"n={n}",
            "seconds": seconds,
            "rc": [rc_enum, rc_verify],
            "sha256": hashlib.sha256(enum_out.encode()).hexdigest(),
            "omega": json.loads(enum_out)["omega"] if rc_enum == 0 else None,
            "verify_last": verify_out.rstrip("\n").rsplit("\n", 1)[-1],
        }
    ]


def op_table(spec: dict) -> list[dict]:
    """`schur table <family> --max M --verify`; each printed row is one op."""
    out = LineClock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(["table", spec["family"], "--max", str(spec["max"]), "--verify"])
    lines = out.getvalue().splitlines()
    ops, prev = [], t0
    for line, stamp in zip(lines, out.stamps):
        ops.append({"label": line.split()[0], "seconds": stamp - prev, "rc": rc, "line": line})
        prev = stamp
    return ops


def op_verify(spec: dict) -> list[dict]:
    """`schur verify n`, with --deep when the spec asks to force the brute-force oracle."""
    n = str(spec["n"])
    argv = ["verify", n] + (["--deep"] if spec.get("deep") else [])
    t0 = time.perf_counter()
    rc, out = run_cli(argv)
    seconds = time.perf_counter() - t0
    return [{"label": f"verify {n}", "seconds": seconds, "rc": rc, "lines": out.splitlines()}]


def op_subgroups(spec: dict) -> list[dict]:
    """The subgroup-lattice oracle, checked against the closed form."""
    r, k, ell = spec["group"]
    t0 = time.perf_counter()
    count = schur.brute_force_subgroup_count(r, k, ell)
    seconds = time.perf_counter() - t0
    return [
        {
            "label": f"subgroups {r},{k},{ell}",
            "seconds": seconds,
            "count": count,
            "closed_form": schur.subgroup_lattice_size(r, k, ell),
        }
    ]


OPS = {"composite": op_composite, "table": op_table, "verify": op_verify, "subgroups": op_subgroups}


def profile_counts(stats) -> dict[str, int]:
    """cProfile call counts keyed like tracer names: '<module>.<function>'."""
    counts = {}
    for (filename, _, func), (_, ncalls, *_rest) in stats.stats.items():
        path = Path(filename)
        if path.parent.name == "schur" and path.parent.parent == SRC:
            counts[f"{path.stem}.{func}"] = ncalls
    return counts


def main() -> None:
    spec = json.loads(sys.argv[1])
    if Path(schur.__file__).resolve().parent != SRC / "schur":
        raise SystemExit(f"imported schur from {schur.__file__}, expected {SRC / 'schur'}")
    op = OPS[spec["op"]]
    report: dict = {}
    if spec.get("trace_out"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        report["ops"] = op(spec)
        report["trace"] = tracer.summary()
        tracer.dump(Path(spec["trace_out"]))
    elif spec.get("profile"):
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        report["ops"] = profiler.runcall(op, spec)
        report["profile"] = profile_counts(pstats.Stats(profiler))
    else:
        report["ops"] = op(spec)
    report["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))


if __name__ == "__main__":
    main()
