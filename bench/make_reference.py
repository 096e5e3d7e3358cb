"""Write bench/reference.json, the data every benchmark op is checked against.

Usage (from the repository root): PYTHONPATH=src python3 bench/make_reference.py

It was run once, at the commit that introduced the benchmark. Rerun it only
when a change is meant to alter one of these outputs; the JSON output of
``schur enumerate`` in particular must stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json

from run import BENCH, WORKLOADS, group_key
from schur.automorphic import subgroup_lattice_size
from schur.brute_force import brute_force_schur_rings
from schur.enumeration import ring_count
from worker import run_cli


def cli_stdout(argv: list[str]) -> str:
    """The stdout of ``schur <argv>``, captured exactly as the worker captures it."""
    rc, out = run_cli(argv)
    if rc != 0:
        raise SystemExit(f"schur {' '.join(argv)} failed")
    return out


def main() -> None:
    reference: dict = {"enumerate": {}, "table": {}, "oracle": {}, "subgroups": {}}
    specs = [spec for specs in WORKLOADS.values() for spec in specs]
    for spec in specs:
        kind = spec["op"]
        if kind == "composite":
            n = spec["n"]
            text = cli_stdout(["enumerate", str(n), "--json"])
            reference["enumerate"][str(n)] = {
                "omega": json.loads(text)["omega"],
                "sha256": hashlib.sha256(text.encode()).hexdigest(),
            }
        elif kind == "table":
            family, max_n = spec["family"], spec["max"]
            rows = {}
            for line in cli_stdout(["table", family, "--max", str(max_n)]).splitlines():
                n, value = line.split()
                rows[n] = int(value)
            reference["table"] = {"family": family, "max": max_n, "rows": rows}
        elif kind == "verify":
            n = spec["n"]
            found = len(brute_force_schur_rings(n, force=True))
            if found != ring_count(n):
                raise SystemExit(f"oracle and enumeration disagree at n={n}")
            reference["oracle"][str(n)] = found
        else:
            reference["subgroups"][group_key(spec["group"])] = subgroup_lattice_size(*spec["group"])
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
