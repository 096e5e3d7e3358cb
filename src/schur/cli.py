"""Command-line interface: count, enumerate, table, verify.

Exit codes: 0 success, 1 verification mismatch, 2 usage error. All output is
deterministic; diagnostics go to stderr. n > MAX_ENUMERATED_N is a usage error
but for `count --method formula`, and so is `table --verify` with --max above
it. The brute-force search limit can be raised with the SCHUR_ORACLE_LIMIT
environment variable (default 14); a value that is not a positive integer
makes `count --method oracle` and `verify` exit 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterator

from schur.automorphic import aut_subgroup_count
from schur.brute_force import DEFAULT_SEARCH_LIMIT, brute_force_schur_rings
from schur.core import check_schur_axioms
from schur.enumeration import enumerate_rings
from schur.formulas import (
    count_4p,
    count_prime,
    count_semiprime,
    divisor_count,
    four_p_factor,
    is_prime,
    semiprime_factors,
)

ORACLE_LIMIT_ENV = "SCHUR_ORACLE_LIMIT"
MAX_ENUMERATED_N = 10**4  # building the rings of Z_n allocates n labels per ring


def _oracle_limit() -> int | None:
    """The brute-force limit, or None after reporting an invalid setting."""
    raw = os.environ.get(ORACLE_LIMIT_ENV)
    if raw is None:
        return DEFAULT_SEARCH_LIMIT
    try:
        limit = int(raw)
    except ValueError:
        limit = 0
    if limit < 1:
        print(
            f"error: {ORACLE_LIMIT_ENV} must be a positive integer, got {raw!r}",
            file=sys.stderr,
        )
        return None
    return limit


def _formula_count(n: int) -> int | None:
    """Closed-form count when n is prime, a semiprime, or 4p; else None."""
    if is_prime(n):
        return count_prime(n)
    pq = semiprime_factors(n)
    if pq is not None:
        return count_semiprime(*pq)
    p = four_p_factor(n)
    if p is not None:
        return count_4p(p)
    return None


def _cmd_count(args: argparse.Namespace) -> int:
    n = args.n
    method = args.method
    if method == "formula":
        value = _formula_count(n)
        if value is None:
            print(
                f"error: no closed form for n={n} (needs prime, semiprime, or 4p)",
                file=sys.stderr,
            )
            return 2
    elif method == "oracle":
        limit = _oracle_limit()
        if limit is None:
            return 2
        if n > limit:
            print(
                f"error: n={n} exceeds the oracle limit {limit} "
                f"(set {ORACLE_LIMIT_ENV} to override)",
                file=sys.stderr,
            )
            return 2
        value = len(brute_force_schur_rings(n, force=True))
    else:
        value = enumerate_rings(n).omega
    print(f"Omega({n}) = {value} [{method}]")
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    result = enumerate_rings(args.n)
    if args.json:
        print(json.dumps(result.to_json_dict(), separators=(",", ":")))
        return 0
    for ring, tags in zip(result.rings, result.tags):
        line = ring.to_text()
        if args.tags:
            line += "  [" + ",".join(sorted(tags)) + "]"
        print(line)
    if args.cores:
        totals: dict[int, int] = {}
        for core, count in result.core_census:
            print(f"core order={core.n} count={count} {core.to_text()}")
            totals[core.n] = totals.get(core.n, 0) + count
        print("census by order: " + " ".join(f"{d}:{c}" for d, c in sorted(totals.items())))
    return 0


def _table_rows(family: str, max_n: int) -> Iterator[tuple[int, int]]:
    """(n, count) for each n <= max_n in the family, one at a time."""
    if family == "semiprime":
        for n in range(2, max_n + 1):
            pq = semiprime_factors(n)
            if pq is not None:
                yield n, count_semiprime(*pq)
    else:
        for n in range(4, max_n + 1, 4):
            p = four_p_factor(n)
            if p is not None:
                yield n, count_4p(p)


def _cmd_table(args: argparse.Namespace) -> int:
    if args.verify and args.max > MAX_ENUMERATED_N:
        print(
            f"error: --max {args.max} exceeds the enumeration bound {MAX_ENUMERATED_N} "
            "(needed by --verify)",
            file=sys.stderr,
        )
        return 2
    mismatches = 0
    for n, value in _table_rows(args.family, args.max):
        line = f"{n:4d}  {value:5d}"
        if args.verify:
            enumerated = enumerate_rings(n).omega
            if enumerated == value:
                line += "  ok"
            else:
                line += f"  MISMATCH (enumerated {enumerated})"
                mismatches += 1
        print(line)
    return 1 if mismatches else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    n = args.n
    limit = _oracle_limit()
    if limit is None:
        return 2
    checks: list[tuple[str, bool | None, str]] = []  # (name, ok/None=skip, detail)
    result = enumerate_rings(n)
    omega = result.omega

    violations = [check_schur_axioms(r) for r in result.rings]
    bad = [v for v in violations if v is not None]
    checks.append(
        (
            "axioms",
            not bad,
            f"all {omega} rings satisfy the Schur axioms"
            if not bad
            else f"{len(bad)} rings violate the axioms ({bad[0]})",
        )
    )

    formula = _formula_count(n)
    if formula is None:
        checks.append(("formula", None, f"no closed form applies to n={n}"))
    else:
        checks.append(
            (
                "formula",
                formula == omega,
                f"enumeration count {omega} vs closed form {formula}",
            )
        )

    pq = semiprime_factors(n)
    if pq is not None:
        p, q = pq
        automorphic = sum("automorphic" in t for t in result.tags)
        wedge_only = sum(
            "wedge" in t and "automorphic" not in t for t in result.tags
        )
        trivial = sum("trivial" in t for t in result.tags)
        expected_auto = aut_subgroup_count(n)
        expected_wedges = 2 * divisor_count(p - 1) * divisor_count(q - 1)
        split_ok = (
            automorphic == expected_auto
            and wedge_only == expected_wedges
            and trivial == 1
            and automorphic + wedge_only + trivial == omega
        )
        checks.append(
            (
                "family split",
                split_ok,
                f"{omega} = {automorphic} automorphic + {wedge_only} wedge-only + "
                f"{trivial} trivial",
            )
        )

    if n <= limit or args.deep:
        if n > limit:
            print(
                f"warning: forcing brute-force search at n={n} (limit {limit})",
                file=sys.stderr,
            )
        oracle = brute_force_schur_rings(n, force=True)
        checks.append(
            (
                "oracle",
                set(oracle) == set(result.rings),
                f"brute-force search found {len(oracle)} rings",
            )
        )
    else:
        checks.append(
            ("oracle", None, f"n={n} exceeds limit {limit}; use --deep to force")
        )

    failed = False
    for name, ok, detail in checks:
        if ok is None:
            print(f"SKIP {name}: {detail}")
        elif ok:
            print(f"PASS {name}: {detail}")
        else:
            print(f"FAIL {name}: {detail}")
            failed = True
    print(f"verify {n}: {'FAIL' if failed else 'PASS'}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schur",
        description="Construct, verify, and enumerate Schur rings over cyclic groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="print the number of Schur rings over Z_n")
    p_count.add_argument("n", type=int)
    p_count.add_argument(
        "--method",
        choices=("formula", "enumerate", "oracle"),
        default="enumerate",
        help="formula needs n prime, semiprime, or 4p; oracle needs small n",
    )
    p_count.set_defaults(func=_cmd_count)

    p_enum = sub.add_parser("enumerate", help="list every Schur ring over Z_n")
    p_enum.add_argument("n", type=int)
    fmt = p_enum.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit the full JSON record")
    fmt.add_argument("--text", action="store_true", help="one brace list per ring (default)")
    p_enum.add_argument("--tags", action="store_true", help="append family tags to each ring")
    p_enum.add_argument("--cores", action="store_true", help="append the wedge-core census")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_table = sub.add_parser("table", help="closed-form count tables")
    p_table.add_argument("family", choices=("semiprime", "fourp"))
    p_table.add_argument("--max", type=int, default=100)
    p_table.add_argument(
        "--verify", action="store_true", help="re-derive each row by enumeration"
    )
    p_table.set_defaults(func=_cmd_table)

    p_verify = sub.add_parser("verify", help="run all applicable cross-checks for n")
    p_verify.add_argument("n", type=int)
    p_verify.add_argument(
        "--deep", action="store_true", help="force the brute-force search even past the limit"
    )
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return 2 if exc.code else 0
    n = getattr(args, "n", None)
    if n is not None and n < 1:
        print("error: n must be a positive integer", file=sys.stderr)
        return 2
    if n is not None and n > MAX_ENUMERATED_N and getattr(args, "method", None) != "formula":
        print(f"error: n={n} exceeds the enumeration bound {MAX_ENUMERATED_N}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
