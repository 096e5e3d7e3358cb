"""Command-line interface: count, enumerate, table, verify.

`schur <command> <n or family> [--opt value | --opt=value | --switch]...`, options in any order
and never abbreviated, `--` no separator; `-h`/`--help` anywhere prints the help and exits 0.

Exit codes: 0 success, 1 verification mismatch, 2 usage error. All output is deterministic;
diagnostics go to stderr. n > MAX_ENUMERATED_N is a usage error but for `count --method
formula`, and so is `table --verify` with --max above it; `count --method formula` refuses
n > MAX_FORMULA_N and `table` without --verify a --max above MAX_TABLE_N. The brute-force
ring oracle runs for n <= DEFAULT_SEARCH_LIMIT (14), and past it only under `verify --deep`;
`verify` runs it first, so a search that brute_force_schur_rings refuses exits 2 before any
enumeration.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from types import SimpleNamespace

from schur.automorphic import aut_subgroup_count
from schur.brute_force import DEFAULT_SEARCH_LIMIT, brute_force_schur_rings
from schur.core import SchurPartition, check_schur_axioms
from schur.enumeration import EnumerationResult, enumerate_rings, ring_count
from schur.formulas import (
    count_4p,
    count_prime,
    count_semiprime,
    divisor_count,
    four_p_factor,
    is_prime,
    semiprime_factors,
)

MAX_ENUMERATED_N = 10**4  # building the rings of Z_n allocates n labels per ring
MAX_FORMULA_N = 10**12  # so factoring n by trial division takes under 10**6 steps
MAX_TABLE_N = 50_000  # the table factors every n up to --max by trial division


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


def _cmd_count(args: SimpleNamespace) -> int:
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
        if n > DEFAULT_SEARCH_LIMIT:
            error = f"n={n} exceeds the oracle limit {DEFAULT_SEARCH_LIMIT}"
            print(f"error: {error} (`schur verify {n} --deep` forces the search)", file=sys.stderr)
            return 2
        value = len(brute_force_schur_rings(n))
    else:
        value = ring_count(n)
    print(f"Omega({n}) = {value} [{method}]")
    return 0


def _json_pieces(result: EnumerationResult) -> Iterator[str]:
    """The compact `enumerate --json` record, one piece per ring, tag set and census entry."""
    # at most 16 distinct sets, of FAMILY_TAGS names: plain ASCII, nothing to escape
    tags = {t: "[" + ",".join(f'"{name}"' for name in sorted(t)) + "]" for t in set(result.tags)}
    census = (f'{{"core":{c._json()},"order":{c.n},"count":{k}}}' for c, k in result.core_census)
    yield f'{{"n":{result.n},"omega":{result.omega}'
    for name, pieces in [
        ("rings", map(SchurPartition._json, result.rings)),
        ("tags", map(tags.__getitem__, result.tags)),
        ("core_census", census),
    ]:
        yield f',"{name}":['
        yield from ("," * bool(i) + piece for i, piece in enumerate(pieces))
        yield "]"
    yield "}\n"


def _cmd_enumerate(args: SimpleNamespace) -> int:
    result = enumerate_rings(args.n)
    if args.json:
        sys.stdout.writelines(_json_pieces(result))
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


def _cmd_table(args: SimpleNamespace) -> int:
    bound = MAX_ENUMERATED_N if args.verify else MAX_TABLE_N
    if args.max > bound:
        name = "enumeration bound" if args.verify else "table bound"
        print(f"error: --max {args.max} exceeds the {name} {bound}", file=sys.stderr)
        return 2
    mismatches = 0
    for n, value in _table_rows(args.family, args.max):
        line = f"{n:4d}  {value:5d}"
        if args.verify:
            enumerated = ring_count(n)
            if enumerated == value:
                line += "  ok"
            else:
                line += f"  MISMATCH (enumerated {enumerated})"
                mismatches += 1
        print(line)
    return 1 if mismatches else 0


def _cmd_verify(args: SimpleNamespace) -> int:
    n, limit, oracle = args.n, DEFAULT_SEARCH_LIMIT, None
    if n <= limit or args.deep:
        try:
            oracle = brute_force_schur_rings(n, force=args.deep)
        except ValueError as exc:  # past the search's bound, refused before it allocates
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if n > limit:
            print(f"warning: forcing brute-force search at n={n} (limit {limit})", file=sys.stderr)
    checks: list[tuple[str, bool | None, str]] = []  # (name, ok/None=skip, detail)
    result = enumerate_rings(n)
    omega = result.omega

    bad = [v for v in map(check_schur_axioms, result.rings) if v is not None]
    detail = f"all {omega} rings satisfy the Schur axioms"
    if bad:
        detail = f"{len(bad)} rings violate the axioms ({bad[0]})"
    checks.append(("axioms", not bad, detail))

    formula = _formula_count(n)
    if formula is None:
        checks.append(("formula", None, f"no closed form applies to n={n}"))
    else:
        detail = f"enumeration count {omega} vs closed form {formula}"
        checks.append(("formula", formula == omega, detail))

    pq = semiprime_factors(n)
    if pq is not None:
        p, q = pq
        automorphic = sum("automorphic" in t for t in result.tags)
        wedge_only = sum("wedge" in t and "automorphic" not in t for t in result.tags)
        trivial = sum("trivial" in t for t in result.tags)
        split_ok = (
            automorphic == aut_subgroup_count(n)
            and wedge_only == 2 * divisor_count(p - 1) * divisor_count(q - 1)
            and trivial == 1
            and automorphic + wedge_only + trivial == omega
        )
        detail = f"{omega} = {automorphic} automorphic + {wedge_only} wedge-only + "
        detail += f"{trivial} trivial"
        checks.append(("family split", split_ok, detail))

    if oracle is None:
        checks.append(("oracle", None, f"n={n} exceeds limit {limit}; use --deep to force"))
    else:
        detail = f"brute-force search found {len(oracle)} rings"
        checks.append(("oracle", set(oracle) == set(result.rings), detail))

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


# command: (help, handler, positional, its kind, options); an option: (kind, default, help),
# where a kind is int (read with int()), bool (a switch) or a tuple of choices
_COMMANDS = {
    "count": ("print the number of Schur rings over Z_n", _cmd_count, "n", int, {"--method": (
        ("formula", "enumerate", "oracle"), "enumerate",
        "formula needs n prime, semiprime, or 4p; oracle needs small n")}),
    "enumerate": ("list every Schur ring over Z_n", _cmd_enumerate, "n", int, {
        "--json": (bool, False, "emit the full JSON record"),
        "--text": (bool, False, "one brace list per ring (default)"),
        "--tags": (bool, False, "append family tags to each ring"),
        "--cores": (bool, False, "append the wedge-core census")}),
    "table": ("closed-form count tables", _cmd_table, "family", ("semiprime", "fourp"), {
        "--max": (int, 100, "the largest n tabulated"),
        "--verify": (bool, False, "re-derive each row by enumeration")}),
    "verify": ("run all applicable cross-checks for n", _cmd_verify, "n", int, {
        "--deep": (bool, False, "force the brute-force search even past the limit")}),
}


def _help(command: str) -> str:
    """The -h/--help text of a command; its first line is the usage."""
    about, _, name, kind, options = _COMMANDS[command]
    meta = lambda word, k: word if k is int else "{" + ",".join(k) + "}"  # noqa: E731
    flags = [o if k is bool else f"{o} {meta(o[2:].upper(), k)}" for o, (k, *_) in options.items()]
    rows = [f"  {flag}\n      {h}" + ("" if k is bool else f" (default: {d})")
            for flag, (k, d, h) in zip(flags, options.values())]
    usage = f"usage: schur {command} [-h] {meta(name, kind)} " + " ".join(f"[{f}]" for f in flags)
    return "\n".join([usage, "", about, "", "options:", "  -h, --help\n      this help", *rows])


def _parse(command: str, argv: list[str]) -> dict[str, object] | str:
    """The values of a command's arguments by name, or the message of a usage error."""
    _, _, name, kind, options = _COMMANDS[command]
    values, words, rest = {o[2:]: spec[1] for o, spec in options.items()}, [], iter(argv)
    for arg in rest:
        option, eq, value = arg.partition("=")
        switch = options.get(option, (None,))[0] is bool
        if not arg.startswith("--"):  # `count -5` reads n = -5, which main refuses
            words.append(arg)
        elif option not in options or switch and eq:  # `--json=yes` is no option
            return f"unknown option '{arg}'"
        elif not (switch or eq) and (value := next(rest, None)) is None:
            return f"{arg} needs a value"
        else:
            values[option[2:]] = switch or value
    if len(words) != 1:
        return f"unexpected argument '{words[1]}'" if words else f"missing {name}"
    values[name] = words[0]
    for key, k in [(name, kind), *((o[2:], spec[0]) for o, spec in options.items())]:
        if isinstance(k, tuple) and values[key] not in k:
            return f"invalid {key} '{values[key]}' (choose from {', '.join(k)})"
        try:  # as argparse's type=int read it
            values[key] = int(values[key]) if k is int else values[key]
        except ValueError:
            return f"invalid {key} '{values[key]}' (not an integer)"
    if values.get("json") and values.get("text"):
        return "--json and --text exclude each other"
    return values


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    commands = [command] if command else list(_COMMANDS)  # no command: the help of each
    if "-h" in argv or "--help" in argv:
        print("\n\n".join(map(_help, commands)))
        return 0
    error = f"unknown command '{argv[0]}'" if argv else "missing command"
    values = _parse(command, argv[1:]) if command else error
    if isinstance(values, str):
        usage = [_help(name).split("\n")[0] for name in commands]
        print(*usage, f"schur: error: {values}", sep="\n", file=sys.stderr)
        return 2
    n, formula = values.get("n"), values.get("method") == "formula"
    bound = MAX_FORMULA_N if formula else MAX_ENUMERATED_N
    if n is not None and not 0 < n <= bound:
        name = "closed-form bound" if formula else "enumeration bound"
        error = f"n={n} exceeds the {name} {bound}" if n > 0 else "n must be a positive integer"
        print(f"error: {error}", file=sys.stderr)
        return 2
    return _COMMANDS[command][1](SimpleNamespace(**values))


if __name__ == "__main__":
    raise SystemExit(main())
