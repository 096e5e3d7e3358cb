import json

import pytest

import schur.cli
from schur.cli import _json_pieces, _table_rows, main
from schur.enumeration import enumerate_rings


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_methods_agree(capsys):
    code, out, _ = run(capsys, "count", "21", "--method", "formula")
    assert code == 0 and out == "Omega(21) = 27 [formula]\n"
    code, out, _ = run(capsys, "count", "21", "--method", "enumerate")
    assert code == 0 and out == "Omega(21) = 27 [enumerate]\n"
    code, out, _ = run(capsys, "count", "12", "--method", "oracle")
    assert code == 0 and out == "Omega(12) = 32 [oracle]\n"


def test_count_default_method(capsys):
    code, out, _ = run(capsys, "count", "9")
    assert code == 0 and out == "Omega(9) = 7 [enumerate]\n"


def test_count_usage_errors(capsys):
    code, _, err = run(capsys, "count", "18", "--method", "formula")
    assert code == 2 and "no closed form" in err
    code, _, err = run(capsys, "count", "15", "--method", "oracle")
    assert code == 2 and "exceeds the oracle limit" in err


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "21", "--text")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 27
    expected = {r.to_text() for r in enumerate_rings(21).rings}
    assert set(lines) == expected


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 1 and data["omega"] == 1
    assert data["rings"] == [{"n": 1, "classes": [[0]]}]


def test_enumerate_json_is_written_ring_by_ring():
    # the streamed record is the one-shot dump, in one piece per ring, tag set and census entry
    for n in (1, 12, 48, 257):
        result = enumerate_rings(n)
        record = {
            "n": n,
            "omega": result.omega,
            "rings": [r.to_json_dict() for r in result.rings],
            "tags": [sorted(t) for t in result.tags],
            "core_census": [
                {"core": core.to_json_dict(), "order": core.n, "count": count}
                for core, count in result.core_census
            ],
        }
        pieces = list(_json_pieces(result))
        assert "".join(pieces) == json.dumps(record, separators=(",", ":")) + "\n"
        assert len(pieces) == 2 * result.omega + len(result.core_census) + 8


def test_enumerate_tags_and_cores(capsys):
    code, out, _ = run(capsys, "enumerate", "6", "--tags", "--cores")
    assert code == 0
    lines = out.splitlines()
    ring_lines = [l for l in lines if l.startswith("{")]
    core_lines = [l for l in lines if l.startswith("core ")]
    assert len(ring_lines) == 7
    assert all("[" in l and "]" in l for l in ring_lines)
    census = {}
    for line in core_lines:
        parts = dict(p.split("=") for p in line.split()[1:3])
        census[int(parts["order"])] = census.get(int(parts["order"]), 0) + int(parts["count"])
    assert sum(census.values()) == 7
    assert lines[-1] == "census by order: " + " ".join(
        f"{d}:{c}" for d, c in sorted(census.items())
    )


def test_enumerate_cores_aggregate_12(capsys):
    code, out, _ = run(capsys, "enumerate", "12", "--cores")
    assert code == 0
    assert out.splitlines()[-1] == "census by order: 2:7 3:6 4:6 6:7 12:6"


def test_table_semiprime_single_row(capsys):
    code, out, _ = run(capsys, "table", "semiprime", "--max", "6")
    assert code == 0
    assert [tuple(map(int, line.split())) for line in out.splitlines()] == [(6, 7)]


def test_table_fourp(capsys):
    code, out, _ = run(capsys, "table", "fourp", "--max", "100")
    rows = [tuple(map(int, line.split())) for line in out.splitlines()]
    assert code == 0
    assert rows == [
        (12, 32),
        (20, 47),
        (28, 61),
        (44, 61),
        (52, 91),
        (68, 77),
        (76, 90),
        (92, 61),
    ]


def test_table_rows_are_streamed(monkeypatch):
    # the first row must come before the factoring of every later n
    calls = [0]
    factors = schur.cli.semiprime_factors

    def limited(n):
        calls[0] += 1
        if calls[0] > 50:
            raise AssertionError(f"factored n={n} before the first row was taken")
        return factors(n)

    monkeypatch.setattr(schur.cli, "semiprime_factors", limited)
    assert next(iter(_table_rows("semiprime", 10**6))) == (6, 7)


def test_table_semiprime_full(capsys):
    code, out, _ = run(capsys, "table", "semiprime", "--max", "100")
    rows = dict(tuple(map(int, line.split())) for line in out.splitlines())
    assert code == 0
    assert len(rows) == 30
    assert rows[6] == 7 and rows[65] == 67 and rows[91] == 97 and rows[95] == 61


def test_verify_degenerate_modulus(capsys):
    code, out, _ = run(capsys, "verify", "1")
    assert code == 0
    assert "verify 1: PASS" in out


def test_table_verify_flags_rows(capsys):
    code, out, _ = run(capsys, "table", "semiprime", "--max", "15", "--verify")
    assert code == 0
    for line in out.splitlines():
        assert line.endswith("ok")


def test_verify_semiprime(capsys):
    code, out, _ = run(capsys, "verify", "21")
    assert code == 0
    assert "PASS family split: 27 = 10 automorphic + 16 wedge-only + 1 trivial" in out
    assert "verify 21: PASS" in out


def test_verify_deep_oracle(capsys):
    code, out, _ = run(capsys, "verify", "12", "--deep")
    assert code == 0
    assert "PASS oracle" in out


def test_verify_large_skips_oracle(capsys):
    code, out, _ = run(capsys, "verify", "91")
    assert code == 0
    assert "SKIP oracle" in out
    assert "verify 91: PASS" in out


def test_output_deterministic(capsys):
    first = run(capsys, "enumerate", "12", "--json")
    second = run(capsys, "enumerate", "12", "--json")
    assert first == second


def test_usage_error_exit_code(capsys):
    for n in ("0", "-5"):  # read as ints, then refused by the bound check
        code, out, err = run(capsys, "count", n)
        assert code == 2 and out == "" and err == "error: n must be a positive integer\n"


@pytest.mark.parametrize(
    "argv, problem",
    [
        ((), "missing command"),
        (("bogus", "12"), "unknown command 'bogus'"),
        (("count", "12", "--bogus"), "unknown option '--bogus'"),
        (("verify", "12", "--de"), "unknown option '--de'"),  # no abbreviations
        (("count", "--", "12"), "unknown option '--'"),  # no separator
        (("count", "12", "-x"), "unexpected argument '-x'"),
        (("enumerate", "--json=12"), "unknown option '--json=12'"),  # a switch takes no value
        (("count",), "missing n"),
        (("table", "--max", "20"), "missing family"),
        (("table", "semiprime", "--max"), "--max needs a value"),
        (("count", "12", "--method"), "--method needs a value"),
        (("count", "12", "--method", "nonsense"), "invalid method 'nonsense' (choose from"),
        (("count", "12", "--method="), "invalid method '' (choose from"),
        (("table", "primes"), "invalid family 'primes' (choose from semiprime, fourp)"),
        (("count", "twelve"), "invalid n 'twelve' (not an integer)"),
        (("verify", "1.5"), "invalid n '1.5' (not an integer)"),
        (("table", "fourp", "--max=ten"), "invalid max 'ten' (not an integer)"),
        (("table", "fourp", "--max", "--verify"), "invalid max '--verify' (not an integer)"),
        (("count", "12", "13"), "unexpected argument '13'"),
        (("table", "semiprime", "fourp"), "unexpected argument 'fourp'"),
    ],
)
def test_refused_command_lines(capsys, argv, problem):
    code, out, err = run(capsys, *argv)
    lines = err.splitlines()
    assert code == 2 and out == "", argv
    assert lines[0].startswith("usage: schur ") and lines[-1].startswith(f"schur: error: {problem}")


def test_json_and_text_exclude_each_other(capsys):
    for argv in (("enumerate", "12", "--json", "--text"), ("enumerate", "--text", "12", "--json")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err == (
            "usage: schur enumerate [-h] n [--json] [--text] [--tags] [--cores]\n"
            "schur: error: --json and --text exclude each other\n"
        )


OPTIONS = {
    "count": ["n", "--method {formula,enumerate,oracle}", "(default: enumerate)"],
    "enumerate": ["n", "--json", "--text", "--tags", "--cores"],
    "table": ["{semiprime,fourp}", "--max MAX", "(default: 100)", "--verify"],
    "verify": ["n", "--deep"],
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_command_help_lists_every_option(capsys, command):
    for flag in ("--help", "-h"):
        code, out, err = run(capsys, command, flag)
        assert code == 0 and err == "", flag
        assert out.startswith(f"usage: schur {command} [-h] "), out
        assert all(option in out for option in OPTIONS[command] + ["-h, --help"]), out
        assert run(capsys, command, "12", flag) == (code, out, err)  # wherever it stands


def test_top_level_help_lists_every_command(capsys):
    for flag in ("--help", "-h"):
        code, out, err = run(capsys, flag)
        assert code == 0 and err == ""
        for command, options in OPTIONS.items():
            assert f"usage: schur {command} [-h] " in out
            assert all(option in out for option in options)


def test_accepted_option_spellings(capsys):
    # --opt=value is --opt value; options stand before or after the positional
    assert run(capsys, "table", "semiprime", "--max=200") == run(
        capsys, "table", "semiprime", "--max", "200"
    )
    code, out, _ = run(capsys, "verify", "--deep", "12")
    assert code == 0 and "PASS oracle" in out
    assert run(capsys, "verify", "12", "--deep") == (code, out, "")
    assert run(capsys, "table", "--max=30", "fourp") == run(capsys, "table", "fourp", "--max", "30")
    code, out, _ = run(capsys, "count", "--method=formula", "21")
    assert code == 0 and out == "Omega(21) = 27 [formula]\n"
    # a switch may repeat; a valued option keeps its last value
    code, out, _ = run(capsys, "count", "21", "--method", "oracle", "--method", "formula")
    assert code == 0 and out == "Omega(21) = 27 [formula]\n"
    assert run(capsys, "enumerate", "6", "--tags", "--tags") == run(capsys, "enumerate", "6", "--tags")
    assert run(capsys, "table", "semiprime", "--max=7", "--max", "6")[1] == "   6      7\n"


def test_oracle_limit_env_is_ignored(capsys, monkeypatch):
    # the search limit is DEFAULT_SEARCH_LIMIT alone; no environment value moves it
    for raw in ("15", "abc", "", "0"):
        monkeypatch.setenv("SCHUR_ORACLE_LIMIT", raw)
        code, out, _ = run(capsys, "count", "12", "--method", "oracle")
        assert code == 0 and out == "Omega(12) = 32 [oracle]\n", raw
        code, out, _ = run(capsys, "verify", "15")
        assert code == 0 and "SKIP oracle: n=15 exceeds limit 14" in out, raw
        code, _, err = run(capsys, "count", "15", "--method", "oracle")
        assert code == 2 and "exceeds the oracle limit" in err, raw


def test_formula_and_table_bounds_are_usage_errors(capsys, monkeypatch):
    from schur.cli import MAX_FORMULA_N, MAX_TABLE_N

    def never(*args, **kwargs):
        raise AssertionError("factoring started before the bound was checked")

    # past each bound, trial division would run for seconds: refused before any factoring
    for name in ("is_prime", "semiprime_factors", "four_p_factor"):
        monkeypatch.setattr(f"schur.cli.{name}", never)
    for argv, message in (
        (("count", str(MAX_FORMULA_N + 1), "--method", "formula"), "closed-form bound"),
        (("count", "9999999999999937", "--method", "formula"), "closed-form bound"),
        (("table", "semiprime", "--max", str(MAX_TABLE_N + 1)), "table bound"),
        (("table", "fourp", "--max", "400000"), "table bound"),
    ):
        code, out, err = run(capsys, *argv)
        bound = MAX_FORMULA_N if argv[0] == "count" else MAX_TABLE_N
        assert code == 2 and out == "" and f"exceeds the {message} {bound}" in err, argv
    # just under each bound it still answers: the largest prime below 10**12, the full table
    monkeypatch.undo()
    code, out, _ = run(capsys, "count", "999999999989", "--method", "formula")
    assert code == 0 and out == "Omega(999999999989) = 24 [formula]\n"
    code, out, _ = run(capsys, "table", "semiprime", "--max", str(MAX_TABLE_N))
    assert code == 0 and out.endswith("49983    241\n")


def test_search_bound_is_usage_error(capsys, monkeypatch):
    from schur.brute_force import MAX_SEARCH_N

    def never(*args, **kwargs):
        raise AssertionError("enumeration started before the search refused")

    # verify runs the search first, and the search refuses before it allocates
    monkeypatch.setattr("schur.cli.enumerate_rings", never)
    for n in (MAX_SEARCH_N + 1, 9973):
        code, out, err = run(capsys, "verify", str(n), "--deep")
        assert code == 2 and out == "", n
        assert f"n={n} exceeds the brute-force bound {MAX_SEARCH_N}" in err, n
    # past the limit, verify skips the search, so the bound does not apply
    monkeypatch.undo()
    code, out, _ = run(capsys, "verify", "257")
    assert code == 0 and "SKIP oracle: n=257 exceeds limit 14" in out


def test_modulus_bound_is_usage_error(capsys, monkeypatch):
    from schur.cli import MAX_ENUMERATED_N

    def never(*args, **kwargs):
        raise AssertionError("work started before the modulus bound was checked")

    monkeypatch.setattr("schur.cli.enumerate_rings", never)
    monkeypatch.setattr("schur.cli.ring_count", never)
    monkeypatch.setattr("schur.cli.brute_force_schur_rings", never)
    for n in (MAX_ENUMERATED_N + 1, 10**18 + 3, 10**70):
        for argv in (
            ("count", str(n)),
            ("count", str(n), "--method", "enumerate"),
            ("count", str(n), "--method", "oracle"),
            ("enumerate", str(n), "--json"),
            ("verify", str(n), "--deep"),
            ("table", "semiprime", "--max", str(n), "--verify"),
            ("table", "fourp", "--max", str(n), "--verify"),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", argv
            assert f"exceeds the enumeration bound {MAX_ENUMERATED_N}" in err, argv
    # the bound itself is accepted, and the closed form takes n past it
    monkeypatch.setattr("schur.cli.ring_count", lambda n: -1)
    code, out, _ = run(capsys, "count", str(MAX_ENUMERATED_N))
    assert code == 0 and out == f"Omega({MAX_ENUMERATED_N}) = -1 [enumerate]\n"
    code, out, _ = run(capsys, "count", "10001", "--method", "formula")
    assert code == 0 and out == "Omega(10001) = 415 [formula]\n"
    code, out, _ = run(capsys, "table", "fourp", "--max", str(MAX_ENUMERATED_N), "--verify")
    assert code == 1 and out.endswith(" MISMATCH (enumerated -1)\n")
    # without --verify the table only evaluates closed forms
    code, out, _ = run(capsys, "table", "semiprime", "--max", "10003")
    assert code == 0 and out.endswith("10003    385\n")
