import json

import pytest

import schur.cli
from schur.cli import _table_rows, main
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
    assert main(["count", "21", "--method", "nonsense"]) == 2
    assert main(["bogus"]) == 2
    code, _, err = run(capsys, "count", "0")
    assert code == 2 and "positive" in err


def test_oracle_limit_env_override(capsys, monkeypatch):
    monkeypatch.setenv("SCHUR_ORACLE_LIMIT", "15")
    code, out, _ = run(capsys, "count", "15", "--method", "oracle")
    assert code == 0 and out == "Omega(15) = 21 [oracle]\n"


def test_oracle_limit_env_invalid_is_usage_error(capsys, monkeypatch):
    def never(n):
        raise AssertionError("enumeration started before the limit was checked")

    monkeypatch.setattr("schur.cli.enumerate_rings", never)
    for raw in ("abc", "", "1.5", "0", "-3"):
        monkeypatch.setenv("SCHUR_ORACLE_LIMIT", raw)
        for argv in (("count", "12", "--method", "oracle"), ("verify", "12")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "", (raw, argv)
            assert "SCHUR_ORACLE_LIMIT" in err and "positive integer" in err


def test_modulus_bound_is_usage_error(capsys, monkeypatch):
    from types import SimpleNamespace

    from schur.cli import MAX_ENUMERATED_N

    def never(*args, **kwargs):
        raise AssertionError("work started before the modulus bound was checked")

    monkeypatch.setattr("schur.cli.enumerate_rings", never)
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
    # the bound itself is accepted, and the closed form takes any n
    monkeypatch.setattr("schur.cli.enumerate_rings", lambda n: SimpleNamespace(omega=-1))
    code, out, _ = run(capsys, "count", str(MAX_ENUMERATED_N))
    assert code == 0 and out == f"Omega({MAX_ENUMERATED_N}) = -1 [enumerate]\n"
    code, out, _ = run(capsys, "count", "10001", "--method", "formula")
    assert code == 0 and out == "Omega(10001) = 415 [formula]\n"
    code, out, _ = run(capsys, "table", "fourp", "--max", str(MAX_ENUMERATED_N), "--verify")
    assert code == 1 and out.endswith(" MISMATCH (enumerated -1)\n")
    # without --verify the table only evaluates closed forms
    code, out, _ = run(capsys, "table", "semiprime", "--max", "10003")
    assert code == 0 and out.endswith("10003    385\n")
