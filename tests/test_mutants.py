"""Standing mutation checks: each breaks one exact line of a copy of src/ and
requires the named tests, run on that copy in a child process, to fail.

Each entry is (module under src/schur, the exact line, its replacement, the
reason it is wrong, test file, -k expression, the number of tests that must fail).
The child pytest runs with a timeout and a capped address space.
"""

import os
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.slow

MUTANTS = [
    (
        "core.py",
        "        fixed = [c for c in todo if all(images[classes[c][0]] == c for images in moved)]",
        "        fixed = todo[:]",
        "the wide-row checker skips the largest divisor class though a unit generator moves it",
        "tests/test_core.py",
        "wide_rows",
        1,
    ),
    (
        "core.py",
        "    return sig if list(map(sig.__getitem__, firsts)) == sig else None",
        "    return sig",
        "the axiom-3 kernel accepts a signature that is not constant on a class",
        "tests/test_core.py",
        "axiom_three_failure",
        1,
    ),
    (
        "enumeration.py",
        "            if hk in s_subgroups(t) and all(m % hk for _, m in t._split_sections):",
        "            if hk in s_subgroups(t):",
        "the right factors of a wedge are no longer cut to canonical sections",
        "tests/test_enumeration.py",
        "canonical_sections_cut_wedge_builds",
        1,
    ),
    (
        "enumeration.py",
        "                if ts and rivals[k, h]:",
        "                if False:",
        "a ring with two kept sections is built along both, not along its canonical one",
        "tests/test_enumeration.py",
        "canonical_sections_cut_wedge_builds",
        1,
    ),
    (
        "core.py",
        "        fixed = [c for c in todo if stars[c] == c]",
        "        fixed = todo[:]",
        "the one-word checker skips the largest class even when it is not its own star",
        "tests/test_core.py",
        "checker_matches_reference_on_every_partition",
        1,
    ),
    (
        "automorphic.py",
        "        done.update(powers[j] for j in range(1, m) if gcd(j, m) == 1)",
        "        done.update(powers)",
        "every power of g is taken for a generator of <g>, so smaller cyclic subgroups are lost",
        "tests/test_brute_force.py",
        "subgroup_count_examples",
        1,
    ),
    (
        "automorphic.py",
        "            if a := g // s % m:",
        "            if a := g % m:",
        "an element's coordinate on an axis is read without the axis's stride",
        "tests/test_automorphic.py",
        "all_subgroups_counts",
        1,
    ),
    (
        "formulas.py",
        "            local = [((p - 1) * q // p, g + p if pow(g, p - 1, p * p) == 1 else g)]",
        "            local = [((p - 1) * q // p, g)]",
        "a primitive root mod p that is not one mod p^2 is not lifted to g + p",
        "tests/test_automorphic.py",
        "lift_a_primitive_root",
        1,
    ),
    (
        "brute_force.py",
        "                if moved != members and not moved.isdisjoint(members):",
        "                if moved != members:",
        "the oracle's closure grows by every unit image, not only by those that meet the class",
        "tests/test_brute_force.py",
        "rings_over_z4",
        1,
    ),
    (
        "automorphic.py",
        "            if a & g or not a & below:",
        "            if a & g or a & below:",
        "the walk joins A with <g> only when A holds no q*g, so it takes no prime-index step",
        "tests/test_automorphic.py",
        "subgroup_lattice_matches_callback_reference",
        1,
    ),
    (
        "enumeration.py",
        "                if not (census and sa and ta):",
        "                if not (sa and ta):",
        "the build drops direct products of two automorphic factors, and their direct tags",
        "tests/test_enumeration.py",
        "direct_tag_equals_product_reconstruction",
        1,
    ),
    (
        "cli.py",
        '    if values.get("json") and values.get("text"):',
        "    if False:",
        "`enumerate --json --text` runs instead of exiting 2 as a usage error",
        "tests/test_cli.py",
        "json_and_text_exclude_each_other",
        1,
    ),
]

ADDRESS_SPACE = 2 << 30  # bytes the child may map: a runaway mutant fails, not the machine


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


@pytest.mark.parametrize("module, line, mutant, reason, tests, select, failures", MUTANTS)
def test_mutant_is_killed(tmp_path, module, line, mutant, reason, tests, select, failures):
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "schur" / module
    lines = path.read_text().split("\n")
    if lines.count(line) != 1:
        pytest.fail(f"{module} holds the mutated line {lines.count(line)} times, not once")
    lines[lines.index(line)] = mutant
    path.write_text("\n".join(lines))

    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run(
        [sys.executable, "-c", f"import schur.{module[:-3]} as m; print(m.__file__)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    if Path(where.stdout.strip()).resolve() != path.resolve():
        pytest.fail(f"the child imports {where.stdout.strip() or where.stderr}, not the copy")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", tests, "-k", select],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
        preexec_fn=_limit_address_space,
    )
    summary = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else out.stderr
    if out.returncode != 1 or not re.match(rf"{failures} failed\b", summary) or "passed" in summary:
        pytest.fail(f"{reason}, yet: exit {out.returncode}, {summary}")
