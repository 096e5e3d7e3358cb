import os
import subprocess
import sys
from pathlib import Path

import schur
from schur import automorphic, brute_force, constructions, core, enumeration, formulas


def test_package_exports_its_modules_public_names():
    modules = (automorphic, brute_force, constructions, core, enumeration, formulas)
    assert set(schur.__all__) == {name for m in modules for name in m.__all__}
    for name in schur.__all__:
        assert getattr(schur, name) is next(
            getattr(m, name) for m in modules if name in m.__all__
        ), name
    namespace: dict = {}
    exec("from schur import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(schur.__all__)


def test_package_exports_are_pinned():
    assert sorted(schur.__all__) == [
        "AxiomViolation",
        "DEFAULT_SEARCH_LIMIT",
        "EnumerationResult",
        "FAMILY_TAGS",
        "MAX_SEARCH_N",
        "SchurPartition",
        "Section",
        "UnitGroup",
        "UnitSubgroup",
        "all_subgroups",
        "aut_subgroup_count",
        "automorphic_rings",
        "brute_force_schur_rings",
        "brute_force_subgroup_count",
        "check_schur_axioms",
        "core_census",
        "count_2p",
        "count_3p",
        "count_4p",
        "count_5p",
        "count_prime",
        "count_semiprime",
        "count_semiprime_split",
        "direct_product",
        "discrete_ring",
        "divisor_count",
        "divisors",
        "enumerate_rings",
        "euler_phi",
        "factorize",
        "find_wedge_section",
        "four_p_factor",
        "indecomposable_count",
        "is_prime",
        "is_schur_partition",
        "orbit_partition",
        "quotient",
        "restrict",
        "ring_count",
        "s_subgroups",
        "semiprime_factors",
        "subgroup_lattice_size",
        "trivial_ring",
        "two_adic_split",
        "unit_group",
        "wedge_compatible",
        "wedge_core",
        "wedge_product",
    ]
    assert schur.__version__ == "0.1.0"


def test_import_leaves_array_unloaded():
    # the signature kernel decodes its words through memoryview; `array` alone costs RSS
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", "import sys, schur; print('array' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"


def test_import_leaves_dataclasses_inspect_and_typing_unloaded():
    # the records are plain slotted classes and annotations are never evaluated, so the
    # package and its CLI start without dataclasses (which pulls in inspect) or typing;
    # -S keeps site-packages hooks from importing them first
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import sys, schur, schur.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_cli_runs_without_argparse_gettext_or_locale():
    # the command line is parsed from the module's own table; argparse would load gettext,
    # and gettext locale, on every `schur` process
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (
        "import io, sys, contextlib, schur.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = schur.cli.main(['verify', '6'])\n"
        "assert code == 0 and out.getvalue().endswith('verify 6: PASS\\n'), out.getvalue()\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"
