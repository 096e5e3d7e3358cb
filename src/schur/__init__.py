"""Exact construction, verification, and enumeration of Schur rings over Z_n.

The package exports exactly the names in its six modules' __all__ lists.
"""

from schur import automorphic, brute_force, constructions, core, enumeration, formulas
from schur.automorphic import *  # noqa: F403
from schur.brute_force import *  # noqa: F403
from schur.constructions import *  # noqa: F403
from schur.core import *  # noqa: F403
from schur.enumeration import *  # noqa: F403
from schur.formulas import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    {
        name
        for module in (automorphic, brute_force, constructions, core, enumeration, formulas)
        for name in module.__all__
    }
)
