"""Exact enumeration lab for descent statistics on permutations whose
prefix before the value 1 is strictly decreasing.

The package computes statistic-generating polynomials over permutation
classes with exact rational arithmetic, expands them in the symmetric basis
(xy)^k (x+y)^(n-2k), realizes them through a substitution-rule derivative
calculus, and verifies the structural identities tying all of that together
by brute-force enumeration at small sizes.
"""

from .action import Factorization, Orbit, interval_swap, minima_hop, orbit, toggle, toggle_many
from .bijection import mirror, pair_table
from .checks import PROOFS, REGISTRY, CheckReport, verify, verify_all, verify_proofs
from .enumerators import (
    Enumerator,
    EnumeratorKind,
    build,
    euler_number,
    stirling_eulerian,
)
from .errors import EulabError
from .gamma import GammaExpansion, GammaRoute, gamma_expand, gamma_from_class
from .grammar import Grammar, LabelWord, builtin, derive, parse_grammar, slot_labels
from .perms import (
    PermClass,
    StatProfile,
    classify,
    enumerate_class,
    is_prefix_decreasing,
    minima,
    parse_perm,
    stats,
)
from .poly import MultiPoly, parse_poly

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "Enumerator",
    "EnumeratorKind",
    "EulabError",
    "Factorization",
    "GammaExpansion",
    "GammaRoute",
    "Grammar",
    "LabelWord",
    "MultiPoly",
    "Orbit",
    "PROOFS",
    "PermClass",
    "REGISTRY",
    "StatProfile",
    "build",
    "builtin",
    "classify",
    "derive",
    "enumerate_class",
    "euler_number",
    "gamma_expand",
    "gamma_from_class",
    "interval_swap",
    "is_prefix_decreasing",
    "minima",
    "minima_hop",
    "mirror",
    "orbit",
    "pair_table",
    "parse_grammar",
    "parse_perm",
    "parse_poly",
    "slot_labels",
    "stats",
    "stirling_eulerian",
    "toggle",
    "toggle_many",
    "verify",
    "verify_all",
    "verify_proofs",
]
