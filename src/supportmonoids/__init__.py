"""Monoids of direct-sum decompositions over the extended naturals.

The package works with submonoids of (N0*)^s, N0* = N0 ∪ {inf},
presented as solution sets of linear equations and congruences.  It
computes their Hilbert bases and systems of supports, builds the
extreme monoids over a given finite part, recognizes direct-sum
splittings, and decides whether every member is a finite member plus an
inf-scaled finite member.

A command loads only what it runs: importing the package loads
``semiring`` and ``errors``, and every other export is imported from
its defining module on first access (PEP 562), so ``supportmonoids
member`` never loads the completion search behind ``hilbert``.
"""

from importlib import import_module

from .errors import MissingOrderUnitError, ResourceLimitError
from .semiring import (INF, add, divides, format_extnat, format_vec, inf_supp,
                       inject, mul, parse_extnat, parse_vec, project, scale,
                       supp, vec_add, vec_from_json, vec_to_json)
from .semiring import supports as support_pair

# export name -> the submodule that defines it, for every lazy export
_LAZY = {name: module for module, names in (
    ("classify", "ClassReport SingleEquationReport analyze_single_equation "
                 "equals_a_plus_inf_a verdict"),
    ("constructions", "DirectSumData a_plus_inf_a b_max b_min compose_direct_sum "
                      "decompose_direct_sum decomposed_almost_free monoid_sum"),
    ("equations", "DioSystem enumerate_truncated from_integer_matrix intersect "
                  "is_member lift_congruences"),
    ("hilbert", "HilbertBasis find_order_unit generated_truncated generated_upto "
                "hilbert_basis in_generated minimize_generators"),
    ("ranks", "RankMatrix is_extended realize_wiegand vstar_system"),
    ("supports", "SystemOfSupports extract generators infinite_supports "
                 "is_almost_free is_full member_via_supports minimal_nonempty "
                 "subsystem_for truncated_members validate"),
) for name in names.split()}


def __getattr__(name):
    """Import a lazy export from its module on first access, and bind it
    here so later reads skip this hook."""
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

__all__ = [
    "INF", "add", "mul", "vec_add", "scale", "supp", "inf_supp", "support_pair",
    "divides", "project", "inject", "parse_extnat", "format_extnat",
    "parse_vec", "format_vec", "vec_from_json", "vec_to_json",
    "MissingOrderUnitError", "ResourceLimitError", "__version__",
    *_LAZY,
]
