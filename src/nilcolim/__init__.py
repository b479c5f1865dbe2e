"""Commuting-structure invariants of finite groups.

The package certifies, at desk scale, the algebra behind commuting
classifying spaces: colimits of abelian subgroups via coset enumeration,
symplectic sequences and the subgroups they span, the kernel-of-multiplication
subgroup of G x G, and integral homology of the commuting-tuple complex.

The names below are resolved on first access (PEP 562), so ``import
nilcolim`` loads no submodule, and a name loads only its home module and
what that imports.
"""

from importlib import import_module

_EXPORTS = {
    "budgets": "BudgetExceededError",
    "groups": (
        "FiniteGroup GroupTooLargeError InvalidTableError MapTable Subgroup"
        " abelianization center closure commutator conjugacy_classes"
        " derived_subgroup is_nilq_map load_multiplication_table"
        " lower_central_series nilpotency_class"
    ),
    "constructions": (
        "GroupSpec SpecError build elementary_matrix embed_gl_in_sym"
        " extraspecial_symplectic_basis gl_symplectic_sequence parse_group_spec"
    ),
    "symplectic": (
        "ExhaustedNone NotFoundWithinBudget SymplecticSequence Violation"
        " check_symplectic find_symplectic sequence_subgroup structure_report"
    ),
    "presentations": "Presentation build_presentation presentation_dumps",
    "coset_enum": "CosetTable TableNotClosedError todd_coxeter",
    "colimit": (
        "D2Subgroup KernelReport conjecture_probe d2 d2_antidiagonal_generation"
        " epsilon_kernel kpi1_verdict lemma_suite theorem1_verify"
    ),
    "bar_complex": "build_complex h1_consistency hom_count homology presented_h1",
    "snf": "SNFResult smith_normal_form",
}
# exported name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
