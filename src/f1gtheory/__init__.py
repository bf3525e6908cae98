"""Degree-0 and degree-1 invariants of finite groups and pointed monoids.

The package is organized in layers: finite groups and their subgroups,
pointed monoids and their finite modules, the Burnside ring with its table
of marks, lambda and diamond operations in the ghost ring, induction and
restriction with the double coset formula, and the degree-0 and degree-1
invariants (`gtheory`, with its engines `g0_group` and `g0_monoid`).  The
CLI's commands run in the `*_commands` modules.  Constructions that no
engine layer uses (base change, smash products, pushouts, bimodules, the
explicit ordered-tuple module, isomorphism testing) are in `constructions`.

The public names resolve lazily (PEP 562): `import f1gtheory` loads no
submodule, and the first use of a name loads the submodule that defines it.
"""

from __future__ import annotations

import sys
from importlib import import_module
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# The one export table: public name -> the submodule that defines it.
_EXPORTS = {name: module for module, names in {
    "burnside": ("BurnsideElement", "BurnsideRing", "build_burnside",
                 "decompose", "marks_to_csv"),
    "constructions": ("Bimodule", "MonoidHom", "are_isomorphic", "base_change",
                      "base_change_hom", "bimodule_from_module",
                      "bimodule_from_monoid_hom", "diamond", "find_isomorphism",
                      "find_section", "generating_set", "identity_monoid_hom",
                      "is_isomorphic", "pushout", "restrict_scalars", "smash"),
    "errors": ("InternalCheckError", "ResourceLimitError"),
    "groups": ("FiniteGroup", "Subgroup", "SubgroupClassification",
               "abelianization", "all_subgroups", "build_group",
               "classify_subgroups", "closure_of",
               "conjugacy_classes_of_elements", "group_from_json",
               "is_odd_cyclic", "library_names", "load_group", "normalizer",
               "parse_cycles"),
    "gtheory": ("AbelianGroupReport", "CartanReport",
                "GrothendieckPresentation", "cartan_zero",
                "count_simple_factors", "g0_presentation", "g1_via_splitting"),
    "lambda_ops": ("diamond_class", "lambda_k", "lambda_series",
                   "verify_lambda_ring", "verify_pre_lambda"),
    "mackey": ("DoubleCosetPlan", "DoubleCosetReport", "FrobeniusReport",
               "SubgroupContext", "check_double_coset", "check_frobenius",
               "conjugate", "double_coset_plan", "double_coset_plans",
               "double_coset_reps", "green_morphism_check", "induce",
               "restrict", "subgroup_context", "transport"),
    "modules": ("FiniteModule", "ModuleHom", "PointedMonoid", "coset_module",
                "detect_group", "diagonal_smash", "free_module",
                "group_monoid", "is_cofibration", "module_from_json",
                "monoid_from_json", "quotient", "quotient_with_projection",
                "submodule_inclusion", "wedge", "wedge_with_inclusions",
                "zero_module"),
    "polynomials": ("composition_rule", "product_rule"),
    "reports": ("CheckReport",),
    "snf": ("cokernel_invariants", "factorize", "merge_cyclic_factors",
            "smith_normal_form"),
}.items() for name in names}

__all__ = sorted(_EXPORTS)


def _layer(name: str):
    """The submodule `name`, in `sys.modules` at once but compiled and run
    on first attribute access; an already registered module as it is."""
    fullname = f"{__name__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = find_spec(fullname)
        spec.loader = LazyLoader(spec.loader)
        module = sys.modules[fullname] = module_from_spec(spec)
        spec.loader.exec_module(module)
        globals()[name] = module  # the package attribute an import sets
    return module


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
