"""Exact computer algebra for affine Hecke algebras with unequal parameters,
rank-one intertwining identities, Bernstein-block classification for covers
of classical groups, and the parameter calculus matching metaplectic blocks
with odd special orthogonal groups.

The exports load on first use (PEP 562): ``import mphecke`` imports no
submodule, and ``from mphecke import X`` imports the module defining X and what
it imports.
"""

from importlib import import_module as _import_module

# each submodule with the names the package exports from it
_EXPORTS = {
    "laurent": ("GroupAlgebraElement", "NotDivisible", "QLaurent", "RationalFunction",
                "rf_normalize"),
    "rootdata": ("BasedRootDatum", "DiagramAutomorphism", "WeylElement", "braid_order",
                 "build_O_datum", "classical_datum", "coroot_in_2Lambda", "reduced_word",
                 "weyl_enumerate", "weyl_length"),
    "hecke": ("Cocycle", "ExponentChar", "ExtendedHeckeElement", "HeckeElement", "HeckeParams",
              "ext_mul", "he_mul", "is_central", "sqint_check", "tempered_check"),
    "rankone": ("InconsistentSigns", "MuFunction", "RankOneAlgebra", "RankOneElement", "build_Ts",
                "j_square_check", "mu_build", "verify_quadratic"),
    "blocks": ("BlockDescriptor", "ClassifiedBlock", "CuspidalLine", "classify", "hecke_from_block"),
    "mpparams": ("AltChar", "DiscreteParameter", "InertialClass", "JordEntry",
                 "MpHeckePresentation", "NormedParameter", "SChoice", "classical_hecke",
                 "classical_match", "enumerate_S", "enumerate_alt_chars", "epsilon_Z",
                 "first_occurrence_x", "hecke_for_block", "jord_from_x", "split_so",
                 "verify_match", "weil_example", "without_holes", "x_from_jord"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
