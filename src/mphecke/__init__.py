"""Exact computer algebra for affine Hecke algebras with unequal parameters,
rank-one intertwining identities, Bernstein-block classification for covers
of classical groups, and the parameter calculus matching metaplectic blocks
with odd special orthogonal groups."""

from .laurent import (
    GroupAlgebraElement,
    NotDivisible,
    QLaurent,
    RationalFunction,
    rf_normalize,
)
from .rootdata import (
    BasedRootDatum,
    DiagramAutomorphism,
    WeylElement,
    braid_order,
    build_O_datum,
    classical_datum,
    coroot_in_2Lambda,
    reduced_word,
    weyl_enumerate,
    weyl_length,
)
from .hecke import (
    Cocycle,
    ExponentChar,
    ExtendedHeckeElement,
    HeckeElement,
    HeckeParams,
    HeckePresentation,
    ModuleExponents,
    ext_mul,
    he_mul,
    is_central,
    sqint_check,
    tempered_check,
)
from .rankone import (
    InconsistentSigns,
    MuFunction,
    RankOneAlgebra,
    RankOneElement,
    build_Ts,
    j_square_check,
    mu_build,
    mu_zeros_poles,
    verify_quadratic,
)
from .blocks import (
    BlockDescriptor,
    ClassifiedBlock,
    CuspidalLine,
    classify,
    hecke_from_block,
    r_group,
    semidirect_orders,
)
from .mpparams import (
    AltChar,
    DiscreteParameter,
    InertialClass,
    JordEntry,
    MpHeckePresentation,
    NormedParameter,
    SChoice,
    classical_hecke,
    classical_match,
    enumerate_S,
    enumerate_alt_chars,
    epsilon_Z,
    first_occurrence_x,
    hecke_for_block,
    jord_from_x,
    split_so,
    verify_match,
    weil_example,
    without_holes,
    x_from_jord,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
