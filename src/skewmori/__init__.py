"""Exact-arithmetic birational geometry of the moduli spaces A(n) of
complete skew-forms: divisor/curve cones, Cox generator degrees, chamber
and stable-base-locus decompositions, and the Pfaffian calculus behind them.
"""

from .cones import Cone, nonneg_combination
from .geometry import (
    CoxGenerator,
    CurveClass,
    DivisorClass,
    anticanonical,
    cox_generator_degrees,
    divisor_class_D,
    eff_cone,
    eff_generators,
    exceptional_class,
    fano_index,
    mori_cone,
    mori_generators,
    movable_cone,
    moving_curve_cone,
    nef_cone,
    nef_generators,
    pair,
)
from .pfaffian import (
    Polynomial,
    SkewMatrix,
    codim_secant,
    dim_secant,
    multiplicity_estimate,
    secant_sample,
    skew_inverse,
    sub_pfaffian,
    terracini_dim,
    validate_complete_form,
    vanishing_order,
    wedge_power,
)
from .chambers import (
    Decomposition,
    GKZChamber,
    VectorConfiguration,
    blowup_one_decomposition,
    chamber_of,
    configuration_for,
    conjecture_counts,
    decomposition_for,
    gkz_chambers,
)

__version__ = "0.1.0"
