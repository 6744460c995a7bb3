"""Formal group laws, Weierstrass preparation, level-structure rings and
delta-rings over truncated p-adic coefficient rings."""

__version__ = "0.1.0"

from .coeffring import CoeffElem, CoeffRingSpec
from .deltaring import DeltaRing, SheafValue, parse_delta_ring, sheaf_eval
from .grouprings import (
    AbelianPType,
    AlgebraMap,
    FiniteAlgebra,
    group_cohomology_ring,
    level_ring,
    quotient_to_level,
    restriction_map,
)
from .laws import (
    FormalGroupLaw,
    additive_law,
    honda_law,
    lubin_tate_height2_law,
    multiplicative_law,
)
from .series import TruncSeries
from .tate import (
    EulerClassData,
    LocalizedRing,
    euler_class,
    euler_image_in_level,
    factor_invertibility_check,
    level_to_tate_map,
    localization_kernel,
)
from .weierstrass import WeierstrassFactorization, weierstrass_prepare
