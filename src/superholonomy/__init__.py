"""Exact Grassmann/supermatrix calculus for flat OSp(m|2n) connections on the torus."""

from .grassmann import GrassmannElement, NonInvertibleError, RankUndecidedError
from .group import (
    GaugeFixResidualError,
    HolonomyPair,
    OspGroup,
    SectorDescriptor,
    SectorReport,
    SingularGaugeOperatorError,
    ahat,
    build_nonexp_holonomy,
    enumerate_sectors_osp12,
    fermionic_moduli_count,
    fermionic_moduli_count_bruteforce,
    gauge_fix_sigma,
)
from .phase import (
    GradedPolynomial,
    PhaseSpace,
    check_closure,
    exponential_sector_moduli,
    flatness_constraints,
    gauge_fixing_check,
    osp12_exponential_sector,
)
from .superlie import SuperAlgebra, build_osp, build_osp12
from .supermatrix import ExpmNotConvergedError, ParityPatternError, SuperMatrix

__version__ = "0.1.0"

__all__ = [
    "ExpmNotConvergedError",
    "GaugeFixResidualError",
    "GradedPolynomial",
    "GrassmannElement",
    "HolonomyPair",
    "NonInvertibleError",
    "OspGroup",
    "ParityPatternError",
    "PhaseSpace",
    "RankUndecidedError",
    "SectorDescriptor",
    "SectorReport",
    "SingularGaugeOperatorError",
    "SuperAlgebra",
    "SuperMatrix",
    "__version__",
    "ahat",
    "build_nonexp_holonomy",
    "build_osp",
    "build_osp12",
    "check_closure",
    "enumerate_sectors_osp12",
    "exponential_sector_moduli",
    "fermionic_moduli_count",
    "fermionic_moduli_count_bruteforce",
    "flatness_constraints",
    "gauge_fix_sigma",
    "gauge_fixing_check",
    "osp12_exponential_sector",
]
