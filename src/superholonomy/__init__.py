"""Exact Grassmann/supermatrix calculus for flat OSp(m|2n) connections on the torus."""

from .grassmann import GrassmannElement, NonInvertibleError
from .group import (
    GaugeFixResidualError,
    HolonomyPair,
    HypothesisError,
    OspGroup,
    SectorDescriptor,
    SectorReport,
    SingularGaugeOperatorError,
    ahat,
    ahat_det_rank,
    build_nonexp_holonomy,
    commuting_pair_forces_diagonal,
    det_conjugation_invariance,
    enumerate_sectors_osp12,
    fermionic_moduli_count,
    fermionic_moduli_count_bruteforce,
    gauge_fix_sigma,
    sample_commuting_bodies,
    sector_representative,
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
from .supermatrix import ExpmNotConvergedError, ParityPatternError, SuperMatrix, commutator

__version__ = "0.1.0"

__all__ = [
    "ExpmNotConvergedError",
    "GaugeFixResidualError",
    "GrassmannElement",
    "GradedPolynomial",
    "HolonomyPair",
    "HypothesisError",
    "NonInvertibleError",
    "OspGroup",
    "ParityPatternError",
    "PhaseSpace",
    "SectorDescriptor",
    "SectorReport",
    "SingularGaugeOperatorError",
    "SuperAlgebra",
    "SuperMatrix",
    "ahat",
    "ahat_det_rank",
    "build_nonexp_holonomy",
    "build_osp",
    "build_osp12",
    "check_closure",
    "commutator",
    "commuting_pair_forces_diagonal",
    "det_conjugation_invariance",
    "enumerate_sectors_osp12",
    "exponential_sector_moduli",
    "fermionic_moduli_count",
    "fermionic_moduli_count_bruteforce",
    "flatness_constraints",
    "gauge_fix_sigma",
    "gauge_fixing_check",
    "osp12_exponential_sector",
    "sample_commuting_bodies",
    "sector_representative",
    "__version__",
]
