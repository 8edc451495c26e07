"""Equitable partitions of complex matrices and their unitary transforms.

The toolkit detects (weighted, approximate) equitable partitions, builds
block-diagonal elementary-unitary similarity transforms that expose the
quotient/factor/deviation structure, measures deviation from equitability
in unitarily invariant norms, and extends the construction to rectangular
matrices through per-block SVDs.
"""
from .analysis import (
    DeviationReport,
    PerturbationCheck,
    deviation_report,
    theta_residual,
    weyl_check,
)
from .errors import (
    AdmissibilityError,
    EquitileError,
    InputError,
    NumericalError,
    RankDeficiencyError,
)
from .partition import (
    EquitabilityVerdict,
    Partition,
    WeightedIndicator,
    check_equitable,
    check_regular_equivalence,
    coarsest_front_equitable_refinement,
    epsilon_equitability,
    indicator_matrix,
    is_admissible,
    suitable_indexing_permutation,
    weighted_refinement,
)
from .rectangular import (
    BlockSVD,
    RectResult,
    block_padded_identity,
    block_svd,
    deviation_rect,
    omega_nr_permutation,
    padded_identity,
    rayleigh_quotient_rect,
    rect_transform,
)
from .reflector import BlockReflector, beta0, build_reflector, gamma
from .triangularize import (
    DeviationMatrix,
    QuotientMatrix,
    SpectrumSplit,
    TriangularizationResult,
    block_triangularize,
    build_block_reflector,
    deviation_matrices,
    generalized_quotient,
    omega_permutation,
    recover_eigenvector,
    spectrum_gap,
    spectrum_split,
)

__version__ = "0.1.0"
