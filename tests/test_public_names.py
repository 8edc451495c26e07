"""The names `equitile` exports, pinned: adding or removing one is a decision
that shows in this file."""
import types

import equitile as eq

PUBLIC = {
    # errors
    "AdmissibilityError", "EquitileError", "InputError", "NumericalError",
    "RankDeficiencyError",
    # partitions and equitability
    "EquitabilityVerdict", "Partition", "WeightedIndicator", "check_equitable",
    "check_regular_equivalence", "coarsest_front_equitable_refinement",
    "epsilon_equitability", "indicator_matrix", "is_admissible",
    "suitable_indexing_permutation", "weighted_refinement",
    # elementary unitaries
    "BlockReflector", "beta0", "build_reflector", "gamma",
    # the square transform
    "DeviationMatrix", "QuotientMatrix", "SpectrumSplit", "TriangularizationResult",
    "block_triangularize", "build_block_reflector", "deviation_matrices",
    "generalized_quotient", "omega_permutation", "recover_eigenvector", "spectrum_gap",
    "spectrum_split",
    # analysis
    "DeviationReport", "PerturbationCheck", "deviation_report", "theta_residual",
    "weyl_check",
    # the rectangular transform
    "BlockSVD", "RectResult", "block_padded_identity", "block_svd", "deviation_rect",
    "omega_nr_permutation", "padded_identity", "rayleigh_quotient_rect", "rect_transform",
}


def test_public_names_are_pinned():
    names = {name for name, value in vars(eq).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC
