"""Toricity analysis of vertically parametrized polynomial systems.

Decides toric invariance, local toricity, and toricity of systems of the
form C(k . x^M) over the positive reals (with real/complex variants for
the invariance part), and applies the verdicts to mass-action reaction
networks: multistationarity, concentration robustness, intermediate
reduction, and batch screening.
"""

from .exactalg import (
    CircuitBasis,
    IntegerMatrix,
    RationalMatrix,
    TrivialKernelError,
    hermite_normal_form,
    integer_kernel_basis,
    kernel_circuit_basis,
    random_kernel_vector,
)
from .polyhedra import (
    ConeRays,
    DimensionMismatchError,
    SupportSet,
    extreme_rays,
    mixed_volume,
    polytope_volume,
    positive_row_space,
    strictly_positive_kernel,
)
from .polyring import (
    SignVerdict,
    SparsePolynomial,
    count_distinct_roots,
    det_stacked,
    render,
    sign_classify,
)
from .core import (
    AnalyzeOptions,
    CosetCountingSystem,
    DegenerateSliceError,
    EmptyLocusError,
    GroupMode,
    InvarianceResult,
    MatroidPartition,
    ToricityReport,
    Verdict,
    VerticalSystem,
    analyze,
    binomial_quickcheck,
    build_free_system,
    constant_coset_conditions,
    coset_counting_system,
    count_positive_cosets,
    injectivity_test,
    invariance_group,
    local_toricity,
    matroid_partition,
    nondegeneracy,
    nondegeneracy_all_positive,
    positive_locus_nonempty,
    quasihomogeneity_weights,
    render_exchange,
)
from .crn import (
    NetworkParseError,
    ReactionNetwork,
    ZeroDynamicsError,
    acr_detect,
    analyze_network,
    conservation_laws,
    find_intermediates,
    lift_invariance,
    mass_action_matrices,
    minimal_siphons,
    multistationarity_test,
    network_structure,
    parse_network,
    reduce_network,
    siphon_boundary_check,
    steady_state_system,
)
from .fileio import read_model, write_matrix_json

__version__ = "0.1.0"

__all__ = [
    "AnalyzeOptions", "CircuitBasis", "ConeRays", "CosetCountingSystem",
    "DegenerateSliceError", "DimensionMismatchError", "EmptyLocusError",
    "GroupMode", "IntegerMatrix", "InvarianceResult", "MatroidPartition",
    "NetworkParseError", "RationalMatrix", "ReactionNetwork", "SignVerdict",
    "SparsePolynomial", "SupportSet", "ToricityReport", "TrivialKernelError",
    "Verdict", "VerticalSystem", "ZeroDynamicsError", "acr_detect", "analyze",
    "analyze_network", "binomial_quickcheck", "build_free_system",
    "conservation_laws", "constant_coset_conditions", "coset_counting_system",
    "count_distinct_roots", "count_positive_cosets", "det_stacked",
    "extreme_rays", "find_intermediates", "hermite_normal_form",
    "injectivity_test", "integer_kernel_basis", "invariance_group",
    "kernel_circuit_basis", "lift_invariance", "local_toricity",
    "mass_action_matrices", "matroid_partition", "minimal_siphons",
    "mixed_volume", "multistationarity_test", "network_structure",
    "nondegeneracy", "nondegeneracy_all_positive", "parse_network",
    "polytope_volume", "positive_locus_nonempty", "positive_row_space",
    "quasihomogeneity_weights", "random_kernel_vector", "read_model",
    "reduce_network", "render", "render_exchange", "sign_classify",
    "siphon_boundary_check", "steady_state_system",
    "strictly_positive_kernel", "write_matrix_json", "__version__",
]
