"""Mean density matrices of tensor powers of random quantum states.

Exact rational means via the permutation-operator (Schur-Weyl) span, batched
reproducible Monte Carlo estimation, degenerate-eigenspace analysis of the
published fixture matrices, and the selection rule that annihilates their
rational/pi entries.
"""

from .families import (
    bloch_family_eigenvalue_exact,
    dirichlet_family,
    maximal_marginal_expectations,
    monotone_function,
    monotone_scan,
    spin_multiplicity,
)
from .fixtures import FIXTURE_IDS, get_fixture
from .linalg import (
    DIM_CAP,
    Scenario,
    bloch_density,
    hermitian_eig,
    partial_trace,
    permutation_operator,
    reorder_subsystems,
    tensor_power,
    tensor_product,
    validate_density_matrix,
)
from .measures import (
    BlochBallMeasure,
    HaarDirichletMeasure,
    MeasureSpec,
    ProductMeasure,
    RandomStream,
    measure_from_json,
    sample_density,
    sample_haar_unitary,
    sample_simplex,
)
from .montecarlo import MeanEstimate, convergence_report, estimate_mean
from .oracle import (
    OracleResult,
    composite_haar_mean,
    dirichlet_moment,
    exact_mean,
    exact_spectrum,
    haar_mean,
    power_sum_moment,
)
from .spectral import (
    SpectralDecomposition,
    SymbolicEigenvalue,
    SymbolicMatrix,
    cluster_spectrum,
    eigenvector_check,
    selection_rule,
    subspace_distance,
    substitute_v,
)
from .verify import Budget, Report, run_all, run_case

__version__ = "0.1.0"
