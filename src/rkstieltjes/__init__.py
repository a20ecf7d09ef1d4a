"""Rational Krylov evaluation of Stieltjes matrix functions.

Core objects: linear operators with shifted solves (`operators`), the
completely monotonic / Markov function catalog (`functions`), certified
pole families with their convergence rates (`poles`), the block rational
Arnoldi driver (`rk`), and the Kronecker-sum solver (`kronfun`).  The
measurement harness is not loaded here: import `rkstieltjes.experiments`
and `rkstieltjes.acceptance` for it.
"""

from .operators import (
    BandedOperator,
    DenseOperator,
    DiagonalOperator,
    HermitianOperator,
    SpectralInterval,
    TridiagonalOperator,
    from_dense_array,
    load_matrix,
    oracle_funv,
    save_matrix_market,
    spectral_interval,
    toeplitz_tridiagonal,
)
from .functions import (
    StieltjesFunction,
    catalog_function,
    lambert_w,
    parse_function_spec,
)
from .poles import (
    cauchy_kron_poles,
    cauchy_poles,
    eds_poles,
    elliptic_K,
    extended_poles,
    gamma_const,
    jacobi_dn,
    laplace_kron_poles,
    mobius_cauchy,
    mobius_kron,
    polynomial_poles,
    rate_rho,
    read_pole_file,
    write_pole_file,
    zolotarev_poles,
    zolotarev_ratio,
)
from .bounds import (
    cauchy_bound,
    kron_cauchy_bound,
    kron_laplace_bound,
    laplace_bound,
    singular_value_bound,
    sylvester_residual_bound,
)
from .rk import (
    ExactnessReport,
    FunvResult,
    FunvTraceRow,
    RKDecomposition,
    exactness_check,
    funv_driver,
    iterates,
    rk_build,
    rk_funv,
)
from .kronfun import (
    KroneckerProblem,
    KroneckerResult,
    dense_kron_solution,
    funm_diag,
    kron_fun,
    kron_iterates,
    kron_problem,
    residual_bound,
    singular_decay_report,
    sylvester_residual,
)

__version__ = "0.1.0"
