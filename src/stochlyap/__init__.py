"""Stochastic Lorenz 63 systems and their numerical Lyapunov exponents.

Simulates the deterministic, transport-noise (SALT) and
fluctuation-dissipation-noise Lorenz 63 systems and computes numerical
Lyapunov exponents with a stochastic Cayley-transform QR method.  The
headline property: transport noise preserves the deterministic exponent
sum -(sigma + 1 + b), while fluctuation-dissipation noise shifts it by
3 * beta * W_T / T.
"""

from .analysis import (
    RegressionSummary,
    SweepConfig,
    SweepMode,
    SweepRow,
    convergence_series,
    ellipsoid_residual,
    fit_fd_sum,
    liouville_oracle,
    lyapunov_function,
    sweep_beta,
    theoretical_sum,
)
from .cayley import (
    CayleyState,
    NleResult,
    conjugated_jacobians,
    exponents_from_rho,
    maybe_restart,
    run_nle,
    step_k_rho,
)
from .integrator import (
    BlowUpError,
    ConventionMismatchError,
    IntegratorConfig,
    Scheme,
    simulate,
    spin_up,
    step,
)
from .models import (
    Convention,
    LorenzParams,
    NoiseKind,
    SystemDef,
    convert_convention,
    deterministic_lorenz,
    diffusion,
    drift,
    fd_lorenz,
    jacobian_diffusion,
    jacobian_drift,
    salt_lorenz,
)
from .smallmat import (
    CayleyDomainError,
    SingularMatrixError,
    SkewMat3,
    frobenius,
    inverse,
    qr_decompose,
)
from .wiener import GENERATOR_ID, WienerPath, generate_path

__version__ = "0.1.0"
