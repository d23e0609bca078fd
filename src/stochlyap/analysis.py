"""Analytical oracles and experiment drivers.

Closed-form exponent sums, the Liouville trace oracle, the Lorenz
boundedness diagnostics, noise-amplitude sweeps and convergence series.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cayley import DEFAULT_ETA, DEFAULT_NLE_STEPS, NleResult, run_nle
from .integrator import (
    DEFAULT_DT,
    DEFAULT_SPIN_UP_STEPS,
    IntegratorConfig,
    Scheme,
    spin_up,
)
from .models import (
    LorenzParams,
    NoiseKind,
    SystemDef,
    fd_lorenz,
    jacobian_diffusion,
    jacobian_drift,
    salt_lorenz,
)
from .wiener import WienerPath, generate_path

__all__ = [
    "SweepMode",
    "SweepRow",
    "SweepConfig",
    "RegressionSummary",
    "theoretical_sum",
    "liouville_oracle",
    "lyapunov_function",
    "ellipsoid_residual",
    "sweep_beta",
    "fit_fd_sum",
    "convergence_series",
]


def theoretical_sum(s: SystemDef, w_t: float, t: float) -> float:
    """Closed-form exponent sum: -(sigma+1+b), plus 3*beta*W_T/T for FD noise."""
    if t <= 0:
        raise ValueError(f"time horizon must be positive, got {t}")
    p = s.params
    base = -(p.sigma + 1.0 + p.b)
    if s.kind is NoiseKind.FD:
        return base + 3.0 * s.beta * w_t / t
    return base


def liouville_oracle(
    s: SystemDef,
    trajectory: np.ndarray,
    path: WienerPath,
    path_offset: int = 0,
) -> float:
    """Finite-time log-determinant rate of the variational flow.

    (1/T) * sum_k [trace(Df0(x_k)) dt + trace(Df1) dW_k] over the steps of
    the trajectory, with x_k the pre-step states.  Exact for the constant
    traces of the Lorenz variants, and independent of the Cayley engine.
    """
    n = trajectory.shape[0] - 1
    if path_offset + n > len(path):
        raise ValueError("trajectory and path lengths do not match")
    dt = path.dt
    inc = path.scalar()[path_offset:path_offset + n]
    tr1 = float(np.trace(jacobian_diffusion(s)))
    acc = 0.0
    for k in range(n):
        acc += float(np.trace(jacobian_drift(s, trajectory[k]))) * dt
    acc += tr1 * float(np.sum(inc))
    return acc / (n * dt)


def lyapunov_function(p: LorenzParams, x: np.ndarray) -> float | np.ndarray:
    """V = r X^2 + sigma Y^2 + sigma (Z - 2r)^2, the boundedness witness.

    Accepts a single state or an (n, 3) batch of states.
    """
    x = np.asarray(x, dtype=float)
    v = (
        p.r * x[..., 0] ** 2
        + p.sigma * x[..., 1] ** 2
        + p.sigma * (x[..., 2] - 2.0 * p.r) ** 2
    )
    return v if v.ndim else float(v)


def ellipsoid_residual(p: LorenzParams, x: np.ndarray) -> float | np.ndarray:
    """Vdot / (2 r^2 sigma b) = 1 - X^2/(br) - Y^2/(br^2) - (Z-r)^2/r^2.

    Positive inside the critical ellipsoid where V can grow, negative
    outside, where V decreases along the deterministic flow.  (Deriving
    Vdot gives the Y term the 1/(b r^2) scale; only with that scale is the
    sign of the residual exactly the sign of Vdot.)  Accepts a single
    state or an (n, 3) batch.
    """
    x = np.asarray(x, dtype=float)
    res = (
        1.0
        - x[..., 0] ** 2 / (p.b * p.r)
        - x[..., 1] ** 2 / (p.b * p.r**2)
        - (x[..., 2] - p.r) ** 2 / p.r**2
    )
    return res if res.ndim else float(res)


class SweepMode(Enum):
    FRESH_PATH_PER_BETA = "fresh"
    FIXED_PATH = "fixed"


@dataclass(frozen=True)
class SweepRow:
    beta: float
    seed: int
    sum_salt: float
    sum_fd: float
    w_T_over_T: float

    def theory_fd_sum(self, params: LorenzParams) -> float:
        return -(params.sigma + 1.0 + params.b) + 3.0 * self.beta * self.w_T_over_T


@dataclass(frozen=True)
class SweepConfig:
    params: LorenzParams = LorenzParams()
    dt: float = DEFAULT_DT
    spin_up_steps: int = DEFAULT_SPIN_UP_STEPS
    nle_steps: int = DEFAULT_NLE_STEPS
    eta: float = DEFAULT_ETA  # validated by run_nle; does not change its output
    sample_every: int = 100
    jobs: int = 1


def _sweep_row(args: tuple[float, int, SweepConfig]) -> SweepRow:
    beta, seed, cfg = args
    path = generate_path(seed, cfg.spin_up_steps + cfg.nle_steps, cfg.dt)
    sums = {}
    for system in (salt_lorenz(cfg.params, beta), fd_lorenz(cfg.params, beta)):
        icfg = IntegratorConfig(
            scheme=Scheme.EULER_MARUYAMA,
            dt=cfg.dt,
            n_steps=cfg.spin_up_steps,
            allow_convention_mismatch=True,
        )
        x0 = spin_up(system, path, icfg)
        res = run_nle(
            system,
            x0,
            path,
            cfg.dt,
            cfg.nle_steps,
            cfg.eta,
            sample_every=cfg.sample_every,
            path_offset=cfg.spin_up_steps,
            allow_convention_mismatch=True,
        )
        sums[system.kind] = res
    fd_res = sums[NoiseKind.FD]
    return SweepRow(
        beta=beta,
        seed=seed,
        sum_salt=sums[NoiseKind.SALT].sum,
        sum_fd=fd_res.sum,
        w_T_over_T=fd_res.w_terminal / fd_res.t_final,
    )


def sweep_beta(
    betas: np.ndarray,
    mode: SweepMode,
    base_seed: int,
    cfg: SweepConfig | None = None,
) -> list[SweepRow]:
    """Run SALT and FD exponent computations over a grid of noise amplitudes.

    FIXED_PATH reuses the base_seed realisation for every amplitude; the
    fresh mode derives seed base_seed + index per amplitude.  Rows come back
    ordered by beta regardless of execution order.
    """
    betas = np.asarray(betas, dtype=float)
    if betas.size == 0:
        raise ValueError("betas must be nonempty")
    if np.any(betas < 0):
        raise ValueError("betas must be nonnegative")
    cfg = cfg or SweepConfig()
    if mode is SweepMode.FIXED_PATH:
        tasks = [(float(b), base_seed, cfg) for b in betas]
    else:
        tasks = [(float(b), base_seed + i, cfg) for i, b in enumerate(betas)]
    if cfg.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]
    return sorted(rows, key=lambda row: row.beta)


@dataclass(frozen=True)
class RegressionSummary:
    slope: float
    intercept: float
    r_squared: float


def fit_fd_sum(rows: list[SweepRow]) -> RegressionSummary:
    """Least-squares fit of the FD exponent sum against the noise amplitude."""
    beta = np.array([row.beta for row in rows])
    y = np.array([row.sum_fd for row in rows])
    slope, intercept = np.polyfit(beta, y, 1)
    resid = y - (slope * beta + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RegressionSummary(float(slope), float(intercept), r2)


def convergence_series(result: NleResult) -> np.ndarray:
    """Rows (t, l1(t), l2(t), l3(t)) with l(t) = rho(t)/t sorted descending."""
    series = result.rho_series
    if series.size == 0:
        raise ValueError("result carries no sampled rho series")
    t = series[:, 0]
    lams = np.sort(series[:, 1:] / t[:, None], axis=1)[:, ::-1]
    return np.column_stack([t, lams])
