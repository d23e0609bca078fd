"""Analytical oracles and experiment drivers.

The closed-form exponent sum (``theoretical_sum``, stated in ``models``
next to the Jacobians it reads), the Liouville trace oracle, the Lorenz
boundedness diagnostics, noise-amplitude sweeps and convergence series.
A sweep row is a SALT and then an FD run, each ``spin_up`` and then
``run_nle`` as a single run makes them; up to ``SweepConfig.jobs`` rows
run at once on threads, in parallel inside the step kernel's loops, which
release the interpreter lock (without the kernel, one at a time).  The
kernel is loaded before the threads start, so a cold cache builds it once.
"""

from __future__ import annotations

import concurrent.futures
import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .cayley import (
    DEFAULT_ETA,
    DEFAULT_NLE_STEPS,
    NleResult,
    _check_eta,
    _check_sizes,
    run_nle,
)
from .integrator import (
    DEFAULT_DT,
    DEFAULT_SPIN_UP_STEPS,
    IntegratorConfig,
    _kernel,
    _phase,
    spin_up,
)
from .models import (
    LorenzParams,
    SystemDef,
    fd_lorenz,
    jacobian_correction,
    jacobian_diffusion,
    jacobian_drift_batch,
    salt_lorenz,
    theoretical_sum,
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


def liouville_oracle(
    s: SystemDef,
    trajectory: np.ndarray,
    path: WienerPath,
    path_offset: int = 0,
) -> float:
    """Finite-time log-determinant rate of the variational flow.

    (1/T) * sum_k [trace(Df0(x_k)) dt + trace(Df1) dW_k] over the steps of
    the trajectory, with x_k the pre-step states and Df0 the Jacobian of the
    declared drift, convention correction included.  Exact for the constant
    traces of the Lorenz variants, and independent of the Cayley engine.
    """
    n = trajectory.shape[0] - 1
    inc = path.window(path_offset, n)
    dt = path.dt
    j0 = jacobian_drift_batch(s.params, trajectory[:n])
    j0 += jacobian_correction(s)
    tr0 = np.trace(j0, axis1=1, axis2=2)
    tr1 = float(np.trace(jacobian_diffusion(s)))
    return (float(np.sum(tr0 * dt)) + tr1 * float(np.sum(inc))) / (n * dt)


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


@dataclass(frozen=True)
class SweepConfig:
    params: LorenzParams = LorenzParams()
    dt: float = DEFAULT_DT
    spin_up_steps: int = DEFAULT_SPIN_UP_STEPS
    nle_steps: int = DEFAULT_NLE_STEPS
    eta: float = DEFAULT_ETA  # validated by sweep_beta; does not change its output
    sample_every: int = 100
    jobs: int = 1  # rows run at once on threads; 1 runs them on the calling thread


def _sweep_row(beta: float, seed: int, path: WienerPath | None, cfg: SweepConfig) -> SweepRow:
    """One row: a SALT and then an FD run on path, or on the path of seed
    when path is None; a blow-up names its phase and run."""
    if path is None:
        path = generate_path(seed, cfg.spin_up_steps + cfg.nle_steps, cfg.dt)
    icfg = IntegratorConfig(dt=cfg.dt, n_steps=cfg.spin_up_steps,
                            allow_convention_mismatch=True)
    runs = []
    for s in (salt_lorenz(cfg.params, beta), fd_lorenz(cfg.params, beta)):
        with _phase("spin-up", s, seed):
            x0 = spin_up(s, path, icfg)
        with _phase("exponent phase", s, seed):
            runs.append(run_nle(s, x0, path, cfg.dt, cfg.nle_steps,
                                sample_every=cfg.sample_every,
                                path_offset=cfg.spin_up_steps,
                                allow_convention_mismatch=True))
    salt, fd = runs
    return SweepRow(beta=beta, seed=seed, sum_salt=salt.sum, sum_fd=fd.sum,
                    w_T_over_T=fd.w_terminal / fd.t_final)


def sweep_beta(
    betas: np.ndarray,
    mode: SweepMode,
    base_seed: int,
    cfg: SweepConfig | None = None,
) -> list[SweepRow]:
    """Run SALT and FD exponent computations over a grid of noise amplitudes.

    FIXED_PATH draws the base_seed realisation once and every amplitude
    reads it; the fresh mode derives seed base_seed + index per amplitude,
    and each row draws its own stream.  Up to ``cfg.jobs`` rows run at once
    on threads (with one job or one row, on the calling thread).  Rows come
    back ordered by beta.  A blow-up raises the first failing row's error,
    in the order of ``betas``, SALT before FD, whatever ``cfg.jobs``.
    """
    betas = np.asarray(betas, dtype=float)
    if betas.size == 0:
        raise ValueError("betas must be nonempty")
    if not np.all(np.isfinite(betas) & (betas >= 0)):
        raise ValueError("betas must be finite and nonnegative")
    cfg = cfg or SweepConfig()
    if cfg.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {cfg.jobs}")
    _check_eta(cfg.eta)
    # every size a run reads, before any path, spin-up or thread
    _check_sizes(cfg.nle_steps, cfg.sample_every)
    IntegratorConfig(dt=cfg.dt, n_steps=cfg.spin_up_steps)  # dt finite and > 0, spin-up >= 0
    fixed = mode is SweepMode.FIXED_PATH
    path = generate_path(base_seed, cfg.spin_up_steps + cfg.nle_steps, cfg.dt) if fixed else None
    seeds = [base_seed if fixed else base_seed + i for i in range(betas.size)]
    run_row = functools.partial(_sweep_row, path=path, cfg=cfg)
    jobs = min(cfg.jobs, betas.size)
    if jobs > 1:
        _kernel()  # built here, not once per thread
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(run_row, betas.tolist(), seeds))
    else:
        rows = list(map(run_row, betas.tolist(), seeds))
    return sorted(rows, key=lambda row: row.beta)


@dataclass(frozen=True)
class RegressionSummary:
    slope: float
    intercept: float
    r_squared: float


def fit_fd_sum(rows: list[SweepRow]) -> RegressionSummary:
    """Least-squares fit of the FD exponent sum against the noise amplitude."""
    if len({row.beta for row in rows}) < 2:
        raise ValueError(
            f"the fit needs at least two distinct beta values, got {len(rows)} rows"
        )
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
