"""Analytical oracles and experiment drivers.

The closed-form exponent sum (``theoretical_sum``, stated in ``models``
next to the Jacobians it reads), the Liouville trace oracle, the Lorenz
boundedness diagnostics, noise-amplitude sweeps and convergence series.
A sweep row is a SALT and then an FD run, each ``spin_up`` and then
``run_nle`` as a single run makes them; the rows are split into contiguous
shards across worker processes when ``SweepConfig.jobs`` > 1.  The step
kernel is loaded before the workers start, so a cold cache builds it once.
"""

from __future__ import annotations

import concurrent.futures
import math
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
    if path_offset + n > len(path):
        raise ValueError("trajectory and path lengths do not match")
    dt = path.dt
    inc = path.scalar()[path_offset:path_offset + n]
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
    jobs: int = 1  # worker processes the rows are split across; 1 runs in-process


def _sweep_shard(args: tuple[list[tuple[float, int]], SweepConfig]) -> list[SweepRow]:
    """The (beta, seed) rows of a shard in order, each a SALT and then an FD
    run; a blow-up names its phase and run, and no later run starts."""
    tasks, cfg = args
    icfg = IntegratorConfig(dt=cfg.dt, n_steps=cfg.spin_up_steps,
                            allow_convention_mismatch=True)
    rows, path = [], None
    for beta, seed in tasks:
        if path is None or path.seed != seed:  # one path per run of equal seeds
            path = generate_path(seed, cfg.spin_up_steps + cfg.nle_steps, cfg.dt)
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
        rows.append(SweepRow(beta=beta, seed=seed, sum_salt=salt.sum, sum_fd=fd.sum,
                             w_T_over_T=fd.w_terminal / fd.t_final))
    return rows


def sweep_beta(
    betas: np.ndarray,
    mode: SweepMode,
    base_seed: int,
    cfg: SweepConfig | None = None,
) -> list[SweepRow]:
    """Run SALT and FD exponent computations over a grid of noise amplitudes.

    FIXED_PATH reuses the base_seed realisation for every amplitude, so the
    whole sweep reads one increment stream; the fresh mode derives seed
    base_seed + index per amplitude, one stream per row.
    The rows are split into at most ``cfg.jobs`` contiguous shards, each run
    in its own worker process (one shard runs in-process).  Rows come back
    ordered by beta.  A blow-up raises the first failing row's error, in the
    order of ``betas``, SALT before FD, whatever ``cfg.jobs``.
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
    # every size a run reads, before any path, spin-up or worker
    _check_sizes(cfg.nle_steps, cfg.sample_every)
    if not math.isfinite(cfg.dt):
        raise ValueError(f"dt must be finite, got {cfg.dt}")
    IntegratorConfig(dt=cfg.dt, n_steps=cfg.spin_up_steps)  # dt > 0, spin-up >= 0
    fixed = mode is SweepMode.FIXED_PATH
    tasks = [
        (float(b), base_seed if fixed else base_seed + i) for i, b in enumerate(betas)
    ]
    n_shards = min(cfg.jobs, len(tasks))
    edges = [len(tasks) * k // n_shards for k in range(n_shards + 1)]
    shards = [(tasks[lo:hi], cfg) for lo, hi in zip(edges, edges[1:])]
    if len(shards) > 1:
        _kernel()  # built here, not once per worker
        with concurrent.futures.ProcessPoolExecutor(max_workers=len(shards)) as pool:
            parts = list(pool.map(_sweep_shard, shards))
    else:
        parts = [_sweep_shard(shards[0])]
    return sorted((row for part in parts for row in part), key=lambda row: row.beta)


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
