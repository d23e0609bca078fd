"""Runs, analytical oracles and experiment drivers.

``run_one`` makes the run a ``RunSpec`` states under the spec's one
convention rule: one ``Run`` of both phases, as a sweep row's, whose
blow-up names its phase and path (``Run.end_state``).  Also the
exponent-sum identity ``theoretical_sum`` (from ``models``), the Liouville
trace oracle, the Lorenz boundedness diagnostics, noise-amplitude sweeps
and convergence series.  ``sweep`` runs a spec over a grid of amplitudes: a
row is the SALT and then the FD run of the spec on one path.  The calling
thread prepares every run and, after the kernel calls, finishes it; it and
up to ``jobs - 1`` helper threads take rows in turn and make only their
kernel calls, in parallel inside the step kernel's loops, which release the
interpreter lock (on its Python twin, one at a time); ``jobs = 1`` starts
no thread.  A row's SALT and FD runs are the two lanes of each kernel call:
per run-step, ~10-11 ns in the spin-up and ~33-35 ns in the exponent phase
under Euler-Maruyama, ~18-20 ns and ~62-66 ns under Heun, against ~19-21,
~61-66, ~35-40 and ~121-130 ns for a run alone (2-vCPU VM, gcc 12.2).
``stochlyap sweep`` of 8 fixed rows, in process on that VM (median wall,
CPU): at 500 + 1,500 steps a row (the benchmark's sweep), 2.28 ms, 2.18 ms
at one job and 2.85 ms, 3.39 ms at two; at 10 times those steps, 11.6 ms,
11.5 ms and 7.42 ms, 11.6 ms; at the paper's 50,000 + 100,000, 53.8 ms,
53.6 ms and 35.9 ms, 60.1 ms.  The VM's speed varies by up to 2x over
minutes.  The kernel is loaded before any helper starts, so a cold cache
builds it once.  ``sweep_beta`` is ``sweep`` from a
``SweepConfig``.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .cayley import (
    DEFAULT_ETA,
    DEFAULT_NLE_STEPS,
    NleResult,
    finish_nle,
    prepare_nle,
)
from .integrator import (
    DEFAULT_DT,
    DEFAULT_SPIN_UP_STEPS,
    IntegratorConfig,
    Scheme,
    _kernel,
)
from .models import (
    Convention,
    LorenzParams,
    NoiseKind,
    SystemDef,
    _traces,
    convert_convention,
    theoretical_sum,
)
from .wiener import WienerPath, generate_path

__all__ = [
    "RunSpec",
    "run_path",
    "run_one",
    "SweepMode",
    "SweepRow",
    "SweepConfig",
    "RegressionSummary",
    "theoretical_sum",
    "liouville_oracle",
    "lyapunov_function",
    "ellipsoid_residual",
    "sweep",
    "sweep_beta",
    "fit_fd_sum",
    "convergence_series",
]


# RunSpec's choice fields and their values, as the command line offers them
CHOICES = {"system": ("deterministic", "salt", "fd"), "scheme": tuple(s.value for s in Scheme),
           "convention_mode": ("paper", "stratonovich-strict")}


@dataclass(frozen=True)
class RunSpec:
    """One run; the defaults are the reference experiments' protocol.  The
    engine restarts the K/eta stepper every step, so eta leaves it unchanged."""

    system: str = "deterministic"
    sigma: float = 10.0
    r: float = 28.0
    b: float = 8.0 / 3.0
    beta: float = 0.5
    seed: int = 1
    dt: float = DEFAULT_DT
    spin_up_steps: int = DEFAULT_SPIN_UP_STEPS
    nle_steps: int = DEFAULT_NLE_STEPS
    eta: float = DEFAULT_ETA
    scheme: str = "euler-maruyama"
    convention_mode: str = "paper"
    sample_every: int = 100

    def params(self) -> LorenzParams:
        return LorenzParams(self.sigma, self.r, self.b)

    def check_choices(self) -> None:
        """Refuse a choice field's unknown value, in the command line's words."""
        for name, choices in CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")

    def system_def(self) -> SystemDef:
        self.check_choices()
        kind = NoiseKind.NONE if self.system == "deterministic" else NoiseKind(self.system)
        s = SystemDef(self.params(), kind, 0.0 if kind is NoiseKind.NONE else self.beta)
        if self.convention_mode == "stratonovich-strict":
            s = convert_convention(s, Convention.STRATONOVICH)
        return s

    def scheme_enum(self) -> Scheme:
        return Scheme(self.scheme)

    def integrator_config(self) -> IntegratorConfig:
        """The spin-up's config, allowing a convention mismatch to paper-mode
        Euler-Maruyama only; Heun refuses an Ito system rather than integrate another SDE."""
        scheme = self.scheme_enum()
        paper_em = self.convention_mode == "paper" and scheme is Scheme.EULER_MARUYAMA
        return IntegratorConfig(scheme=scheme, dt=self.dt, n_steps=self.spin_up_steps,
                                allow_convention_mismatch=paper_em)


def run_path(spec: RunSpec, s: SystemDef) -> WienerPath:
    """The path of spec's run of system s, spin-up and exponent phase: drawn
    from spec.seed, or for a noise-free s (beta 0) zero increments, which s
    multiplies by zero as it would a drawn path's, at the cost of neither a
    draw nor resident memory (np.zeros is calloc'd)."""
    n = spec.spin_up_steps + spec.nle_steps
    if s.beta == 0.0:
        return WienerPath(spec.seed, spec.dt, np.zeros(n))
    return generate_path(spec.seed, n, spec.dt)


def run_one(spec: RunSpec, path: WienerPath | None = None) -> tuple[NleResult, dict]:
    """spec's run, one ``Run`` of both phases as a sweep row's: prepared,
    with every check made, before its path is made (unless given; see
    ``run_path``: a noise-free run draws none, so its ``w_terminal`` is 0.0),
    advanced and finished.  Also the wall seconds of the ``path`` phase
    (~0 for a noise-free run) and of the kernel calls of the ``spin_up`` and
    ``engine`` phases."""
    s = spec.system_def()
    run = prepare_nle(s, spec.integrator_config(), spec.nle_steps, spec.eta, spec.sample_every)
    t0 = time.perf_counter()
    if path is None:
        path = run_path(spec, s)
    seconds = {"path": time.perf_counter() - t0}
    run.advance(path)
    return finish_nle(run), seconds | run.seconds


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
    if n < 1:
        raise ValueError(f"liouville_oracle needs at least two states, got {n + 1}")
    inc = path.window(path_offset, n)
    dt = path.dt
    tr0, tr1 = _traces(s)  # trace(Df0) does not depend on x_k: no Jacobian per state
    return (float(np.sum(np.full(n, tr0 * dt))) + tr1 * float(np.sum(inc))) / (n * dt)


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
    eta: float = DEFAULT_ETA  # validated by sweep; does not change its output
    sample_every: int = 100
    jobs: int = 1  # threads taking rows, the caller's included


def sweep(spec: RunSpec, betas: np.ndarray, fixed: bool, jobs: int) -> list[SweepRow]:
    """SALT and FD runs of spec over noise amplitudes: row i is a SALT and
    then an FD run of spec at betas[i], the run ``run_one`` makes, on the
    path of spec.seed drawn once (fixed) or on that of seed spec.seed + i
    (fresh).  The calling thread prepares every run, so every check is made
    before any path is drawn or thread started.  It and min(jobs, rows) - 1
    helper threads then claim rows in index order, one at a time, and make
    only the row's kernel calls, drawing its path first in fresh mode, so at
    most ``jobs`` paths are live: one ``Run.advance`` of the SALT run with
    the FD run as its partner, the two lanes of each call.  A failed row
    (either run) stops every thread from claiming another; the helpers are
    joined, also when the caller's own row raises (a KeyboardInterrupt,
    say), and then the caller finishes the runs in the order of betas, SALT
    before FD.  So the error of the first failing row is raised, whatever
    ``jobs``: every earlier row was claimed and has run.  Rows come back
    ordered by beta."""
    betas = [float(beta) for beta in betas]
    if not betas:
        raise ValueError("betas must be nonempty")
    if not all(math.isfinite(beta) and beta >= 0 for beta in betas):
        raise ValueError("betas must be finite and nonnegative")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seeds = [spec.seed if fixed else spec.seed + i for i in range(len(betas))]
    # each run's system is spec's at its beta, and its config is spec's
    icfg = spec.integrator_config()
    systems = [replace(spec, system=system, beta=0.0).system_def() for system in ("salt", "fd")]
    runs = [[prepare_nle(replace(s, beta=beta), icfg, spec.nle_steps, spec.eta, spec.sample_every)
             for s in systems] for beta in betas]
    n = spec.spin_up_steps + spec.nle_steps
    path = generate_path(spec.seed, n, spec.dt) if fixed else None
    errors: dict[int, Exception] = {}  # by row index
    stop, lock = threading.Event(), threading.Lock()
    indices = iter(range(len(betas)))

    def halt() -> None:
        with lock:  # no row is claimed once this returns
            stop.set()

    def claim() -> int | None:
        with lock:  # the stop check and the claim as one step
            return None if stop.is_set() else next(indices, None)

    def advance_row(i: int) -> None:
        salt, fd = runs[i]
        salt.advance(path if fixed else generate_path(seeds[i], n, spec.dt), fd)
        if salt.failed >= 0 or fd.failed >= 0:
            halt()

    def work() -> None:
        while (i := claim()) is not None:
            try:
                advance_row(i)
            except Exception as err:
                errors[i] = err
                halt()

    _kernel()  # built here, not once per thread
    helpers = []
    try:
        for _ in range(min(jobs, len(betas)) - 1):
            helper = threading.Thread(target=work)
            helper.start()
            helpers.append(helper)
        work()
    finally:
        halt()
        for helper in helpers:
            helper.join()
    rows = []
    for i, (beta, seed) in enumerate(zip(betas, seeds)):
        if i in errors:
            raise errors[i]
        salt, fd = (finish_nle(run) for run in runs[i])
        rows.append(SweepRow(beta=beta, seed=seed, sum_salt=salt.sum, sum_fd=fd.sum,
                             w_T_over_T=fd.w_terminal / fd.t_final))
    return sorted(rows, key=lambda row: row.beta)


def sweep_beta(betas: np.ndarray, mode: SweepMode, base_seed: int,
               cfg: SweepConfig | None = None) -> list[SweepRow]:
    """``sweep`` of the default ``RunSpec`` at cfg's settings and seed
    base_seed; kept for the benchmark's traced replay and the tests."""
    cfg = cfg or SweepConfig()
    spec = RunSpec(sigma=cfg.params.sigma, r=cfg.params.r, b=cfg.params.b, seed=base_seed,
                   dt=cfg.dt, spin_up_steps=cfg.spin_up_steps, nle_steps=cfg.nle_steps,
                   eta=cfg.eta, sample_every=cfg.sample_every)
    return sweep(spec, betas, mode is SweepMode.FIXED_PATH, cfg.jobs)


@dataclass(frozen=True)
class RegressionSummary:
    slope: float
    intercept: float
    r_squared: float


def fit_fd_sum(rows: list[SweepRow]) -> RegressionSummary:
    """Least-squares fit of the FD exponent sum against the noise amplitude,
    made on u = (beta - beta_min) / (beta_max - beta_min) in [0, 1], where
    the fit's column scaling holds for any width of range, and mapped back;
    R^2 is computed on u.  The map is exact for the range [0, 1].  Equal FD
    sums are refused: their slope would be rounding over the beta width."""
    if len({row.beta for row in rows}) < 2:
        raise ValueError(
            f"the fit needs at least two distinct beta values, got {len(rows)} rows"
        )
    if len({row.sum_fd for row in rows}) < 2:
        raise ValueError(f"the fit needs FD sums that vary, got {len(rows)} rows "
                         f"all with sum_fd = {rows[0].sum_fd!r}")
    beta = np.array([row.beta for row in rows])
    lo = float(beta.min())
    width = float(beta.max()) - lo
    u = (beta - lo) / width
    y = np.array([row.sum_fd for row in rows])
    slope, intercept = map(float, np.polyfit(u, y, 1))
    resid = y - (slope * u + intercept)
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    return RegressionSummary(slope / width, intercept - slope * lo / width, r2)


def convergence_series(result: NleResult) -> np.ndarray:
    """Rows (t, l1(t), l2(t), l3(t)) with l(t) = rho(t)/t sorted descending."""
    series = result.rho_series
    if series.size == 0:
        raise ValueError("result carries no sampled rho series")
    t = series[:, 0]
    lams = np.sort(series[:, 1:] / t[:, None], axis=1)[:, ::-1]
    return np.column_stack([t, lams])
