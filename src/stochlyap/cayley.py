"""Numerical Lyapunov exponents via the stochastic Cayley-QR method.

The variational flow v of a (stochastic) Lorenz system is factored as
v = Q R with Q orthogonal; the log-diagonal of R is accumulated directly in
the vector rho.  ``run_nle`` advances the state (x, Q, rho) with one frame
kernel.  Per step, with the generator increment M = Df0(x) dt + Df1 dW:

    A        = Q^T M Q
    rho     += diag(A)
    S        = -(1/2) * (skew completion of the strictly lower triangle of A)
    Q       <- Q cayley(S)

The -(1/2) factor makes the frame satisfy the continuous QR equation
Q^T dQ = skew-lower-split of A (verifiable in closed form on a 2x2
rotation).  Summing drho gives trace(M) exactly, which is the discrete
Liouville identity and the reason the exponent sum is robust.

``CayleyState``, ``step_k_rho`` and ``maybe_restart`` keep the paper's
parameterisation as the reference stepper: the frame is q_accum cayley(K),
K advances through dK = (I - K) S (I - K)^T by Cayley composition, and once
||K|| reaches the threshold eta < 1 the rotation folds into q_accum and K
restarts from zero.  Composition is exact, so the kernel is this stepper
with a restart after every step and eta does not change the exponents.

``run_nle`` runs the frame loop of the step kernel (see ``integrator``),
next to its base loop: per step, the base step, then the diagonal and
strict lower triangle of Q^T M Q and the rotation of Q by the closed-form
Cayley entries of ``smallmat``.  One kernel call covers the steps between
re-orthogonalisations of Q, every ``REORTH_EVERY`` steps, and samples rho
itself; x, Q and rho share one buffer, which the call takes whole.  Per
run-step (base step included; medians of 7 runs of 100k SALT and FD steps,
2-vCPU VM, gcc 12.2): ~61-66 ns (Euler-Maruyama) and ~121-130 ns (Heun)
compiled for one run, and ~33-35 ns and ~62-66 ns for each run of a pair,
the two lanes of one call, as a sweep row's SALT and FD runs; ~4.5 us and
~8.7 us on the kernel's Python twin, at any sampling interval.

A run is ``prepare_nle``, ``Run.advance`` and ``finish_nle``.  Their Python,
outside the kernel's loops, per run at 1 + 1 steps (same VM, whose speed
varies by up to 2x; medians of one session): prepare ~16 us when each run
has a new beta, as a sweep's do, and ~4 us when the system repeats;
advance ~18 us, mostly ctypes taking the ndarrays' addresses; finish
~12 us.  ``analysis.run_one``, one such run of both phases with its system
and config built from the spec, ~74-117 us when one spec repeats (another
session).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import smallmat
from .integrator import (
    _EYE,
    SPIN_UP_STATE,
    IntegratorConfig,
    Run,
    Scheme,
)
from .models import (
    SystemDef,
    jacobian_diffusion,
    jacobian_drift,
    theoretical_sum,
)
from .smallmat import (
    LOWER_FLAT,
    CayleyDomainError,
    SkewMat3,
    cayley,
    inverse,
    qr_decompose,
)
from .wiener import WienerPath

__all__ = [
    "CayleyState",
    "NleResult",
    "conjugated_jacobians",
    "step_k_rho",
    "maybe_restart",
    "exponents_from_rho",
    "run_nle",
    "DEFAULT_ETA",
    "DEFAULT_NLE_STEPS",
]

DEFAULT_ETA = 0.8
DEFAULT_NLE_STEPS = 100_000


@dataclass(frozen=True)
class CayleyState:
    """Cayley parameter, log-diagonal accumulators and restart bookkeeping."""

    k: SkewMat3 = field(default_factory=SkewMat3.zero)
    rho: np.ndarray = field(default_factory=lambda: np.zeros(3))
    q_accum: np.ndarray = field(default_factory=lambda: np.eye(3))
    step: int = 0
    restarts: int = 0


@dataclass(frozen=True)
class NleResult:
    """Finite-time Lyapunov exponents and the diagnostics of one run."""

    lambdas: np.ndarray  # sorted descending
    sum: float
    trace_residual: float
    rho_series: np.ndarray  # rows (t, rho1, rho2, rho3)
    restarts: int  # the kernel restarts after every step: equals n_steps
    t_final: float
    w_terminal: float
    ortho_drift: float  # ||Q^T Q - I||_F at the end of the run


def conjugated_jacobians(
    s: SystemDef, x: np.ndarray, q0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Q0^T Df_j(x) Q0 for j = 0, 1; similarity keeps the traces."""
    j0 = jacobian_drift(s, x)
    j1 = jacobian_diffusion(s)
    return q0.T @ j0 @ q0, q0.T @ j1 @ q0


def inverse_cayley(q: np.ndarray) -> SkewMat3:
    """Skew-symmetric K with cayley(K) = q; valid while no eigenvalue is -1."""
    eye = np.eye(q.shape[0])
    k = (eye - q) @ inverse(eye + q)
    return SkewMat3.from_matrix(k)


def _increment_at(
    q: np.ndarray, j0: np.ndarray, j1: np.ndarray, dt: float, dW: float
) -> tuple[np.ndarray, np.ndarray]:
    """One-step increment (s_lower, drho) of the frame q and of rho.

    ``s_lower`` parameterizes the within-step rotation relative to q: the
    new frame is q @ cayley(SkewMat3(s_lower)).
    """
    a = q.T @ (j0 * dt + j1 * dW) @ q
    # -(1/2) skew split: the Euler increment of the K ODE at K = 0.
    s_lower = -0.5 * a.take(LOWER_FLAT)
    return s_lower, a.diagonal().copy()


def step_k_rho(
    cs: CayleyState, j0: np.ndarray, j1: np.ndarray, dt: float, dW: float
) -> CayleyState:
    """Advance K and rho by one step.

    The frame advances by composition, cayley(K_new) = cayley(K) *
    cayley(dK0) with dK0 the Euler increment taken at the restarted frame.
    Composition makes a restart an exact reparameterization of the discrete
    algorithm, so the exponents are independent of the threshold eta.
    """
    q_cay = cayley(cs.k)
    k_step_lower, drho = _increment_at(q_cay, j0, j1, dt, dW)
    q_new = q_cay @ cayley(SkewMat3(k_step_lower))
    k_new = inverse_cayley(q_new)
    if k_new.norm() >= 1.0:
        raise CayleyDomainError(
            f"||K|| = {k_new.norm():.3f} >= 1 after step {cs.step}; "
            "the restart threshold eta is too loose"
        )
    return replace(cs, k=k_new, rho=cs.rho + drho, step=cs.step + 1)


def _check_eta(eta: float) -> None:
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")


def _check_sizes(n_steps: int, sample_every: int) -> None:
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")


def maybe_restart(cs: CayleyState, eta: float) -> CayleyState:
    """Fold cayley(K) into the accumulated rotation once ||K|| reaches eta."""
    _check_eta(eta)
    if cs.k.norm() < eta:
        return cs
    q_new = cs.q_accum @ cayley(cs.k)
    q_new, _ = qr_decompose(q_new)  # cheap at n=3; keeps drift ~machine eps
    return replace(cs, k=SkewMat3.zero(), q_accum=q_new, restarts=cs.restarts + 1)


def exponents_from_rho(rho: np.ndarray, t: float) -> np.ndarray:
    """Componentwise rho / t, sorted descending."""
    if t <= 0:
        raise ValueError(f"time horizon must be positive, got {t}")
    lambdas = np.asarray(rho, dtype=float) / t
    lambdas.sort()  # np.sort's order, without its copy
    return lambdas[::-1]


def prepare_nle(s: SystemDef, cfg: IntegratorConfig, n_steps: int, eta: float = DEFAULT_ETA,
                sample_every: int = 100, x0=SPIN_UP_STATE, offset: int = 0) -> Run:
    """The prepared ``Run`` of an exponent computation of n_steps steps
    after cfg's spin-up, after the checks of every size and of eta."""
    _check_sizes(n_steps, sample_every)
    _check_eta(eta)
    return Run(s, cfg, x0, offset, n_steps, sample_every)


def finish_nle(run: Run) -> NleResult:
    """The exponents and diagnostics of a run that ``advance`` made, or the
    ``BlowUpError`` of its failing step (``Run.end_state``)."""
    run.end_state()
    n, state, series = run.n_steps, run.state, run.series
    rho, q = state[12:], state[3:12].reshape(3, 3)
    t_final = n * run.dt
    if n % run.sample_every:
        series[-1, 0], series[-1, 1:] = t_final, rho
    lambdas = exponents_from_rho(rho, t_final)
    total = float(lambdas.sum())
    return NleResult(
        lambdas=lambdas,
        sum=total,
        trace_residual=abs(total - theoretical_sum(run.s, run.w_terminal, t_final)),
        rho_series=series,
        restarts=n,
        t_final=t_final,
        w_terminal=run.w_terminal,
        ortho_drift=smallmat.frobenius(q.T @ q - _EYE),
    )


def run_nle(
    s: SystemDef,
    x0: np.ndarray,
    path: WienerPath,
    dt: float,
    n_steps: int = DEFAULT_NLE_STEPS,
    eta: float = DEFAULT_ETA,
    *,
    scheme: Scheme = Scheme.EULER_MARUYAMA,
    sample_every: int = 100,
    path_offset: int = 0,
    allow_convention_mismatch: bool = False,
) -> NleResult:
    """Co-evolve the base state x and the frame state (Q, rho).

    The base trajectory starts from x0 (normally the spin-up end state) and
    consumes path increments [path_offset, path_offset + n_steps).  In the
    default Euler mode both the base state and the frame take explicit
    Euler increments of the system's declared coefficient form; in Heun
    mode both are corrected at the predictor point for Stratonovich
    consistency.  The kernel is the K/eta reference stepper with a restart
    after every step, so ``eta`` is validated but does not change the output.
    Both steps run in the step kernel, one call per ``REORTH_EVERY`` steps:
    ``prepare_nle`` with no spin-up, ``Run.advance`` and ``finish_nle``.
    """
    cfg = IntegratorConfig(scheme, dt, 0, allow_convention_mismatch)
    run = prepare_nle(s, cfg, n_steps, eta, sample_every, x0, path_offset)
    run.advance(path)
    return finish_nle(run)
