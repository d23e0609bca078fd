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
step (base step included; 20k-100k SALT steps, 2-vCPU VM, gcc 12.2):
~0.06-0.09 us (Euler-Maruyama) and ~0.13-0.17 us (Heun) compiled, ~4.5 us
and ~8.7 us on the kernel's Python twin, at any sampling interval.  Per
run, outside the kernel calls (``analysis.run_one`` at 1 + 1 steps, same
VM): ~54 us when each run has a new beta, as a sweep's rows do, and ~41 us
when one spec repeats.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import integrator, smallmat
from .integrator import (
    BlowUpError,
    Scheme,
    _check_convention,
    _kernel_args,
    _state,
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
from .wiener import WienerPath, _check_dt

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
REORTH_EVERY = 10_000
_ORTHO_DRIFT_TOL = 1e-10
_EYE = np.eye(3)
_START = np.array([0.0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0])  # (x, Q, rho): Q = I, rho = 0


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


def _reorthogonalize(q: np.ndarray) -> np.ndarray:
    if smallmat.frobenius(q.T @ q - _EYE) <= _ORTHO_DRIFT_TOL:
        return q
    return qr_decompose(q)[0]


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
    Both steps run in the step kernel, one call per ``REORTH_EVERY`` steps.
    """
    _check_sizes(n_steps, sample_every)
    inc = path.window(path_offset, n_steps)
    _check_eta(eta)
    _check_dt(dt)
    _check_convention(scheme, s, allow_convention_mismatch)
    state = _START.copy()  # x, Q and rho in one buffer, at one address
    state[:3] = _state(x0)
    series = np.empty(((n_steps + sample_every - 1) // sample_every, 4))
    kernel, args, heun = integrator._kernel(), _kernel_args(s, dt), scheme is Scheme.HEUN
    for lo in range(0, n_steps, REORTH_EVERY):
        hi = min(lo + REORTH_EVERY, n_steps)
        failed = kernel.frame_loop(args, heun, state, inc, lo, hi, sample_every, series)
        if failed >= 0:
            raise BlowUpError(failed, state[:3].copy())
        if hi % REORTH_EVERY == 0:
            state[3:12] = _reorthogonalize(state[3:12].reshape(3, 3)).ravel()
    rho, q = state[12:], state[3:12].reshape(3, 3)
    if n_steps % sample_every:
        series[-1, 0], series[-1, 1:] = n_steps * dt, rho
    t_final, w_terminal = n_steps * dt, float(inc.sum())
    lambdas = exponents_from_rho(rho, t_final)
    total = float(lambdas.sum())
    return NleResult(
        lambdas=lambdas,
        sum=total,
        trace_residual=abs(total - theoretical_sum(s, w_terminal, t_final)),
        rho_series=series,
        restarts=n_steps,
        t_final=t_final,
        w_terminal=w_terminal,
        ortho_drift=smallmat.frobenius(q.T @ q - _EYE),
    )
