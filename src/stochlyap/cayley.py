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

``run_nle_batch`` advances B trajectories in lockstep, a spin-up and then
the same kernel on states of shape (B, 3), (B, 3, 3) and (B, 3); it serves
ensembles such as amplitude sweeps.  A single run stays on ``run_nle``,
whose per-step cost is lower at B = 1 and which is the batch's reference.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import smallmat
from .integrator import (
    SPIN_UP_STATE,
    BlowUpError,
    IntegratorConfig,
    Scheme,
    _bounded,
    heun_step,
    step,
)
from .models import (
    LorenzParams,
    SystemDef,
    drift_batch,
    jacobian_diffusion,
    jacobian_drift,
    jacobian_drift_batch,
    native_convention,
    theoretical_sum,
)
from .smallmat import (
    LOWER_FLAT,
    CayleyDomainError,
    SkewMat3,
    cayley,
    cayley_batch,
    inverse,
    qr_decompose,
)
from .wiener import WienerPath, increment_blocks

__all__ = [
    "CayleyState",
    "NleResult",
    "conjugated_jacobians",
    "step_k_rho",
    "maybe_restart",
    "exponents_from_rho",
    "run_nle",
    "run_nle_batch",
    "DEFAULT_ETA",
    "DEFAULT_NLE_STEPS",
]

DEFAULT_ETA = 0.8
DEFAULT_NLE_STEPS = 100_000
REORTH_EVERY = 10_000
_ORTHO_DRIFT_TOL = 1e-10


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
    return np.sort(np.asarray(rho, dtype=float) / t)[::-1]


def _reorthogonalize(q: np.ndarray) -> np.ndarray:
    if smallmat.frobenius(q.T @ q - np.eye(3)) <= _ORTHO_DRIFT_TOL:
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
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    if path_offset + n_steps > len(path):
        raise ValueError(
            f"path has {len(path)} steps, need {path_offset + n_steps}"
        )
    _check_eta(eta)
    cfg = IntegratorConfig(
        scheme=scheme,
        dt=dt,
        n_steps=1,
        allow_convention_mismatch=allow_convention_mismatch,
    )
    cfg.check(s)
    inc = path.scalar()
    heun = scheme is Scheme.HEUN
    j1 = jacobian_diffusion(s)
    x = np.asarray(x0, dtype=float)
    q = np.eye(3)
    rho = np.zeros(3)
    samples: list[tuple[float, float, float, float]] = []

    for i in range(n_steps):
        dW = float(inc[path_offset + i])
        try:
            if heun:
                x_pred, x_next = heun_step(s, x, dW, dt)
            else:
                x_next = step(s, x, dW, cfg)
        except BlowUpError as err:
            raise BlowUpError(i, err.state) from None
        s_low, drho = _increment_at(q, jacobian_drift(s, x), j1, dt, dW)
        if heun:
            q_pred = q @ cayley(SkewMat3(s_low))
            s_low2, drho2 = _increment_at(q_pred, jacobian_drift(s, x_pred), j1, dt, dW)
            s_low, drho = 0.5 * (s_low + s_low2), 0.5 * (drho + drho2)
        rho = rho + drho
        q = q @ cayley(SkewMat3(s_low))
        if (i + 1) % REORTH_EVERY == 0:
            q = _reorthogonalize(q)
        x = x_next
        if (i + 1) % sample_every == 0 or i + 1 == n_steps:
            samples.append(((i + 1) * dt, rho[0], rho[1], rho[2]))

    w_terminal = float(np.sum(inc[path_offset:path_offset + n_steps]))
    return _nle_result(s, q, rho, np.array(samples), n_steps, dt, w_terminal)


def _nle_result(
    s: SystemDef,
    q: np.ndarray,
    rho: np.ndarray,
    rho_series: np.ndarray,
    n_steps: int,
    dt: float,
    w_terminal: float,
) -> NleResult:
    t_final = n_steps * dt
    lambdas = exponents_from_rho(rho, t_final)
    total = float(np.sum(lambdas))
    return NleResult(
        lambdas=lambdas,
        sum=total,
        trace_residual=abs(total - theoretical_sum(s, w_terminal, t_final)),
        rho_series=rho_series,
        restarts=n_steps,
        t_final=t_final,
        w_terminal=w_terminal,
        ortho_drift=smallmat.frobenius(q.T @ q - np.eye(3)),
    )


def _batch_params(systems: Sequence[SystemDef]) -> LorenzParams:
    if not systems:
        raise ValueError("a batch needs at least one system")
    params = systems[0].params
    for s in systems:
        if s.params != params:
            raise ValueError(
                f"a batch shares one set of parameters, got {s.params} and {params}"
            )
        # drift_batch carries no convention correction
        if s.convention is not native_convention(s.kind):
            raise ValueError(
                f"the batched engine takes systems in their native convention, got "
                f"a {s.kind.value} system in {s.convention.value} form"
            )
    return params


def run_nle_batch(
    systems: Sequence[SystemDef],
    seeds: Sequence[int],
    dt: float,
    spin_up_steps: int,
    n_steps: int = DEFAULT_NLE_STEPS,
    *,
    sample_every: int = 100,
) -> list[NleResult]:
    """Spin up and run B trajectories in lockstep under Euler-Maruyama.

    Trajectory k integrates ``systems[k]`` in its native coefficient form
    along ``generate_path(seeds[k], spin_up_steps + n_steps, dt)``:
    ``spin_up_steps`` base steps from ``SPIN_UP_STATE``, then ``n_steps``
    steps of the frame kernel on the remaining increments.  Trajectories
    with equal seeds share one increment column, and the increments are
    drawn in blocks, so memory does not grow with the path length.  The
    per-step arithmetic is that of ``spin_up`` followed by ``run_nle`` with
    ``allow_convention_mismatch=True``, so ``results[k]`` agrees with that
    run's result (``w_terminal`` is summed step by step, so it agrees to
    rounding).  Both noises are linear, so the diffusion is Df1 x exactly.
    The systems must share their parameters.  A blow-up raises
    ``BlowUpError`` naming the phase, the step, and the trajectory's
    system, beta and seed.
    """
    if len(systems) != len(seeds):
        raise ValueError(f"{len(systems)} systems but {len(seeds)} seeds")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if spin_up_steps < 0:
        raise ValueError(f"spin_up_steps must be nonnegative, got {spin_up_steps}")
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    p = _batch_params(systems)

    unique, column = np.unique(np.asarray(seeds, dtype=np.int64), return_inverse=True)
    blocks = increment_blocks(unique.tolist(), spin_up_steps + n_steps, dt)
    dws = itertools.chain.from_iterable(block[:, column] for block in blocks)
    j1 = np.array([jacobian_diffusion(s) for s in systems])

    def base_step(x: np.ndarray, dw: np.ndarray, i: int, phase: str) -> np.ndarray:
        # integrator.step's Euler-Maruyama update, row by row
        out = x + drift_batch(p, x) * dt + (j1 @ x[:, :, None])[:, :, 0] * dw[:, None]
        if _bounded(out.ravel()):
            return out
        k = int(np.argmin(_bounded(out)))  # the first row out of bounds
        raise BlowUpError(i, out[k]).within(phase, systems[k], seeds[k])

    x = np.tile(SPIN_UP_STATE, (len(systems), 1))
    for i in range(spin_up_steps):
        x = base_step(x, next(dws), i, "spin-up")

    q = np.tile(np.eye(3), (len(systems), 1, 1))
    rho = np.zeros((len(systems), 3))
    w_terminal = np.zeros(len(systems))
    times: list[float] = []
    samples: list[np.ndarray] = []
    for i in range(n_steps):
        dw = next(dws)
        x_next = base_step(x, dw, i, "exponent phase")
        m = jacobian_drift_batch(p, x) * dt + j1 * dw[:, None, None]
        a = np.swapaxes(q, 1, 2) @ m @ q
        rho = rho + a.diagonal(axis1=1, axis2=2)
        q = q @ cayley_batch(-0.5 * a.reshape(-1, 9).take(LOWER_FLAT, axis=1))
        if (i + 1) % REORTH_EVERY == 0:
            q = np.array([_reorthogonalize(qk) for qk in q])
        x = x_next
        w_terminal = w_terminal + dw
        if (i + 1) % sample_every == 0 or i + 1 == n_steps:
            times.append((i + 1) * dt)
            samples.append(rho)

    t = np.array(times)[:, None]
    series = np.array(samples)
    return [
        _nle_result(
            s, q[k], rho[k], np.hstack([t, series[:, k]]), n_steps, dt,
            float(w_terminal[k]),
        )
        for k, s in enumerate(systems)
    ]
