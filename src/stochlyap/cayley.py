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

``run_nle`` runs on Python floats: the base step is the integrator's
float step, and the frame step forms the diagonal and strict lower
triangle of Q^T M Q and rotates the nine entries of Q by the closed-form
Cayley entries of ``smallmat``, with no per-step ndarray.  Each step is one
straight-line loop body on local floats, bit for bit the closures
``_frame_increment`` and ``_rotate``, that skips the structural zeros of the
noise: ~3.7-4 us an Euler step, ~7.3-7.5 us a Heun step, which takes the
increment at two frames (2-vCPU VM, 20k SALT steps).  The loop walks the path
in event-free segments, so the sampling of rho, the re-orthogonalisation of
Q and the conversion of the increments to floats run once per segment
instead of being tested at every step.  ``_increment_at`` and the K/eta
stepper keep the ndarray form as its reference.

``run_nle_batch`` runs B trajectories, a spin-up and then the kernel; it
serves ensembles such as amplitude sweeps.  Below B = 24 it runs them one by
one on ``spin_up`` and ``run_nle`` (~4.3 us per trajectory-step).  From
B = 24 on it advances them in lockstep, the same kernel on states of shape
(B, 3), (B, 3, 3) and (B, 3), whose ~80 us of numpy calls per step the B
trajectories share: ~4.2 us per trajectory-step at B = 24, ~3.4 at B = 32
and ~1.3 at B = 100 (2-vCPU VM).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import smallmat
from .integrator import (
    _STATE_BOUND,
    SPIN_UP_STATE,
    BlowUpError,
    IntegratorConfig,
    Scheme,
    _bounded,
    _diffusion_rows,
    _segments,
    spin_up,
)
from .models import (
    LorenzParams,
    SystemDef,
    drift_batch,
    jacobian_correction,
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
from .wiener import WienerPath, generate_path, increment_blocks

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
# Batch size from which run_nle_batch runs the lockstep kernel; smaller
# batches run row by row on run_nle's float kernel.  In us per
# trajectory-step, rows / lockstep, the middle of 2-4 readings of a median of
# 5 runs (2-vCPU VM, 500 spin-up + 1500 exponent steps, SALT and FD on one
# path): 4.3 / 11.1 at B = 8, 4.2 / 6.1 at B = 16, 4.4 / 4.8 at B = 20,
# 4.4 / 4.2 at B = 24, 4.4 / 3.4 at B = 32, 4.5 / 1.3 at B = 100.  A 2k +
# 8k-step `sweep --mode fixed --jobs 2` agrees: rows faster in 7/7 runs at
# B = 20 a shard, 5/7 at B = 24, 0/7 at B = 26.  From B = 22 to 26 the two
# lie within each other's spread.
_LOCKSTEP_FROM = 24


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


def _folded_m(s: SystemDef, dt: float):
    """The constants of M = Df0(x) dt + Df1 dW, flat row-major.  Df0 is the
    Lorenz Jacobian l plus the convention correction k: its five entries that
    do not depend on x are folded once into (l + k) dt, the other four keep k
    alone.  The second and third items are ``_diffusion_rows(s)``: Df1 and the
    drift correction's factor.  For both noises the first item is 0 at (0, 2),
    (1, 0), (1, 2), (2, 0) and (2, 1)."""
    p = s.params
    k00, k01, k02, k10, k11, k12, k20, k21, k22 = jacobian_correction(s).ravel().tolist()
    return ((-p.sigma + k00) * dt, (p.sigma + k01) * dt, (0.0 + k02) * dt, k10,
            (-1.0 + k11) * dt, k12, k20, k21, (-p.b + k22) * dt,
            ), *_diffusion_rows(s)


def _frame_increment(s: SystemDef, dt: float):
    """The frame kernel's increment on Python floats: a map
    (q, x0, x1, x2, dW) -> (drho0, drho1, drho2, s0, s1, s2) of the flat
    row-major frame q and the base state, as ``_increment_at`` with
    M = Df0(x) dt + Df1 dW: the diagonal of A = Q^T M Q, then -(1/2) times
    its strict lower triangle (1,0), (2,0), (2,1)."""
    r = s.params.r
    (e00, e01, e02, k10, e11, k12, k20, k21, e22), (
        a00, a01, a02, a10, a11, a12, a20, a21, a22), _ = _folded_m(s, dt)

    def increment(q, x0, x1, x2, dw):
        m00 = e00 + a00 * dw
        m01 = e01 + a01 * dw
        m02 = e02 + a02 * dw
        m10 = (r - x2 + k10) * dt + a10 * dw
        m11 = e11 + a11 * dw
        m12 = (-x0 + k12) * dt + a12 * dw
        m20 = (x1 + k20) * dt + a20 * dw
        m21 = (x0 + k21) * dt + a21 * dw
        m22 = e22 + a22 * dw
        q00, q01, q02, q10, q11, q12, q20, q21, q22 = q
        n00 = m00 * q00 + m01 * q10 + m02 * q20  # N = M Q
        n01 = m00 * q01 + m01 * q11 + m02 * q21
        n02 = m00 * q02 + m01 * q12 + m02 * q22
        n10 = m10 * q00 + m11 * q10 + m12 * q20
        n11 = m10 * q01 + m11 * q11 + m12 * q21
        n12 = m10 * q02 + m11 * q12 + m12 * q22
        n20 = m20 * q00 + m21 * q10 + m22 * q20
        n21 = m20 * q01 + m21 * q11 + m22 * q21
        n22 = m20 * q02 + m21 * q12 + m22 * q22
        return (  # entries of A = Q^T N
            q00 * n00 + q10 * n10 + q20 * n20,
            q01 * n01 + q11 * n11 + q21 * n21,
            q02 * n02 + q12 * n12 + q22 * n22,
            -0.5 * (q01 * n00 + q11 * n10 + q21 * n20),
            -0.5 * (q02 * n00 + q12 * n10 + q22 * n20),
            -0.5 * (q02 * n01 + q12 * n11 + q22 * n21),
        )

    return increment


def _rotate(q, s0: float, s1: float, s2: float):
    """The flat frame q times cayley(SkewMat3((s0, s1, s2))), on Python
    floats, with the entries of ``smallmat._cayley_entries``."""
    w2 = s0 * s0 + s1 * s1 + s2 * s2
    d, den = 1.0 - w2, 1.0 + w2
    c00, c01, c02 = ((d + 2.0 * s2 * s2) / den, 2.0 * (s0 - s1 * s2) / den,
                     2.0 * (s1 + s0 * s2) / den)
    c10, c11, c12 = (-2.0 * (s0 + s1 * s2) / den, (d + 2.0 * s1 * s1) / den,
                     2.0 * (s2 - s0 * s1) / den)
    c20, c21, c22 = (2.0 * (s0 * s2 - s1) / den, -2.0 * (s2 + s0 * s1) / den,
                     (d + 2.0 * s0 * s0) / den)
    q00, q01, q02, q10, q11, q12, q20, q21, q22 = q
    return (
        q00 * c00 + q01 * c10 + q02 * c20,
        q00 * c01 + q01 * c11 + q02 * c21,
        q00 * c02 + q01 * c12 + q02 * c22,
        q10 * c00 + q11 * c10 + q12 * c20,
        q10 * c01 + q11 * c11 + q12 * c21,
        q10 * c02 + q11 * c12 + q12 * c22,
        q20 * c00 + q21 * c10 + q22 * c20,
        q20 * c01 + q21 * c11 + q22 * c21,
        q20 * c02 + q21 * c12 + q22 * c22,
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

    Both the base step and the frame step run on Python floats.  Each step
    is one straight-line loop body, bit for bit the integrator's
    ``_float_steps`` step, ``_frame_increment`` and ``_rotate``, less their
    products with the noise's structural zeros: ~3.7-4 us an Euler step and
    ~7.3-7.5 us a Heun step, which takes the increment at two frames (2-vCPU
    VM, 20k steps).  The steps run in segments that end where a sample of
    rho, a re-orthogonalisation or a block of 1024 increments is due, or at
    n_steps; those events run after the segment that ends on them.
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
    IntegratorConfig(
        scheme=scheme,
        dt=dt,
        n_steps=1,
        allow_convention_mismatch=allow_convention_mismatch,
    ).check(s)
    x0, x1, x2 = np.asarray(x0, dtype=float).tolist()  # the state, by component
    r0 = r1 = r2 = 0.0
    series = np.empty(((n_steps + sample_every - 1) // sample_every, 4))
    samples, k = memoryview(series.reshape(-1)), 0  # series, flat, and its next index
    # Each step is written out on local floats: the base step of _float_steps
    # with its bound check, _frame_increment on the folded M, then _rotate,
    # less the products with the structural zeros of Df1 and the correction:
    # M's (0, 1) entry is e01 and its (0, 2) entry is 0.
    sigma, r, b = s.params.sigma, s.params.r, s.params.b
    (e00, e01, _, _, e11, _, _, _, e22), (a00, _, _, _, a11, a12, _, a21, a22), (
        h00, _, _, _, h11, h12, _, h21, h22) = _folded_m(s, dt)
    q00, q01, q02, q10, q11, q12, q20, q21, q22 = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0
    bound, nbound = _STATE_BOUND, -_STATE_BOUND
    inc = path.scalar()[path_offset:path_offset + n_steps]
    heun = scheme is Scheme.HEUN
    for lo, hi, dws in _segments(inc, sample_every, REORTH_EVERY):
        steps = enumerate(dws, lo)
        if heun:
            for i, dw in steps:
                g0 = a00 * x0  # the diffusion Df1 x
                g1 = a11 * x1 + a12 * x2
                g2 = a21 * x1 + a22 * x2
                f0 = sigma * (x1 - x0) + h00 * g0  # the drift
                f1 = r * x0 - x0 * x2 - x1 + (h11 * g1 + h12 * g2)
                f2 = x0 * x1 - b * x2 + (h21 * g1 + h22 * g2)
                p0 = x0 + f0 * dt + g0 * dw  # the predictor p
                p1 = x1 + f1 * dt + g1 * dw
                p2 = x2 + f2 * dt + g2 * dw
                u0 = a00 * p0  # the diffusion and the drift at p
                u1 = a11 * p1 + a12 * p2
                u2 = a21 * p1 + a22 * p2
                v0 = sigma * (p1 - p0) + h00 * u0
                v1 = r * p0 - p0 * p2 - p1 + (h11 * u1 + h12 * u2)
                v2 = p0 * p1 - b * p2 + (h21 * u1 + h22 * u2)
                y0 = x0 + 0.5 * (f0 + v0) * dt + 0.5 * (g0 + u0) * dw
                y1 = x1 + 0.5 * (f1 + v1) * dt + 0.5 * (g1 + u1) * dw
                y2 = x2 + 0.5 * (f2 + v2) * dt + 0.5 * (g2 + u2) * dw
                if not (nbound <= y0 <= bound and nbound <= y1 <= bound
                        and nbound <= y2 <= bound):
                    raise BlowUpError(i, np.array([y0, y1, y2]))
                m00 = e00 + a00 * dw  # the increment at (x, Q)
                m10 = (r - x2) * dt
                m11 = e11 + a11 * dw
                m12 = -x0 * dt + a12 * dw
                m20 = x1 * dt
                m21 = x0 * dt + a21 * dw
                m22 = e22 + a22 * dw
                n00 = m00 * q00 + e01 * q10
                n01 = m00 * q01 + e01 * q11
                n02 = m00 * q02 + e01 * q12
                n10 = m10 * q00 + m11 * q10 + m12 * q20
                n11 = m10 * q01 + m11 * q11 + m12 * q21
                n12 = m10 * q02 + m11 * q12 + m12 * q22
                n20 = m20 * q00 + m21 * q10 + m22 * q20
                n21 = m20 * q01 + m21 * q11 + m22 * q21
                n22 = m20 * q02 + m21 * q12 + m22 * q22
                d0 = q00 * n00 + q10 * n10 + q20 * n20
                d1 = q01 * n01 + q11 * n11 + q21 * n21
                d2 = q02 * n02 + q12 * n12 + q22 * n22
                s0 = -0.5 * (q01 * n00 + q11 * n10 + q21 * n20)
                s1 = -0.5 * (q02 * n00 + q12 * n10 + q22 * n20)
                s2 = -0.5 * (q02 * n01 + q12 * n11 + q22 * n21)
                w2 = s0 * s0 + s1 * s1 + s2 * s2  # U = Q cayley(S)
                d, den = 1.0 - w2, 1.0 + w2
                c00, c01, c02 = ((d + 2.0 * s2 * s2) / den, 2.0 * (s0 - s1 * s2) / den,
                                 2.0 * (s1 + s0 * s2) / den)
                c10, c11, c12 = (-2.0 * (s0 + s1 * s2) / den, (d + 2.0 * s1 * s1) / den,
                                 2.0 * (s2 - s0 * s1) / den)
                c20, c21, c22 = (2.0 * (s0 * s2 - s1) / den, -2.0 * (s2 + s0 * s1) / den,
                                 (d + 2.0 * s0 * s0) / den)
                u00 = q00 * c00 + q01 * c10 + q02 * c20
                u01 = q00 * c01 + q01 * c11 + q02 * c21
                u02 = q00 * c02 + q01 * c12 + q02 * c22
                u10 = q10 * c00 + q11 * c10 + q12 * c20
                u11 = q10 * c01 + q11 * c11 + q12 * c21
                u12 = q10 * c02 + q11 * c12 + q12 * c22
                u20 = q20 * c00 + q21 * c10 + q22 * c20
                u21 = q20 * c01 + q21 * c11 + q22 * c21
                u22 = q20 * c02 + q21 * c12 + q22 * c22
                m10 = (r - p2) * dt  # the increment at (p, U); the
                m12 = -p0 * dt + a12 * dw  # other entries of M do not depend on x
                m20 = p1 * dt
                m21 = p0 * dt + a21 * dw
                n00 = m00 * u00 + e01 * u10
                n01 = m00 * u01 + e01 * u11
                n02 = m00 * u02 + e01 * u12
                n10 = m10 * u00 + m11 * u10 + m12 * u20
                n11 = m10 * u01 + m11 * u11 + m12 * u21
                n12 = m10 * u02 + m11 * u12 + m12 * u22
                n20 = m20 * u00 + m21 * u10 + m22 * u20
                n21 = m20 * u01 + m21 * u11 + m22 * u21
                n22 = m20 * u02 + m21 * u12 + m22 * u22
                r0 += 0.5 * (d0 + (u00 * n00 + u10 * n10 + u20 * n20))  # rho += (d + e) / 2
                r1 += 0.5 * (d1 + (u01 * n01 + u11 * n11 + u21 * n21))
                r2 += 0.5 * (d2 + (u02 * n02 + u12 * n12 + u22 * n22))
                s0 = 0.5 * (s0 + -0.5 * (u01 * n00 + u11 * n10 + u21 * n20))  # (S + T) / 2
                s1 = 0.5 * (s1 + -0.5 * (u02 * n00 + u12 * n10 + u22 * n20))
                s2 = 0.5 * (s2 + -0.5 * (u02 * n01 + u12 * n11 + u22 * n21))
                w2 = s0 * s0 + s1 * s1 + s2 * s2  # Q <- Q cayley((S + T) / 2)
                d, den = 1.0 - w2, 1.0 + w2
                c00, c01, c02 = ((d + 2.0 * s2 * s2) / den, 2.0 * (s0 - s1 * s2) / den,
                                 2.0 * (s1 + s0 * s2) / den)
                c10, c11, c12 = (-2.0 * (s0 + s1 * s2) / den, (d + 2.0 * s1 * s1) / den,
                                 2.0 * (s2 - s0 * s1) / den)
                c20, c21, c22 = (2.0 * (s0 * s2 - s1) / den, -2.0 * (s2 + s0 * s1) / den,
                                 (d + 2.0 * s0 * s0) / den)
                q00, q01, q02 = (q00 * c00 + q01 * c10 + q02 * c20,
                                 q00 * c01 + q01 * c11 + q02 * c21,
                                 q00 * c02 + q01 * c12 + q02 * c22)
                q10, q11, q12 = (q10 * c00 + q11 * c10 + q12 * c20,
                                 q10 * c01 + q11 * c11 + q12 * c21,
                                 q10 * c02 + q11 * c12 + q12 * c22)
                q20, q21, q22 = (q20 * c00 + q21 * c10 + q22 * c20,
                                 q20 * c01 + q21 * c11 + q22 * c21,
                                 q20 * c02 + q21 * c12 + q22 * c22)
                x0, x1, x2 = y0, y1, y2
        else:
            for i, dw in steps:
                g0 = a00 * x0  # the diffusion Df1 x
                g1 = a11 * x1 + a12 * x2
                g2 = a21 * x1 + a22 * x2
                y0 = x0 + (sigma * (x1 - x0) + h00 * g0) * dt + g0 * dw
                y1 = x1 + (r * x0 - x0 * x2 - x1 + (h11 * g1 + h12 * g2)) * dt + g1 * dw
                y2 = x2 + (x0 * x1 - b * x2 + (h21 * g1 + h22 * g2)) * dt + g2 * dw
                if not (nbound <= y0 <= bound and nbound <= y1 <= bound
                        and nbound <= y2 <= bound):
                    raise BlowUpError(i, np.array([y0, y1, y2]))
                m00 = e00 + a00 * dw
                m10 = (r - x2) * dt
                m11 = e11 + a11 * dw
                m12 = -x0 * dt + a12 * dw
                m20 = x1 * dt
                m21 = x0 * dt + a21 * dw
                m22 = e22 + a22 * dw
                n00 = m00 * q00 + e01 * q10  # N = M Q
                n01 = m00 * q01 + e01 * q11
                n02 = m00 * q02 + e01 * q12
                n10 = m10 * q00 + m11 * q10 + m12 * q20
                n11 = m10 * q01 + m11 * q11 + m12 * q21
                n12 = m10 * q02 + m11 * q12 + m12 * q22
                n20 = m20 * q00 + m21 * q10 + m22 * q20
                n21 = m20 * q01 + m21 * q11 + m22 * q21
                n22 = m20 * q02 + m21 * q12 + m22 * q22
                r0 += q00 * n00 + q10 * n10 + q20 * n20  # the diagonal of A = Q^T N
                r1 += q01 * n01 + q11 * n11 + q21 * n21
                r2 += q02 * n02 + q12 * n12 + q22 * n22
                s0 = -0.5 * (q01 * n00 + q11 * n10 + q21 * n20)
                s1 = -0.5 * (q02 * n00 + q12 * n10 + q22 * n20)
                s2 = -0.5 * (q02 * n01 + q12 * n11 + q22 * n21)
                w2 = s0 * s0 + s1 * s1 + s2 * s2  # Q <- Q cayley(S)
                d, den = 1.0 - w2, 1.0 + w2
                c00, c01, c02 = ((d + 2.0 * s2 * s2) / den, 2.0 * (s0 - s1 * s2) / den,
                                 2.0 * (s1 + s0 * s2) / den)
                c10, c11, c12 = (-2.0 * (s0 + s1 * s2) / den, (d + 2.0 * s1 * s1) / den,
                                 2.0 * (s2 - s0 * s1) / den)
                c20, c21, c22 = (2.0 * (s0 * s2 - s1) / den, -2.0 * (s2 + s0 * s1) / den,
                                 (d + 2.0 * s0 * s0) / den)
                q00, q01, q02 = (q00 * c00 + q01 * c10 + q02 * c20,
                                 q00 * c01 + q01 * c11 + q02 * c21,
                                 q00 * c02 + q01 * c12 + q02 * c22)
                q10, q11, q12 = (q10 * c00 + q11 * c10 + q12 * c20,
                                 q10 * c01 + q11 * c11 + q12 * c21,
                                 q10 * c02 + q11 * c12 + q12 * c22)
                q20, q21, q22 = (q20 * c00 + q21 * c10 + q22 * c20,
                                 q20 * c01 + q21 * c11 + q22 * c21,
                                 q20 * c02 + q21 * c12 + q22 * c22)
                x0, x1, x2 = y0, y1, y2
        if hi % REORTH_EVERY == 0:
            q00, q01, q02, q10, q11, q12, q20, q21, q22 = _reorthogonalize(np.array(
                [[q00, q01, q02], [q10, q11, q12], [q20, q21, q22]])).ravel().tolist()
        if hi % sample_every == 0 or hi == n_steps:
            samples[k], samples[k + 1], samples[k + 2], samples[k + 3] = (
                hi * dt, r0, r1, r2)
            k += 4
    q = (q00, q01, q02, q10, q11, q12, q20, q21, q22)

    w_terminal = float(np.sum(inc))
    return _nle_result(s, np.array(q).reshape(3, 3), np.array([r0, r1, r2]), series,
                       n_steps, dt, w_terminal)


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


def _run_rows(
    systems: Sequence[SystemDef],
    seeds: Sequence[int],
    dt: float,
    spin_up_steps: int,
    n_steps: int,
    sample_every: int,
) -> list[NleResult]:
    """``run_nle_batch`` one trajectory at a time: ``spin_up``, then ``run_nle``.

    Each seed's path is drawn once per run of equal seeds and only one is
    held.  A blow-up is raised as the lockstep kernel raises it: the earliest
    phase and step of any trajectory, and of those the first trajectory.
    Once a trajectory has failed in spin-up, an exponent-phase failure can
    no longer be the one raised, so later trajectories run their spin-up
    only.
    """
    cfg = IntegratorConfig(dt=dt, n_steps=spin_up_steps, allow_convention_mismatch=True)
    results: list[NleResult] = []
    failures: list[tuple[bool, int, int, BlowUpError]] = []
    spin_up_failed = False
    path = None
    for k, (s, seed) in enumerate(zip(systems, seeds)):
        if path is None or path.seed != seed:
            path = generate_path(seed, spin_up_steps + n_steps, dt)
        phase = "spin-up"
        try:
            x0 = spin_up(s, path, cfg)
            if spin_up_failed:
                continue
            phase = "exponent phase"
            results.append(run_nle(s, x0, path, dt, n_steps, sample_every=sample_every,
                                   path_offset=spin_up_steps,
                                   allow_convention_mismatch=True))
        except BlowUpError as err:
            spin_up_failed = spin_up_failed or phase == "spin-up"
            failures.append((phase != "spin-up", err.step_index, k,
                             err.within(phase, s, seed)))
    if failures:
        raise min(failures)[-1]
    return results


def run_nle_batch(
    systems: Sequence[SystemDef],
    seeds: Sequence[int],
    dt: float,
    spin_up_steps: int,
    n_steps: int = DEFAULT_NLE_STEPS,
    *,
    sample_every: int = 100,
) -> list[NleResult]:
    """Spin up and run B trajectories under Euler-Maruyama.

    Trajectory k integrates ``systems[k]`` in its native coefficient form
    along ``generate_path(seeds[k], spin_up_steps + n_steps, dt)``:
    ``spin_up_steps`` base steps from ``SPIN_UP_STATE``, then ``n_steps``
    steps of the frame kernel on the remaining increments.  Results are
    those of ``spin_up`` followed by ``run_nle`` with
    ``allow_convention_mismatch=True``.  The systems must share their
    parameters.  A blow-up raises ``BlowUpError`` naming the phase, the
    step, and the trajectory's system, beta and seed: the earliest phase
    and step of any trajectory, and of those the first trajectory.

    Below B = 24 (``_LOCKSTEP_FROM``) the trajectories run one by one on
    exactly those calls, at ~4.3 us per trajectory-step, holding one seed's
    whole path (8 bytes a step) at a time as a single ``run_nle`` does.
    From B = 24 on they advance in lockstep on (B, 3) and (B, 3, 3) states,
    with the same per-step arithmetic but (B, 3, 3) matmuls, so results
    agree to rounding (``w_terminal`` is summed step by step).  Both noises
    are linear, so the diffusion is Df1 x exactly.  Trajectories with equal
    seeds share one increment column, drawn in blocks, so lockstep memory
    does not grow with the path length.  The lockstep step costs ~80 us of
    numpy calls that the B trajectories share: ~4.2 us per trajectory-step
    at B = 24, ~3.4 at B = 32 and ~1.3 at B = 100 (2-vCPU VM).
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
    if len(systems) < _LOCKSTEP_FROM:
        return _run_rows(systems, seeds, dt, spin_up_steps, n_steps, sample_every)

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
