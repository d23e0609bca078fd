"""The three Lorenz 63 systems: deterministic, transport noise (SALT) and
fluctuation-dissipation (FD) noise.

Each system is a drift/diffusion pair with exact analytic Jacobians and a
declared stochastic-calculus convention.  Transport noise is Stratonovich
and acts as a stochastic angular velocity on the (Y, Z) pair; FD noise is
Ito and multiplies every variable, so its noise Jacobian has trace 3*beta.
Conversion between conventions shifts the drift by +-(1/2) (Df1) f1; both
noises are linear, which makes that correction exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

__all__ = [
    "NoiseKind",
    "Convention",
    "LorenzParams",
    "SystemDef",
    "native_convention",
    "deterministic_lorenz",
    "salt_lorenz",
    "fd_lorenz",
    "drift",
    "diffusion",
    "jacobian_drift",
    "jacobian_diffusion",
    "drift_batch",
    "jacobian_drift_batch",
    "convert_convention",
]


class NoiseKind(Enum):
    NONE = "none"
    SALT = "salt"
    FD = "fd"


class Convention(Enum):
    ITO = "ito"
    STRATONOVICH = "stratonovich"


def native_convention(kind: NoiseKind) -> Convention:
    """The calculus in which each system's coefficients are stated."""
    return Convention.STRATONOVICH if kind is NoiseKind.SALT else Convention.ITO


@dataclass(frozen=True)
class LorenzParams:
    """Prandtl number, scaled Rayleigh number and the wavenumber parameter."""

    sigma: float = 10.0
    r: float = 28.0
    b: float = 8.0 / 3.0

    def __post_init__(self) -> None:
        if not (self.sigma > 0 and self.r > 0 and self.b > 0):
            raise ValueError(f"parameters must be positive: {self}")


@dataclass(frozen=True)
class SystemDef:
    """One Lorenz variant: parameters, noise channel and calculus convention."""

    params: LorenzParams
    kind: NoiseKind = NoiseKind.NONE
    beta: float = 0.0
    convention: Convention = Convention.ITO

    def __post_init__(self) -> None:
        if not self.beta >= 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if self.kind is NoiseKind.NONE and self.beta != 0.0:
            raise ValueError("noise kind 'none' requires beta = 0")


def deterministic_lorenz(params: LorenzParams | None = None) -> SystemDef:
    return SystemDef(params or LorenzParams(), NoiseKind.NONE, 0.0, Convention.ITO)


def salt_lorenz(params: LorenzParams | None = None, beta: float = 0.5) -> SystemDef:
    return SystemDef(params or LorenzParams(), NoiseKind.SALT, beta, Convention.STRATONOVICH)


def fd_lorenz(params: LorenzParams | None = None, beta: float = 0.5) -> SystemDef:
    return SystemDef(params or LorenzParams(), NoiseKind.FD, beta, Convention.ITO)


def diffusion(s: SystemDef, x: np.ndarray) -> np.ndarray:
    """Noise coefficient f1 at state x (linear in x for both noise kinds)."""
    b = s.beta
    if s.kind is NoiseKind.SALT:
        return np.array([0.0, -b * x[2], b * x[1]])
    if s.kind is NoiseKind.FD:
        return b * np.asarray(x, dtype=float)
    return np.zeros(3)


def jacobian_diffusion(s: SystemDef, x: np.ndarray | None = None) -> np.ndarray:
    """Jacobian of the noise coefficient; state-independent for both kinds."""
    b = s.beta
    if s.kind is NoiseKind.SALT:
        return np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -b], [0.0, b, 0.0]])
    if s.kind is NoiseKind.FD:
        return b * np.eye(3)
    return np.zeros((3, 3))


def _correction_sign(s: SystemDef) -> float:
    """Drift-correction sign relative to the system's native convention.

    Ito drift = Stratonovich drift + (1/2)(Df1) f1.  Returns 0 when the
    system is carried in its native convention.
    """
    native = native_convention(s.kind)
    if s.convention is native or s.beta == 0.0:
        return 0.0
    return 1.0 if s.convention is Convention.ITO else -1.0


def drift(s: SystemDef, x: np.ndarray) -> np.ndarray:
    """Drift f0 at state x, in the system's declared convention."""
    p = s.params
    x0, x1, x2 = float(x[0]), float(x[1]), float(x[2])
    base = np.array(
        [
            p.sigma * (x1 - x0),
            p.r * x0 - x0 * x2 - x1,
            x0 * x1 - p.b * x2,
        ]
    )
    sign = _correction_sign(s)
    if sign != 0.0:
        j1 = jacobian_diffusion(s)
        base = base + sign * 0.5 * j1 @ diffusion(s, x)
    return base


def jacobian_drift(s: SystemDef, x: np.ndarray) -> np.ndarray:
    """Exact Jacobian of drift; its trace -sigma - 1 - b is state-independent
    in the native convention."""
    p = s.params
    x0, x1, x2 = float(x[0]), float(x[1]), float(x[2])
    jac = np.array(
        [
            [-p.sigma, p.sigma, 0.0],
            [p.r - x2, -1.0, -x0],
            [x1, x0, -p.b],
        ]
    )
    sign = _correction_sign(s)
    if sign != 0.0:
        j1 = jacobian_diffusion(s)
        jac = jac + sign * 0.5 * (j1 @ j1)
    return jac


def drift_batch(p: LorenzParams, x: np.ndarray) -> np.ndarray:
    """``drift`` at each row of x, shape (B, 3), for systems with parameters p
    stated in their native convention (no drift correction).

    The expressions are those of ``drift``, so row k equals ``drift(s, x[k])``
    bit for bit; a chaotic flow would amplify any rounding difference.
    """
    x0, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
    return np.stack(
        [p.sigma * (x1 - x0), p.r * x0 - x0 * x2 - x1, x0 * x1 - p.b * x2], axis=1
    )


def jacobian_drift_batch(p: LorenzParams, x: np.ndarray) -> np.ndarray:
    """``jacobian_drift`` at each row of x, shape (B, 3, 3), for systems with
    parameters p stated in their native convention."""
    jac = np.empty((x.shape[0], 3, 3))
    jac[:, 0] = (-p.sigma, p.sigma, 0.0)
    jac[:, 1, 0] = p.r - x[:, 2]
    jac[:, 1, 1] = -1.0
    jac[:, 1, 2] = -x[:, 0]
    jac[:, 2, 0] = x[:, 1]
    jac[:, 2, 1] = x[:, 0]
    jac[:, 2, 2] = -p.b
    return jac


def convert_convention(s: SystemDef, target: Convention) -> SystemDef:
    """Equivalent system stated in the target convention.

    The returned definition's drift includes the +-(1/2)(Df1) f1 shift, so
    converting twice restores the original drift exactly.
    """
    return replace(s, convention=target)
