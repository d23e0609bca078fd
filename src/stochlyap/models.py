"""The three Lorenz 63 systems: deterministic, transport noise (SALT) and
fluctuation-dissipation (FD) noise.

Each system is a drift/diffusion pair with exact analytic Jacobians and a
declared stochastic-calculus convention.  Transport noise is Stratonovich
and acts as a stochastic angular velocity on the (Y, Z) pair; FD noise is
Ito and multiplies every variable, so its noise Jacobian has trace 3*beta.
Conversion between conventions shifts the drift by +-(1/2) (Df1) f1; both
noises are linear, which makes that correction exact.

The Lorenz field and its Jacobian are each one component formula; the
Jacobian is evaluated at one state (``jacobian_drift``) or over a stack of
states (``jacobian_drift_batch``).  ``theoretical_sum`` is the
paper's exponent-sum identity tr Df0 + tr Df1 W_T/T, read from the
diagonals of the Jacobians (``_traces``).
"""

from __future__ import annotations

import itertools
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
    "jacobian_drift_batch",
    "jacobian_correction",
    "theoretical_sum",
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
    """One Lorenz variant: parameters, noise channel and calculus convention.

    The convention defaults to the kind's native one (``native_convention``).
    """

    params: LorenzParams
    kind: NoiseKind = NoiseKind.NONE
    beta: float = 0.0
    convention: Convention | None = None

    def __post_init__(self) -> None:
        if self.convention is None:
            object.__setattr__(self, "convention", native_convention(self.kind))
        if not self.beta >= 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta}")
        if self.kind is NoiseKind.NONE and self.beta != 0.0:
            raise ValueError("noise kind 'none' requires beta = 0")


def _native_system(params: LorenzParams | None, kind: NoiseKind, beta: float):
    return SystemDef(params or LorenzParams(), kind, beta)


def deterministic_lorenz(params: LorenzParams | None = None) -> SystemDef:
    return _native_system(params, NoiseKind.NONE, 0.0)


def salt_lorenz(params: LorenzParams | None = None, beta: float = 0.5) -> SystemDef:
    return _native_system(params, NoiseKind.SALT, beta)


def fd_lorenz(params: LorenzParams | None = None, beta: float = 0.5) -> SystemDef:
    return _native_system(params, NoiseKind.FD, beta)


def _lorenz(p: LorenzParams, x0, x1, x2):
    """The Lorenz field at (x0, x1, x2), on Python floats."""
    return (p.sigma * (x1 - x0), p.r * x0 - x0 * x2 - x1, x0 * x1 - p.b * x2)


def _lorenz_jacobian(p: LorenzParams, x0, x1, x2):
    """Rows of the Lorenz field's Jacobian at (x0, x1, x2), as ``_lorenz``."""
    return ((-p.sigma, p.sigma, 0.0), (p.r - x2, -1.0, -x0), (x1, x0, -p.b))


def diffusion(s: SystemDef, x: np.ndarray) -> np.ndarray:
    """Noise coefficient f1 at state x (linear in x for both noise kinds)."""
    b = s.beta
    if s.kind is NoiseKind.SALT:
        return np.array([0.0, -b * x[2], b * x[1]])
    if s.kind is NoiseKind.FD:
        return b * np.asarray(x, dtype=float)
    return np.zeros(3)


def jacobian_diffusion(s: SystemDef) -> np.ndarray:
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
    if s.convention is native_convention(s.kind) or s.beta == 0.0:
        return 0.0
    return 1.0 if s.convention is Convention.ITO else -1.0


def jacobian_correction(s: SystemDef) -> np.ndarray:
    """Jacobian of the drift's convention correction, sign * (1/2)(Df1)^2:
    constant, since both noises are linear, and zero in the native convention.
    A ValueError names beta where beta^2 overflows."""
    sign = _correction_sign(s)
    if not sign:
        return np.zeros((3, 3))
    beta = float(s.beta)
    if not np.isfinite(beta * beta):  # the entries of (Df1)^2 are 0 and +-beta^2
        raise ValueError(f"beta = {beta!r} is too large for the convention correction: "
                         "(Df1)^2 = +-beta^2 overflows")
    j1 = jacobian_diffusion(s)
    return sign * 0.5 * (j1 @ j1)


def drift(s: SystemDef, x: np.ndarray) -> np.ndarray:
    """Drift f0 at state x, in the system's declared convention."""
    x0, x1, x2 = np.asarray(x, dtype=float).tolist()
    base = np.array(_lorenz(s.params, x0, x1, x2))
    sign = _correction_sign(s)
    if sign != 0.0:
        base = base + sign * 0.5 * jacobian_diffusion(s) @ diffusion(s, x)
    return base


def jacobian_drift(s: SystemDef, x: np.ndarray) -> np.ndarray:
    """Exact Jacobian of drift, in the system's declared convention."""
    x0, x1, x2 = np.asarray(x, dtype=float).tolist()
    jac = np.array(_lorenz_jacobian(s.params, x0, x1, x2))
    if _correction_sign(s) != 0.0:
        jac = jac + jacobian_correction(s)
    return jac


def jacobian_drift_batch(p: LorenzParams, x: np.ndarray) -> np.ndarray:
    """The Lorenz Jacobian at each row of x, shape (B, 3, 3): ``jacobian_drift``
    of a system with parameters p in its native convention, row for row."""
    jac = np.empty((x.shape[0], 9))
    rows = _lorenz_jacobian(p, x[:, 0], x[:, 1], x[:, 2])
    for k, entry in enumerate(itertools.chain(*rows)):
        jac[:, k] = entry
    return jac.reshape(-1, 3, 3)


def _traces(s: SystemDef) -> tuple[float, float]:
    """tr Df0, convention correction included, and tr Df1 of s, both
    state-independent, from the diagonal entries alone and summed in
    np.trace's order, (d0 + d1) + d2: the bits of the traces of
    ``jacobian_drift(s, 0)`` and ``jacobian_diffusion(s)``."""
    (d0, _, _), (_, d1, _), (_, _, d2) = _lorenz_jacobian(s.params, 0.0, 0.0, 0.0)
    if _correction_sign(s) != 0.0:
        (k0, _, _), (_, k1, _), (_, _, k2) = jacobian_correction(s).tolist()
        d0, d1, d2 = d0 + k0, d1 + k1, d2 + k2
    b = float(s.beta) if s.kind is NoiseKind.FD else 0.0  # Df1 = beta I, or traceless
    return d0 + d1 + d2, b + b + b


def theoretical_sum(s: SystemDef, w_t: float, t: float) -> float:
    """The exponent sum over a horizon t along a path with W_t = w_t: the
    trace identity tr Df0 + tr Df1 * w_t / t of the declared coefficients.

    The Lorenz trace -(sigma + 1 + b) is state-independent, so SALT (traceless
    Df1) keeps it and FD adds 3 beta W_T/T.  A system converted out of its
    native convention adds its correction's trace: -3 beta^2 / 2 for FD in
    Stratonovich form, -beta^2 for SALT in Ito form.
    """
    if t <= 0:
        raise ValueError(f"time horizon must be positive, got {t}")
    tr0, tr1 = _traces(s)
    return tr0 + tr1 * w_t / t


def convert_convention(s: SystemDef, target: Convention) -> SystemDef:
    """Equivalent system stated in the target convention.

    The returned definition's drift includes the +-(1/2)(Df1) f1 shift, so
    converting twice restores the original drift exactly.
    """
    return replace(s, convention=target)
