"""Fixed-step time integration of a Lorenz system along a Wiener path.

Euler-Maruyama consumes Ito-convention systems, Heun (predictor-corrector)
consumes Stratonovich ones.  The reference experiments apply Euler-Maruyama
directly to the transport-noise system in its Stratonovich form; that
mismatch must be requested explicitly via ``allow_convention_mismatch``.

Both schemes run on Python floats (``_float_steps``), bit for bit the
ndarray expressions of ``models.drift`` and ``models.diffusion``; ``step``
and ``heun_step`` wrap them for one ndarray state.  ``simulate`` and
``spin_up`` share one loop, ``_base_loop``, whose Euler step is written out
on local floats with no call per step (~1.0-1.6 us a step, 2-vCPU VM; a
Heun step calls the closure, ~3-4.5 us).  ``simulate`` writes the states
into one preallocated float64 array, and ``spin_up`` keeps only the end
state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .models import (
    Convention,
    NoiseKind,
    SystemDef,
    _correction_sign,
    _lorenz,
    jacobian_diffusion,
)
from .wiener import WienerPath

__all__ = [
    "Scheme",
    "BlowUpError",
    "ConventionMismatchError",
    "IntegratorConfig",
    "DEFAULT_SPIN_UP_STEPS",
    "DEFAULT_DT",
    "SPIN_UP_STATE",
    "step",
    "heun_step",
    "simulate",
    "spin_up",
]

DEFAULT_DT = 0.001
DEFAULT_SPIN_UP_STEPS = 50_000
SPIN_UP_STATE = np.array([0.0, 1.0, 0.0])

_STATE_BOUND = 1e100


class Scheme(Enum):
    EULER_MARUYAMA = "euler-maruyama"
    HEUN = "heun"


class BlowUpError(RuntimeError):
    """A state failed the bound max|x| <= 1e100 (NaN fails it too).

    ``context`` names the phase and trajectory, as set by ``within``.
    """

    def __init__(self, step_index: int, state: np.ndarray, context: str = ""):
        where = f"step {step_index} of {context}" if context else f"step {step_index}"
        super().__init__(f"state fails max|x| <= {_STATE_BOUND:g} at {where}: {state}")
        self.step_index = step_index
        self.state = state
        self.context = context

    def within(self, phase: str, s: SystemDef, seed: int) -> "BlowUpError":
        """This error, naming the phase and the trajectory's system, beta and seed."""
        where = f"the {phase} ({s.kind.value}, beta={s.beta}, seed={seed})"
        return BlowUpError(self.step_index, self.state, where)

    def __reduce__(self):
        # pickled by its fields, so the error survives a worker process
        return type(self), (self.step_index, self.state, self.context)


class ConventionMismatchError(ValueError):
    """Scheme and system convention disagree and no override was given."""


def _required_convention(scheme: Scheme) -> Convention:
    return Convention.ITO if scheme is Scheme.EULER_MARUYAMA else Convention.STRATONOVICH


@dataclass(frozen=True)
class IntegratorConfig:
    scheme: Scheme = Scheme.EULER_MARUYAMA
    dt: float = DEFAULT_DT
    n_steps: int = DEFAULT_SPIN_UP_STEPS
    allow_convention_mismatch: bool = False

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be nonnegative, got {self.n_steps}")

    def check(self, s: SystemDef) -> None:
        if self.allow_convention_mismatch or s.kind is NoiseKind.NONE or s.beta == 0.0:
            return
        if s.convention is not _required_convention(self.scheme):
            raise ConventionMismatchError(
                f"{self.scheme.value} expects a "
                f"{_required_convention(self.scheme).value} system, got "
                f"{s.convention.value}; convert the system or set "
                "allow_convention_mismatch=True to integrate the coefficients "
                "literally"
            )


def _bounded(x: np.ndarray) -> np.ndarray:
    """max|x| <= 1e100 over the last axis, per state; False for NaN as well."""
    return np.abs(x).max(axis=-1) <= _STATE_BOUND


def _diffusion_rows(s: SystemDef):
    """Df1 and the convention correction's factor sign * (1/2) Df1, each as
    its nine entries, flat row-major."""
    j1 = jacobian_diffusion(s)
    return j1.ravel().tolist(), (_correction_sign(s) * 0.5 * j1).ravel().tolist()


@functools.lru_cache(maxsize=32)
def _float_steps(s: SystemDef, dt: float):
    """The base step of s on Python floats: (euler, heun), each a map
    (x0, x1, x2, dW) -> next state; heun returns (predictor, next state).

    The diffusion is Df1 x and the convention correction sign * (1/2) Df1
    f1, both read off ``_diffusion_rows(s)``; with the Lorenz field of
    ``models`` this is ``drift`` and ``diffusion`` per component, so the
    states equal the ndarray expressions bit for bit.  A next state that
    fails the bound max|x| <= 1e100 (``_bounded``) raises ``BlowUpError``
    with step index -1.
    """
    p = s.params
    (a00, a01, a02, a10, a11, a12, a20, a21, a22), (
        c00, c01, c02, c10, c11, c12, c20, c21, c22) = _diffusion_rows(s)

    def coefficients(x0, x1, x2):
        f0, f1, f2 = _lorenz(p, x0, x1, x2)
        g0 = a00 * x0 + a01 * x1 + a02 * x2
        g1 = a10 * x0 + a11 * x1 + a12 * x2
        g2 = a20 * x0 + a21 * x1 + a22 * x2
        return (f0 + (c00 * g0 + c01 * g1 + c02 * g2),
                f1 + (c10 * g0 + c11 * g1 + c12 * g2),
                f2 + (c20 * g0 + c21 * g1 + c22 * g2), g0, g1, g2)

    def checked(y0, y1, y2):
        bound = _STATE_BOUND
        if abs(y0) <= bound and abs(y1) <= bound and abs(y2) <= bound:
            return y0, y1, y2
        raise BlowUpError(-1, np.array([y0, y1, y2]))

    def euler(x0, x1, x2, dw):
        f0, f1, f2, g0, g1, g2 = coefficients(x0, x1, x2)
        return checked(x0 + f0 * dt + g0 * dw, x1 + f1 * dt + g1 * dw,
                       x2 + f2 * dt + g2 * dw)

    def heun(x0, x1, x2, dw):
        f0, f1, f2, g0, g1, g2 = coefficients(x0, x1, x2)
        p0 = x0 + f0 * dt + g0 * dw
        p1 = x1 + f1 * dt + g1 * dw
        p2 = x2 + f2 * dt + g2 * dw
        h0, h1, h2, k0, k1, k2 = coefficients(p0, p1, p2)
        return (p0, p1, p2), checked(
            x0 + 0.5 * (f0 + h0) * dt + 0.5 * (g0 + k0) * dw,
            x1 + 0.5 * (f1 + h1) * dt + 0.5 * (g1 + k1) * dw,
            x2 + 0.5 * (f2 + h2) * dt + 0.5 * (g2 + k2) * dw)

    return euler, heun


def step(s: SystemDef, x: np.ndarray, dW: float, cfg: IntegratorConfig) -> np.ndarray:
    """One integration step of size cfg.dt consuming the increment dW."""
    euler, heun = _float_steps(s, cfg.dt)
    if cfg.scheme is Scheme.EULER_MARUYAMA:
        return np.array(euler(*_floats(x), float(dW)))
    return np.array(heun(*_floats(x), float(dW))[1])


def heun_step(
    s: SystemDef, x: np.ndarray, dW: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """One Heun step: (Euler-Maruyama predictor, corrected state)."""
    pred, out = _float_steps(s, dt)[1](*_floats(x), float(dW))
    return np.array(pred), np.array(out)


def _floats(x: np.ndarray) -> list[float]:
    return np.asarray(x, dtype=float).tolist()


def _base_loop(s: SystemDef, cfg: IntegratorConfig, x, path: WienerPath, offset: int,
               out=None) -> tuple[float, float, float]:
    """cfg's step of s, cfg.n_steps times from the state x = (x0, x1, x2) on
    the path increments from offset; returns the end state.  The flat float
    view out, when given, receives the state after step i at 3i, 3i + 1,
    3i + 2.  A state failing the bound raises ``BlowUpError`` naming step i.

    The Euler step is written out on local floats, bit for bit the
    ``_float_steps`` Euler step; the Heun step calls that closure.
    """
    cfg.check(s)
    if offset + cfg.n_steps > len(path):
        raise ValueError(
            f"path has {len(path)} steps, need {offset + cfg.n_steps}"
        )
    x0, x1, x2 = x
    dws = enumerate(path.floats(offset, cfg.n_steps))
    if cfg.scheme is Scheme.EULER_MARUYAMA:
        dt, sigma, r, b = cfg.dt, s.params.sigma, s.params.r, s.params.b
        (a00, a01, a02, a10, a11, a12, a20, a21, a22), (
            h00, h01, h02, h10, h11, h12, h20, h21, h22) = _diffusion_rows(s)
        bound = _STATE_BOUND
        for i, dw in dws:
            g0 = a00 * x0 + a01 * x1 + a02 * x2  # the diffusion Df1 x
            g1 = a10 * x0 + a11 * x1 + a12 * x2
            g2 = a20 * x0 + a21 * x1 + a22 * x2
            y0 = x0 + (sigma * (x1 - x0) + (h00 * g0 + h01 * g1 + h02 * g2)) * dt + g0 * dw
            y1 = x1 + (r * x0 - x0 * x2 - x1 + (h10 * g0 + h11 * g1 + h12 * g2)) * dt + g1 * dw
            y2 = x2 + (x0 * x1 - b * x2 + (h20 * g0 + h21 * g1 + h22 * g2)) * dt + g2 * dw
            if not (abs(y0) <= bound and abs(y1) <= bound and abs(y2) <= bound):
                raise BlowUpError(i, np.array([y0, y1, y2]))
            x0, x1, x2 = y0, y1, y2
            if out is not None:
                k = 3 * i
                out[k], out[k + 1], out[k + 2] = x0, x1, x2
        return x0, x1, x2
    heun = _float_steps(s, cfg.dt)[1]
    for i, dw in dws:
        try:
            x0, x1, x2 = heun(x0, x1, x2, dw)[1]
        except BlowUpError as err:
            raise BlowUpError(i, err.state) from None
        if out is not None:
            k = 3 * i
            out[k], out[k + 1], out[k + 2] = x0, x1, x2
    return x0, x1, x2


def simulate(
    s: SystemDef,
    x0: np.ndarray,
    path: WienerPath,
    cfg: IntegratorConfig,
    offset: int = 0,
) -> np.ndarray:
    """Integrate n_steps steps; returns the (n_steps + 1, 3) state sequence."""
    out = np.empty((cfg.n_steps + 1, 3))
    out[0] = x0
    flat = memoryview(out.reshape(-1))
    _base_loop(s, cfg, flat[:3].tolist(), path, offset, flat[3:])
    return out


def spin_up(
    s: SystemDef,
    path: WienerPath,
    cfg: IntegratorConfig | None = None,
) -> np.ndarray:
    """Discard the transient: integrate from (0, 1, 0) and return the end state.

    The spin-up consumes the head of the path (noise on); the exponent
    computation then continues with the subsequent increments.  It is
    ``simulate(s, SPIN_UP_STATE, path, cfg)[-1]`` without keeping the
    states on the way.
    """
    if cfg is None:
        cfg = IntegratorConfig(n_steps=DEFAULT_SPIN_UP_STEPS)
    return np.array(_base_loop(s, cfg, SPIN_UP_STATE.tolist(), path, 0))
