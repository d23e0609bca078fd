"""Fixed-step time integration of a Lorenz system along a Wiener path.

Euler-Maruyama consumes Ito-convention systems, Heun (predictor-corrector)
consumes Stratonovich ones.  The reference experiments apply Euler-Maruyama
directly to the transport-noise system in its Stratonovich form; that
mismatch must be requested explicitly via ``allow_convention_mismatch``.

Both schemes run on Python floats (``_float_steps``), bit for bit the
ndarray expressions of ``models.drift`` and ``models.diffusion``; ``step``
and ``heun_step`` wrap them for one ndarray state.  ``simulate`` and
``spin_up`` share one loop, ``_base_loop``, whose Euler and Heun steps are
written out on local floats with no call per step and skip Df1's structural
zeros (2-vCPU VM, 20k SALT steps: ~0.7-1.2 us an Euler step, ~1.7-2 us a
Heun step).  The loop reads the path 1024 increments at a time, converted to
floats at once, with no per-step bookkeeping; ``simulate`` stores each
block's states with one assignment into its preallocated float64 array, and
``spin_up`` keeps only the end state.
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
from .wiener import _BLOCK_STEPS, WienerPath

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
    its nine entries, flat row-major.  Both noises leave (0, 1), (0, 2),
    (1, 0) and (2, 0) zero, and the written-out step bodies skip them."""
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


def _segments(inc: np.ndarray, *every: int):
    """The pieces of a loop over the increments inc: (lo, hi, dws) for
    consecutive [lo, hi) that cover range(len(inc)), each ending at the next
    multiple of one of ``every`` or of ``_BLOCK_STEPS``, or at len(inc); dws
    is inc[lo:hi] as Python floats, converted a block of ``_BLOCK_STEPS`` at
    a time.  A loop whose events fall after those steps runs each piece
    without testing for them."""
    n, lo = len(inc), 0
    while lo < n:
        start = lo % _BLOCK_STEPS
        if start == 0:
            block = inc[lo:lo + _BLOCK_STEPS].tolist()
        hi = min(n, lo - start + _BLOCK_STEPS)
        for e in every:
            end = lo - lo % e + e
            if end < hi:
                hi = end
        yield lo, hi, block[start:start + hi - lo]
        lo = hi


def _base_loop(s: SystemDef, cfg: IntegratorConfig, x, path: WienerPath, offset: int,
               out=None) -> tuple[float, float, float]:
    """cfg's step of s, cfg.n_steps times from the state x = (x0, x1, x2) on
    the path increments from offset; returns the end state.  The (n, 3)
    array out, when given, receives the state after step i in row i.  A
    state failing the bound raises ``BlowUpError`` naming step i.

    Both steps are written out on local floats, bit for bit the
    ``_float_steps`` steps less their products with Df1's structural zeros.
    The loop walks the path a block of ``_BLOCK_STEPS`` increments at a time
    (``_segments``) and stores each block's states with one assignment.
    """
    cfg.check(s)
    if offset + cfg.n_steps > len(path):
        raise ValueError(
            f"path has {len(path)} steps, need {offset + cfg.n_steps}"
        )
    x0, x1, x2 = x
    kept = None if out is None else []
    dt, sigma, r, b = cfg.dt, s.params.sigma, s.params.r, s.params.b
    (a00, _, _, _, a11, a12, _, a21, a22), (
        h00, _, _, _, h11, h12, _, h21, h22) = _diffusion_rows(s)
    bound, nbound = _STATE_BOUND, -_STATE_BOUND
    euler = cfg.scheme is Scheme.EULER_MARUYAMA
    for lo, hi, dws in _segments(path.scalar()[offset:offset + cfg.n_steps]):
        steps = enumerate(dws, lo)
        if euler:
            for i, dw in steps:
                g0 = a00 * x0  # the diffusion Df1 x
                g1 = a11 * x1 + a12 * x2
                g2 = a21 * x1 + a22 * x2
                x0, x1, x2 = (
                    x0 + (sigma * (x1 - x0) + h00 * g0) * dt + g0 * dw,
                    x1 + (r * x0 - x0 * x2 - x1 + (h11 * g1 + h12 * g2)) * dt + g1 * dw,
                    x2 + (x0 * x1 - b * x2 + (h21 * g1 + h22 * g2)) * dt + g2 * dw)
                if not (nbound <= x0 <= bound and nbound <= x1 <= bound
                        and nbound <= x2 <= bound):
                    raise BlowUpError(i, np.array([x0, x1, x2]))
                if kept is not None:
                    kept += x0, x1, x2
        else:
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
                x0 = x0 + 0.5 * (f0 + v0) * dt + 0.5 * (g0 + u0) * dw
                x1 = x1 + 0.5 * (f1 + v1) * dt + 0.5 * (g1 + u1) * dw
                x2 = x2 + 0.5 * (f2 + v2) * dt + 0.5 * (g2 + u2) * dw
                if not (nbound <= x0 <= bound and nbound <= x1 <= bound
                        and nbound <= x2 <= bound):
                    raise BlowUpError(i, np.array([x0, x1, x2]))
                if kept is not None:
                    kept += x0, x1, x2
        if kept is not None:
            out[lo:hi] = np.reshape(kept, (-1, 3))
            kept.clear()
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
    _base_loop(s, cfg, out[0].tolist(), path, offset, out[1:])
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
