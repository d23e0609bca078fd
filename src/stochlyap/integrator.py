"""Fixed-step time integration of a Lorenz system along a Wiener path.

Euler-Maruyama consumes Ito-convention systems, Heun (predictor-corrector)
consumes Stratonovich ones.  The reference experiments apply Euler-Maruyama
directly to the transport-noise system in its Stratonovich form; that
mismatch must be requested explicitly via ``allow_convention_mismatch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .models import Convention, NoiseKind, SystemDef, diffusion, drift
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


def _checked(out: np.ndarray) -> np.ndarray:
    if _bounded(out):
        return out
    raise BlowUpError(-1, out)


def step(s: SystemDef, x: np.ndarray, dW: float, cfg: IntegratorConfig) -> np.ndarray:
    """One integration step of size cfg.dt consuming the increment dW."""
    dt = cfg.dt
    if cfg.scheme is Scheme.EULER_MARUYAMA:
        return _checked(x + drift(s, x) * dt + diffusion(s, x) * dW)
    return heun_step(s, x, dW, dt)[1]


def heun_step(
    s: SystemDef, x: np.ndarray, dW: float, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """One Heun step: (Euler-Maruyama predictor, corrected state)."""
    f0, f1 = drift(s, x), diffusion(s, x)
    pred = x + f0 * dt + f1 * dW
    out = x + 0.5 * (f0 + drift(s, pred)) * dt + 0.5 * (f1 + diffusion(s, pred)) * dW
    return pred, _checked(out)


def simulate(
    s: SystemDef,
    x0: np.ndarray,
    path: WienerPath,
    cfg: IntegratorConfig,
    offset: int = 0,
) -> np.ndarray:
    """Integrate n_steps steps; returns the (n_steps + 1, 3) state sequence."""
    cfg.check(s)
    if offset + cfg.n_steps > len(path):
        raise ValueError(
            f"path has {len(path)} steps, need {offset + cfg.n_steps}"
        )
    inc = path.scalar()
    out = np.empty((cfg.n_steps + 1, 3))
    out[0] = x0
    x = np.asarray(x0, dtype=float)
    for i in range(cfg.n_steps):
        try:
            x = step(s, x, inc[offset + i], cfg)
        except BlowUpError as err:
            raise BlowUpError(i, err.state) from None
        out[i + 1] = x
    return out


def spin_up(
    s: SystemDef,
    path: WienerPath,
    cfg: IntegratorConfig | None = None,
) -> np.ndarray:
    """Discard the transient: integrate from (0, 1, 0) and return the end state.

    The spin-up consumes the head of the path (noise on); the exponent
    computation then continues with the subsequent increments.
    """
    if cfg is None:
        cfg = IntegratorConfig(n_steps=DEFAULT_SPIN_UP_STEPS)
    return simulate(s, SPIN_UP_STATE, path, cfg)[-1]
