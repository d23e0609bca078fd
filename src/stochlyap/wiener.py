"""Seeded Brownian increment paths, reproducible bit-exactly.

A single path object drives every system and every noise amplitude in an
experiment: the amplitude multiplies the diffusion coefficients, never the
increments, so comparisons across systems see the identical realisation.
A noise-free run (amplitude 0) draws no path: ``analysis.run_path`` gives
it zero increments, which its zero coefficients use as they would drawn
ones, so its path phase takes ~0 s and its W_T/T is 0.0.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GENERATOR_ID",
    "WienerPath",
    "generate_path",
]

# Counter-based Philox keyed by the seed, increments drawn as
# sqrt(dt) * standard_normal.  Pinned so outputs are replayable.
GENERATOR_ID = "np-philox4x64-standard-normal-v1"


@dataclass(frozen=True)
class WienerPath:
    """A fixed-step Brownian path held as its (n_steps,) increments, each
    distributed N(0, dt)."""

    seed: int
    dt: float
    increments: np.ndarray

    def __post_init__(self) -> None:
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 1:
            raise ValueError(f"increments must be one-dimensional, got shape {inc.shape}")
        inc = np.ascontiguousarray(inc)  # the step kernel reads them through a pointer
        object.__setattr__(self, "increments", inc)
        inc.flags.writeable = False

    def __len__(self) -> int:
        return self.increments.shape[0]

    def scalar(self) -> np.ndarray:
        """The increment sequence."""
        return self.increments

    def window(self, offset: int, n: int) -> np.ndarray:
        """The n increments from offset on, read-only; the path must hold them."""
        if offset < 0:  # a negative offset would slice from the end
            raise ValueError(f"offset must be >= 0, got {offset}")
        if offset + n > len(self):
            raise ValueError(f"path has {len(self)} steps, need {offset + n}")
        return self.increments[offset:offset + n]


def _check_dt(dt: float) -> None:
    """Refuse a step size that is not finite, not positive or subnormal."""
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dt < sys.float_info.min:
        raise ValueError(f"dt must be a normal float, >= {sys.float_info.min!r}, got {dt}")


def generate_path(seed: int, n_steps: int, dt: float) -> WienerPath:
    """Draw a seeded Brownian increment path of ``n_steps`` steps of size ``dt``."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    _check_dt(dt)
    increments = np.random.Generator(np.random.Philox(seed)).standard_normal(n_steps)
    increments *= np.sqrt(dt)  # in place: the bits of np.sqrt(dt) * increments
    return WienerPath(seed=seed, dt=dt, increments=increments)
