"""Seeded Brownian increment paths, reproducible bit-exactly.

A single path object drives every system and every noise amplitude in an
experiment: the amplitude multiplies the diffusion coefficients, never the
increments, so comparisons across systems see the identical realisation.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "GENERATOR_ID",
    "WienerPath",
    "generate_path",
    "increment_blocks",
    "terminal_value",
]

# Counter-based Philox keyed by the seed, increments drawn as
# sqrt(dt) * standard_normal.  Pinned so outputs are replayable.
GENERATOR_ID = "np-philox4x64-standard-normal-v1"

# Steps per block of increment_blocks (under 1 MB per hundred seeds), and per
# float conversion in the integrator's and the engine's loops.
_BLOCK_STEPS = 1024


@dataclass(frozen=True)
class WienerPath:
    """A fixed-step Brownian path held as its (n_steps,) increments, each
    distributed N(0, dt)."""

    seed: int
    dt: float
    increments: np.ndarray
    generator_id: str = GENERATOR_ID

    def __post_init__(self) -> None:
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 1:
            raise ValueError(f"increments must be one-dimensional, got shape {inc.shape}")
        object.__setattr__(self, "increments", inc)
        inc.flags.writeable = False

    def __len__(self) -> int:
        return self.increments.shape[0]

    def scalar(self) -> np.ndarray:
        """The increment sequence."""
        return self.increments

    def dump(self, filename: str | Path) -> None:
        """Write the path as CSV with a metadata header; round-trips bit-exactly."""
        with open(filename, "w", encoding="ascii", newline="\n") as fh:
            fh.write(f"# seed = {self.seed}\n")
            fh.write(f"# dt = {self.dt!r}\n")
            fh.write(f"# n = {len(self)}\n")
            fh.write("# channels = 1\n")  # part of the file format
            fh.write(f"# generator-id = {self.generator_id}\n")
            for v in self.increments.tolist():
                fh.write(f"{v!r}\n")

    @classmethod
    def load(cls, filename: str | Path) -> "WienerPath":
        meta: dict[str, str] = {}
        rows: list[float] = []
        with open(filename, "r", encoding="ascii") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    key, _, value = line.lstrip("# ").partition("=")
                    meta[key.strip()] = value.strip()
                else:
                    rows.append(float(line))
        return cls(
            seed=int(meta["seed"]),
            dt=float(meta["dt"]),
            increments=np.array(rows),
            generator_id=meta.get("generator-id", GENERATOR_ID),
        )


def generate_path(seed: int, n_steps: int, dt: float) -> WienerPath:
    """Draw a seeded Brownian increment path of ``n_steps`` steps of size ``dt``."""
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    increments = np.sqrt(dt) * _generator(seed).standard_normal(n_steps)
    return WienerPath(seed=seed, dt=dt, increments=increments)


def increment_blocks(seeds: Sequence[int], n_steps: int, dt: float) -> Iterator[np.ndarray]:
    """The scalar increments of ``generate_path(seed, n_steps, dt)`` for each
    seed, as consecutive (m, len(seeds)) blocks of at most ``_BLOCK_STEPS`` steps.

    Column u continues the stream of ``seeds[u]`` exactly, so the blocks
    stacked equal the paths side by side, while only one block is held.
    """
    rngs = [_generator(seed) for seed in seeds]
    for start in range(0, n_steps, _BLOCK_STEPS):
        m = min(_BLOCK_STEPS, n_steps - start)
        yield np.stack([np.sqrt(dt) * rng.standard_normal(m) for rng in rngs], axis=1)


def _generator(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def terminal_value(path: WienerPath, k: int) -> float:
    """W at step k, i.e. the sum of the first k scalar increments; W(0) = 0."""
    if k < 0 or k > len(path):
        raise IndexError(f"step index {k} outside [0, {len(path)}]")
    return float(np.sum(path.scalar()[:k]))
