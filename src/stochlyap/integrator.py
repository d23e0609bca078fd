"""Fixed-step time integration of a Lorenz system along a Wiener path.

Euler-Maruyama consumes Ito-convention systems, Heun (predictor-corrector)
consumes Stratonovich ones.  The reference experiments apply Euler-Maruyama
directly to the transport-noise system in its Stratonovich form; that
mismatch must be requested explicitly via ``allow_convention_mismatch``.

``simulate`` and ``spin_up`` share one loop, ``_base_loop``, run by the
step kernel ``_kernel.c`` on one block of constants, ``Sys``, which only
``_kernel_args`` computes.  ``_float_steps`` is the same step on Python
floats: it reads the same block and follows the C expression for
expression, so the states are the same bit for bit.  ``step`` wraps it for
one ndarray state, and where the kernel cannot be built the loop calls it
step by step instead.  The kernel also holds the CSV float formatter of
``cli._write_csv``, ``_repr.cc``: exact ``unsigned __int128`` arithmetic for
1e-4 <= |x| < 1e16, where the compiler has that type (GCC and Clang on
64-bit targets), and C++17 ``std::to_chars`` for every other value, or for
every value without it; both write the bytes of repr, as ``%r`` does
without the kernel.  It writes a trajectory's t column from the row index,
(first + i) * dt.  On the 60,003 x 4 values of the benchmark's three
trajectories it takes ~29 ns a value (2-vCPU VM, gcc 12.2), ~38 ns before
its products took a fixed 2^50 scale and its rows a local buffer.  On first
use both sources are built with one ``cc`` command into one library in the
package's ``__pycache__`` (``_kernel-<hash>.so``, keyed by the sources and
the command; a build deletes the older libraries there) and loaded with
ctypes.
Per step (20k-100k SALT steps, 2-vCPU VM, gcc 12.2): ~0.02-0.025 us
(Euler-Maruyama) and ~0.04 us (Heun) compiled, ~1.3 us and ~2.0 us in
Python.  Per call, ``spin_up`` spends ~8-12 us of Python around its kernel
call (1 step; the VM's speed varies), as it did before ``cayley.run_nle``
took one state buffer; ``cayley`` gives a run's whole fixed cost.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import tempfile
from contextlib import suppress
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .models import (
    Convention,
    NoiseKind,
    SystemDef,
    _correction_sign,
    jacobian_correction,
    jacobian_diffusion,
)
from .wiener import WienerPath, _check_dt

__all__ = [
    "Scheme",
    "BlowUpError",
    "ConventionMismatchError",
    "IntegratorConfig",
    "DEFAULT_SPIN_UP_STEPS",
    "DEFAULT_DT",
    "SPIN_UP_STATE",
    "step",
    "simulate",
    "spin_up",
]

DEFAULT_DT = 0.001
DEFAULT_SPIN_UP_STEPS = 50_000
SPIN_UP_STATE = np.array([0.0, 1.0, 0.0])

_STATE_BOUND = 1e100

# The step kernel's sources, the loops in C and the CSV formatter in C++17,
# and where they are built on first use into one library: the package's own
# __pycache__, keyed by a hash of the sources and the command.
_KERNEL_SOURCES = tuple(Path(__file__).with_name(name) for name in ("_kernel.c", "_repr.cc"))
_KERNEL_CACHE = Path(__file__).with_name("__pycache__")
_CC = "cc"
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_LIBS = ("-lstdc++",)


class Scheme(Enum):
    EULER_MARUYAMA = "euler-maruyama"
    HEUN = "heun"


class BlowUpError(RuntimeError):
    """A state failed the bound max|x| <= 1e100 (NaN fails it too).

    ``within`` names the phase and trajectory in ``context`` and in the
    fields ``phase``, ``system`` (the noise kind), ``beta`` and ``seed``.
    """

    def __init__(self, step_index: int, state: np.ndarray, context: str = ""):
        where = f"step {step_index} of {context}" if context else f"step {step_index}"
        super().__init__(f"state fails max|x| <= {_STATE_BOUND:g} at {where}: {state}")
        self.step_index = step_index
        self.state = state
        self.context = context
        self.phase = self.system = self.beta = self.seed = None

    def within(self, phase: str, s: SystemDef, seed: int) -> "BlowUpError":
        """This error, naming the phase and the trajectory's system, beta and seed."""
        where = f"the {phase} ({s.kind.value}, beta={s.beta}, seed={seed})"
        err = BlowUpError(self.step_index, self.state, where)
        err.phase, err.system, err.beta, err.seed = phase, s.kind.value, s.beta, seed
        return err

    def __reduce__(self):
        # pickled by its fields: the default would pass __init__ the message alone
        return type(self), (self.step_index, self.state, self.context), self.__dict__


class ConventionMismatchError(ValueError):
    """Scheme and system convention disagree and no override was given."""


def _check_convention(scheme: Scheme, s: SystemDef, allow_mismatch: bool) -> None:
    """The convention rule: Euler-Maruyama takes an Ito system and Heun a
    Stratonovich one, unless the mismatch is allowed or s has no noise."""
    need = Convention.ITO if scheme is Scheme.EULER_MARUYAMA else Convention.STRATONOVICH
    if allow_mismatch or s.kind is NoiseKind.NONE or s.beta == 0.0 or s.convention is need:
        return
    raise ConventionMismatchError(
        f"{scheme.value} expects a "
        f"{need.value} system, got "
        f"{s.convention.value}; convert the system or set "
        "allow_convention_mismatch=True to integrate the coefficients "
        "literally"
    )


@dataclass(frozen=True)
class IntegratorConfig:
    scheme: Scheme = Scheme.EULER_MARUYAMA
    dt: float = DEFAULT_DT
    n_steps: int = DEFAULT_SPIN_UP_STEPS
    allow_convention_mismatch: bool = False

    def __post_init__(self) -> None:
        _check_dt(self.dt)
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be nonnegative, got {self.n_steps}")

    def check(self, s: SystemDef) -> None:
        _check_convention(self.scheme, s, self.allow_convention_mismatch)


@functools.lru_cache(maxsize=32)
def _kernel_args(s: SystemDef, dt: float) -> np.ndarray:
    """The ``Sys`` block of s, every constant that the step kernel and the
    closures ``_float_steps`` and ``cayley._frame_increment`` read: sigma, r,
    b, dt, the bound; Df1 and the drift correction's factor sign * (1/2) Df1
    at (0,0), (1,1), (1,2), (2,1), (2,2); and M = Df0(x) dt + Df1 dW at
    (0,0), (0,1), (1,1), (2,2), where it does not depend on x, with Df0 the
    Lorenz Jacobian plus the convention correction k.  Both noises leave the
    other entries of Df1, and k at (0,2), (1,0), (1,2), (2,0), (2,1), zero:
    the steps skip them."""
    p = s.params
    j1 = jacobian_diffusion(s).take([0, 4, 5, 7, 8])
    (k00, k01, _), (_, k11, _), (_, _, k22) = jacobian_correction(s).tolist()
    args = np.array([p.sigma, p.r, p.b, dt, _STATE_BOUND, *j1, *(_correction_sign(s) * 0.5 * j1),
                     (-p.sigma + k00) * dt, (p.sigma + k01) * dt, (-1.0 + k11) * dt,
                     (-p.b + k22) * dt])
    args.flags.writeable = False  # shared through the cache; the kernel takes a const Sys *
    return args


@functools.lru_cache(maxsize=32)
def _float_steps(s: SystemDef, dt: float):
    """The base step of s on Python floats: (euler, heun), each a map
    (x0, x1, x2, dW) -> next state; heun returns (predictor, next state).

    Both read the constants of ``_kernel_args(s, dt)`` and follow
    ``coefficients`` and ``base_step`` of ``_kernel.c`` expression for
    expression, so the states are the kernel's bit for bit.  A next state
    that fails the bound max|x| <= 1e100 raises ``BlowUpError`` with step
    index -1.
    """
    sigma, r, b, dt, bound, a00, a11, a12, a21, a22, h00, h11, h12, h21, h22, *_ = (
        _kernel_args(s, dt).tolist())

    def coefficients(x0, x1, x2):
        g0 = a00 * x0
        g1 = a11 * x1 + a12 * x2
        g2 = a21 * x1 + a22 * x2
        return (sigma * (x1 - x0) + h00 * g0,
                r * x0 - x0 * x2 - x1 + (h11 * g1 + h12 * g2),
                x0 * x1 - b * x2 + (h21 * g1 + h22 * g2), g0, g1, g2)

    def checked(y0, y1, y2):
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
    x, dW = np.asarray(x, dtype=float).tolist(), float(dW)
    return np.array(euler(*x, dW) if cfg.scheme is Scheme.EULER_MARUYAMA else heun(*x, dW)[1])


def _state(x) -> np.ndarray:
    """A copy of the state x as the kernel reads it, three float64 in a row."""
    x = np.array(x, dtype=float)
    if x.shape != (3,):
        raise ValueError(f"a state has 3 components, got shape {x.shape}")
    return x


def _load_kernel():
    """Build ``_KERNEL_SOURCES`` once per sources and command into
    ``_KERNEL_CACHE`` and load the library; None where a source or the
    compiler is missing, the build fails or the cache directory is not
    writable.  The library is written to a temporary file beside its name
    and moved there, so concurrent builds do not race; after a build the
    cache's other libraries are deleted, where that can be done."""
    command = [_CC, *_CFLAGS]
    try:
        key = hashlib.sha256(" ".join([*command, *_LIBS]).encode())
        for source in _KERNEL_SOURCES:
            key.update(source.read_bytes())
        lib = _KERNEL_CACHE / f"_kernel-{key.hexdigest()[:16]}.so"
        if not lib.exists():
            import subprocess

            _KERNEL_CACHE.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=lib.stem + "-", suffix=".tmp", dir=_KERNEL_CACHE)
            os.close(fd)
            try:
                if subprocess.run([*command, "-o", tmp, *map(str, _KERNEL_SOURCES), *_LIBS],
                                  capture_output=True).returncode:
                    return None
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            for stale in _KERNEL_CACHE.glob("_kernel-*.so"):  # from older sources or commands
                if stale != lib:
                    with suppress(OSError):
                        stale.unlink()
        kernel = ctypes.CDLL(str(lib))
    except OSError:
        return None
    ptr, long = ctypes.c_void_p, ctypes.c_long
    kernel.base_loop.argtypes = [ptr, ctypes.c_int, ptr, ptr, long, ptr]
    kernel.frame_loop.argtypes = [ptr, ctypes.c_int, ptr, ptr, ptr, ptr, long, long, long, ptr]
    kernel.repr_rows.argtypes = [ptr, long, long, long, ctypes.c_double, ptr]
    kernel.base_loop.restype = kernel.frame_loop.restype = kernel.repr_rows.restype = long
    return kernel


@functools.cache
def _kernel():
    """The compiled kernel, loaded once per process, or None: then the loops
    run their Python form on the reference closures and the CSV writer
    formats with %r."""
    return _load_kernel()


def _python_base_loop(s: SystemDef, dt: float, heun: bool, x: np.ndarray,
                      inc: np.ndarray, out) -> int:
    """The kernel's ``base_loop`` as a plain loop over ``_float_steps``,
    storing into out 1024 states at a time: memory stays flat."""
    euler_step, heun_step = _float_steps(s, dt)
    y = tuple(x.tolist())
    for lo in range(0, len(inc), 1024):
        states = []
        for i, dw in enumerate(inc[lo:lo + 1024].tolist(), lo):
            try:
                y = heun_step(*y, dw)[1] if heun else euler_step(*y, dw)
            except BlowUpError as err:
                x[:] = err.state
                return i
            states.append(y)
        if out is not None:
            out[lo:lo + 1024] = states
    x[:] = y
    return -1


def _base_loop(s: SystemDef, cfg: IntegratorConfig, x, path: WienerPath, offset: int,
               out=None) -> np.ndarray:
    """cfg's step of s, cfg.n_steps times from the state x on the path
    increments from offset; returns the end state.  The C-ordered (n, 3)
    array out, when given, receives the state after step i in row i.  A
    state failing the bound raises ``BlowUpError`` naming step i."""
    cfg.check(s)
    inc = path.window(offset, cfg.n_steps)
    x = _state(x)
    heun = cfg.scheme is Scheme.HEUN
    kernel = _kernel()
    if kernel is None:
        failed = _python_base_loop(s, cfg.dt, heun, x, inc, out)
    else:
        args = _kernel_args(s, cfg.dt)  # held: the kernel reads it through a pointer
        failed = kernel.base_loop(args.ctypes.data, heun, x.ctypes.data, inc.ctypes.data,
                                  len(inc), None if out is None else out.ctypes.data)
    if failed >= 0:
        raise BlowUpError(failed, x)
    return x


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
    _base_loop(s, cfg, out[0], path, offset, out[1:])
    return out


def spin_up(s: SystemDef, path: WienerPath, cfg: IntegratorConfig) -> np.ndarray:
    """Discard the transient: integrate from (0, 1, 0) and return the end state.

    The spin-up consumes the head of the path (noise on); the exponent
    computation then continues with the subsequent increments.  It is
    ``simulate(s, SPIN_UP_STATE, path, cfg)[-1]`` without keeping the
    states on the way.
    """
    return _base_loop(s, cfg, SPIN_UP_STATE, path, 0)
