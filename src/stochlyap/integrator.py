"""Fixed-step time integration of a Lorenz system along a Wiener path.

Euler-Maruyama consumes Ito-convention systems, Heun (predictor-corrector)
consumes Stratonovich ones.  The reference experiments apply Euler-Maruyama
directly to the transport-noise system in its Stratonovich form; that
mismatch must be requested explicitly via ``allow_convention_mismatch``.

The step kernel, ``_kernel()``, is the library built from ``_kernel.cc``
and ``_repr.cc`` or, where it cannot be built, its Python twin
``_PythonKernel``.  Both have the entry points ``base_loop`` and
``frame_loop`` (``Run.advance``) and ``repr_rows`` (``cli._write_csv``),
take the same ndarrays and give the same results bit for bit, so no caller
asks which one runs.  The loops read one block of constants, ``Sys``,
which only ``_kernel_args`` computes, and step one run or, given a second
run's block and buffers, two runs on one path: compiled, as the two lanes
of a 128-bit vector; in the twin, one after the other.  The twin's
arithmetic is ``_float_steps``, closures over that block that follow the
compiled step expression for expression, and ``_rotate``; ``step`` takes one step of
them on an ndarray state.  ``repr_rows`` writes rows of floats as repr
does (``_repr.cc`` says how), each row led by its t, (first + i) * dt, where
dt is not 0: ~29 ns a value compiled on the benchmark's trajectories.  The
compiled entry points keep no state between calls and ctypes releases the
interpreter lock around each, so threads call them at once (a sweep's rows,
``cli._write_csv``'s stripes); the twin holds the lock, and ``_write_csv``
gives it one thread.
On first use both sources are built with one ``cc`` command into one
library in the package's ``__pycache__`` (``_kernel-<hash>.so``, keyed by
the sources and the command; a build deletes the older libraries there) and
loaded with ctypes.  Per run-step of ``base_loop`` (medians of 7 runs of
100k SALT and FD steps, 2-vCPU VM, gcc 12.2): ~19-21 ns (Euler-Maruyama)
and ~35-40 ns (Heun) compiled for one run, ~10-11 ns and ~18-20 ns for
each run of a pair; ~1.3 us and ~2.0 us in Python.

Every run is a ``Run`` in three pieces: prepared (the checks, the ``Sys``
block and the buffers), advanced (its kernel calls, which record a state
failing the bound instead of raising) and finished.  ``simulate`` and
``spin_up`` are one each, ``cayley.run_nle`` and ``analysis.run_one`` one
more each, and a sweep prepares and finishes its runs on the calling thread
and advances them on others, a row's FD run as its SALT run's partner.
Per call, ``spin_up`` spends ~12-26 us of Python around its kernel call (1
step; the VM's speed varies by up to 2x); ``cayley`` gives a run's whole
fixed cost.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import tempfile
import time
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
from .smallmat import _cayley_entries, frobenius, qr_decompose
from .wiener import WienerPath, _check_dt

__all__ = [
    "Scheme",
    "BlowUpError",
    "ConventionMismatchError",
    "IntegratorConfig",
    "Run",
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

# The step kernel's sources, the loops and the CSV formatter, in C++17,
# and where they are built on first use into one library: the package's own
# __pycache__, keyed by a hash of the sources and the command.
_KERNEL_SOURCES = tuple(Path(__file__).with_name(name) for name in ("_kernel.cc", "_repr.cc"))
_KERNEL_CACHE = Path(__file__).with_name("__pycache__")
_CC = "cc"
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_LIBS = ("-lstdc++",)


class Scheme(Enum):
    EULER_MARUYAMA = "euler-maruyama"
    HEUN = "heun"


class BlowUpError(RuntimeError):
    """A state failed the bound max|x| <= 1e100 (NaN fails it too).

    A run's error (``Run.end_state``, by ``within``) names the phase,
    system (its ``--system`` name), beta and seed in ``context`` and in
    fields so named.
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
        system = "deterministic" if s.kind is NoiseKind.NONE else s.kind.value  # as --system
        where = f"the {phase} ({system}, beta={s.beta}, seed={seed})"
        err = BlowUpError(self.step_index, self.state, where)
        err.phase, err.system, err.beta, err.seed = phase, system, s.beta, seed
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
    """The ``Sys`` block of s, every constant that the step kernel and its
    twin's closures ``_float_steps`` read: sigma, r, b, dt, the bound; Df1
    and the drift correction's factor sign * (1/2) Df1 at (0,0), (1,1),
    (1,2), (2,1), (2,2); and M = Df0(x) dt + Df1 dW at (0,0), (0,1), (1,1),
    (2,2), where it does not depend on x, with Df0 the Lorenz Jacobian plus
    the convention correction k.  Both noises leave the other entries of
    Df1, and k at (0,2), (1,0), (1,2), (2,0), (2,1), zero: the steps skip
    them."""
    p = s.params
    j1 = jacobian_diffusion(s).take([0, 4, 5, 7, 8])
    (k00, k01, _), (_, k11, _), (_, _, k22) = jacobian_correction(s).tolist()
    args = np.array([p.sigma, p.r, p.b, dt, _STATE_BOUND, *j1, *(_correction_sign(s) * 0.5 * j1),
                     (-p.sigma + k00) * dt, (p.sigma + k01) * dt, (-1.0 + k11) * dt,
                     (-p.b + k22) * dt])
    args.flags.writeable = False  # shared through the cache; the kernel takes a const Sys *
    return args


def _float_steps(args: np.ndarray):
    """The step kernel's arithmetic on Python floats, over the ``Sys`` block
    args: (base_step, bounded, frame_increment, dt).  base_step(heun, x0, x1,
    x2, dw) gives (p, y), the Euler-Maruyama state and the next state;
    bounded(y0, y1, y2) tests max|y| <= 1e100, which NaN fails;
    frame_increment(q, x0, x1, x2, dw) gives, for the flat row-major frame q,
    the diagonal of A = Q^T M Q with M = Df0(x) dt + Df1 dW and then -(1/2)
    times its strict lower triangle (1,0), (2,0), (2,1).  Each follows the
    function of that name in ``_kernel.cc`` expression for expression, so the
    results are the kernel's bit for bit."""
    (sigma, r, b, dt, bound, a00, a11, a12, a21, a22, h00, h11, h12, h21, h22,
     e00, e01, e11, e22) = args.tolist()

    def coefficients(x0, x1, x2):
        g0 = a00 * x0
        g1 = a11 * x1 + a12 * x2
        g2 = a21 * x1 + a22 * x2
        return (sigma * (x1 - x0) + h00 * g0,
                r * x0 - x0 * x2 - x1 + (h11 * g1 + h12 * g2),
                x0 * x1 - b * x2 + (h21 * g1 + h22 * g2), g0, g1, g2)

    def base_step(heun, x0, x1, x2, dw):
        f0, f1, f2, g0, g1, g2 = coefficients(x0, x1, x2)
        p = p0, p1, p2 = x0 + f0 * dt + g0 * dw, x1 + f1 * dt + g1 * dw, x2 + f2 * dt + g2 * dw
        if not heun:
            return p, p
        v0, v1, v2, u0, u1, u2 = coefficients(p0, p1, p2)
        return p, (x0 + 0.5 * (f0 + v0) * dt + 0.5 * (g0 + u0) * dw,
                   x1 + 0.5 * (f1 + v1) * dt + 0.5 * (g1 + u1) * dw,
                   x2 + 0.5 * (f2 + v2) * dt + 0.5 * (g2 + u2) * dw)

    def bounded(y0, y1, y2):
        return -bound <= y0 <= bound and -bound <= y1 <= bound and -bound <= y2 <= bound

    def frame_increment(q, x0, x1, x2, dw):
        m00, m11 = e00 + a00 * dw, e11 + a11 * dw
        m10, m12 = (r - x2) * dt, -x0 * dt + a12 * dw
        m20, m21 = x1 * dt, x0 * dt + a21 * dw
        m22 = e22 + a22 * dw
        q00, q01, q02, q10, q11, q12, q20, q21, q22 = q
        n00 = m00 * q00 + e01 * q10  # N = M Q
        n01 = m00 * q01 + e01 * q11
        n02 = m00 * q02 + e01 * q12
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

    return base_step, bounded, frame_increment, dt


def _rotate(q, s0: float, s1: float, s2: float):
    """The flat frame q times cayley(S), S skew with strict lower triangle
    (s0, s1, s2), on Python floats: ``rotate`` of ``_kernel.cc``, with the
    entries of ``smallmat._cayley_entries``."""
    num, den = _cayley_entries(s0, s1, s2)
    c00, c01, c02, c10, c11, c12, c20, c21, c22 = (v / den for row in num for v in row)
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


def step(s: SystemDef, x: np.ndarray, dW: float, cfg: IntegratorConfig) -> np.ndarray:
    """One integration step of size cfg.dt consuming the increment dW."""
    base_step, bounded, _, _ = _float_steps(_kernel_args(s, cfg.dt))
    y = base_step(cfg.scheme is Scheme.HEUN, *np.asarray(x, dtype=float).tolist(), float(dW))[1]
    if not bounded(*y):
        raise BlowUpError(0, np.array(y))
    return np.array(y)


class _Array:
    """The ctypes argument type of the kernel's arrays: the address of an
    ndarray's data, or NULL for None."""

    @staticmethod
    def from_param(a):
        return None if a is None else ctypes.c_void_p(a.ctypes.data)


def _load_kernel():
    """Build ``_KERNEL_SOURCES`` once per sources and command into
    ``_KERNEL_CACHE`` and load the library; None where a source, the
    compiler, libstdc++ >= 11 or ``unsigned __int128`` is missing, the build
    fails or the cache directory is not writable.  The library is written to
    a temporary file beside its name and moved there, so concurrent builds
    do not race; after a build the cache's other libraries are deleted."""
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
    arr, long = _Array, ctypes.c_long
    kernel.base_loop.argtypes = [arr, ctypes.c_int, arr, arr, long, arr, arr, arr, arr, arr]
    kernel.frame_loop.argtypes = [arr, ctypes.c_int, arr, arr, long, long, long, arr,
                                  arr, arr, arr, arr]
    kernel.repr_rows.argtypes = [arr, long, long, long, ctypes.c_double, arr]
    kernel.base_loop.restype = kernel.frame_loop.restype = kernel.repr_rows.restype = long
    return kernel


def _base_lane(args, heun, x, dw, n, out) -> int:
    """One run's ``base_loop``, storing into out 1024 states at a time:
    memory stays flat."""
    base_step, bounded, _, _ = _float_steps(args)
    y, failed = tuple(x.tolist()), -1
    for lo in range(0, n, 1024):
        states = []
        for i, w in enumerate(dw[lo:min(lo + 1024, n)].tolist(), lo):
            y = base_step(heun, *y, w)[1]
            if not bounded(*y):
                failed = i
                break
            states.append(y)
        if out is not None and states:
            out[lo:lo + len(states)] = states
        if failed >= 0:
            break
    x[:] = y
    return failed


def _frame_lane(args, heun, state, dw, lo, hi, every, samples) -> int:
    """One run's ``frame_loop`` on the buffer state = (x, Q, rho)."""
    base_step, bounded, increment, dt = _float_steps(args)
    values = state.tolist()
    x, q, (r0, r1, r2) = tuple(values[:3]), tuple(values[3:12]), values[12:]
    failed = -1
    for i, w in enumerate(dw[lo:hi].tolist(), lo):
        p, y = base_step(heun, *x, w)
        if not bounded(*y):
            x, failed = y, i
            break
        d0, d1, d2, s0, s1, s2 = increment(q, *x, w)
        if heun:
            e0, e1, e2, t0, t1, t2 = increment(_rotate(q, s0, s1, s2), *p, w)
            r0, r1, r2 = r0 + 0.5 * (d0 + e0), r1 + 0.5 * (d1 + e1), r2 + 0.5 * (d2 + e2)
            s0, s1, s2 = 0.5 * (s0 + t0), 0.5 * (s1 + t1), 0.5 * (s2 + t2)
        else:
            r0, r1, r2 = r0 + d0, r1 + d1, r2 + d2
        q, x = _rotate(q, s0, s1, s2), y
        if (i + 1) % every == 0:
            samples[(i + 1) // every - 1] = (i + 1) * dt, r0, r1, r2
    state[:] = *x, *q, r0, r1, r2
    return failed


class _PythonKernel:
    """The compiled kernel's entry points on ndarrays, in Python: the same
    arguments, the same results and the same writes, bit for bit.  A second
    lane's run (args2 not None) is stepped after the first."""

    @staticmethod
    def base_loop(args, heun, x, dw, n, out, args2, x2, out2, failed2) -> int:
        """``base_loop`` of ``_kernel.cc``."""
        failed = _base_lane(args, heun, x, dw, n, out)
        if args2 is not None:
            failed2[0] = _base_lane(args2, heun, x2, dw, n, out2)
        return failed

    @staticmethod
    def frame_loop(args, heun, state, dw, lo, hi, every, samples, args2, state2, samples2,
                   failed2) -> int:
        """``frame_loop`` of ``_kernel.cc``."""
        failed = _frame_lane(args, heun, state, dw, lo, hi, every, samples)
        if args2 is not None:
            failed2[0] = _frame_lane(args2, heun, state2, dw, lo, hi, every, samples2)
        return failed

    @staticmethod
    def repr_rows(v, rows, cols, first, dt, out) -> int:
        """``repr_rows`` of ``_repr.cc``: each value as %r writes it."""
        values = v.reshape(rows, cols).tolist()
        if dt:
            values = [((first + i) * dt, *row) for i, row in enumerate(values)]
        fmt = ",".join(["%r"] * (cols + (dt != 0))) + "\n"
        text = (fmt * rows % tuple(value for row in values for value in row)).encode()
        out[:len(text)] = np.frombuffer(text, np.uint8)
        return len(text)


@functools.cache
def _kernel():
    """The step kernel, loaded once per process: the compiled library, or
    where it cannot be built its Python twin."""
    return _load_kernel() or _PythonKernel()


REORTH_EVERY = 10_000
_ORTHO_DRIFT_TOL = 1e-10
_EYE = np.eye(3)
_START = np.array([0.0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0])  # (x, Q, rho): Q = I, rho = 0


def _reorthogonalize(q: np.ndarray) -> np.ndarray:
    if frobenius(q.T @ q - _EYE) <= _ORTHO_DRIFT_TOL:
        return q
    return qr_decompose(q)[0]


def _on_lanes(loop, runs: list, steps: tuple, lane) -> list:
    """One call of the kernel's loop (``base_loop`` or ``frame_loop``) on
    runs, one or two, as its lanes; steps are the arguments that the lanes
    share and lane(run) gives a run's state buffer, output and phase.  A run
    whose state fails the bound records its step and phase; the others are
    returned."""
    first, *rest = runs
    state, out, _ = lane(first)
    second = None, None, None, None
    if rest:
        failed2 = np.empty(1, "l")  # a C long
        second = rest[0].args, *lane(rest[0])[:2], failed2
    failed = [loop(first.args, first.heun, state, *steps, out, *second)]
    if rest:
        failed.append(int(failed2[0]))
    for run, step_index in zip(runs, failed):
        if step_index >= 0:
            run.failed, run.phase = step_index, lane(run)[2]
    return [run for run in runs if run.failed < 0]


class Run:
    """One run of the step kernel, in three pieces that every caller
    composes, so that one thread can prepare and finish runs whose kernel
    calls are made on others.  The run takes cfg's step of s cfg.n_steps
    times from the state x0, on the path increments from offset (the
    spin-up; with out, a trajectory whose state after step i goes to row i
    of out), and then co-evolves x with the frame state (Q, rho) for
    n_steps more steps (the exponent phase), sampling rho every
    sample_every steps into ``series``.

    - prepare, the constructor: the convention rule, the ``Sys`` block and
      the (x, Q, rho) buffer ``state`` and the rho series;
    - kernel, ``advance``: the kernel calls;
    - finish: ``end_state`` or ``cayley``'s exponents, else a named blow-up."""

    def __init__(self, s: SystemDef, cfg: IntegratorConfig, x0=SPIN_UP_STATE, offset: int = 0,
                 n_steps: int = 0, sample_every: int = 1, out: np.ndarray | None = None):
        cfg.check(s)
        self.s, self.dt, self.heun = s, cfg.dt, cfg.scheme is Scheme.HEUN
        self.args = _kernel_args(s, cfg.dt)
        self.offset, self.spin_up_steps, self.out = offset, cfg.n_steps, out
        self.n_steps, self.sample_every = n_steps, sample_every
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (3,):  # the kernel reads three float64 in a row
            raise ValueError(f"a state has 3 components, got shape {x0.shape}")
        self.state = _START.copy()  # x, Q and rho in one buffer, at one address
        self.state[:3] = x0
        self.series = np.empty((-(-n_steps // sample_every), 4))
        self.failed, self.phase, self.w_terminal, self.seconds = -1, "", 0.0, {}

    def advance(self, path: WienerPath, partner: Run | None = None) -> None:
        """The run's kernel calls on path, whose ``seed`` it records:
        ``base_loop`` for the spin-up, then ``frame_loop`` once per
        ``REORTH_EVERY`` steps, with Q re-orthogonalised after each full
        call.  A partner run, which steps as this one does (scheme, dt,
        steps, sampling and offset), is advanced in the same calls as their
        second lane, with the results it would have alone, bit for bit.  A
        state failing the bound ends its run and is recorded, not raised:
        ``failed`` is its step within ``phase``, "spin-up" (with out,
        "trajectory") or "exponent phase".  ``w_terminal`` is W_T, the sum
        of the exponent phase's increments, and ``seconds`` the wall seconds
        of the ``base_loop`` call ("spin_up") and of the ``frame_loop``
        calls with their re-orthogonalisations ("engine")."""
        runs = [self] if partner is None else [self, self._check_partner(partner)]
        kernel, spin = _kernel(), self.spin_up_steps
        for run in runs:
            run.seed = path.seed
        inc = path.window(self.offset, spin + self.n_steps)
        t0 = time.perf_counter()
        if spin:  # none in run_nle's runs: skip the call's ctypes conversions
            runs = _on_lanes(kernel.base_loop, runs, (inc, spin), lambda run: (
                run.state[:3], run.out, "spin-up" if run.out is None else "trajectory"))
        t1 = time.perf_counter()
        inc = inc[spin:]
        for lo in range(0, self.n_steps, REORTH_EVERY):
            if not runs:
                return
            hi = min(lo + REORTH_EVERY, self.n_steps)
            runs = _on_lanes(kernel.frame_loop, runs, (inc, lo, hi, self.sample_every),
                             lambda run: (run.state, run.series, "exponent phase"))
            if hi % REORTH_EVERY == 0:
                for run in runs:
                    run.state[3:12] = _reorthogonalize(run.state[3:12].reshape(3, 3)).ravel()
        seconds = {"spin_up": t1 - t0, "engine": time.perf_counter() - t1}
        for run in runs:
            run.seconds, run.w_terminal = seconds, float(inc.sum())

    def _check_partner(self, partner: Run) -> Run:
        """partner, refused unless it is another run that steps as this one does."""
        if partner is self:
            raise ValueError("a run cannot be its own partner")
        names = ("heun", "dt", "spin_up_steps", "n_steps", "sample_every", "offset")
        for name in names:
            if getattr(partner, name) != getattr(self, name):
                raise ValueError(f"a partner run must step as the run does: its {name} is "
                                 f"{getattr(partner, name)!r}, not {getattr(self, name)!r}")
        return partner

    def end_state(self) -> np.ndarray:
        """The finish: a copy of x at the end of the run, or the
        ``BlowUpError`` of the step that failed the bound, naming the run."""
        if self.failed >= 0:
            err = BlowUpError(self.failed, self.state[:3].copy())
            raise err.within(self.phase, self.s, self.seed)
        return self.state[:3].copy()


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
    run = Run(s, cfg, out[0], offset, out=out[1:])
    run.advance(path)
    run.end_state()
    return out


def spin_up(s: SystemDef, path: WienerPath, cfg: IntegratorConfig) -> np.ndarray:
    """Discard the transient: integrate from (0, 1, 0) and return the end state.

    The spin-up consumes the head of the path (noise on); the exponent
    computation then continues with the subsequent increments.  It is
    ``simulate(s, SPIN_UP_STATE, path, cfg)[-1]`` without keeping the
    states on the way.
    """
    run = Run(s, cfg)
    run.advance(path)
    return run.end_state()
