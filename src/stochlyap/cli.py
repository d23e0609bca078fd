"""Command-line entry point: simulate trajectories, compute exponents,
sweep noise amplitudes and reproduce the pinned reference experiments.

Configuration is a flat ``key = value`` file overridden by command-line
flags, resolved to a ``RunConfig``: an ``analysis.RunSpec`` and the output
directory, run by ``analysis.run_one`` (``simulate``: a spin-up ``Run``,
checked before ``analysis.run_path`` makes its path, then
``integrator.simulate``) or passed to ``analysis.sweep``, whose rows are
``run_one``'s runs; a run names its own blow-up.  Every output file
carries a metadata header with the resolved config hash and the noise
generator id, so runs are replayable.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, integrator
from .analysis import fit_fd_sum, sweep
from .cayley import _check_eta
from .integrator import (
    BlowUpError,
    ConventionMismatchError,
    IntegratorConfig,
    simulate,
)
from .models import theoretical_sum
from .smallmat import SingularMatrixError
from .wiener import GENERATOR_ID

__all__ = ["RunConfig", "main"]

OUTDIR_ENV = "STOCHLYAP_OUTDIR"

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


# Each RunConfig field's flag options beyond its type; validate checks the choices.
_FLAG_OPTIONS = {
    **{name: {"choices": list(choices)} for name, choices in analysis.CHOICES.items()},
    "eta": {"help": "restart threshold in (0, 1) of the K/eta reference stepper; the "
                    "engine restarts after every step, so eta does not change the exponents"},
}
_CONVERTERS = {"int": int, "float": float}


@dataclass(frozen=True)
class RunConfig(analysis.RunSpec):
    """Fully resolved run configuration: the run and where it writes."""

    outdir: str = "."

    def validate(self) -> None:
        self.check_choices()
        for name in ("sigma", "r", "b", "beta", "dt", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        IntegratorConfig(dt=self.dt)  # dt > 0, by the check every run makes
        _check_eta(self.eta)
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.sample_every < 1:
            raise ConfigError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.spin_up_steps < 0:
            raise ConfigError(
                f"--spin-up-steps must be >= 0, got {self.spin_up_steps}")
        if self.nle_steps < 1:
            raise ConfigError(f"--nle-steps must be >= 1, got {self.nle_steps}")

    def lines(self) -> list[str]:
        return [
            f"{field.name} = {getattr(self, field.name)}"
            for field in dataclasses.fields(self)
        ]

    def config_hash(self) -> str:
        """Identifies the computation: every field but ``outdir``, since
        where a run writes does not change what it computes."""
        lines = [line for line in self.lines() if not line.startswith("outdir = ")]
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


def _parse_config_file(filename: str) -> dict[str, tuple[str, str]]:
    """key -> (value, "file:line") for each ``key = value`` line."""
    values: dict[str, tuple[str, str]] = {}
    try:
        text = Path(filename).read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config file {filename}: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{filename}:{lineno}: expected 'key = value'")
        values[key.strip()] = value.strip(), f"{filename}:{lineno}"
    return values


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, value: str, where: str):
    kind = _FIELD_TYPES.get(name)
    if kind is None:
        raise ConfigError(f"{where}: unknown configuration key {name!r}")
    convert = _CONVERTERS.get(kind)
    if convert is None:
        return value
    try:
        return convert(value)
    except ValueError:
        raise ConfigError(f"{where}: {name} = {value!r} is not a valid {kind}") from None


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values: dict[str, object] = {}
    if getattr(args, "config", None):
        for key, (raw, where) in _parse_config_file(args.config).items():
            values[key] = _coerce(key, raw, where)
    for field in dataclasses.fields(RunConfig):
        flag = getattr(args, field.name, None)
        if flag is not None:
            values[field.name] = flag
    if values.get("outdir") is None:
        env = os.environ.get(OUTDIR_ENV)
        if env:
            values["outdir"] = env
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg


def _out_paths(cfg: RunConfig, *outputs: tuple[str, str | None]) -> list[Path]:
    """The path of each (name, override) output: the override, or name in
    cfg.outdir, which is made once, and only where some output lands in it."""
    if not all(override for _, override in outputs):
        Path(cfg.outdir).mkdir(parents=True, exist_ok=True)
    return [Path(override) if override else Path(cfg.outdir) / name
            for name, override in outputs]


MIN_ROWS = 4096  # a lane's fewest rows: ~0.5 ms of formatting, against a thread's start


def _write_csv(out: Path, cfg: RunConfig, header: str, rows, dt: float = 0.0) -> None:
    """Write the metadata lines, the header and the rows to out, each value
    as its repr: for a float the shortest digits that round-trip.  rows is
    either a float array of shape (rows, columns), which the step kernel's
    ``repr_rows`` formats, or a list of row tuples (sweep.csv, whose seed
    column is an int), which %-formatting writes.  Where dt is not 0, row i
    starts with t = i * dt and rows holds the columns after it.  Both ways
    give the same bytes.

    An array's rows are formatted on min(usable cores, rows // MIN_ROWS)
    lanes, one on the kernel's Python twin, whose ``repr_rows`` holds the
    interpreter lock; a list's on one.  The rows are split evenly into
    stripes of at most 16384 rows, and each round formats one stripe a
    lane: the calling thread formats its stripe 1024 rows at a time, writing
    each block as it goes, while a helper thread a lane formats each of the
    others into that lane's buffer, which the caller then writes in row
    order.  So the bytes are the same at any lane count, and memory stays
    flat: at most a block and a stripe of text a helper are live."""
    n, cols = len(rows), header.count(",") + 1
    fmt = ",".join(["%r"] * cols) + "\n"
    lanes, array = 1, isinstance(rows, np.ndarray)
    if array:
        if rows.shape != (n, cols - (dt != 0)):  # what the kernel reads and writes
            raise RuntimeError(f"{out.name}: rows 0-{n} have shape {rows.shape}")
        kernel = integrator._kernel()
        if not isinstance(kernel, integrator._PythonKernel):
            lanes = max(1, min(_usable_cores(), n // MIN_ROWS))
    stripes = lanes * max(1, -(-n // (lanes * 16384)))
    edges = [n * i // stripes for i in range(stripes + 1)]
    row_bytes = cols * 25 if array else 0  # a row's text: <= 25 bytes a value
    texts = [np.empty(row_bytes * (-(-n // stripes) if j else 1024), np.uint8)
             for j in range(lanes)]  # the caller's block, then each helper's stripe
    done: dict[int, object] = {}  # a helper's stripe's text, or its error

    def text_of(lo: int, hi: int, text: np.ndarray):
        if not array:
            return (fmt * (hi - lo) % tuple(v for row in rows[lo:hi] for v in row)).encode()
        block = np.ascontiguousarray(rows[lo:hi], dtype=float)
        return text[:kernel.repr_rows(block, hi - lo, block.shape[1], lo, dt, text)]

    def lane(i: int) -> None:
        try:
            done[i] = text_of(edges[i], edges[i + 1], texts[i % lanes])
        except Exception as err:  # raised again on the calling thread
            done[i] = err

    with open(out, "wb") as fh:
        fh.write(f"# config-hash = {cfg.config_hash()}\n# generator-id = {GENERATOR_ID}\n"
                 f"{header}\n".encode())
        for first in range(0, stripes, lanes):
            helpers = []
            try:
                for i in range(first + 1, first + lanes):
                    helper = threading.Thread(target=lane, args=(i,))
                    helper.start()
                    helpers.append(helper)
                for lo in range(edges[first], edges[first + 1], 1024):
                    fh.write(text_of(lo, min(lo + 1024, edges[first + 1]), texts[0]))
                for i, helper in enumerate(helpers, first + 1):
                    helper.join()
                    if isinstance(text := done.pop(i), Exception):
                        raise text
                    fh.write(text)
            finally:
                for helper in helpers:
                    helper.join()


def _say(*lines: str) -> None:
    """Print lines to stdout.  A closed stdout does not fail a run, whose
    files are written before it says anything: the lines are dropped, and
    stdout is pointed at os.devnull so that the exit flush cannot raise."""
    try:
        print(*lines, sep="\n", flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _check_memory(cfg: RunConfig, held: int, paths: int = 1, **flags: int) -> None:
    """Refuse, before anything is allocated, a run whose ``paths`` Wiener
    paths, of 8 (spin-up + nle) bytes each, and ``held`` bytes more would
    exceed the machine's physical memory, naming the size flags; no check
    where sysconf does not report that memory."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    need = 8 * (cfg.spin_up_steps + cfg.nle_steps) * paths + held
    if 0 < memory < need:
        sizes = {"spin-up-steps": cfg.spin_up_steps, "nle-steps": cfg.nle_steps, **flags}
        raise ConfigError(", ".join(f"--{flag} {n}" for flag, n in sizes.items())
                          + f" would hold {need:,} bytes, more than the {memory:,} bytes"
                          " of physical memory")


def _series_bytes(cfg: RunConfig) -> int:
    """The bytes of a run's sampled rho series, rows (t, rho1, rho2, rho3)."""
    return 32 * -(-cfg.nle_steps // cfg.sample_every)


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    _check_memory(cfg, 24 * (cfg.nle_steps + 1))  # the trajectory
    s, icfg = cfg.system_def(), cfg.integrator_config()
    run = integrator.Run(s, icfg)  # the spin-up, checked before its path is made
    path = analysis.run_path(cfg, s)
    run.advance(path)
    traj = simulate(s, run.end_state(), path, dataclasses.replace(icfg, n_steps=cfg.nle_steps),
                    offset=cfg.spin_up_steps)
    (out,) = _out_paths(cfg, ("trajectory.csv", args.output))
    _write_csv(out, cfg, "t,x,y,z", traj, cfg.dt)
    _say(f"wrote {out} ({traj.shape[0]} states)",
         f"terminal state: x={traj[-1][0]:.6f} y={traj[-1][1]:.6f} z={traj[-1][2]:.6f}")
    return EXIT_OK


def cmd_nle(cfg: RunConfig, args: argparse.Namespace) -> int:
    _check_memory(cfg, _series_bytes(cfg))
    res, seconds = analysis.run_one(cfg)
    w_over_t = res.w_terminal / res.t_final
    theory = theoretical_sum(cfg.system_def(), res.w_terminal, res.t_final)

    conv = analysis.convergence_series(res)
    conv_out, json_out = _out_paths(cfg, ("nle_convergence.csv", args.output),
                                    ("nle_summary.json", args.json_output))
    table = np.column_stack((conv, conv[:, 1] + conv[:, 2] + conv[:, 3]))  # sum = l1 + l2 + l3
    _write_csv(conv_out, cfg, "t,lambda1,lambda2,lambda3,sum", table)

    summary = {
        "lambdas": [float(v) for v in res.lambdas],
        "sum": res.sum,
        "trace_residual": res.trace_residual,
        "restarts": res.restarts,
        "ortho_drift": res.ortho_drift,
        "w_T_over_T": w_over_t,
        "theoretical_sum": theory,
        "t_final": res.t_final,
        "seconds": seconds,
        "engine_steps_per_s": cfg.nle_steps / seconds["engine"],
        "kernel": "python" if isinstance(integrator._kernel(), integrator._PythonKernel) else "c",
        "generator_id": GENERATOR_ID,
        "config_hash": cfg.config_hash(),
    }
    json_out.write_text(json.dumps(summary, indent=2) + "\n")

    _say(f"system: {cfg.system}  beta={cfg.beta if cfg.system != 'deterministic' else 0.0}",
         "lambda1 = {0:.4f}  lambda2 = {1:.4f}  lambda3 = {2:.4f}".format(*res.lambdas),
         f"sum = {res.sum:.4f}  theoretical = {theory:.4f}",
         f"restarts = {res.restarts}  trace residual = {res.trace_residual:.3e}",
         f"wrote {conv_out} and {json_out}")
    return EXIT_OK


def _usable_cores() -> int:
    """The CPUs this process may run on, where the platform says."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _check_jobs(args: argparse.Namespace) -> None:
    if args.jobs < 0:
        raise ConfigError(f"--jobs must be >= 0 (0: all usable cores), got {args.jobs}")


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> int:
    fixed = args.mode == "fixed"
    # a fixed sweep in paper mode fits a line, which tests its 3 W_T/T law and
    # needs two distinct amplitudes; the strict FD sum has a -3 beta^2 / 2 term
    regress = fixed and cfg.convention_mode == "paper"
    min_count = 2 if regress else 1
    if args.count < min_count:
        raise ConfigError(
            f"--count must be >= {min_count} in {args.mode} mode, got {args.count}"
        )
    if regress and args.beta_min == args.beta_max:
        raise ConfigError("--beta-min and --beta-max must differ in fixed mode")
    for flag, value in (("--beta-min", args.beta_min), ("--beta-max", args.beta_max)):
        if not (math.isfinite(value) and value >= 0):
            raise ConfigError(f"{flag} must be finite and >= 0, got {value}")
    _check_jobs(args)
    cores = _usable_cores()
    jobs = min(args.jobs or cores, cores)  # a thread per row at once, no more than the cores
    # every row's two runs hold their rho series from the start, and in fresh
    # mode each running row holds its own path
    _check_memory(cfg, 2 * args.count * _series_bytes(cfg) + 8 * args.count,
                  1 if fixed else min(jobs, args.count), jobs=jobs, count=args.count)
    rows = sweep(cfg, np.linspace(args.beta_min, args.beta_max, args.count), fixed, jobs)
    (out,) = _out_paths(cfg, ("sweep.csv", args.output))
    # the identity of each row's FD run, which reads the path through W_T/T only
    fd_system = dataclasses.replace(cfg, system="fd").system_def()
    theory = [theoretical_sum(dataclasses.replace(fd_system, beta=row.beta), row.w_T_over_T, 1.0)
              for row in rows]
    _write_csv(out, cfg, "beta,seed,sum_salt,sum_fd,w_T_over_T,theory_fd_sum",
               [(row.beta, row.seed, row.sum_salt, row.sum_fd, row.w_T_over_T, fd)
                for row, fd in zip(rows, theory)])
    _say(f"wrote {out} ({len(rows)} rows)")
    if regress:
        # the identity holds but for rounding: a sum's distance from it is its rounding
        sums = [row.sum_fd for row in rows]
        spread, rounding = max(sums) - min(sums), max(abs(s - fd) for s, fd in zip(sums, theory))
        if spread <= 2.0 * rounding:
            _say(f"fd-sum regression: not fitted, the beta range is too narrow: the FD sums "
                 f"spread by {spread:.3e}, within their rounding of {rounding:.3e}")
        else:
            fit = fit_fd_sum(rows)
            _say(f"fd-sum regression: slope = {fit.slope:.6f} "
                 f"(theory 3*W_T/T = {3.0 * rows[0].w_T_over_T:.6f}), "
                 f"intercept = {fit.intercept:.6f}, R^2 = {fit.r_squared:.6f}")
    return EXIT_OK


_REPRODUCTIONS = {
    "table1": {"system": "deterministic"},
    "table2": {"system": "deterministic", "sigma": 16.0, "r": 45.92, "b": 4.0},
    "fig-sweep-fresh": {},
    "fig-sweep-fixed": {},
}


def cmd_reproduce(cfg: RunConfig, args: argparse.Namespace) -> int:
    _check_jobs(args)  # every target takes --jobs, though only the sweeps use it
    overrides = _REPRODUCTIONS[args.target]
    cfg = dataclasses.replace(cfg, **overrides)  # the overrides are valid values
    if args.target in ("table1", "table2"):
        return cmd_nle(cfg, args)
    # the sweep subcommand's own defaults: 100 amplitudes in [0, 1]
    mode = "fixed" if args.target.endswith("fixed") else "fresh"
    sweep_args = build_parser().parse_args(["sweep", "--mode", mode, f"--jobs={args.jobs}"])
    sweep_args.output = args.output
    return cmd_sweep(cfg, sweep_args)


def _config_flags() -> argparse.ArgumentParser:
    """The flags every subcommand shares, on a parser they take as a parent:
    --config, --print-config and one flag per RunConfig field."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--print-config", action="store_true",
                        help="echo the resolved configuration and exit")
    for field in dataclasses.fields(RunConfig):
        parser.add_argument("--" + field.name.replace("_", "-"),
                            type=_CONVERTERS.get(field.type),
                            **_FLAG_OPTIONS.get(field.name, {}))
    return parser


_JOBS_HELP = ("threads the sweep's rows run on at once, at most the usable cores "
              "(default 0: all usable cores)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; argparse's formatter asks the
    terminal for the help width each time help is printed."""
    parser = argparse.ArgumentParser(
        prog="stochlyap",
        description="Stochastic Lorenz 63 trajectories and Lyapunov exponents",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = {"parents": [_config_flags()]}

    p_sim = sub.add_parser("simulate", help="integrate one trajectory to CSV", **common)
    p_sim.add_argument("--output", help="trajectory CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_nle = sub.add_parser("nle", help="compute numerical Lyapunov exponents", **common)
    p_nle.add_argument("--output", help="convergence CSV path")
    p_nle.add_argument("--json-output", dest="json_output", help="JSON summary path")
    p_nle.set_defaults(func=cmd_nle)

    p_sweep = sub.add_parser("sweep", help="sweep the noise amplitude", **common)
    p_sweep.add_argument("--beta-min", type=float, default=0.0)
    p_sweep.add_argument("--beta-max", type=float, default=1.0)
    p_sweep.add_argument("--count", type=int, default=100)
    p_sweep.add_argument("--mode", choices=["fresh", "fixed"], default="fixed")
    p_sweep.add_argument("--jobs", type=int, default=0, help=_JOBS_HELP)
    p_sweep.add_argument("--output", help="sweep CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rep = sub.add_parser("reproduce", help="run a pinned reference experiment",
                           **common)
    p_rep.add_argument("target", choices=sorted(_REPRODUCTIONS))
    p_rep.add_argument("--jobs", type=int, default=0, help=_JOBS_HELP)
    p_rep.add_argument("--output")
    p_rep.add_argument("--json-output", dest="json_output", default=None)
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if getattr(args, "print_config", False):
            _say(*cfg.lines(), f"config_hash = {cfg.config_hash()}")
            return EXIT_OK
        return args.func(cfg, args)
    except (BlowUpError, SingularMatrixError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConventionMismatchError as err:
        other = "stratonovich-strict" if cfg.convention_mode == "paper" else "paper"
        print(f"configuration error: {err}; on the command line, pass --convention-mode {other}",
              file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
