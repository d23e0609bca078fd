"""Command-line entry point: simulate trajectories, compute exponents,
sweep noise amplitudes and reproduce the pinned reference experiments.

Configuration is a flat ``key = value`` file overridden by command-line
flags; every output file carries a metadata header with the resolved
config hash and the noise generator id, so runs are replayable.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import SweepConfig, SweepMode, fit_fd_sum, sweep_beta
from .cayley import run_nle
from .integrator import (
    BlowUpError,
    ConventionMismatchError,
    IntegratorConfig,
    Scheme,
    simulate,
    spin_up,
)
from .models import (
    Convention,
    LorenzParams,
    SystemDef,
    convert_convention,
    deterministic_lorenz,
    fd_lorenz,
    salt_lorenz,
    theoretical_sum,
)
from .smallmat import CayleyDomainError, SingularMatrixError
from .wiener import GENERATOR_ID, generate_path

__all__ = ["RunConfig", "main"]

OUTDIR_ENV = "STOCHLYAP_OUTDIR"

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration; defaults match the reference
    experiments (sigma=10, r=28, b=8/3, beta=0.5, dt=0.001, 50000 spin-up
    steps, 100000 exponent steps, eta=0.8, Euler-Maruyama).  The engine is
    the K/eta reference stepper restarted every step, so eta leaves it unchanged."""

    system: str = "deterministic"
    sigma: float = 10.0
    r: float = 28.0
    b: float = 8.0 / 3.0
    beta: float = 0.5
    seed: int = 1
    dt: float = 0.001
    spin_up_steps: int = 50_000
    nle_steps: int = 100_000
    eta: float = 0.8
    scheme: str = "euler-maruyama"
    convention_mode: str = "paper"
    sample_every: int = 100
    outdir: str = "."

    def validate(self) -> None:
        if self.system not in ("deterministic", "salt", "fd"):
            raise ConfigError(f"unknown system {self.system!r}")
        if self.scheme not in ("euler-maruyama", "heun"):
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.convention_mode not in ("paper", "stratonovich-strict"):
            raise ConfigError(f"unknown convention_mode {self.convention_mode!r}")
        for name in ("sigma", "r", "b", "beta", "dt", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not 0 < self.eta < 1:
            raise ConfigError(f"eta must lie in (0, 1), got {self.eta}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.sample_every < 1:
            raise ConfigError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.spin_up_steps < 0:
            raise ConfigError(
                f"--spin-up-steps must be >= 0, got {self.spin_up_steps}")
        if self.nle_steps < 1:
            raise ConfigError(f"--nle-steps must be >= 1, got {self.nle_steps}")

    def params(self) -> LorenzParams:
        return LorenzParams(self.sigma, self.r, self.b)

    def system_def(self) -> SystemDef:
        if self.system == "deterministic":
            s = deterministic_lorenz(self.params())
        else:
            factory = salt_lorenz if self.system == "salt" else fd_lorenz
            s = factory(self.params(), self.beta)
        if self.convention_mode == "stratonovich-strict":
            s = convert_convention(s, Convention.STRATONOVICH)
        return s

    def scheme_enum(self) -> Scheme:
        return Scheme(self.scheme)

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
    convert = {"int": int, "float": float}.get(kind)
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


def _metadata_lines(cfg: RunConfig) -> list[str]:
    return [
        f"# config-hash = {cfg.config_hash()}",
        f"# generator-id = {GENERATOR_ID}",
    ]


def _out_path(cfg: RunConfig, name: str, override: str | None) -> Path:
    if override:
        return Path(override)
    out = Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


@contextmanager
def _phase(cfg: RunConfig, s: SystemDef, phase: str):
    """Name the phase, system, beta and seed in a blow-up inside the block."""
    try:
        yield
    except BlowUpError as err:
        raise err.within(phase, s, cfg.seed) from None


def _spin_and_path(cfg: RunConfig):
    """The system, path, spin-up end state and integrator config of a run,
    with the wall seconds of its ``path`` and ``spin_up`` phases."""
    s = cfg.system_def()
    # Paper mode applies Euler-Maruyama to the native coefficients.  Heun
    # consistently integrates Stratonovich systems only, so an Ito system
    # under Heun is refused rather than silently integrated as another SDE.
    icfg = IntegratorConfig(
        scheme=cfg.scheme_enum(),
        dt=cfg.dt,
        n_steps=cfg.spin_up_steps,
        allow_convention_mismatch=(
            cfg.convention_mode == "paper"
            and cfg.scheme_enum() is Scheme.EULER_MARUYAMA
        ),
    )
    try:
        icfg.check(s)
    except ConventionMismatchError as err:
        other = "stratonovich-strict" if cfg.convention_mode == "paper" else "paper"
        raise ConfigError(
            f"{err}; on the command line, pass --convention-mode {other}"
        ) from None
    t0 = time.perf_counter()
    path = generate_path(cfg.seed, cfg.spin_up_steps + cfg.nle_steps, cfg.dt)
    t1 = time.perf_counter()
    with _phase(cfg, s, "spin-up"):
        x0 = spin_up(s, path, icfg)
    seconds = {"path": t1 - t0, "spin_up": time.perf_counter() - t1}
    return s, path, x0, icfg, seconds


def _write_csv(out: Path, cfg: RunConfig, header: str, n: int, rows) -> None:
    """Write the metadata lines, the header and n data rows to out, 1024 rows
    at a time: rows(lo, hi) gives rows lo to hi - 1 as one flat list, and each
    value is written as its repr, for a float the shortest that round-trips."""
    fmt = ",".join(["%r"] * (header.count(",") + 1)) + "\n"
    with open(out, "w", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in _metadata_lines(cfg)) + header + "\n")
        for lo in range(0, n, 1024):  # in blocks: memory stays flat
            hi = min(lo + 1024, n)
            fh.write(fmt * (hi - lo) % tuple(rows(lo, hi)))


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    s, path, x0, icfg, _ = _spin_and_path(cfg)
    traj_cfg = dataclasses.replace(icfg, n_steps=cfg.nle_steps)
    with _phase(cfg, s, "trajectory"):
        traj = simulate(s, x0, path, traj_cfg, offset=cfg.spin_up_steps)
    out = _out_path(cfg, "trajectory.csv", args.output)
    _write_csv(out, cfg, "t,x,y,z", len(traj), lambda lo, hi: np.column_stack(
        (np.arange(lo, hi) * cfg.dt, traj[lo:hi])).ravel().tolist())
    print(f"wrote {out} ({traj.shape[0]} states)")
    print(
        "terminal state: "
        f"x={traj[-1][0]:.6f} y={traj[-1][1]:.6f} z={traj[-1][2]:.6f}"
    )
    return EXIT_OK


def cmd_nle(cfg: RunConfig, args: argparse.Namespace) -> int:
    s, path, x0, icfg, seconds = _spin_and_path(cfg)
    t0 = time.perf_counter()
    with _phase(cfg, s, "exponent phase"):
        res = run_nle(s, x0, path, cfg.dt, cfg.nle_steps, cfg.eta,
                      scheme=cfg.scheme_enum(), sample_every=cfg.sample_every,
                      path_offset=cfg.spin_up_steps,
                      allow_convention_mismatch=icfg.allow_convention_mismatch)
    seconds["engine"] = time.perf_counter() - t0
    w_over_t = res.w_terminal / res.t_final
    theory = theoretical_sum(s, res.w_terminal, res.t_final)

    conv = analysis.convergence_series(res)
    conv_out = _out_path(cfg, "nle_convergence.csv", args.output)
    table = np.column_stack((conv, conv[:, 1] + conv[:, 2] + conv[:, 3]))  # sum = l1 + l2 + l3
    _write_csv(conv_out, cfg, "t,lambda1,lambda2,lambda3,sum", len(table),
               lambda lo, hi: table[lo:hi].ravel().tolist())

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
        "generator_id": GENERATOR_ID,
        "config_hash": cfg.config_hash(),
    }
    json_out = _out_path(cfg, "nle_summary.json", args.json_output)
    json_out.write_text(json.dumps(summary, indent=2) + "\n")

    print(f"system: {cfg.system}  beta={cfg.beta if cfg.system != 'deterministic' else 0.0}")
    print(
        "lambda1 = {0:.4f}  lambda2 = {1:.4f}  lambda3 = {2:.4f}".format(
            *res.lambdas
        )
    )
    print(f"sum = {res.sum:.4f}  theoretical = {theory:.4f}")
    print(f"restarts = {res.restarts}  trace residual = {res.trace_residual:.3e}")
    print(f"wrote {conv_out} and {json_out}")
    return EXIT_OK


def _usable_cores() -> int:
    """The CPUs this process may run on, where the platform says."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> int:
    fixed = args.mode == "fixed"
    # the fixed-path regression needs two distinct amplitudes
    min_count = 2 if fixed else 1
    if args.count < min_count:
        raise ConfigError(
            f"--count must be >= {min_count} in {args.mode} mode, got {args.count}"
        )
    if fixed and args.beta_min == args.beta_max:
        raise ConfigError("--beta-min and --beta-max must differ in fixed mode")
    if args.jobs < 0:
        raise ConfigError(f"--jobs must be >= 0 (0: all usable cores), got {args.jobs}")
    if cfg.scheme != "euler-maruyama" or cfg.convention_mode != "paper":
        raise ConfigError(
            "sweep runs Euler-Maruyama in paper mode only; drop --scheme "
            "and --convention-mode"
        )
    betas = np.linspace(args.beta_min, args.beta_max, args.count)
    mode = SweepMode.FIXED_PATH if fixed else SweepMode.FRESH_PATH_PER_BETA
    jobs = args.jobs or _usable_cores()
    sweep_cfg = SweepConfig(
        params=cfg.params(),
        dt=cfg.dt,
        spin_up_steps=cfg.spin_up_steps,
        nle_steps=cfg.nle_steps,
        eta=cfg.eta,
        sample_every=cfg.sample_every,
        jobs=jobs,
    )
    rows = sweep_beta(betas, mode, cfg.seed, sweep_cfg)
    out = _out_path(cfg, "sweep.csv", args.output)
    # the identity reads the path through W_T/T only
    _write_csv(out, cfg, "beta,seed,sum_salt,sum_fd,w_T_over_T,theory_fd_sum", len(rows),
               lambda lo, hi: [v for row in rows[lo:hi] for v in (
                   row.beta, row.seed, row.sum_salt, row.sum_fd, row.w_T_over_T,
                   theoretical_sum(fd_lorenz(cfg.params(), row.beta), row.w_T_over_T, 1.0))])
    print(f"wrote {out} ({len(rows)} rows)")
    if fixed:
        fit = fit_fd_sum(rows)
        expected = 3.0 * rows[0].w_T_over_T
        print(
            f"fd-sum regression: slope = {fit.slope:.6f} "
            f"(theory 3*W_T/T = {expected:.6f}), "
            f"intercept = {fit.intercept:.6f}, R^2 = {fit.r_squared:.6f}"
        )
    return EXIT_OK


_REPRODUCTIONS = {
    "table1": {"system": "deterministic"},
    "table2": {"system": "deterministic", "sigma": 16.0, "r": 45.92, "b": 4.0},
    "fig-sweep-fresh": {},
    "fig-sweep-fixed": {},
}


def cmd_reproduce(cfg: RunConfig, args: argparse.Namespace) -> int:
    overrides = _REPRODUCTIONS[args.target]
    cfg = dataclasses.replace(cfg, **overrides)
    cfg.validate()
    if args.target in ("table1", "table2"):
        return cmd_nle(cfg, args)
    sweep_args = argparse.Namespace(
        beta_min=0.0,
        beta_max=1.0,
        count=100,
        mode="fixed" if args.target.endswith("fixed") else "fresh",
        jobs=args.jobs,
        output=args.output,
    )
    return cmd_sweep(cfg, sweep_args)


def _config_flags(formatter) -> argparse.ArgumentParser:
    """The flags every subcommand shares, on a parser they take as a parent."""
    parser = argparse.ArgumentParser(add_help=False, formatter_class=formatter)
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--print-config", action="store_true",
                        help="echo the resolved configuration and exit")
    parser.add_argument("--system", choices=["deterministic", "salt", "fd"])
    parser.add_argument("--sigma", type=float)
    parser.add_argument("--r", type=float)
    parser.add_argument("--b", type=float)
    parser.add_argument("--beta", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--dt", type=float)
    parser.add_argument("--spin-up-steps", type=int, dest="spin_up_steps")
    parser.add_argument("--nle-steps", type=int, dest="nle_steps")
    parser.add_argument("--eta", type=float, help=(
        "restart threshold in (0, 1) of the K/eta reference stepper; the engine "
        "restarts after every step, so eta does not change the exponents"))
    parser.add_argument("--scheme", choices=["euler-maruyama", "heun"])
    parser.add_argument("--convention-mode",
                        choices=["paper", "stratonovich-strict"],
                        dest="convention_mode")
    parser.add_argument("--sample-every", type=int, dest="sample_every")
    parser.add_argument("--outdir")
    return parser


_JOBS_HELP = ("worker processes the sweep's rows are split across "
              "(default 0: all usable cores)")


def build_parser() -> argparse.ArgumentParser:
    # argparse's default help width, asked of the terminal once rather than
    # by a new formatter for every flag added
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="stochlyap",
        description="Stochastic Lorenz 63 trajectories and Lyapunov exponents",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = {"parents": [_config_flags(formatter)], "formatter_class": formatter}

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
            for line in cfg.lines():
                print(line)
            print(f"config_hash = {cfg.config_hash()}")
            return EXIT_OK
        return args.func(cfg, args)
    except (BlowUpError, CayleyDomainError, SingularMatrixError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
