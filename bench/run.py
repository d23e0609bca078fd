#!/usr/bin/env python3
"""Layered benchmark for stochlyap.

Run from the repository root:

    python3 bench/run.py --workload nle-reference --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is in BENCHMARK.json, the layers each
stresses in bench/record.json):

- ``nle-reference``: ``stochlyap nle`` on a reduced reference protocol:
  Table 1 and Table 2 deterministic Lorenz, SALT and FD at beta = 0.5
  (Euler-Maruyama), and SALT under Heun with stratonovich-strict.
- ``sweep-fixed``: ``stochlyap sweep --mode fixed`` over a beta grid on one
  shared path, with ``--jobs`` = min(2, cores).
- ``trajectory``: ``stochlyap simulate`` of SALT, FD and deterministic
  trajectories, each followed by ``analysis.liouville_oracle`` on the CSV.

Every operation goes through the in-process CLI (``stochlyap.cli.main``).
A run first executes the workload's operations once at a small pinned size
and seed (the canary: warm-up, and exponents compared with values pinned
at the seed commit in bench/pinned.json), then repeats rounds of the
workload's operations for ``--seconds`` seconds.  Outputs are checked after
each operation, outside the timed region; a failed check or a non-zero
exit code counts as a failed operation.

``--trace 0`` prints the end-to-end metrics: medians over rounds.  On a
shared machine the speed given to a process can drift by 20-30% over
minutes, alike for every workload.  So a fixed reference loop (the
benchmark's own code) is timed after every untraced round, and the times
(``wall_s``, ``cpu_s``, ``setup_s``, and through ``wall_s`` the rates) are
reported as if the reference loop had run at its nominal time ``REF_S``:
each round is scaled by the reference time measured right after it, and
``setup_s`` by the run's median reference time.  The unnormalised values
are printed too.

``--trace 1`` alternates untraced and traced rounds.  In a traced round a
span is recorded around each ``cli.main`` call, and the operation is then
replayed through the public functions the CLI calls, with a span around
each.  A fixed probe then times the per-step functions along a recorded
trajectory, and covers every layer the workload itself does not call.  The
spans go to .bench_work/ and the per-layer metrics are printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Seed 5882 is held out (bench/record.json): no tuning used it, so a claimed
gain can be rechecked on it.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported; sweep workers inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import dataclasses
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINNED = BENCH / "pinned.json"

WORKLOADS = ("nle-reference", "sweep-fixed", "trajectory")
CANARY_SEED = 1706
SETUP_REPEATS = 9
SUM_TOL = 1e-10
PIN_TOL = 1e-8  # catches a wrong engine, admits ~1e-12 reparameterisations
SLOPE_TOL = 1e-9

# (spin-up steps, exponent or trajectory steps, sweep rows)
SIZES = {
    "full": {"nle-reference": (1000, 2000, 0), "sweep-fixed": (500, 1500, 8),
             "trajectory": (1000, 20000, 0)},
    "smoke": {"nle-reference": (100, 200, 0), "sweep-fixed": (100, 200, 2),
              "trajectory": (100, 500, 0)},
    "canary": {"nle-reference": (300, 600, 0), "sweep-fixed": (200, 300, 3),
               "trajectory": (300, 1000, 0)},
}
PROBE_SIZE = (500, 2000)  # spin-up and trajectory steps of the layer probe
PROBE_SWEEP = (200, 300, 2)
# Machine-speed reference: REF_CHUNKS chunks of REF_STEPS steps after each
# untraced round; timings are reported as if a chunk took REF_S seconds.
REF_STEPS = 1000
REF_CHUNKS = 5
REF_S = 0.02


# ---------------------------------------------------------------- workloads


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what is needed to check and replay it."""

    label: str
    kind: str  # "nle" | "sweep" | "simulate"
    cfg: "cli.RunConfig"
    rows: int = 0
    jobs: int = 0

    def argv(self, outdir: Path) -> list[str]:
        c = self.cfg
        args = [
            self.kind, "--system", c.system, "--sigma", repr(c.sigma),
            "--r", repr(c.r), "--b", repr(c.b), "--beta", repr(c.beta),
            "--seed", str(c.seed), "--spin-up-steps", str(c.spin_up_steps),
            "--nle-steps", str(c.nle_steps), "--scheme", c.scheme,
            "--convention-mode", c.convention_mode, "--outdir", str(outdir),
        ]
        if self.kind == "sweep":
            args += ["--mode", "fixed", "--count", str(self.rows),
                     "--beta-min", "0", "--beta-max", "1", "--jobs", str(self.jobs)]
        return args

    @property
    def base_steps(self) -> int:
        n = self.cfg.spin_up_steps + self.cfg.nle_steps
        return 2 * self.rows * n if self.kind == "sweep" else n

    @property
    def exp_steps(self) -> int:
        if self.kind == "sweep":
            return 2 * self.rows * self.cfg.nle_steps
        return self.cfg.nle_steps if self.kind == "nle" else 0


def sweep_jobs() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def make_ops(workload: str, seed: int, size: str) -> list[Op]:
    spin, steps, rows = SIZES[size][workload]
    base = cli.RunConfig(seed=seed, spin_up_steps=spin, nle_steps=steps)
    cfg = lambda **kw: dataclasses.replace(base, **kw)  # noqa: E731
    if workload == "nle-reference":
        return [
            Op("table1", "nle", cfg(system="deterministic")),
            Op("table2", "nle", cfg(system="deterministic", sigma=16.0, r=45.92, b=4.0)),
            Op("salt", "nle", cfg(system="salt")),
            Op("fd", "nle", cfg(system="fd")),
            Op("salt-heun", "nle", cfg(system="salt", scheme="heun",
                                       convention_mode="stratonovich-strict")),
        ]
    if workload == "sweep-fixed":
        return [Op("sweep", "sweep", base, rows=rows, jobs=sweep_jobs())]
    return [
        Op("salt", "simulate", cfg(system="salt")),
        Op("fd", "simulate", cfg(system="fd")),
        Op("deterministic", "simulate", cfg(system="deterministic")),
    ]


# ------------------------------------------------------------------ tracing


@dataclass
class Span:
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0
    count: int = 0

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory; a span's parent is the innermost open span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: str, count: int = 0):
        sp = Span(name, op, self._open[-1] if self._open else None,
                  time.perf_counter(), count=count)
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its (nested) children cover."""
        out = [sp.dur for sp in self.spans]
        for sp in self.spans:
            if sp.parent is not None:
                out[sp.parent] -= sp.dur
        return out


class NoTracer:
    def span(self, name: str, op: str, count: int = 0):
        return nullcontext()


# ---------------------------------------------------------- running one op


@dataclass
class OpResult:
    op: Op
    ok: bool
    wall: float
    cpu: float
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)
    values: list[float] = field(default_factory=list)  # compared with the pins
    nle: list = field(default_factory=list)  # NleResults of the replay
    main_wall: float = 0.0  # the cli.main call alone


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def data_rows(path: Path) -> list[str]:
    return [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]


def load_trajectory(path: Path):
    header, *rows = data_rows(path)
    cols = header.split(",")
    use = tuple(cols.index(c) for c in ("x", "y", "z"))
    return np.loadtxt(rows, delimiter=",", usecols=use, ndmin=2)


def wiener_mean(seed: int, spin: int, steps: int, dt: float) -> float:
    """W_T/T over [spin, spin + steps), drawn independently of stochlyap."""
    rng = np.random.Generator(np.random.Philox(seed))
    inc = np.sqrt(dt) * rng.standard_normal(spin + steps)
    return float(np.sum(inc[spin:spin + steps])) / (steps * dt)


def expected_sum(c, kind: str, beta: float, w_over_t: float) -> float:
    base = -(c.sigma + 1.0 + c.b)
    return base + 3.0 * beta * w_over_t if kind == "fd" else base


def run_op(op: Op, key: str, outdir: Path, tr) -> OpResult:
    """Run one operation.  Only the CLI call, and for ``simulate`` the oracle
    on its CSV, are timed; reading the CSV back, redrawing the path, the
    checks and the traced replay are the benchmark's own work."""
    c = op.cfg
    if outdir.exists():
        shutil.rmtree(outdir)
    outdir.mkdir(parents=True)
    argv = op.argv(outdir)
    sink = io.StringIO()
    oracle = traj = None
    wall = cpu = 0.0
    try:
        t0, c0 = time.perf_counter(), cpu_seconds()
        with tr.span("cli.main", key), redirect_stdout(sink), redirect_stderr(sink):
            rc = cli.main(argv)
        main_wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        wall = main_wall
        if rc == 0 and op.kind == "simulate":
            traj = load_trajectory(outdir / "trajectory.csv")
            path = wiener.generate_path(c.seed, c.spin_up_steps + c.nle_steps, c.dt)
            t0, c0 = time.perf_counter(), cpu_seconds()
            with tr.span("analysis.liouville_oracle", key, count=c.nle_steps):
                oracle = analysis.liouville_oracle(
                    c.system_def(), traj, path, path_offset=c.spin_up_steps)
            wall, cpu = wall + time.perf_counter() - t0, cpu + cpu_seconds() - c0
    except Exception as err:  # an operation that raises is a failed operation
        return OpResult(op, False, wall, cpu, problems=[f"{op.label}: raised {err!r}"])
    res = OpResult(op, True, wall, cpu, main_wall=main_wall)
    res.bytes_written = sum(p.stat().st_size for p in outdir.iterdir())
    if rc != 0:
        res.problems.append(f"{op.label}: exit {rc}: {sink.getvalue().strip()[-300:]}")
    else:
        try:
            check_outputs(op, outdir, res, traj, oracle)
        except (OSError, ValueError, KeyError, IndexError) as err:
            res.problems.append(f"{op.label}: unreadable output: {err!r}")
        if isinstance(tr, Tracer) and not res.problems:
            replay(op, key, tr, res)
    res.ok = not res.problems
    return res


def check_outputs(op: Op, outdir: Path, res: OpResult, traj, oracle) -> None:
    c, bad = op.cfg, res.problems
    w = wiener_mean(c.seed, c.spin_up_steps, c.nle_steps, c.dt)
    if op.kind == "nle":
        summary = json.loads((outdir / "nle_summary.json").read_text())
        lams = [float(v) for v in summary["lambdas"]]
        want = expected_sum(c, c.system, c.beta, w)
        if not np.all(np.isfinite(lams)) or abs(sum(lams) - want) > SUM_TOL:
            bad.append(f"{op.label}: exponent sum {sum(lams)!r} != {want!r}")
        if summary["trace_residual"] > SUM_TOL:
            bad.append(f"{op.label}: trace residual {summary['trace_residual']}")
        if c.system != "deterministic" and abs(summary["w_T_over_T"] - w) > 1e-12:
            bad.append(f"{op.label}: W_T/T {summary['w_T_over_T']!r} != {w!r}")
        res.values = lams
    elif op.kind == "sweep":
        rows = list(csv.DictReader(data_rows(outdir / "sweep.csv")))
        if len(rows) != op.rows:
            bad.append(f"{op.label}: {len(rows)} rows, expected {op.rows}")
        betas = np.array([float(r["beta"]) for r in rows])
        salt = np.array([float(r["sum_salt"]) for r in rows])
        fd = np.array([float(r["sum_fd"]) for r in rows])
        want_fd = np.array([expected_sum(c, "fd", b, w) for b in betas])
        if np.max(np.abs(salt - expected_sum(c, "salt", 0.0, w)), initial=0) > SUM_TOL:
            bad.append(f"{op.label}: SALT sums off -(sigma+1+b)")
        if np.max(np.abs(fd - want_fd), initial=0) > SUM_TOL:
            bad.append(f"{op.label}: FD sums off -(sigma+1+b)+3*beta*W_T/T")
        if len(rows) >= 2:
            slope = float(np.polyfit(betas, fd, 1)[0])
            if abs(slope - 3.0 * w) > SLOPE_TOL * max(1.0, abs(3.0 * w)):
                bad.append(f"{op.label}: FD slope {slope!r} != 3*W_T/T {3 * w!r}")
        res.values = [v for pair in zip(salt, fd) for v in map(float, pair)]
    else:
        if traj.shape != (c.nle_steps + 1, 3) or not np.all(np.isfinite(traj)):
            bad.append(f"{op.label}: trajectory shape {traj.shape} or non-finite")
        want = expected_sum(c, c.system, c.beta, w)
        if abs(oracle - want) > SUM_TOL * max(1.0, abs(want)):
            bad.append(f"{op.label}: liouville_oracle {oracle!r} != {want!r}")
        res.values = [float(v) for v in traj[-1]] + [float(oracle)]


# ------------------------------------------------------------------ replay


def _integrator_cfg(c, n_steps: int):
    return integrator.IntegratorConfig(
        scheme=c.scheme_enum(), dt=c.dt, n_steps=n_steps,
        allow_convention_mismatch=c.convention_mode == "paper")


def replay_row(c, beta: float, key: str, tr, nle_out: list) -> None:
    """The calls one fixed-path sweep row makes, made serially."""
    n = c.spin_up_steps + c.nle_steps
    with tr.span("wiener.generate_path", key, count=n):
        path = wiener.generate_path(c.seed, n, c.dt)
    icfg = integrator.IntegratorConfig(dt=c.dt, n_steps=c.spin_up_steps,
                                       allow_convention_mismatch=True)
    for s in (models.salt_lorenz(c.params(), beta), models.fd_lorenz(c.params(), beta)):
        with tr.span("integrator.spin_up", key, count=c.spin_up_steps):
            x0 = integrator.spin_up(s, path, icfg)
        with tr.span("cayley.run_nle", key, count=c.nle_steps):
            nle_out.append(cayley.run_nle(
                s, x0, path, c.dt, c.nle_steps, c.eta, sample_every=c.sample_every,
                path_offset=c.spin_up_steps, allow_convention_mismatch=True))


def replay(op: Op, key: str, tr: Tracer, res: OpResult) -> None:
    """Repeat the operation through the public functions the CLI calls, with
    a span around each; the results must equal what the CLI wrote."""
    c = op.cfg
    n = c.spin_up_steps + c.nle_steps
    with tr.span("replay", key):
        if op.kind == "sweep":
            scfg = analysis.SweepConfig(
                params=c.params(), dt=c.dt, spin_up_steps=c.spin_up_steps,
                nle_steps=c.nle_steps, eta=c.eta, sample_every=c.sample_every,
                jobs=op.jobs)
            with tr.span("analysis.sweep_beta", key, count=op.rows):
                rows = analysis.sweep_beta(np.linspace(0.0, 1.0, op.rows),
                                           analysis.SweepMode.FIXED_PATH, c.seed, scfg)
            with tr.span("analysis.fit_fd_sum", key):
                analysis.fit_fd_sum(rows)
            got = [v for r in rows for v in (r.sum_salt, r.sum_fd)]
        else:
            s = c.system_def()
            with tr.span("wiener.generate_path", key, count=n):
                path = wiener.generate_path(c.seed, n, c.dt)
            icfg = _integrator_cfg(c, c.spin_up_steps)
            with tr.span("integrator.spin_up", key, count=c.spin_up_steps):
                x0 = integrator.spin_up(s, path, icfg)
            if op.kind == "simulate":
                with tr.span("integrator.simulate", key, count=c.nle_steps):
                    traj = integrator.simulate(
                        s, x0, path, dataclasses.replace(icfg, n_steps=c.nle_steps),
                        offset=c.spin_up_steps)
                got = [float(v) for v in traj[-1]]
            else:
                heun = c.scheme == "heun"
                name = "cayley.run_nle_heun" if heun else "cayley.run_nle"
                with tr.span(name, key, count=c.nle_steps):
                    r = cayley.run_nle(
                        s, x0, path, c.dt, c.nle_steps, c.eta, scheme=c.scheme_enum(),
                        sample_every=c.sample_every, path_offset=c.spin_up_steps,
                        allow_convention_mismatch=icfg.allow_convention_mismatch)
                with tr.span("analysis.theoretical_sum", key):
                    analysis.theoretical_sum(s, r.w_terminal, r.t_final)
                with tr.span("analysis.convergence_series", key):
                    analysis.convergence_series(r)
                res.nle.append(r)
                got = [float(v) for v in r.lambdas]
    if op.kind == "sweep":
        with tr.span("analysis.sweep_row_serial", key, count=1):
            replay_row(c, 0.5, key, tr, res.nle)
    want = res.values[:len(got)] if op.kind == "simulate" else res.values
    if not np.allclose(got, want, rtol=1e-10, atol=1e-10):
        res.problems.append(f"{op.label}: replay {got} != CLI output {want}")


# ------------------------------------------------------------------- probe


@contextmanager
def counting(module, names: tuple[str, ...], counter: list[int]):
    """Count calls the module makes to the named functions (module globals)."""
    saved = {n: getattr(module, n) for n in names if hasattr(module, n)}

    def wrap(fn):
        def counted(*a, **kw):
            counter[0] += 1
            return fn(*a, **kw)
        return counted

    for n, fn in saved.items():
        setattr(module, n, wrap(fn))
    try:
        yield
    finally:
        for n, fn in saved.items():
            setattr(module, n, fn)


def timed_calls(tr, name: str, fn, args: list[tuple], passes: int = 3) -> None:
    for _ in range(passes):
        with tr.span(name, "probe", count=len(args)):
            for a in args:
                fn(*a)


def probe(tr: Tracer, seed: int, res: OpResult, counts: dict) -> None:
    """Fixed-size calls into every layer along a recorded SALT trajectory."""
    spin, steps = PROBE_SIZE
    c = cli.RunConfig(system="salt", seed=seed, spin_up_steps=spin, nle_steps=steps)
    s, key, dt, eta = c.system_def(), "probe", c.dt, c.eta
    em = _integrator_cfg(c, spin)
    heun = integrator.IntegratorConfig(scheme=integrator.Scheme.HEUN, dt=dt, n_steps=1)
    with tr.span("wiener.generate_path", key, count=spin + steps):
        path = wiener.generate_path(seed, spin + steps, dt)
    with tr.span("integrator.spin_up", key, count=spin):
        x0 = integrator.spin_up(s, path, em)
    with tr.span("integrator.simulate", key, count=steps):
        xs = integrator.simulate(s, x0, path, dataclasses.replace(em, n_steps=steps),
                                 offset=spin)
    with tr.span("analysis.liouville_oracle", key, count=steps):
        analysis.liouville_oracle(s, xs, path, path_offset=spin)
    calls = [0]
    with counting(cayley, ("cayley", "inverse", "qr_decompose"), calls):
        with tr.span("cayley.run_nle", key, count=steps):
            res.nle.append(cayley.run_nle(s, x0, path, dt, steps, eta, path_offset=spin,
                                          allow_convention_mismatch=True))
    counts["smallmat_calls"] = calls[0]
    counts["probe_exp_steps"] = steps
    with tr.span("cayley.run_nle_heun", key, count=steps // 2):
        res.nle.append(cayley.run_nle(s, x0, path, dt, steps // 2, eta, path_offset=spin,
                                      scheme=integrator.Scheme.HEUN))
    sspin, ssteps, rows = PROBE_SWEEP
    sc = dataclasses.replace(c, spin_up_steps=sspin, nle_steps=ssteps)
    scfg = analysis.SweepConfig(spin_up_steps=sspin, nle_steps=ssteps, jobs=sweep_jobs())
    with tr.span("analysis.sweep_beta", key, count=rows):
        analysis.sweep_beta(np.linspace(0.0, 1.0, rows), analysis.SweepMode.FIXED_PATH,
                            seed, scfg)
    with tr.span("analysis.sweep_row_serial", key, count=1):
        replay_row(sc, 0.5, key, tr, res.nle)

    # Per-step calls, with the inputs the engine sees along the trajectory.
    dws = path.scalar()[spin:spin + steps]
    states, jacs = [], []
    cs = cayley.CayleyState()
    for x, dw in zip(xs, dws):
        j0c, j1c = cayley.conjugated_jacobians(s, x, cs.q_accum)
        states.append(cs)
        jacs.append((j0c, j1c))
        cs = cayley.maybe_restart(cayley.step_k_rho(cs, j0c, j1c, dt, dw), eta)
    xdw = list(zip(xs, dws))
    eye = np.eye(3)
    below = [(st, eta) for st in states if st.k.norm() < eta]
    timed_calls(tr, "models.drift", models.drift, [(s, x) for x in xs])
    timed_calls(tr, "models.diffusion", models.diffusion, [(s, x) for x in xs])
    timed_calls(tr, "models.jacobian_drift", models.jacobian_drift, [(s, x) for x in xs])
    timed_calls(tr, "models.jacobian_diffusion", models.jacobian_diffusion, [(s,)] * steps)
    timed_calls(tr, "integrator.step", integrator.step, [(s, x, dw, em) for x, dw in xdw])
    timed_calls(tr, "integrator.step_heun", integrator.step,
                [(s, x, dw, heun) for x, dw in xdw])
    timed_calls(tr, "cayley.conjugated_jacobians", cayley.conjugated_jacobians,
                [(s, x, st.q_accum) for x, st in zip(xs, states)])
    timed_calls(tr, "cayley.step_k_rho", cayley.step_k_rho,
                [(st, *jc, dt, dw) for st, jc, dw in zip(states, jacs, dws)])
    timed_calls(tr, "cayley.maybe_restart", cayley.maybe_restart, below)
    timed_calls(tr, "cayley.maybe_restart_fold", cayley.maybe_restart,
                [(st, 1e-12) for st in states])
    timed_calls(tr, "smallmat.cayley", smallmat.cayley, [(st.k,) for st in states])
    timed_calls(tr, "smallmat.inverse", smallmat.inverse,
                [(eye + st.k.matrix(),) for st in states])
    timed_calls(tr, "smallmat.qr_decompose", smallmat.qr_decompose,
                [(st.q_accum @ smallmat.cayley(st.k),) for st in states])


# ---------------------------------------------------------------- metrics


def reference_chunk() -> float:
    """Seconds for a fixed loop of small numpy operations in the style of the
    program's per-step work (a Lorenz step and a 3x3 frame update).  It is the
    benchmark's own code, so no change to stochlyap moves it; what moves it is
    the speed the machine gives this process at the time."""
    x, q = np.array([1.0, 1.0, 20.0]), np.eye(3)
    t0 = time.perf_counter()
    for _ in range(REF_STEPS):
        f = np.array([10.0 * (x[1] - x[0]), x[0] * (28.0 - x[2]) - x[1],
                      x[0] * x[1] - 8.0 / 3.0 * x[2]])
        x = x + 1e-3 * f
        j = np.array([[-10.0, 10.0, 0.0], [28.0 - x[2], -1.0, -x[0]], [x[1], x[0], -8.0 / 3.0]])
        q = q + 1e-3 * (j @ q)
        q = q / np.sqrt(np.sum(q * q))
    return time.perf_counter() - t0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def peak_rss_mb(jobs: int) -> float:
    """Peak RSS of this process plus ``jobs`` times the largest worker peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs else 0
    return (own + jobs * child) / 1024.0


SETUP_CODE = """
import contextlib, io, sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import stochlyap
from stochlyap import cli
cli.build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["nle", "--system", "salt", "--spin-up-steps", "10",
                   "--nle-steps", "10", "--sample-every", "5", "--outdir", {out!r}])
print(repr(time.perf_counter() - t0) if rc == 0 else "exit %d" % rc)
"""


def setup_times(outdir: Path) -> tuple[list[float], list[str]]:
    """Import, parser build and one tiny CLI call, each in a fresh process."""
    code = SETUP_CODE.format(src=str(SRC), out=str(outdir))
    times, problems = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, env=os.environ.copy())
        line = proc.stdout.strip().splitlines()[-1:] or [""]
        try:
            times.append(float(line[0]))
        except ValueError:
            problems.append(f"setup: {line[0]} {proc.stderr.strip()[-300:]}")
    return times, problems


def named_spans(tr: Tracer, name: str) -> list[Span]:
    """The workload's spans of ``name``, or the probe's when the workload
    makes no such call."""
    spans = [sp for sp in tr.spans if sp.name == name and sp.op != "probe"]
    return spans or [sp for sp in tr.spans if sp.name == name]


def span_rate(tr: Tracer, name: str, scale: float) -> float:
    """scale * seconds per counted unit (step, call or increment)."""
    spans = named_spans(tr, name)
    return scale * sum(sp.dur for sp in spans) / sum(sp.count for sp in spans)


def span_median(tr: Tracer, name: str) -> tuple[float, int]:
    spans = named_spans(tr, name)
    return statistics.median(sp.dur for sp in spans), spans[0].count


def layer_metrics(tr: Tracer, traced: list[list[tuple[str, OpResult]]], nle: list,
                  counts: dict, overhead_s: float) -> tuple[dict, list[str]]:
    us, m = 1e6, {}
    for name in ("models.drift", "models.diffusion", "models.jacobian_drift",
                 "models.jacobian_diffusion", "integrator.step", "integrator.step_heun",
                 "cayley.conjugated_jacobians", "cayley.step_k_rho",
                 "cayley.maybe_restart", "cayley.maybe_restart_fold",
                 "smallmat.cayley", "smallmat.inverse", "smallmat.qr_decompose"):
        m[name + ".us"] = span_rate(tr, name, us)
    m["wiener.generate_path.ns_per_inc"] = span_rate(tr, "wiener.generate_path", 1e9)
    for name in ("integrator.spin_up", "integrator.simulate", "cayley.run_nle",
                 "cayley.run_nle_heun", "analysis.liouville_oracle"):
        m[name + ".us_per_step"] = span_rate(tr, name, us)
    m["cayley.engine_self_us_per_step"] = m["cayley.run_nle.us_per_step"] - (
        m["integrator.step.us"] + m["models.jacobian_drift.us"]
        + m["models.jacobian_diffusion.us"])
    exp_steps = sum(r.t_final for r in nle) / cli.RunConfig().dt
    m["cayley.restarts_per_kstep"] = 1000.0 * sum(r.restarts for r in nle) / exp_steps
    m["cayley.trace_residual_max"] = max(r.trace_residual for r in nle)
    m["cayley.ortho_drift_max"] = max(r.ortho_drift for r in nle)
    m["smallmat.calls_per_step"] = counts["smallmat_calls"] / counts["probe_exp_steps"]
    sweep_s, rows = span_median(tr, "analysis.sweep_beta")
    row_s, _ = span_median(tr, "analysis.sweep_row_serial")
    m["analysis.sweep_beta.s"] = sweep_s
    m["analysis.sweep_row_serial.s"] = row_s
    m["analysis.parallel_efficiency"] = rows * row_s / (sweep_jobs() * sweep_s)

    # cli.main wall minus the library calls the replay shows it makes.
    by_key = {}
    for i, sp in enumerate(tr.spans):
        by_key.setdefault(sp.op, []).append(i)
    selfs = tr.self_times()
    overhead, written, accounting = 0.0, 0, []
    for rnd in traced:
        for k, res in rnd:
            idx = by_key[k]
            main = next(tr.spans[i] for i in idx if tr.spans[i].name == "cli.main")
            rep = next(i for i in idx if tr.spans[i].name == "replay")
            under = {rep}  # parents are recorded before their children
            for j in idx:
                if tr.spans[j].parent in under:
                    under.add(j)
            lib_self = sum(selfs[j] for j in under - {rep})
            own = main.dur - sum(tr.spans[j].dur for j in idx if tr.spans[j].parent == rep)
            overhead += own
            written += res.bytes_written
            accounting.append(
                f"  op {k} {res.op.label}: cli.main {main.dur:.4f} s = library self "
                f"{lib_self:.4f} s + cli.overhead {own:.4f} s")
    m["cli.overhead.s"] = overhead / len(traced)
    m["cli.bytes_written"] = written / len(traced)
    m["cli.write.mb_per_s"] = written / overhead / 1e6 if overhead > 0 else 0.0
    m["trace.overhead_s"] = overhead_s
    return m, accounting


# -------------------------------------------------------------------- main


def run_round(ops: list[Op], rnd: int, outdir: Path, tr) -> list[tuple[str, OpResult]]:
    return [(f"{rnd}.{i}", run_op(op, f"{rnd}.{i}", outdir / f"op{i}", tr))
            for i, op in enumerate(ops)]


def run_canary(workload: str, outdir: Path) -> list[OpResult]:
    """Pinned-size operations: the warm-up, and the comparison with the pins."""
    pins = json.loads(PINNED.read_text()).get(workload, {}) if PINNED.exists() else {}
    results = []
    for i, op in enumerate(make_ops(workload, CANARY_SEED, "canary")):
        res = run_op(op, f"canary.{i}", outdir / f"canary{i}", NoTracer())
        want = pins.get(op.label)
        if want is None:
            res.problems.append(f"canary {op.label}: no pinned values")
        elif res.ok and not np.allclose(res.values, want, rtol=PIN_TOL, atol=PIN_TOL):
            res.problems.append(f"canary {op.label}: {res.values} != pinned {want}")
        res.ok = not res.problems
        results.append(res)
    return results


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny operations, for the benchmark's own test")
    args = p.parse_args(argv)
    declared = declared_metrics(bool(args.trace))
    outdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, declared, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def measure(args, declared: dict[str, str], outdir: Path) -> int:
    ops = make_ops(args.workload, args.seed, args.size)
    results: list[OpResult] = run_canary(args.workload, outdir)
    tr = Tracer()
    traced: list[list] = []
    walls: list[float] = []  # timed regions of the untraced rounds
    cpus: list[float] = []
    mains = {False: [], True: []}  # the cli.main calls of a round
    rounds = {False: [], True: []}  # whole rounds, checks and replay included
    refs: list[float] = []  # median reference chunk after each untraced round
    start = time.perf_counter()
    rnd = 0
    # Trace runs alternate untraced and traced rounds, so that both see the
    # same machine state; the difference of their medians is the overhead.
    while rnd == 0 or (args.trace and rnd < 2) or time.perf_counter() - start < args.seconds:
        on = bool(args.trace) and rnd % 2 == 1
        t0 = time.perf_counter()
        rows = run_round(ops, rnd, outdir, tr if on else NoTracer())
        rounds[on].append(time.perf_counter() - t0)
        mains[on].append(sum(r.main_wall for _, r in rows))
        if on:
            traced.append(rows)
        else:
            walls.append(sum(r.wall for _, r in rows))
            cpus.append(sum(r.cpu for _, r in rows))
            refs.append(statistics.median(reference_chunk() for _ in range(REF_CHUNKS)))
        results += [r for _, r in rows]
        rnd += 1
    jobs = max(op.jobs for op in ops)
    rss = peak_rss_mb(jobs)

    if args.trace:
        probe_res = OpResult(Op("probe", "probe", ops[0].cfg), True, 0.0, 0.0)
        counts: dict = {}
        try:
            probe(tr, args.seed, probe_res, counts)
        except Exception as err:  # a failing layer call fails the probe operation
            probe_res.problems.append(f"probe: raised {err!r}")
        for r in [r for rows in traced for _, r in rows] + [probe_res]:
            for n in r.nle:
                if n.trace_residual > SUM_TOL or n.ortho_drift > 1e-9:
                    r.problems.append(f"{r.op.label}: trace residual "
                                      f"{n.trace_residual:g}, ortho drift {n.ortho_drift:g}")
                    r.ok = False
        probe_res.ok = not probe_res.problems
        results.append(probe_res)

    setup, setup_problems = setup_times(outdir / "setup")
    attempted = len(results) + SETUP_REPEATS
    problems = [p for r in results for p in r.problems] + setup_problems
    failed = sum(not r.ok for r in results) + len(setup_problems)

    n_rounds = len(walls)
    wall_q = quartiles(walls)
    steps = sum(op.base_steps for op in ops)
    exp_steps = sum(op.exp_steps for op in ops)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"size {args.size}  rounds {n_rounds} untraced, {len(traced)} traced  "
          f"ops per round {len(ops)}  jobs {jobs}")
    print(f"round wall s: q1 {wall_q[0]:.4f}  median {wall_q[1]:.4f}  q3 {wall_q[2]:.4f}  "
          f"(n = {n_rounds})")
    print("round walls s: " + " ".join(f"{w:.4f}" for w in walls))
    ref = statistics.median(refs)
    print(f"reference chunk: median {ref:.6f} s (nominal {REF_S} s) over {n_rounds} rounds")
    metrics: dict[str, float] = {}
    if not args.trace:
        setup_med = statistics.median(setup) if setup else float("nan")
        print(f"unnormalised: setup_s = {setup_med:.6g} s  wall_s = {wall_q[1]:.6g} s  "
              f"cpu_s = {statistics.median(cpus):.6g} s")
        # Each round is scaled by the reference chunks timed right after it.
        metrics = {
            "setup_s": setup_med * REF_S / ref,
            "wall_s": statistics.median(w * REF_S / r for w, r in zip(walls, refs)),
            "cpu_s": statistics.median(c * REF_S / r for c, r in zip(cpus, refs)),
        }
        metrics["steps_per_s"] = steps / metrics["wall_s"]
        metrics["peak_rss_mb"] = rss
        if exp_steps:
            print(f"exp_steps_per_s = {exp_steps / metrics['wall_s']:.6g} steps/s")
    else:
        main_on, main_off = statistics.median(mains[True]), statistics.median(mains[False])
        overhead = main_on - main_off
        try:
            metrics, accounting = layer_metrics(
                tr, traced, [n for r in results for n in r.nle], counts, overhead)
        except (ValueError, ZeroDivisionError, StopIteration, KeyError) as err:
            print(f"bench: per-layer metrics incomplete: {err!r}", file=sys.stderr)
            return 1
        print(f"tracing overhead (spans only): cli.main calls of a traced round "
              f"{main_on:.4f} s - of an untraced round {main_off:.4f} s = {overhead:.4f} s")
        round_on, round_off = statistics.median(rounds[True]), statistics.median(rounds[False])
        print(f"traced round cost (spans and replay): whole traced round {round_on:.4f} s - "
              f"whole untraced round {round_off:.4f} s = {round_on - round_off:.4f} s")
        print("per-operation accounting (last traced round):")
        print("\n".join(accounting[-len(ops):]))
        spans_out = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        t0 = tr.spans[0].start
        spans_out.write_text(json.dumps(
            [{"name": sp.name, "op": sp.op, "parent": sp.parent, "start": sp.start - t0,
              "end": sp.end - t0, "self": own, "count": sp.count}
             for sp, own in zip(tr.spans, tr.self_times())]) + "\n")
        print(f"wrote {len(tr.spans)} spans to {spans_out.relative_to(ROOT)}")
    print(f"error_rate = {failed / attempted:.6g} fraction ({failed} of {attempted})")
    for msg in problems[:20]:
        print(f"  FAILED {msg}")
    missing = [n for n in declared if n not in metrics or not np.isfinite(metrics[n])]
    if missing:
        print(f"bench: declared metrics not measured: {missing}", file=sys.stderr)
        return 1
    for name, unit in declared.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in declared.items()},
    }))
    return 0


if not (SRC / "stochlyap" / "__init__.py").is_file():
    sys.exit(f"bench: no stochlyap sources under {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

import importlib  # noqa: E402

import numpy as np  # noqa: E402

# The package re-exports smallmat.cayley under the name of the cayley module,
# so the modules are taken from the import system, not package attributes.
(analysis, cayley, cli, integrator, models, smallmat, wiener) = (
    importlib.import_module(f"stochlyap.{name}") for name in
    ("analysis", "cayley", "cli", "integrator", "models", "smallmat", "wiener"))

if __name__ == "__main__":
    WORK.mkdir(exist_ok=True)
    sys.exit(main())
