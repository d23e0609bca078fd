import argparse
import json
import os

import pytest

from stochlyap import cli
from stochlyap.analysis import SweepRow, convergence_series
from stochlyap.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    OUTDIR_ENV,
    RunConfig,
    build_parser,
    main,
)
from stochlyap.models import Convention, LorenzParams, NoiseKind, fd_lorenz, theoretical_sum
from stochlyap.smallmat import SingularMatrixError

SMALL = [
    "--spin-up-steps", "200",
    "--nle-steps", "500",
    "--sample-every", "50",
]


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def returns_of(monkeypatch, name):
    """The list every later call of cli.<name> appends its return value to."""
    values, real = [], getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a, **k: values.append(real(*a, **k)) or values[-1])
    return values


def csv_row(*values):
    """A data row of an output CSV: each value's repr, comma-separated."""
    return ",".join(map(repr, values))


# Every subcommand's actions as (option_strings, dest, default, type,
# choices, help), in order, as the parser built them when each subcommand
# added the config flags itself.
HELP_ACTION = (("-h", "--help"), "help", argparse.SUPPRESS, None, None,
               "show this help message and exit")
CONFIG_ACTIONS = [
    HELP_ACTION,
    (("--config",), "config", None, None, None, "flat key = value configuration file"),
    (("--print-config",), "print_config", False, None, None,
     "echo the resolved configuration and exit"),
    (("--system",), "system", None, None, ["deterministic", "salt", "fd"], None),
    (("--sigma",), "sigma", None, float, None, None),
    (("--r",), "r", None, float, None, None),
    (("--b",), "b", None, float, None, None),
    (("--beta",), "beta", None, float, None, None),
    (("--seed",), "seed", None, int, None, None),
    (("--dt",), "dt", None, float, None, None),
    (("--spin-up-steps",), "spin_up_steps", None, int, None, None),
    (("--nle-steps",), "nle_steps", None, int, None, None),
    (("--eta",), "eta", None, float, None,
     "restart threshold in (0, 1) of the K/eta reference stepper; the engine "
     "restarts after every step, so eta does not change the exponents"),
    (("--scheme",), "scheme", None, None, ["euler-maruyama", "heun"], None),
    (("--convention-mode",), "convention_mode", None, None,
     ["paper", "stratonovich-strict"], None),
    (("--sample-every",), "sample_every", None, int, None, None),
    (("--outdir",), "outdir", None, None, None, None),
]
JOBS_ACTION = (("--jobs",), "jobs", 0, int, None,
               "worker processes the sweep's rows are split across "
               "(default 0: all usable cores)")
SUBCOMMAND_ACTIONS = {
    "simulate": CONFIG_ACTIONS + [
        (("--output",), "output", None, None, None, "trajectory CSV path"),
    ],
    "nle": CONFIG_ACTIONS + [
        (("--output",), "output", None, None, None, "convergence CSV path"),
        (("--json-output",), "json_output", None, None, None, "JSON summary path"),
    ],
    "sweep": CONFIG_ACTIONS + [
        (("--beta-min",), "beta_min", 0.0, float, None, None),
        (("--beta-max",), "beta_max", 1.0, float, None, None),
        (("--count",), "count", 100, int, None, None),
        (("--mode",), "mode", "fixed", None, ["fresh", "fixed"], None),
        JOBS_ACTION,
        (("--output",), "output", None, None, None, "sweep CSV path"),
    ],
    "reproduce": CONFIG_ACTIONS + [
        ((), "target", None, None,
         ["fig-sweep-fixed", "fig-sweep-fresh", "table1", "table2"], None),
        JOBS_ACTION,
        (("--output",), "output", None, None, None, None),
        (("--json-output",), "json_output", None, None, None, None),
    ],
}


def subcommands(parser):
    """The subcommand parsers of build_parser(), by name."""
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestParser:
    def test_actions_of_every_subcommand(self):
        subs = subcommands(build_parser())
        assert list(subs) == list(SUBCOMMAND_ACTIONS)
        for name, sub in subs.items():
            got = [(tuple(a.option_strings), a.dest, a.default, a.type, a.choices, a.help)
                   for a in sub._actions]
            assert got == SUBCOMMAND_ACTIONS[name], name

    @pytest.mark.parametrize("columns", ["60", "100", "200"])
    def test_help_wraps_at_argparse_default_width(self, columns, monkeypatch):
        # argparse's own formatter asks the terminal for its width on each use
        monkeypatch.setenv("COLUMNS", columns)
        parser = build_parser()
        for sub in [parser, *subcommands(parser).values()]:
            got = sub.format_help()
            sub.formatter_class = argparse.HelpFormatter
            assert got == sub.format_help()
        assert "usage: stochlyap nle [-h]" in subcommands(parser)["nle"].format_help()

    def test_help_exits_with_the_subcommand_help(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "100")
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == subcommands(build_parser())["sweep"].format_help()


class TestRunConfig:
    def test_defaults_match_reference_protocol(self):
        cfg = RunConfig()
        assert cfg.dt == 0.001
        assert cfg.spin_up_steps == 50_000
        assert cfg.nle_steps == 100_000
        assert cfg.eta == 0.8
        assert cfg.scheme == "euler-maruyama"

    def test_validation(self):
        with pytest.raises(ValueError):
            RunConfig(system="unknown").validate()
        with pytest.raises(ValueError):
            RunConfig(eta=1.2).validate()
        with pytest.raises(ValueError):
            RunConfig(dt=-1.0).validate()
        nan = float("nan")
        for bad in (dict(dt=nan), dict(sigma=nan), dict(beta=nan),
                    dict(eta=nan), dict(r=float("inf")), dict(sample_every=0)):
            with pytest.raises(ValueError):
                RunConfig(**bad).validate()

    def test_system_def_kinds(self):
        assert RunConfig(system="deterministic").system_def().kind is NoiseKind.NONE
        assert RunConfig(system="salt").system_def().kind is NoiseKind.SALT
        assert RunConfig(system="fd").system_def().kind is NoiseKind.FD

    def test_deterministic_forces_zero_beta(self):
        assert RunConfig(system="deterministic", beta=0.7).system_def().beta == 0.0

    def test_strict_mode_converts_to_stratonovich(self):
        cfg = RunConfig(system="fd", convention_mode="stratonovich-strict")
        assert cfg.system_def().convention is Convention.STRATONOVICH

    def test_hash_changes_with_config(self):
        assert RunConfig().config_hash() != RunConfig(seed=2).config_hash()
        assert len(RunConfig().config_hash()) == 12

    def test_hash_ignores_outdir(self, capsys):
        assert RunConfig(outdir="a").config_hash() == RunConfig(outdir="b").config_hash()
        code, out, _ = run(["nle", "--print-config", "--outdir", "a"], capsys)
        assert code == EXIT_OK
        assert "outdir = a" in out
        assert f"config_hash = {RunConfig(outdir='b').config_hash()}" in out


class TestConfigResolution:
    def test_print_config(self, capsys):
        code, out, _ = run(["nle", "--print-config", "--seed", "9"], capsys)
        assert code == EXIT_OK
        assert "seed = 9" in out
        assert "config_hash = " in out

    def test_file_then_flag_precedence(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("seed = 5\neta = 0.6  # inline comment\n")
        code, out, _ = run(
            ["nle", "--config", str(cfgfile), "--seed", "11", "--print-config"],
            capsys,
        )
        assert code == EXIT_OK
        assert "seed = 11" in out  # flag wins
        assert "eta = 0.6" in out  # file value survives

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("bogus = 1\n")
        code, _, err = run(["nle", "--config", str(cfgfile)], capsys)
        assert code == EXIT_CONFIG
        assert "bogus" in err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("just words\n")
        code, _, _ = run(["nle", "--config", str(cfgfile)], capsys)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("line, key", [("nle_steps = 1e4", "nle_steps"),
                                           ("sigma = ten", "sigma")])
    def test_uncoercible_file_value_names_key_and_line(self, line, key, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"seed = 3\n{line}\n")
        code, _, err = run(["nle", "--config", str(cfgfile)], capsys)
        assert code == EXIT_CONFIG
        assert key in err and repr(line.split(" = ")[1]) in err and "bad.cfg:2" in err
        assert "Traceback" not in err

    def test_invalid_value_exit_code(self, tmp_path, capsys):
        for flag, value in (("--eta", "1.5"), ("--sample-every", "0"),
                            ("--dt", "nan"), ("--sigma", "nan"), ("--beta", "nan")):
            code, _, err = run(["nle", flag, value] + SMALL[:4], capsys)
            assert code == EXIT_CONFIG, (flag, value, err)
            assert "configuration error" in err
            assert flag.lstrip("-").replace("-", "_") in err
            assert "Traceback" not in err
        # sweep arguments are checked before any path is drawn or file written
        for argv, flag in (
            (["--count", "1", "--mode", "fixed"], "--count"),
            (["--count", "0", "--mode", "fresh"], "--count"),
            (["--count", "3", "--jobs", "-1"], "--jobs"),
            (["--count", "3", "--beta-min", "0.4", "--beta-max", "0.4"], "--beta-min"),
            (["--count", "3", "--scheme", "heun"], "--scheme"),
        ):
            code, _, err = run(["sweep", "--outdir", str(tmp_path)] + argv + SMALL, capsys)
            assert code == EXIT_CONFIG, (argv, err)
            assert "configuration error" in err and flag in err, (argv, err)
            assert "Traceback" not in err
            assert not (tmp_path / "sweep.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "nle", "sweep"])
    @pytest.mark.parametrize("argv, flag", [
        (["--spin-up-steps", "-1"], "--spin-up-steps"),
        (["--nle-steps", "0"], "--nle-steps"),
        (["--nle-steps", "-3", "--spin-up-steps", "10"], "--nle-steps"),
    ], ids=["negative-spin-up", "zero-nle", "negative-nle"])
    def test_step_counts_name_the_flag(self, command, argv, flag, tmp_path, capsys):
        extra = ["--count", "3"] if command == "sweep" else []
        code, _, err = run([command, "--outdir", str(tmp_path)] + extra + SMALL + argv,
                           capsys)
        assert code == EXIT_CONFIG, err
        assert "configuration error" in err and flag in err, err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_outdir_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "envout"))
        code, _, _ = run(["simulate", "--system", "deterministic"] + SMALL, capsys)
        assert code == EXIT_OK
        assert (tmp_path / "envout" / "trajectory.csv").exists()

    def test_outdir_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "envout"))
        code, _, _ = run(
            ["simulate", "--outdir", str(tmp_path / "flagout")] + SMALL, capsys
        )
        assert code == EXIT_OK
        assert (tmp_path / "flagout" / "trajectory.csv").exists()
        assert not (tmp_path / "envout").exists()


class TestNumericalFailure:
    def test_numerical_error_exit_code(self, monkeypatch, capsys):
        # the numerical errors subclass ValueError; they must not be
        # reported as configuration errors
        def singular(*args, **kwargs):
            raise SingularMatrixError("QR diagonal entry below 1e-14")

        monkeypatch.setattr(cli, "run_nle", singular)
        code, _, err = run(["nle"] + SMALL, capsys)
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err


    def test_sweep_blow_up_names_phase_and_trajectory(self, tmp_path, capsys):
        code, _, err = run(["sweep", "--count", "2", "--jobs", "1", "--dt", "0.5",
                            "--seed", "8", "--outdir", str(tmp_path)] + SMALL, capsys)
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err and "Traceback" not in err
        assert "of the spin-up (" in err and "beta=" in err and "seed=8" in err

    @pytest.mark.parametrize("command, spin_up, phase", [
        ("nle", "100", "spin-up"), ("nle", "0", "exponent phase"),
        ("simulate", "0", "trajectory"),
    ])
    def test_single_run_blow_up_names_phase_and_trajectory(self, command, spin_up,
                                                            phase, tmp_path, capsys):
        # dt = 0.5 overflows the FD state within a few steps
        code, _, err = run([command, "--system", "fd", "--dt", "0.5", "--seed", "3",
                            "--spin-up-steps", spin_up, "--nle-steps", "200",
                            "--outdir", str(tmp_path)], capsys)
        assert code == EXIT_NUMERICAL
        assert "Traceback" not in err
        assert "state fails max|x| <= 1e+100" in err
        assert f"of the {phase} (fd, beta=0.5, seed=3)" in err


class TestConventionGuard:
    def test_heun_refuses_ito_system_in_paper_mode(self, tmp_path, capsys):
        code, _, err = run(["nle", "--scheme", "heun", "--system", "fd",
                            "--outdir", str(tmp_path)] + SMALL, capsys)
        assert code == EXIT_CONFIG
        assert "--convention-mode stratonovich-strict" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["--system", "salt"],
        ["--system", "fd", "--convention-mode", "stratonovich-strict"],
    ])
    def test_heun_runs_stratonovich_systems(self, argv, tmp_path, capsys):
        code, _, err = run(["nle", "--scheme", "heun", "--outdir", str(tmp_path)]
                           + argv + SMALL, capsys)
        assert code == EXIT_OK, err
        # strict FD: "theoretical" includes the drift correction's -3 beta^2 / 2
        data = json.loads((tmp_path / "nle_summary.json").read_text())
        assert abs(data["theoretical_sum"] - data["sum"]) <= 1e-10


class TestSimulate:
    def test_writes_header_and_rows(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code, stdout, _ = run(
            ["simulate", "--system", "fd", "--output", str(out)] + SMALL, capsys
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config-hash = ")
        assert lines[1].startswith("# generator-id = np-philox4x64")
        assert lines[2] == "t,x,y,z"
        assert len(lines) == 3 + 500 + 1  # header + initial state + steps

    def test_rows_parse_back_to_the_trajectory_exactly(self, tmp_path, capsys,
                                                         monkeypatch):
        states, real = [], cli.simulate
        monkeypatch.setattr(cli, "simulate",
                            lambda *a, **k: states.append(real(*a, **k)) or states[-1])
        out = tmp_path / "traj.csv"
        # 2501 states: the rows are written in blocks of 1024
        code, _, _ = run(["simulate", "--system", "salt", "--output", str(out)] + SMALL
                         + ["--nle-steps", "2500"], capsys)
        assert code == EXIT_OK
        (traj,) = states
        lines = out.read_text().splitlines()
        assert [line[0] for line in lines[:2]] == ["#", "#"] and lines[2] == "t,x,y,z"
        rows = [[float(v) for v in line.split(",")] for line in lines[3:]]
        assert rows == [[i * 0.001, *state] for i, state in enumerate(traj.tolist())]

    # the rows are written in blocks of 1024: states on either side of a block
    # edge, and step sizes whose multiples have short and long reprs
    @pytest.mark.parametrize("dt", [0.001, 0.003, 1e-4])
    @pytest.mark.parametrize("n_states", [1023, 1024, 1025, 2049])
    def test_rows_are_shortest_round_trip_reprs(self, n_states, dt, tmp_path, capsys,
                                                monkeypatch):
        # the text, not just the values: 0.1 is written 0.1, not 0.10000000000000001
        states = returns_of(monkeypatch, "simulate")
        out = tmp_path / "traj.csv"
        code, _, err = run(["simulate", "--system", "salt", "--dt", repr(dt),
                            "--spin-up-steps", "100", "--nle-steps", str(n_states - 1),
                            "--output", str(out)], capsys)
        assert code == EXIT_OK, err
        (traj,) = states
        assert out.read_text().splitlines()[3:] == [
            csv_row(i * dt, *state) for i, state in enumerate(traj.tolist())]

    def test_bit_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--system", "salt", "--output", str(a)] + SMALL, capsys)
        run(["simulate", "--system", "salt", "--output", str(b)] + SMALL, capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_noise_kinds_differ(self, tmp_path, capsys):
        a, b = tmp_path / "salt.csv", tmp_path / "fd.csv"
        run(["simulate", "--system", "salt", "--output", str(a)] + SMALL, capsys)
        run(["simulate", "--system", "fd", "--output", str(b)] + SMALL, capsys)
        assert a.read_text().splitlines()[3:] != b.read_text().splitlines()[3:]


class TestNle:
    def test_json_summary_keys(self, tmp_path, capsys):
        conv = tmp_path / "conv.csv"
        summ = tmp_path / "summary.json"
        code, stdout, _ = run(
            ["nle", "--system", "salt", "--output", str(conv),
             "--json-output", str(summ)] + SMALL,
            capsys,
        )
        assert code == EXIT_OK
        data = json.loads(summ.read_text())
        for key in ("lambdas", "sum", "trace_residual", "restarts",
                    "ortho_drift", "w_T_over_T", "theoretical_sum", "t_final",
                    "seconds", "engine_steps_per_s", "generator_id", "config_hash"):
            assert key in data
        assert 0.0 <= data["ortho_drift"] <= 1e-10
        assert set(data["seconds"]) == {"path", "spin_up", "engine"}
        assert all(v > 0.0 for v in data["seconds"].values())
        assert data["engine_steps_per_s"] == pytest.approx(
            500 / data["seconds"]["engine"])
        assert len(data["lambdas"]) == 3
        assert data["sum"] == pytest.approx(-(10 + 1 + 8 / 3), abs=1e-9)
        assert "sum = " in stdout

    def test_convergence_csv_shape(self, tmp_path, capsys):
        conv = tmp_path / "conv.csv"
        run(["nle", "--output", str(conv),
             "--json-output", str(tmp_path / "s.json")] + SMALL, capsys)
        lines = conv.read_text().splitlines()
        assert lines[2] == "t,lambda1,lambda2,lambda3,sum"
        assert len(lines) == 3 + 10  # 500 steps sampled every 50

    def test_rows_are_shortest_round_trip_reprs(self, tmp_path, capsys, monkeypatch):
        results = returns_of(monkeypatch, "run_nle")
        conv = tmp_path / "conv.csv"
        # 1050 rows: one block of 1024 and part of the next
        code, _, err = run(["nle", "--system", "fd", "--spin-up-steps", "100",
                            "--nle-steps", "2100", "--sample-every", "2",
                            "--output", str(conv), "--json-output", str(tmp_path / "s.json")],
                           capsys)
        assert code == EXIT_OK, err
        (res,) = results
        assert conv.read_text().splitlines()[3:] == [
            csv_row(t, l1, l2, l3, l1 + l2 + l3)
            for t, l1, l2, l3 in convergence_series(res).tolist()]


class TestSweep:
    def test_csv_format_and_regression_line(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, stdout, _ = run(
            ["sweep", "--count", "5", "--mode", "fixed", "--jobs", "1",
             "--output", str(out)] + SMALL,
            capsys,
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[2] == "beta,seed,sum_salt,sum_fd,w_T_over_T,theory_fd_sum"
        assert len(lines) == 3 + 5
        assert "fd-sum regression" in stdout

    def test_rows_are_reprs(self, tmp_path, capsys, monkeypatch):
        rows = [SweepRow(0.1, 7, -13.5 - 1 / 3, -13.25, 0.3), SweepRow(0.7, 7, -14.0, -13.0, 0.3)]
        monkeypatch.setattr(cli, "sweep_beta", lambda betas, mode, seed, cfg: rows)
        out = tmp_path / "sweep.csv"
        code, _, err = run(["sweep", "--count", "2", "--mode", "fixed", "--jobs", "1",
                            "--output", str(out)] + SMALL, capsys)
        assert code == EXIT_OK, err
        assert out.read_text().splitlines()[3:] == [
            csv_row(r.beta, r.seed, r.sum_salt, r.sum_fd, r.w_T_over_T,
                    theoretical_sum(fd_lorenz(LorenzParams(), r.beta), r.w_T_over_T, 1.0))
            for r in rows]

    @pytest.mark.parametrize("affinity, want", [({0}, 1), (None, 4)],
                             ids=["one-usable-cpu", "no-affinity"])
    def test_jobs_zero_counts_usable_cores(self, affinity, want, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity,
                                raising=False)
        jobs = []

        def sweep_beta(betas, mode, seed, cfg):
            jobs.append(cfg.jobs)
            return [SweepRow(float(b), seed, -13.0, -13.0 + b, 0.0) for b in betas]

        monkeypatch.setattr(cli, "sweep_beta", sweep_beta)
        code, _, err = run(["sweep", "--count", "2", "--mode", "fixed", "--jobs", "0",
                            "--outdir", str(tmp_path)] + SMALL, capsys)
        assert code == EXIT_OK, err
        assert jobs == [want]


class TestReproduce:
    def test_table2_overrides_parameters(self, tmp_path, capsys):
        code, stdout, _ = run(
            ["reproduce", "table2", "--output", str(tmp_path / "c.csv"),
             "--json-output", str(tmp_path / "s.json")] + SMALL,
            capsys,
        )
        assert code == EXIT_OK
        data = json.loads((tmp_path / "s.json").read_text())
        # sigma=16, r=45.92, b=4 gives the trace -(16 + 1 + 4)
        assert data["sum"] == pytest.approx(-21.0, abs=1e-9)
