import argparse
import functools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from stochlyap import analysis, cli, integrator
from stochlyap.analysis import RunSpec, SweepRow, convergence_series
from stochlyap.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    OUTDIR_ENV,
    RunConfig,
    build_parser,
    main,
)
from stochlyap.integrator import ConventionMismatchError
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


def returns_of(monkeypatch, name, module=cli):
    """The list every later call of module.<name> appends its return value to."""
    values, real = [], getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *a, **k: values.append(real(*a, **k)) or values[-1])
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
               "threads the sweep's rows run on at once, at most the usable cores "
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

    def test_built_once_per_process(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "60")
        build_parser.cache_clear()
        parser = build_parser()  # built under a 60-column terminal
        monkeypatch.setenv("COLUMNS", "200")
        assert build_parser() is parser
        # the width is asked of the terminal when help is printed, not built in
        sweep = subcommands(parser)["sweep"]
        got = sweep.format_help()
        monkeypatch.setattr(sweep, "formatter_class",
                            functools.partial(argparse.HelpFormatter, width=198))
        assert got == sweep.format_help()
        assert max(map(len, got.splitlines())) > 100


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

    def test_hash_is_pinned(self):
        # the fields, their order and their defaults are what the hash of
        # every existing output's header was computed from
        assert RunConfig().config_hash() == "362e944e8862"
        assert RunConfig(system="salt", seed=5).config_hash() == "948ef4aef55c"

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
        assert out.splitlines() == [
            "system = deterministic", "sigma = 10.0", "r = 28.0", "b = 2.6666666666666665",
            "beta = 0.5", "seed = 9", "dt = 0.001", "spin_up_steps = 50000",
            "nle_steps = 100000", "eta = 0.8", "scheme = euler-maruyama",
            "convention_mode = paper", "sample_every = 100", "outdir = .",
            "config_hash = 7117fbb38a67"]

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

    @pytest.mark.parametrize("key, value", [("system", "lorenz"), ("scheme", "rk4"),
                                            ("convention_mode", "ito")])
    def test_unknown_choice_in_file_rejected(self, key, value, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{key} = {value}\n")
        code, _, err = run(["nle", "--config", str(cfgfile), "--outdir", str(tmp_path)],
                           capsys)
        assert code == EXIT_CONFIG
        assert err == f"configuration error: unknown {key} {value!r}\n"
        assert list(tmp_path.iterdir()) == [cfgfile]

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

    def test_smallest_normal_dt_runs(self, tmp_path, capsys):
        code, _, err = run(["nle", "--dt", "2.2250738585072014e-308", "--spin-up-steps", "0",
                            "--nle-steps", "10", "--outdir", str(tmp_path)], capsys)
        assert code == 0, err

    def test_invalid_value_exit_code(self, tmp_path, capsys):
        for flag, value in (("--eta", "1.5"), ("--sample-every", "0"), ("--dt", "nan"),
                            ("--dt", "1e-320"), ("--dt", "5e-324"), ("--sigma", "nan"),
                            ("--beta", "nan")):
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
            (["--count", "3", "--beta-min", "-0.5"], "--beta-min"),
            (["--count", "3", "--scheme", "heun"], "--convention-mode"),
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


# Two rows, beta = 0 and 3, whose SALT spin-ups both overflow
BLOW_UP_SWEEP = ["sweep", "--mode", "fixed", "--beta-min", "0", "--beta-max", "3",
                 "--count", "2", "--dt", "0.05", "--spin-up-steps", "30",
                 "--nle-steps", "200", "--seed", "4"]


class TestNumericalFailure:
    def test_numerical_error_exit_code(self, monkeypatch, capsys):
        # the numerical errors subclass ValueError; they must not be
        # reported as configuration errors
        def singular(*args, **kwargs):
            raise SingularMatrixError("QR diagonal entry below 1e-14")

        monkeypatch.setattr(analysis, "run_nle", singular)
        code, _, err = run(["nle"] + SMALL, capsys)
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err


    def test_sweep_blow_up_names_phase_and_trajectory(self, tmp_path, capsys):
        code, _, err = run(["sweep", "--count", "2", "--jobs", "1", "--dt", "0.5",
                            "--seed", "8", "--outdir", str(tmp_path)] + SMALL, capsys)
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err and "Traceback" not in err
        assert "of the spin-up (" in err and "beta=" in err and "seed=8" in err

    def test_sweep_blow_up_is_the_same_for_every_jobs(self, tmp_path, capsys):
        # the rows beta = 0 and 3 overflow at steps 23 and 22 of their SALT
        # spin-ups; a sweep names its first failing row in beta order, so a
        # later row's earlier step must not win
        results = [run(BLOW_UP_SWEEP + ["--jobs", jobs, "--outdir", str(tmp_path)], capsys)
                   for jobs in ("1", "2")]
        assert [code for code, _, _ in results] == [EXIT_NUMERICAL] * 2
        assert results[0][2] == results[1][2]
        assert "at step 23 of the spin-up (salt, beta=0.0, seed=4)" in results[0][2]

    @pytest.mark.parametrize("argv, phase, want", [
        (BLOW_UP_SWEEP, "spin-up", [("spin_up", "salt", 0.0)]),
        # dt = 0.02: the row beta = 1.5 fails in its SALT exponent phase, and
        # the row beta = 3.0 does not start
        (["sweep", "--mode", "fixed", "--beta-min", "0", "--beta-max", "3", "--count", "3",
          "--dt", "0.02", "--spin-up-steps", "30", "--nle-steps", "200", "--seed", "3"],
         "exponent phase",
         [(name, kind, 0.0) for kind in ("salt", "fd") for name in ("spin_up", "run_nle")]
         + [("spin_up", "salt", 1.5), ("run_nle", "salt", 1.5)]),
    ], ids=["spin-up", "exponent-phase"])
    def test_sweep_stops_at_the_first_failing_row(self, argv, phase, want, tmp_path,
                                                  capsys, monkeypatch):
        calls, real = [], analysis.Run.advance

        def advance(run, path):
            # a run's kernel calls: the spin-up, then the exponent phase unless
            # the spin-up failed
            real(run, path)
            calls.append(("spin_up", run.s.kind.value, run.s.beta))
            if run.phase != "spin-up":
                calls.append(("run_nle", run.s.kind.value, run.s.beta))

        monkeypatch.setattr(analysis.Run, "advance", advance)
        code, _, err = run(argv + ["--jobs", "1", "--outdir", str(tmp_path)], capsys)
        assert code == EXIT_NUMERICAL
        assert f"of the {phase} (salt, beta={want[-1][2]}, seed=" in err
        assert calls == want

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


@pytest.mark.parametrize("argv, code, message", [
    # (Df1)^2 of the unused FD convention correction would overflow; the run blows up
    (["nle", "--system", "fd", "--beta", "1e200", "--spin-up-steps", "0",
      "--nle-steps", "10"], EXIT_NUMERICAL, None),
    (["sweep", "--beta-max", "inf", "--count", "3", "--spin-up-steps", "10",
      "--nle-steps", "10"], EXIT_CONFIG, "configuration error: --beta-max must be finite"),
    # the strict FD run uses the correction, whose beta^2 = 1e310 overflows
    (["nle", "--system", "fd", "--beta", "1e155", "--convention-mode", "stratonovich-strict",
      "--scheme", "heun", "--spin-up-steps", "0", "--nle-steps", "10"], EXIT_CONFIG,
     "configuration error: beta = 1e+155 is too large for the convention correction"),
    # sizes whose arrays exceed physical memory are refused before any is allocated
    (["nle", "--nle-steps", "1000000000000", "--spin-up-steps", "10"], EXIT_CONFIG,
     "configuration error: --spin-up-steps 10, --nle-steps 1000000000000 would hold"),
    (["simulate", "--nle-steps", "100000000000", "--spin-up-steps", "10"], EXIT_CONFIG,
     "configuration error: --spin-up-steps 10, --nle-steps 100000000000 would hold"),
    (["sweep", "--count", "1000000000000"], EXIT_CONFIG, "--count 1000000000000 would hold"),
], ids=["nle-huge-beta", "sweep-infinite-beta", "nle-strict-fd-huge-beta", "nle-huge-size",
        "simulate-huge-size", "sweep-huge-count"])
def test_bad_input_warns_nothing(argv, code, message, tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, _, err = run(argv + ["--outdir", str(tmp_path)], capsys)
    assert got == code, err
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in err and "Traceback" not in err
    assert message is None or message in err


def test_memory_check_reads_sysconf(tmp_path, capsys, monkeypatch):
    # the path and the rho series hold 8 * 1100 + 32 * 10 bytes: more than two pages
    argv = ["nle", "--spin-up-steps", "100", "--nle-steps", "1000", "--outdir", str(tmp_path)]
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 2, "SC_PAGE_SIZE": 4096}.get)
    code, _, err = run(argv, capsys)
    assert code == EXIT_CONFIG
    assert "--nle-steps 1000 would hold 9,120 bytes, more than the 8,192 bytes" in err

    def lacking(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(os, "sysconf", lacking)  # no check where sysconf lacks the names
    assert run(argv, capsys)[0] == EXIT_OK


def test_memory_check_counts_a_path_per_running_fresh_row(tmp_path, capsys, monkeypatch):
    # one path, 8 * 1100 bytes, fits in three pages; two do not.  Each running
    # row also holds two rho series of 32 * 10 bytes, and the sweep 8 bytes a beta
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 3, "SC_PAGE_SIZE": 4096}.get)
    argv = ["sweep", "--count", "2", "--spin-up-steps", "100", "--nle-steps", "1000",
            "--outdir", str(tmp_path)]
    code, _, err = run(argv + ["--mode", "fresh", "--jobs", "2"], capsys)
    assert code == EXIT_CONFIG
    assert ("--spin-up-steps 100, --nle-steps 1000, --jobs 2, --count 2 would hold "
            "18,896 bytes, more than the 12,288 bytes") in err
    for mode, jobs in (("fresh", "1"), ("fixed", "2")):  # one path at a time
        code, _, err = run(argv + ["--mode", mode, "--jobs", jobs], capsys)
        assert code == EXIT_OK, err


@pytest.mark.parametrize("mode, need", [("fixed", "3,209,200"), ("fresh", "3,218,000")])
def test_memory_check_counts_every_rows_series(mode, need, tmp_path, capsys, monkeypatch):
    # a sweep prepares all its runs at once: 2 * 50 rho series of 32 * 1000
    # bytes and 8 bytes a beta, with one path of 8 * 1100 bytes (fixed) or one
    # per running row (fresh), exceed 256 pages, though one row's would not
    calls = []
    monkeypatch.setattr(analysis, "generate_path", lambda *a: calls.append("path"))
    monkeypatch.setattr(analysis.threading, "Thread", lambda *a, **k: calls.append("thread"))
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 256, "SC_PAGE_SIZE": 4096}.get)
    code, _, err = run(["sweep", "--mode", mode, "--count", "50", "--jobs", "2",
                        "--spin-up-steps", "100", "--nle-steps", "1000", "--sample-every", "1",
                        "--outdir", str(tmp_path)], capsys)
    assert code == EXIT_CONFIG
    assert (f"--spin-up-steps 100, --nle-steps 1000, --jobs 2, --count 50 would hold "
            f"{need} bytes, more than the 1,048,576 bytes") in err
    assert calls == [] and not any(tmp_path.iterdir())


# The (system, scheme, convention mode) runs the convention rule refuses
REFUSED = {("salt", "euler-maruyama", "stratonovich-strict"),
           ("fd", "euler-maruyama", "stratonovich-strict"),
           ("fd", "heun", "paper")}


class TestConventionGuard:
    @pytest.mark.parametrize("mode", ["paper", "stratonovich-strict"])
    @pytest.mark.parametrize("scheme", ["euler-maruyama", "heun"])
    @pytest.mark.parametrize("system", ["deterministic", "salt", "fd"])
    def test_one_rule_for_the_library_and_the_command_line(self, system, scheme, mode,
                                                            tmp_path, capsys):
        spec = RunSpec(system=system, scheme=scheme, convention_mode=mode)
        try:
            spec.integrator_config().check(spec.system_def())
            accepted = True
        except ConventionMismatchError:
            accepted = False
        assert accepted is ((system, scheme, mode) not in REFUSED)
        code, _, err = run(["nle", "--system", system, "--scheme", scheme,
                            "--convention-mode", mode, "--spin-up-steps", "10",
                            "--nle-steps", "20", "--sample-every", "5",
                            "--outdir", str(tmp_path)], capsys)
        assert code == (EXIT_OK if accepted else EXIT_CONFIG), err

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
                                                monkeypatch, kernel):
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

    def test_a_block_of_the_wrong_width_is_refused(self, tmp_path):
        # the kernel reads and writes by the block's shape: x, y, z and t make 4 columns
        kernel = integrator._kernel()
        assert not isinstance(kernel, integrator._PythonKernel), "the step kernel did not build"
        with pytest.raises(RuntimeError, match=r"rows 0-2 have shape \(2, 4\)"):
            cli._write_csv(tmp_path / "t.csv", RunConfig(), "t,x,y,z", np.zeros((2, 4)), 0.001)

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
                    "seconds", "engine_steps_per_s", "kernel", "generator_id",
                    "config_hash"):
            assert key in data
        assert data["kernel"] == "c"
        assert 0.0 <= data["ortho_drift"] <= 1e-10
        assert set(data["seconds"]) == {"path", "spin_up", "engine"}
        assert all(v > 0.0 for v in data["seconds"].values())
        assert data["engine_steps_per_s"] == pytest.approx(
            500 / data["seconds"]["engine"])
        assert len(data["lambdas"]) == 3
        assert data["sum"] == pytest.approx(-(10 + 1 + 8 / 3), abs=1e-9)
        assert "sum = " in stdout

    @pytest.mark.parametrize("argv", [
        ["nle", "--system", "fd", "--sample-every", "7"],
        ["nle", "--system", "salt", "--scheme", "heun", "--convention-mode",
         "stratonovich-strict"],
        ["simulate", "--system", "salt"],
        ["sweep", "--count", "3", "--jobs", "2"],
    ], ids=["nle-fd", "nle-salt-heun-strict", "simulate-salt", "sweep"])
    def test_without_a_compiler_runs_the_python_kernel(self, argv, tmp_path, capsys,
                                                       monkeypatch):
        def outputs(name):
            outdir = tmp_path / name
            code, out, err = run(argv + ["--spin-up-steps", "300", "--nle-steps", "10050",
                                         "--outdir", str(outdir)], capsys)
            assert code == EXIT_OK, err
            files = {f.name: f.read_bytes() for f in outdir.iterdir()}
            kernel = None
            if "nle_summary.json" in files:
                summary = json.loads(files.pop("nle_summary.json"))
                for key in ("seconds", "engine_steps_per_s"):
                    del summary[key]
                kernel, files["nle_summary.json"] = summary.pop("kernel"), summary
            return kernel, out.replace(str(outdir), "<outdir>"), err, files

        want_kernel, *want = outputs("c")
        monkeypatch.setattr(integrator, "_CC", str(tmp_path / "no-such-compiler"))
        monkeypatch.setattr(integrator, "_KERNEL_CACHE", tmp_path / "cache")
        monkeypatch.setattr(integrator, "_kernel", functools.cache(integrator._kernel.__wrapped__))
        got_kernel, *got = outputs("python")
        if argv[0] == "nle":
            assert (want_kernel, got_kernel) == ("c", "python")
        assert got == want and want[2]

    def test_convergence_csv_shape(self, tmp_path, capsys):
        conv = tmp_path / "conv.csv"
        run(["nle", "--output", str(conv),
             "--json-output", str(tmp_path / "s.json")] + SMALL, capsys)
        lines = conv.read_text().splitlines()
        assert lines[2] == "t,lambda1,lambda2,lambda3,sum"
        assert len(lines) == 3 + 10  # 500 steps sampled every 50

    def test_rows_are_shortest_round_trip_reprs(self, tmp_path, capsys, monkeypatch, kernel):
        results = returns_of(monkeypatch, "run_nle", analysis)
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

    def test_rows_are_reprs(self, tmp_path, capsys, monkeypatch, kernel):
        rows = [SweepRow(0.1, 7, -13.5 - 1 / 3, -13.25, 0.3), SweepRow(0.7, 7, -14.0, -13.0, 0.3)]
        monkeypatch.setattr(cli, "sweep", lambda spec, betas, fixed, jobs: rows)
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

        def sweep(spec, betas, fixed, n_jobs):
            jobs.append(n_jobs)
            return [SweepRow(float(b), spec.seed, -13.0, -13.0 + b, 0.0) for b in betas]

        monkeypatch.setattr(cli, "sweep", sweep)
        code, _, err = run(["sweep", "--count", "2", "--mode", "fixed", "--jobs", "0",
                            "--outdir", str(tmp_path)] + SMALL, capsys)
        assert code == EXIT_OK, err
        assert jobs == [want]


    @pytest.mark.parametrize("flag, want", [("64", 2), ("1", 1), ("0", 2)])
    def test_jobs_are_capped_at_the_usable_cores(self, flag, want, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        jobs, real = [], cli.sweep
        monkeypatch.setattr(cli, "sweep", lambda spec, betas, fixed, n_jobs:
                            jobs.append(n_jobs) or real(spec, betas, fixed, n_jobs))
        code, _, err = run(["sweep", "--count", "4", "--jobs", flag,
                            "--outdir", str(tmp_path)] + SMALL, capsys)
        assert code == EXIT_OK, err
        assert jobs == [want]


    @pytest.mark.parametrize("mode", ["fixed", "fresh"])
    def test_rows_equal_at_one_and_two_jobs(self, mode, tmp_path, capsys, monkeypatch,
                                            kernel):
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        written = []
        for jobs in ("1", "2"):
            out = tmp_path / f"sweep-{jobs}.csv"
            code, _, err = run(["sweep", "--count", "5", "--mode", mode, "--jobs", jobs,
                                "--output", str(out)] + SMALL, capsys)
            assert code == EXIT_OK, err
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_the_driver_runs_the_resolved_config(self, tmp_path, capsys, monkeypatch):
        specs, real = [], cli.sweep
        monkeypatch.setattr(cli, "sweep", lambda spec, *a: specs.append(spec) or real(spec, *a))
        code, _, err = run(["sweep", "--count", "2", "--jobs", "1", "--dt", "0.002",
                            "--sample-every", "7", "--scheme", "heun", "--convention-mode",
                            "stratonovich-strict", "--spin-up-steps", "200", "--nle-steps", "500",
                            "--outdir", str(tmp_path)], capsys)
        assert code == EXIT_OK, err
        assert specs == [RunConfig(dt=0.002, sample_every=7, scheme="heun",
                                   convention_mode="stratonovich-strict", spin_up_steps=200,
                                   nle_steps=500, outdir=str(tmp_path))]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_strict_heun_sums(self, jobs, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
        out = tmp_path / "sweep.csv"
        code, stdout, err = run(["sweep", "--count", "3", "--mode", "fixed", "--jobs", jobs,
                                 "--scheme", "heun", "--convention-mode", "stratonovich-strict",
                                 "--output", str(out)] + SMALL, capsys)
        assert code == EXIT_OK, err
        assert "fd-sum regression" not in stdout  # the line tests paper mode's law
        rows = [[float(v) for v in line.split(",")] for line in out.read_text().splitlines()[3:]]
        assert [row[0] for row in rows] == [0.0, 0.5, 1.0]
        trace = -(10 + 1 + 8 / 3)
        for beta, _, sum_salt, sum_fd, w_over_t, theory in rows:
            assert sum_salt == pytest.approx(trace, rel=1e-10)
            assert sum_fd == pytest.approx(theory, abs=1e-10)
            # the Stratonovich FD drift's correction adds -3 beta^2 / 2
            assert theory == pytest.approx(trace + 3 * beta * w_over_t - 1.5 * beta**2,
                                           abs=1e-12)

    @pytest.mark.parametrize("mode", ["fixed", "fresh"])
    def test_paper_mode_heun_is_refused_before_any_path(self, mode, tmp_path, capsys,
                                                        monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "generate_path", lambda *a: calls.append(a))
        code, _, err = run(["sweep", "--count", "3", "--mode", mode, "--scheme", "heun",
                            "--outdir", str(tmp_path)] + SMALL, capsys)
        assert code == EXIT_CONFIG
        assert "configuration error" in err and "--convention-mode stratonovich-strict" in err
        assert calls == [] and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("mode", ["fixed", "fresh"])
    def test_rows_equal_sweep_beta_rows(self, mode, tmp_path, capsys, monkeypatch):
        rows = returns_of(monkeypatch, "sweep")
        code, _, err = run(["sweep", "--count", "4", "--mode", mode, "--jobs", "1",
                            "--seed", "5", "--outdir", str(tmp_path)] + SMALL, capsys)
        assert code == EXIT_OK, err
        cfg = analysis.SweepConfig(spin_up_steps=200, nle_steps=500, sample_every=50)
        assert rows == [analysis.sweep_beta(np.linspace(0.0, 1.0, 4), analysis.SweepMode(mode),
                                            5, cfg)]

    @pytest.mark.parametrize("beta_min, beta_max", [("0", "1e-300"),
                                                    ("0.5", "0.50000000000000011")])
    def test_a_narrow_beta_range_is_not_fitted(self, beta_min, beta_max, tmp_path):
        # a subprocess, to see what LAPACK writes to the stdout file descriptor
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-m", "stochlyap.cli", "sweep", "--count", "3",
                               "--mode", "fixed", "--beta-min", beta_min, "--beta-max", beta_max,
                               *SMALL, "--outdir", str(tmp_path)], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert "Warning" not in proc.stderr
        assert "DLASCL" not in proc.stdout and "On entry" not in proc.stdout
        # the FD sums differ by their rounding alone: a line through them would fit noise
        assert "fd-sum regression: not fitted, the beta range is too narrow" in proc.stdout
        assert "slope" not in proc.stdout

    @pytest.mark.parametrize("mode, want", [("stratonovich-strict", EXIT_OK),
                                            ("paper", EXIT_CONFIG)])
    def test_one_row_fixed_sweep_outside_paper_mode(self, mode, want, tmp_path, capsys):
        # only paper mode fits the regression line, which needs two amplitudes
        scheme = "heun" if mode == "stratonovich-strict" else "euler-maruyama"
        code, stdout, err = run(["sweep", "--count", "1", "--mode", "fixed", "--scheme", scheme,
                                 "--convention-mode", mode, "--outdir", str(tmp_path)] + SMALL,
                                capsys)
        assert code == want, err
        if want == EXIT_OK:
            assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 3 + 1
            assert "fd-sum regression" not in stdout
        else:
            assert "--count must be >= 2 in fixed mode, got 1" in err


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


@pytest.mark.parametrize("argv", [
    ["simulate", "--system", "salt"],
    ["reproduce", "table2"],
    ["sweep", "--count", "3", "--jobs", "1"],
    ["nle", "--print-config"],
], ids=["simulate", "reproduce-table2", "sweep", "print-config"])
def test_a_closed_stdout_is_not_a_failed_run(argv, tmp_path):
    # the run's stdout is a pipe whose reading end is closed before it starts
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}

    def outputs(name, stdout):
        outdir = tmp_path / name
        proc = subprocess.run([sys.executable, "-m", "stochlyap.cli", *argv, *SMALL,
                               "--outdir", str(outdir)], stdout=stdout,
                              stderr=subprocess.PIPE, env=env, timeout=120)
        files = {f.name: f.read_bytes() for f in outdir.glob("*")}
        if "nle_summary.json" in files:
            summary = json.loads(files["nle_summary.json"])
            del summary["seconds"], summary["engine_steps_per_s"]
            files["nle_summary.json"] = summary
        return proc.returncode, proc.stderr, files

    read, write = os.pipe()
    os.close(read)
    try:
        closed = outputs("closed", write)
    finally:
        os.close(write)
    assert closed == outputs("open", subprocess.PIPE)
    assert closed[:2] == (EXIT_OK, b"")
