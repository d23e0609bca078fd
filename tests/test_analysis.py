import dataclasses
import os
import pickle
import re
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stochlyap import analysis, cayley, integrator
from stochlyap.analysis import (
    RegressionSummary,
    RunSpec,
    SweepConfig,
    SweepMode,
    SweepRow,
    convergence_series,
    ellipsoid_residual,
    fit_fd_sum,
    liouville_oracle,
    lyapunov_function,
    run_one,
    sweep,
    sweep_beta,
    theoretical_sum,
)
from stochlyap.cayley import run_nle
from stochlyap.integrator import BlowUpError, IntegratorConfig, Scheme, simulate, spin_up
from stochlyap.models import (
    Convention,
    LorenzParams,
    convert_convention,
    deterministic_lorenz,
    fd_lorenz,
    jacobian_diffusion,
    jacobian_drift,
    salt_lorenz,
)
from stochlyap.wiener import generate_path

STD = LorenzParams()
TRACE = -(STD.sigma + 1.0 + STD.b)


class TestTheoreticalSum:
    def test_deterministic(self):
        assert theoretical_sum(deterministic_lorenz(), 0.0, 100.0) == pytest.approx(
            -13.6667, abs=5e-5
        )

    def test_salt_independent_of_path(self):
        s = salt_lorenz(beta=0.9)
        assert theoretical_sum(s, 12.3, 100.0) == pytest.approx(TRACE)

    def test_fd_shift(self):
        s = fd_lorenz(beta=0.5)
        # 3 * beta * W_T / T on top of the drift trace
        assert theoretical_sum(s, 10.0, 100.0) == pytest.approx(TRACE + 0.15)

    def test_fd_unit_case(self):
        s = fd_lorenz(beta=1.0)
        got = theoretical_sum(s, -2.0, 1.0)
        assert got == pytest.approx(TRACE - 6.0)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError):
            theoretical_sum(deterministic_lorenz(), 0.0, 0.0)

    def test_converted_fd(self):
        # the Stratonovich drift carries -(1/2) beta^2 x, trace -3 beta^2 / 2
        s = convert_convention(fd_lorenz(beta=0.5), Convention.STRATONOVICH)
        got = theoretical_sum(s, 10.0, 100.0)
        assert got == pytest.approx(TRACE + 0.15 - 3 * 0.25 / 2, abs=1e-14)

    def test_converted_salt(self):
        # the Ito drift carries (1/2)(Df1)^2 x, trace -beta^2
        s = convert_convention(salt_lorenz(beta=0.9), Convention.ITO)
        assert theoretical_sum(s, 12.3, 100.0) == pytest.approx(TRACE - 0.81, abs=1e-14)


# the five system forms as functions of beta
SYSTEM_FORMS = {
    "deterministic": lambda beta: deterministic_lorenz(),
    "salt": lambda beta: salt_lorenz(beta=beta),
    "fd": lambda beta: fd_lorenz(beta=beta),
    "salt-ito": lambda beta: convert_convention(salt_lorenz(beta=beta), Convention.ITO),
    "fd-strict": lambda beta: convert_convention(fd_lorenz(beta=beta), Convention.STRATONOVICH),
}


def jacobians_sum(s, w_t, t):
    return (float(np.trace(jacobian_drift(s, np.zeros(3))))
            + float(np.trace(jacobian_diffusion(s))) * w_t / t)


class TestDiagonalTraces:
    """``theoretical_sum`` sums the Jacobians' diagonal entries: the bits of np.trace."""

    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("form", sorted(SYSTEM_FORMS))
    def test_equal_the_jacobians_traces(self, form, beta):
        s = SYSTEM_FORMS[form](beta)
        for w_t, t in [(0.37, 2.0), (-1.25, 0.1), (0.0, 100.0)]:
            assert theoretical_sum(s, w_t, t) == jacobians_sum(s, w_t, t)

    @pytest.mark.parametrize("form", sorted(SYSTEM_FORMS))
    def test_bit_for_bit_over_random_parameters(self, form):
        rng = np.random.default_rng(7)
        for _ in range(300):
            params = LorenzParams(*(10.0 ** rng.uniform(-2, 2, 3)).tolist())
            beta = float(10.0 ** rng.uniform(-3, 1.5))
            s = dataclasses.replace(SYSTEM_FORMS[form](beta), params=params)
            assert theoretical_sum(s, 0.37, 2.0) == jacobians_sum(s, 0.37, 2.0)

    def test_overflowing_beta_raises_every_call(self):
        s = convert_convention(fd_lorenz(beta=1e200), Convention.STRATONOVICH)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"beta = 1e\+200 is too large"):
                theoretical_sum(s, 0.0, 1.0)


def bits(result):
    """Every field of an NleResult as bytes: equal bits, not just equal values."""
    return [np.asarray(getattr(result, f.name)).tobytes()
            for f in dataclasses.fields(result)]


class TestRunOneEqualsItsPhases:
    """The lean run path: ``run_one`` equals ``spin_up`` and then ``run_nle``
    called on a fresh path and a fresh state, on each kernel path."""

    @pytest.mark.parametrize("scheme, mode", [("euler-maruyama", "paper"),
                                              ("heun", "stratonovich-strict")],
                             ids=["em", "heun-strict"])
    @pytest.mark.parametrize("system", ["deterministic", "salt", "fd"])
    def test_bit_for_bit(self, system, scheme, mode, kernel):
        spec = RunSpec(system=system, beta=0.4, seed=9, scheme=scheme, convention_mode=mode,
                       spin_up_steps=400, nle_steps=10_300, sample_every=64)
        got, _ = run_one(spec)
        s, icfg = spec.system_def(), spec.integrator_config()
        path = generate_path(spec.seed, spec.spin_up_steps + spec.nle_steps, spec.dt)
        x0 = np.array(spin_up(s, path, icfg).tolist())
        want = run_nle(s, x0, path, spec.dt, spec.nle_steps, scheme=icfg.scheme,
                       sample_every=spec.sample_every, path_offset=spec.spin_up_steps,
                       allow_convention_mismatch=icfg.allow_convention_mismatch)
        assert bits(got) == bits(want)
        assert np.array_equal(x0, spin_up(s, path, icfg))  # run_nle left x0 alone


def loop_oracle(s, traj, path, offset):
    """The oracle as a per-step loop over the pre-step states."""
    n, dt = len(traj) - 1, path.dt
    acc = 0.0
    for k in range(n):
        acc += float(np.trace(jacobian_drift(s, traj[k]))) * dt
    acc += float(np.trace(jacobian_diffusion(s))) * float(
        np.sum(path.scalar()[offset:offset + n]))
    return acc / (n * dt)


STRICT_FD = convert_convention(fd_lorenz(beta=0.5), Convention.STRATONOVICH)


class TestLiouvilleOracle:
    @pytest.mark.parametrize("s, scheme", [
        (salt_lorenz(beta=0.5), Scheme.EULER_MARUYAMA),
        (fd_lorenz(beta=0.5), Scheme.EULER_MARUYAMA),
        (deterministic_lorenz(), Scheme.EULER_MARUYAMA),
        (STRICT_FD, Scheme.HEUN),
    ], ids=["salt", "fd", "deterministic", "strict-fd-heun"])
    def test_matches_per_step_loop(self, s, scheme, short_path):
        cfg = IntegratorConfig(scheme=scheme, n_steps=3_000,
                               allow_convention_mismatch=True)
        traj = simulate(s, np.array([1.0, 1.0, 1.0]), short_path, cfg, offset=500)
        want = loop_oracle(s, traj, short_path, 500)
        got = liouville_oracle(s, traj, short_path, 500)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("form", sorted(SYSTEM_FORMS))
    def test_bit_for_bit_the_jacobian_stack(self, form, short_path):
        # the oracle's former formula: the Jacobian at every pre-step state
        s = SYSTEM_FORMS[form](0.3)
        traj = simulate(s, np.array([1.0, 1.0, 1.0]), short_path,
                        IntegratorConfig(n_steps=20_000 - 700, allow_convention_mismatch=True),
                        offset=700)
        n, dt = len(traj) - 1, short_path.dt
        stack = np.array([jacobian_drift(s, x) for x in traj[:n]])
        tr0 = np.trace(stack, axis1=1, axis2=2)
        tr1 = float(np.trace(jacobian_diffusion(s)))
        want = (float(np.sum(tr0 * dt))
                + tr1 * float(np.sum(short_path.window(700, n)))) / (n * dt)
        assert liouville_oracle(s, traj, short_path, 700) == want

    def test_deterministic_equals_trace(self, short_path):
        s = deterministic_lorenz()
        traj = simulate(s, np.array([1.0, 1.0, 1.0]), short_path,
                        IntegratorConfig(n_steps=2000))
        got = liouville_oracle(s, traj, short_path)
        assert got == pytest.approx(TRACE, abs=1e-12)

    def test_fd_matches_closed_form(self, short_path):
        s = fd_lorenz(beta=0.4)
        n = 2000
        traj = simulate(s, np.array([1.0, 1.0, 1.0]), short_path,
                        IntegratorConfig(n_steps=n))
        w_t = float(np.sum(short_path.scalar()[:n]))
        t = n * short_path.dt
        got = liouville_oracle(s, traj, short_path)
        assert got == pytest.approx(theoretical_sum(s, w_t, t), abs=1e-10)

    def test_offset_consistency(self, short_path):
        s = fd_lorenz(beta=0.4)
        x0 = spin_up(s, short_path, IntegratorConfig(n_steps=1000))
        traj = simulate(s, x0, short_path, IntegratorConfig(n_steps=1000),
                        offset=1000)
        inc = short_path.scalar()[1000:2000]
        want = TRACE + 3 * 0.4 * float(np.sum(inc)) / (1000 * short_path.dt)
        assert liouville_oracle(s, traj, short_path, 1000) == pytest.approx(
            want, abs=1e-10
        )

    @pytest.mark.parametrize("states, offset", [(12, 0), (10, 2)])
    def test_length_mismatch(self, states, offset):
        s = deterministic_lorenz()
        path = generate_path(1, 10, 0.001)
        with pytest.raises(ValueError, match=r"^path has 10 steps, need 11$"):
            liouville_oracle(s, np.zeros((states, 3)), path, offset)

    @pytest.mark.parametrize("states", [1, 0])
    def test_needs_two_states(self, states):
        path = generate_path(1, 10, 0.001)
        with pytest.raises(ValueError, match=f"needs at least two states, got {states}$"):
            liouville_oracle(fd_lorenz(beta=0.5), np.zeros((states, 3)), path)

    def test_engine_sum_agrees(self, short_path):
        # the Cayley engine and the oracle integrate the same trace identity
        s = fd_lorenz(beta=0.5)
        x0 = spin_up(s, short_path, IntegratorConfig(n_steps=5_000))
        res = run_nle(s, x0, short_path, 0.001, 5_000, path_offset=5_000)
        traj = simulate(s, x0, short_path, IntegratorConfig(n_steps=5_000),
                        offset=5_000)
        oracle = liouville_oracle(s, traj, short_path, 5_000)
        assert res.sum == pytest.approx(oracle, abs=1e-10)


class TestSumIdentityProperties:
    @given(
        sigma=st.floats(1.0, 20.0), r=st.floats(0.5, 50.0), b=st.floats(0.5, 5.0),
        beta=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_engine_oracle_and_identity_agree(self, sigma, r, b, beta, seed):
        p = LorenzParams(sigma, r, b)
        path = generate_path(seed, 250, 0.001)
        strict_fd = convert_convention(fd_lorenz(p, beta), Convention.STRATONOVICH)
        for s, scheme in ((salt_lorenz(p, beta), Scheme.EULER_MARUYAMA),
                          (fd_lorenz(p, beta), Scheme.EULER_MARUYAMA),
                          (strict_fd, Scheme.HEUN)):
            cfg = IntegratorConfig(scheme=scheme, dt=0.001, n_steps=50,
                                   allow_convention_mismatch=True)
            x0 = spin_up(s, path, cfg)
            res = run_nle(s, x0, path, 0.001, 200, scheme=scheme, path_offset=50,
                          allow_convention_mismatch=True)
            traj = simulate(s, x0, path, dataclasses.replace(cfg, n_steps=200), offset=50)
            oracle = liouville_oracle(s, traj, path, 50)
            assert abs(res.sum - oracle) <= 1e-10 * max(1.0, abs(oracle))
            gap = abs(res.sum - theoretical_sum(s, res.w_terminal, res.t_final))
            assert gap == res.trace_residual and gap <= 1e-10
            assert res.ortho_drift <= 1e-12


class TestBoundednessDiagnostics:
    def test_v_minimum_point(self):
        assert lyapunov_function(STD, np.array([0.0, 0.0, 2 * STD.r])) == 0.0

    def test_v_hand_value(self):
        x = np.array([1.0, 0.0, 2 * STD.r])
        assert lyapunov_function(STD, x) == pytest.approx(STD.r)

    def test_v_nonnegative(self, rng):
        for _ in range(50):
            assert lyapunov_function(STD, rng.uniform(-50, 50, 3)) >= 0.0

    def test_residual_center(self):
        assert ellipsoid_residual(STD, np.array([0.0, 0.0, STD.r])) == 1.0

    def test_residual_origin(self):
        assert ellipsoid_residual(STD, np.zeros(3)) == pytest.approx(0.0)

    def test_residual_surface_point(self):
        x = np.array([np.sqrt(STD.b * STD.r), 0.0, STD.r])
        assert ellipsoid_residual(STD, x) == pytest.approx(0.0, abs=1e-14)

    def test_residual_far_outside_negative(self):
        assert ellipsoid_residual(STD, np.array([100.0, 0.0, STD.r])) < -100.0

    def test_residual_is_scaled_v_derivative(self, rng):
        # the residual is exactly Vdot / (2 r^2 sigma b) along the flow
        from stochlyap.models import drift

        s = deterministic_lorenz()
        scale = 2.0 * STD.r**2 * STD.sigma * STD.b
        for _ in range(50):
            x = rng.uniform(-30, 30, 3)
            grad = np.array([
                2.0 * STD.r * x[0],
                2.0 * STD.sigma * x[1],
                2.0 * STD.sigma * (x[2] - 2.0 * STD.r),
            ])
            vdot = float(drift(s, x) @ grad)
            assert ellipsoid_residual(STD, x) == pytest.approx(
                vdot / scale, rel=1e-9, abs=1e-9
            )

    def test_batch_evaluation(self, rng):
        xs = rng.uniform(-30, 30, (10, 3))
        v = lyapunov_function(STD, xs)
        res = ellipsoid_residual(STD, xs)
        assert v.shape == (10,) and res.shape == (10,)
        assert v[3] == pytest.approx(lyapunov_function(STD, xs[3]))
        assert res[3] == pytest.approx(ellipsoid_residual(STD, xs[3]))


def scalar_row(beta, seed, cfg):
    """A sweep row from a SALT and an FD run of ``spin_up`` and ``run_nle``."""
    path = generate_path(seed, cfg.spin_up_steps + cfg.nle_steps, cfg.dt)
    icfg = IntegratorConfig(dt=cfg.dt, n_steps=cfg.spin_up_steps,
                            allow_convention_mismatch=True)
    salt, fd = (run_nle(s, spin_up(s, path, icfg), path, cfg.dt, cfg.nle_steps,
                        sample_every=cfg.sample_every, path_offset=cfg.spin_up_steps,
                        allow_convention_mismatch=True)
                for s in (salt_lorenz(cfg.params, beta), fd_lorenz(cfg.params, beta)))
    return SweepRow(beta, seed, salt.sum, fd.sum, fd.w_terminal / fd.t_final)


@pytest.fixture(scope="module")
def small_cfg():
    return SweepConfig(spin_up_steps=500, nle_steps=1000)


@pytest.fixture(scope="module")
def fixed_rows(small_cfg):
    return sweep_beta(np.array([0.0, 0.3, 0.8]), SweepMode.FIXED_PATH, 7,
                      small_cfg)


class TestSweep:
    def test_rows_sorted_and_tagged(self, fixed_rows):
        assert [row.beta for row in fixed_rows] == [0.0, 0.3, 0.8]
        assert all(row.seed == 7 for row in fixed_rows)

    def test_salt_sum_constant_across_beta(self, fixed_rows):
        for row in fixed_rows:
            assert row.sum_salt == pytest.approx(TRACE, abs=1e-9)

    def test_fd_sum_matches_theory(self, fixed_rows, small_cfg):
        for row in fixed_rows:
            want = theoretical_sum(fd_lorenz(small_cfg.params, row.beta),
                                   row.w_T_over_T, 1.0)
            assert row.sum_fd == pytest.approx(want, abs=1e-9)

    def test_beta_zero_sums_coincide(self, fixed_rows):
        row = fixed_rows[0]
        assert row.sum_salt == pytest.approx(row.sum_fd, abs=1e-12)

    def test_fixed_path_shares_realisation(self, fixed_rows):
        w = {row.w_T_over_T for row in fixed_rows}
        assert len(w) == 1

    def test_fresh_mode_distinct_seeds(self, small_cfg):
        rows = sweep_beta(np.array([0.2, 0.4]), SweepMode.FRESH_PATH_PER_BETA,
                          100, small_cfg)
        assert [row.seed for row in rows] == [100, 101]
        assert rows[0].w_T_over_T != rows[1].w_T_over_T

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sweep_beta(np.array([]), SweepMode.FIXED_PATH, 1)
        with pytest.raises(ValueError):
            sweep_beta(np.array([-0.1]), SweepMode.FIXED_PATH, 1)
        with pytest.raises(ValueError):
            sweep_beta(np.array([np.nan]), SweepMode.FIXED_PATH, 1)
        with pytest.raises(ValueError, match="jobs"):
            sweep_beta(np.array([0.1]), SweepMode.FIXED_PATH, 1, SweepConfig(jobs=0))
        with pytest.raises(ValueError, match="eta"):
            sweep_beta(np.array([0.1]), SweepMode.FIXED_PATH, 1, SweepConfig(eta=1.0))

    def test_sweep_checks_betas_and_jobs_before_any_work(self, monkeypatch):
        calls = []
        monkeypatch.setattr(analysis, "generate_path", lambda *a: calls.append("path"))
        monkeypatch.setattr(analysis.Run, "__init__", lambda *a: calls.append("prepare"))
        monkeypatch.setattr(analysis.threading, "Thread", lambda *a, **k: calls.append("thread"))
        spec = RunSpec(spin_up_steps=10, nle_steps=10)
        with pytest.raises(ValueError, match="^betas must be nonempty$"):
            sweep(spec, [], True, 1)
        for betas in ([-0.1], [0.2, np.nan], np.array([np.inf])):
            with pytest.raises(ValueError, match="^betas must be finite and nonnegative$"):
                sweep(spec, betas, False, 2)
        for jobs in (0, -3):
            with pytest.raises(ValueError, match=f"^jobs must be >= 1, got {jobs}$"):
                sweep(spec, [0.1], True, jobs)
        assert calls == []

    @pytest.mark.parametrize("mode", list(SweepMode))
    def test_rows_match_scalar_runs(self, mode, kernel):
        # each row is a SALT and an FD run on its own path, the very calls of
        # a single run, so the rows equal the scalar runs exactly
        cfg = SweepConfig(spin_up_steps=2_000, nle_steps=3_000, sample_every=70)
        rows = sweep_beta(np.array([0.5, 0.9, 0.2, 0.0]), mode, 3, cfg)
        assert rows == [scalar_row(row.beta, row.seed, cfg) for row in rows]
        assert [row.seed for row in rows] == ([3] * 4 if mode is SweepMode.FIXED_PATH
                                              else [6, 5, 3, 4])

    def test_fixed_rows_are_run_one_on_the_shared_path(self, kernel):
        cfg = SweepConfig(spin_up_steps=300, nle_steps=700, sample_every=70)
        rows = sweep_beta(np.array([0.2, 0.6]), SweepMode.FIXED_PATH, 11, cfg)
        spec = RunSpec(seed=11, spin_up_steps=300, nle_steps=700, sample_every=70)
        path = generate_path(11, 1_000, spec.dt)
        for row in rows:
            salt, _ = run_one(dataclasses.replace(spec, system="salt", beta=row.beta), path)
            fd, _ = run_one(dataclasses.replace(spec, system="fd", beta=row.beta), path)
            assert (row.sum_salt, row.sum_fd) == (salt.sum, fd.sum)

    def test_zero_spin_up_and_single_row(self, kernel):
        cfg = SweepConfig(spin_up_steps=0, nle_steps=500, sample_every=1)
        rows = sweep_beta(np.array([0.7]), SweepMode.FIXED_PATH, 9, cfg)
        assert rows == [scalar_row(0.7, 9, cfg)]

    @pytest.mark.parametrize("field, value", [
        ("nle_steps", 0), ("spin_up_steps", -1), ("dt", float("nan")), ("sample_every", 0)])
    def test_rejects_bad_sizes(self, field, value, kernel):
        cfg = SweepConfig(**{"spin_up_steps": 10, "nle_steps": 10, field: value})
        with pytest.raises(ValueError):
            sweep_beta(np.array([0.1]), SweepMode.FIXED_PATH, 1, cfg)

    @pytest.mark.parametrize("field, value, message", [
        ("nle_steps", 0, "n_steps must be >= 1, got 0"),
        ("sample_every", 0, "sample_every must be >= 1, got 0"),
        ("spin_up_steps", -1, "n_steps must be nonnegative, got -1"),
        ("dt", 0.0, "dt must be positive, got 0.0"),
        ("dt", float("nan"), "dt must be finite, got nan"),
        ("dt", float("inf"), "dt must be finite, got inf"),
        ("dt", 1e-320, "dt must be a normal float, >= 2.2250738585072014e-308, got 1e-320"),
    ])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_checks_sizes_before_any_work(self, field, value, message, jobs, monkeypatch):
        calls = []
        for name in ("spin_up", "generate_path"):
            real = getattr(analysis, name)
            monkeypatch.setattr(analysis, name,
                                lambda *a, real=real, name=name: calls.append(name) or real(*a))
        monkeypatch.setattr(analysis.threading, "Thread",
                            lambda *a, **k: calls.append("thread"))
        cfg = SweepConfig(**{"spin_up_steps": 10, "nle_steps": 10, "jobs": jobs, field: value})
        with pytest.raises(ValueError, match=re.escape(message)):
            sweep_beta(np.array([0.1, 0.2]), SweepMode.FIXED_PATH, 1, cfg)
        assert calls == []

    @pytest.mark.parametrize("n_spin, phase", [(100, "spin-up"), (0, "exponent phase")])
    def test_blow_up_names_phase_step_and_row(self, n_spin, phase, kernel):
        # at dt = 0.5 the first row's SALT run overflows at step 10
        cfg = SweepConfig(dt=0.5, spin_up_steps=n_spin, nle_steps=100)
        with pytest.raises(BlowUpError) as exc:
            sweep_beta(np.array([0.1, 0.3]), SweepMode.FRESH_PATH_PER_BETA, 4, cfg)
        err = exc.value
        assert err.step_index == 10
        assert err.context == f"the {phase} (salt, beta=0.1, seed=4)"
        assert f"step 10 of the {phase}" in str(err)
        assert (err.phase, err.system, err.beta, err.seed) == (phase, "salt", 0.1, 4)
        # the error survives pickling, fields and all
        again = pickle.loads(pickle.dumps(err))
        assert str(again) == str(err)
        assert (again.step_index, again.context) == (err.step_index, err.context)
        assert (again.phase, again.system, again.beta, again.seed) == (phase, "salt", 0.1, 4)
        np.testing.assert_array_equal(again.state, err.state)

    @given(
        sigma=st.floats(1.0, 20.0), r=st.floats(0.5, 50.0), b=st.floats(0.5, 5.0),
        beta=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_property_rows_equal_scalar_runs_and_sum_identities(self, kernel, sigma, r, b,
                                                                 beta, seed):
        cfg = SweepConfig(params=LorenzParams(sigma, r, b), spin_up_steps=50,
                          nle_steps=150, sample_every=50)
        (row,) = sweep_beta(np.array([beta]), SweepMode.FIXED_PATH, seed, cfg)
        assert row == scalar_row(beta, seed, cfg)
        trace = -(sigma + 1.0 + b)
        assert abs(row.sum_salt - trace) <= 1e-10
        assert abs(row.sum_fd - (trace + 3.0 * beta * row.w_T_over_T)) <= 1e-10

    @pytest.mark.parametrize("mode", list(SweepMode))
    def test_sharded_rows_equal_in_process_rows(self, mode, small_cfg):
        betas = np.array([0.9, 0.0, 0.45, 0.2, 0.7])
        serial = sweep_beta(betas, mode, 5, small_cfg)
        sharded = sweep_beta(betas, mode, 5, dataclasses.replace(small_cfg, jobs=2))
        assert sharded == serial

    def test_blow_up_in_a_worker_keeps_its_context(self):
        cfg = SweepConfig(dt=0.5, spin_up_steps=100, nle_steps=100, jobs=2)
        with pytest.raises(BlowUpError, match=r"step \d+ of the spin-up \((salt|fd), beta="):
            sweep_beta(np.array([0.1, 0.2]), SweepMode.FRESH_PATH_PER_BETA, 3, cfg)


class TestThreadedRows:
    """Rows on threads equal the rows run one after another on the calling
    thread, on either kernel path."""

    @pytest.mark.parametrize("mode", list(SweepMode))
    def test_rows_equal_for_every_jobs(self, mode, kernel):
        cfg = SweepConfig(spin_up_steps=300, nle_steps=700, sample_every=50)
        betas = np.array([0.6, 0.0, 0.9, 0.3, 0.45])
        serial = sweep_beta(betas, mode, 11, cfg)
        for jobs in (2, 3, 8):
            assert sweep_beta(betas, mode, 11, dataclasses.replace(cfg, jobs=jobs)) == serial

    def test_concurrent_runs_equal_serial_runs(self, kernel, short_path):
        # a SALT Euler-Maruyama and an FD Heun run, twice each: more runs at
        # once than cores, released together and switched often
        runs = [(salt_lorenz(beta=0.4), Scheme.EULER_MARUYAMA),
                (fd_lorenz(beta=0.7), Scheme.HEUN)] * 2
        start = threading.Barrier(len(runs))

        def run(s, scheme, wait=False):
            if wait:
                start.wait(timeout=60)
            x0 = spin_up(s, short_path, IntegratorConfig(
                scheme=scheme, n_steps=1_000, allow_convention_mismatch=True))
            return run_nle(s, x0, short_path, 0.001, 6_000, scheme=scheme, sample_every=7,
                           path_offset=1_000, allow_convention_mismatch=True)

        serial = [run(s, scheme) for s, scheme in runs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(runs)) as pool:
                futures = [pool.submit(run, s, scheme, True) for s, scheme in runs]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got, want in zip(threaded, serial):
            assert np.array_equal(got.rho_series, want.rho_series)
            assert np.array_equal(got.lambdas, want.lambdas)

    @pytest.mark.parametrize("mode", list(SweepMode))
    def test_blow_up_names_the_first_failing_row_for_every_jobs(self, mode, kernel):
        # at seed 4 the row beta = 0 overflows at step 23 of its SALT
        # spin-up and the row beta = 3 at an earlier step (22 on the fixed
        # path, 21 on its own): the first row in beta order still wins
        cfg = SweepConfig(dt=0.05, spin_up_steps=30, nle_steps=200)
        messages = []
        for jobs in (1, 2, 3):
            with pytest.raises(BlowUpError) as exc:
                sweep_beta(np.array([0.0, 3.0]), mode, 4, dataclasses.replace(cfg, jobs=jobs))
            messages.append(str(exc.value))
        assert messages == [messages[0]] * 3
        assert "at step 23 of the spin-up (salt, beta=0.0, seed=4)" in messages[0]


class TestFanOut:
    """``sweep`` runs its rows on the calling thread and at most jobs - 1
    helper threads, and joins them before it raises."""

    @staticmethod
    def counting_threads(monkeypatch):
        made = []

        class Counted(threading.Thread):
            def __init__(self, *a, **k):
                super().__init__(*a, **k)
                made.append(self)

        monkeypatch.setattr(analysis.threading, "Thread", Counted)
        return made

    @staticmethod
    def recording_runs(monkeypatch):
        runs = []
        real = analysis.Run.advance

        def advance(run, path):
            runs.append((threading.current_thread(), run.s.kind.value, run.s.beta))
            return real(run, path)

        monkeypatch.setattr(analysis.Run, "advance", advance)
        return runs

    CFG = SweepConfig(spin_up_steps=50, nle_steps=100, sample_every=10)
    BETAS = np.array([0.5, 0.1, 0.9, 0.3, 0.7])

    def test_one_job_runs_every_row_on_the_calling_thread(self, monkeypatch):
        made = self.counting_threads(monkeypatch)
        runs = self.recording_runs(monkeypatch)
        rows = sweep_beta(self.BETAS, SweepMode.FIXED_PATH, 3, self.CFG)
        assert made == []
        assert [thread for thread, _, _ in runs] == [threading.main_thread()] * 10
        assert [(system, beta) for _, system, beta in runs] == [
            (system, float(beta)) for beta in self.BETAS for system in ("salt", "fd")]
        assert [row.beta for row in rows] == sorted(self.BETAS)

    @pytest.mark.parametrize("jobs", [2, 3, 8])
    def test_at_most_jobs_minus_one_helpers(self, jobs, monkeypatch):
        made = self.counting_threads(monkeypatch)
        runs = self.recording_runs(monkeypatch)
        cfg = dataclasses.replace(self.CFG, jobs=jobs)
        rows = sweep_beta(self.BETAS, SweepMode.FRESH_PATH_PER_BETA, 3, cfg)
        assert len(made) == min(jobs, len(self.BETAS)) - 1
        assert not any(thread.is_alive() for thread in made)
        assert {thread for thread, _, _ in runs} <= {threading.main_thread(), *made}
        assert sorted(beta for _, system, beta in runs if system == "salt") == sorted(self.BETAS)
        assert rows == sweep_beta(self.BETAS, SweepMode.FRESH_PATH_PER_BETA, 3, self.CFG)

    def test_interrupt_in_the_callers_row_joins_the_helpers_first(self, monkeypatch):
        # the helper's row waits until the caller joins it, and the caller's
        # row raises once the helper holds a row: two rows claimed of four
        made = self.counting_threads(monkeypatch)
        helper_busy, joining = threading.Event(), threading.Event()
        real_join = threading.Thread.join
        monkeypatch.setattr(threading.Thread, "join",
                            lambda self, *a: joining.set() or real_join(self, *a))
        runs = []

        def advance(run, path):
            runs.append((threading.current_thread(), run.s.kind.value, run.s.beta))
            if threading.current_thread() is threading.main_thread():
                assert helper_busy.wait(timeout=60)
                raise KeyboardInterrupt
            helper_busy.set()
            assert joining.wait(timeout=60)

        monkeypatch.setattr(analysis.Run, "advance", advance)
        with pytest.raises(KeyboardInterrupt):
            sweep_beta(np.array([0.1, 0.2, 0.3, 0.4]), SweepMode.FIXED_PATH, 3,
                       dataclasses.replace(self.CFG, jobs=2))
        (helper,) = made
        assert not helper.is_alive()
        claimed = {beta for _, system, beta in runs if system == "salt"}
        assert len(claimed) == 2
        assert [system for thread, system, _ in runs if thread is helper] == ["salt", "fd"]


class TestPreparedRuns:
    """``sweep`` prepares and finishes every run on the calling thread; the
    helpers make kernel calls and, in fresh mode, draw their rows' paths."""

    CFG = TestFanOut.CFG
    BETAS = TestFanOut.BETAS

    @pytest.mark.parametrize("jobs", [2, 3, 8])
    def test_prepare_and_finish_run_on_the_calling_thread(self, jobs, monkeypatch):
        want = sweep_beta(self.BETAS, SweepMode.FIXED_PATH, 3, self.CFG)
        made = TestFanOut.counting_threads(monkeypatch)
        calls = []

        def record(owner, name):
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, **k: calls.append(
                (name, threading.current_thread())) or real(*a, **k))

        record(analysis.RunSpec, "system_def")
        record(integrator, "_kernel_args")  # the Sys block
        record(integrator.Run, "__init__")
        record(analysis, "finish_nle")
        record(cayley, "NleResult")
        rows = sweep_beta(self.BETAS, SweepMode.FIXED_PATH, 3,
                          dataclasses.replace(self.CFG, jobs=jobs))
        assert rows == want
        assert len(made) == min(jobs, len(self.BETAS)) - 1
        assert sorted({name for name, _ in calls}) == [
            "NleResult", "__init__", "_kernel_args", "finish_nle", "system_def"]
        assert all(calls.count((name, threading.main_thread())) == 10
                   for name in ("__init__", "finish_nle", "NleResult"))
        assert {thread for _, thread in calls} == {threading.main_thread()}

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_fresh_rows_hold_at_most_jobs_paths(self, jobs, monkeypatch):
        # each thread drops its row's path before it draws the next one
        paths, live = [], []
        real = analysis.generate_path

        def generate_path(*a):
            live.append(sum(ref() is not None for ref in paths))
            path = real(*a)
            paths.append(weakref.ref(path))
            return path

        monkeypatch.setattr(analysis, "generate_path", generate_path)
        sweep_beta(self.BETAS, SweepMode.FRESH_PATH_PER_BETA, 3,
                   dataclasses.replace(self.CFG, jobs=jobs))
        assert len(live) == len(self.BETAS)
        assert max(live) <= jobs - 1


class TestImports:
    def test_cli_leaves_out_futures_and_logging(self):
        code = ("import sys, stochlyap.cli; "
                "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(analysis.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestFitFdSum:
    def test_exact_line(self):
        rows = [
            SweepRow(beta=b, seed=0, sum_salt=TRACE, sum_fd=TRACE + 2.0 * b,
                     w_T_over_T=0.5)
            for b in (0.0, 0.5, 1.0)
        ]
        fit = fit_fd_sum(rows)
        assert isinstance(fit, RegressionSummary)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(TRACE, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_needs_two_distinct_betas(self):
        row = SweepRow(beta=0.5, seed=0, sum_salt=TRACE, sum_fd=TRACE, w_T_over_T=0.5)
        for rows in ([row], [row, row]):
            with pytest.raises(ValueError, match="two distinct beta"):
                fit_fd_sum(rows)

    def test_refuses_equal_fd_sums(self):
        rows = [SweepRow(beta=b, seed=0, sum_salt=TRACE, sum_fd=TRACE, w_T_over_T=0.5)
                for b in (0.0, 0.5, 1.0)]
        with pytest.raises(ValueError, match="FD sums that vary"):
            fit_fd_sum(rows)

    def test_noisy_line_r_squared(self, rng):
        beta = np.linspace(0.0, 1.0, 50)
        y = TRACE + 3.0 * beta + rng.normal(0.0, 1e-3, 50)
        rows = [
            SweepRow(beta=float(b), seed=0, sum_salt=TRACE, sum_fd=float(v),
                     w_T_over_T=1.0)
            for b, v in zip(beta, y)
        ]
        fit = fit_fd_sum(rows)
        assert fit.slope == pytest.approx(3.0, abs=0.01)
        assert fit.r_squared > 0.999


class TestConvergenceSeries:
    def test_rows_and_final_value(self, short_path):
        s = deterministic_lorenz()
        x0 = spin_up(s, short_path, IntegratorConfig(n_steps=5_000))
        res = run_nle(s, x0, short_path, 0.001, 5_000, path_offset=5_000,
                      sample_every=50)
        series = convergence_series(res)
        assert series.shape == (100, 4)
        np.testing.assert_allclose(series[-1, 1:], res.lambdas, atol=1e-12)
        assert np.all(np.diff(series[:, 1]) <= np.inf)  # finite throughout
        assert np.all(series[:, 1] >= series[:, 2])
        assert np.all(series[:, 2] >= series[:, 3])
