import inspect
import re
import shutil
import subprocess
import tomllib
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stochlyap import integrator
from stochlyap.integrator import (
    REORTH_EVERY,
    BlowUpError,
    ConventionMismatchError,
    IntegratorConfig,
    Run,
    SPIN_UP_STATE,
    Scheme,
    _float_steps,
    _kernel_args,
    simulate,
    spin_up,
    step,
)
from stochlyap.models import (
    Convention,
    LorenzParams,
    convert_convention,
    deterministic_lorenz,
    diffusion,
    drift,
    fd_lorenz,
    jacobian_drift,
    salt_lorenz,
)
from stochlyap.wiener import WienerPath, generate_path

EM = Scheme.EULER_MARUYAMA
HEUN = Scheme.HEUN


def cfg(scheme=EM, dt=0.001, n_steps=1, mismatch=False):
    return IntegratorConfig(scheme, dt, n_steps, allow_convention_mismatch=mismatch)


class TestStep:
    def test_deterministic_hand_value(self):
        s = deterministic_lorenz()
        got = step(s, np.array([0.0, 1.0, 0.0]), 0.0, cfg())
        np.testing.assert_allclose(got, [0.01, 0.999, 0.0], atol=1e-15)

    def test_fd_noise_gain(self):
        s = fd_lorenz(beta=0.5)
        got = step(s, np.array([1.0, 0.0, 0.0]), 0.1, cfg())
        # X picks up beta * X * dW = 0.05 on top of the drift move
        drift_only = step(s, np.array([1.0, 0.0, 0.0]), 0.0, cfg())
        assert got[0] - drift_only[0] == pytest.approx(0.05, abs=1e-15)

    def test_em_heun_agree_to_second_order(self):
        s = deterministic_lorenz()
        x = np.array([1.0, 2.0, 3.0])
        diffs = []
        for dt in (1e-3, 1e-4):
            em = step(s, x, 0.0, cfg(EM, dt=dt))
            heun = step(s, x, 0.0, cfg(Scheme.HEUN, dt=dt))
            diffs.append(np.linalg.norm(em - heun))
        ratio = diffs[0] / diffs[1]
        assert 50 < ratio < 200  # O(dt^2) single-step gap

    def test_heun_reduces_to_deterministic_heun(self):
        from stochlyap.models import drift

        s = deterministic_lorenz()
        x = np.array([1.0, 2.0, 3.0])
        dt = 0.01
        pred = x + drift(s, x) * dt
        want = x + 0.5 * (drift(s, x) + drift(s, pred)) * dt
        np.testing.assert_allclose(step(s, x, 0.0, cfg(Scheme.HEUN, dt=dt)), want)

    def test_blow_up_raises(self):
        s = deterministic_lorenz()
        with pytest.raises(BlowUpError) as raised:
            step(s, np.array([1e80, 1e80, 1e80]), 0.0, cfg())
        assert raised.value.step_index == 0  # the one step, numbered as base_loop numbers steps
        assert "at step 0:" in str(raised.value)


def numpy_em(s, x, dw, dt):
    """The Euler-Maruyama step as an ndarray expression of drift and diffusion."""
    return x + drift(s, x) * dt + diffusion(s, x) * dw


def numpy_heun(s, x, dw, dt):
    """The Heun step as ndarray expressions: (predictor, corrected state)."""
    f0, f1 = drift(s, x), diffusion(s, x)
    pred = x + f0 * dt + f1 * dw
    return pred, x + 0.5 * (f0 + drift(s, pred)) * dt + 0.5 * (f1 + diffusion(s, pred)) * dw


def numpy_trajectory(s, x0, path, scheme, dt, n, offset=0):
    """(states, index of the first step whose state fails max|x| <= 1e100)."""
    xs = [np.asarray(x0, dtype=float)]
    for i, dw in enumerate(path.scalar()[offset:offset + n]):
        x = xs[-1]
        nxt = numpy_em(s, x, dw, dt) if scheme is EM else numpy_heun(s, x, dw, dt)[1]
        if not np.abs(nxt).max() <= 1e100:
            return np.array(xs), i
        xs.append(nxt)
    return np.array(xs), None


FORMS = [
    deterministic_lorenz(),
    salt_lorenz(beta=0.5),
    fd_lorenz(beta=0.5),
    convert_convention(salt_lorenz(beta=0.5), Convention.ITO),
    convert_convention(fd_lorenz(beta=0.5), Convention.STRATONOVICH),
]
FORM_IDS = ["deterministic", "salt", "fd", "salt-ito", "fd-strict"]


@pytest.mark.usefixtures("kernel")
class TestFloatStepMatchesNumpy:
    """The base step, on each kernel path, against the ndarray expressions."""

    @pytest.mark.parametrize("scheme", [EM, HEUN], ids=["em", "heun"])
    @pytest.mark.parametrize("s", FORMS, ids=FORM_IDS)
    def test_simulate_and_spin_up_bit_for_bit(self, s, scheme, short_path):
        n = 20_000
        want, failed = numpy_trajectory(s, SPIN_UP_STATE, short_path, scheme, 0.001, n)
        assert failed is None
        c = cfg(scheme, n_steps=n, mismatch=True)
        assert np.array_equal(simulate(s, SPIN_UP_STATE, short_path, c), want)
        assert np.array_equal(spin_up(s, short_path, c), want[-1])

    @pytest.mark.parametrize("s", FORMS, ids=FORM_IDS)
    def test_step_and_heun_step_bit_for_bit(self, s, short_path, rng):
        for dw in short_path.scalar()[:200]:
            x = rng.uniform(-30.0, 30.0, 3)
            assert np.array_equal(step(s, x, dw, cfg()), numpy_em(s, x, dw, 0.001))
            pred, out = _float_steps(_kernel_args(s, 0.001))[0](True, *x.tolist(), float(dw))
            want_pred, want_out = numpy_heun(s, x, dw, 0.001)
            assert np.array_equal(pred, want_pred) and np.array_equal(out, want_out)
            assert np.array_equal(step(s, x, dw, cfg(HEUN)), want_out)

    @given(
        sigma=st.floats(1.0, 20.0), r=st.floats(0.5, 50.0), b=st.floats(0.5, 5.0),
        beta=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_property_bit_for_bit(self, sigma, r, b, beta, seed):
        p = LorenzParams(sigma, r, b)
        path = generate_path(seed, 300, 0.001)
        for s in (salt_lorenz(p, beta), fd_lorenz(p, beta),
                  convert_convention(salt_lorenz(p, beta), Convention.ITO),
                  convert_convention(fd_lorenz(p, beta), Convention.STRATONOVICH)):
            for scheme in (EM, HEUN):
                want, _ = numpy_trajectory(s, SPIN_UP_STATE, path, scheme, 0.001, 300)
                c = cfg(scheme, n_steps=300, mismatch=True)
                got = simulate(s, SPIN_UP_STATE, path, c)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("scheme", [EM, HEUN], ids=["em", "heun"])
    @pytest.mark.parametrize("x0", [[1.0, 2.0, 3.0], [1e99, -1e99, 1e99]], ids=["finite", "1e99"])
    def test_blow_up_at_the_same_step(self, scheme, x0):
        # dt = 0.5 overflows the FD state past 1e100, then to inf and NaN
        s = fd_lorenz(beta=0.5)
        path = generate_path(3, 200, 0.5)
        _, failed = numpy_trajectory(s, x0, path, scheme, 0.5, 200)
        assert failed is not None
        with pytest.raises(BlowUpError) as exc:
            simulate(s, x0, path, cfg(scheme, dt=0.5, n_steps=200, mismatch=True))
        assert exc.value.step_index == failed

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_state_fails_at_step_zero(self, bad, short_path):
        s = salt_lorenz(beta=0.5)
        x0 = np.array([1.0, bad, 3.0])
        for scheme in (EM, HEUN):
            with pytest.raises(BlowUpError) as exc:
                simulate(s, x0, short_path, cfg(scheme, n_steps=10, mismatch=True))
            assert exc.value.step_index == 0
            with pytest.raises(BlowUpError):
                step(s, x0, 0.01, cfg(scheme))


class TestIntegratorConfig:
    def test_rejects_nonpositive_and_nan_dt(self):
        for dt in (0.0, -1e-3, float("nan")):
            with pytest.raises(ValueError, match="dt"):
                cfg(dt=dt)

    @pytest.mark.parametrize("dt", [float("inf"), float("-inf"), float("nan")])
    def test_rejects_non_finite_dt(self, dt):
        with pytest.raises(ValueError, match=f"^dt must be finite, got {dt}$"):
            IntegratorConfig(dt=dt)

    @pytest.mark.parametrize("dt", [1e-320, 5e-324, 2.225073858507201e-308])
    def test_rejects_subnormal_dt(self, dt):
        with pytest.raises(ValueError, match=f"^dt must be a normal float, .* got {dt}$"):
            IntegratorConfig(dt=dt)

    def test_accepts_the_smallest_normal_dt(self):
        assert IntegratorConfig(dt=2.2250738585072014e-308).dt == 2.2250738585072014e-308


class TestConventionCheck:
    def test_em_rejects_stratonovich(self):
        s = salt_lorenz(beta=0.5)
        path = generate_path(1, 10, 0.001)
        with pytest.raises(ConventionMismatchError):
            simulate(s, SPIN_UP_STATE, path, cfg(n_steps=5))

    def test_em_accepts_converted_salt(self, short_path):
        s = convert_convention(salt_lorenz(beta=0.5), Convention.ITO)
        simulate(s, SPIN_UP_STATE, short_path, cfg(n_steps=5))

    def test_mismatch_override(self, short_path):
        s = salt_lorenz(beta=0.5)
        simulate(s, SPIN_UP_STATE, short_path, cfg(n_steps=5, mismatch=True))

    def test_heun_rejects_ito(self, short_path):
        s = fd_lorenz(beta=0.5)
        with pytest.raises(ConventionMismatchError):
            simulate(s, SPIN_UP_STATE, short_path, cfg(Scheme.HEUN, n_steps=5))

    def test_zero_beta_always_allowed(self, short_path):
        s = salt_lorenz(beta=0.0)
        simulate(s, SPIN_UP_STATE, short_path, cfg(n_steps=5))


class TestSimulate:
    def test_zero_steps(self, short_path):
        s = deterministic_lorenz()
        traj = simulate(s, np.array([1.0, 2.0, 3.0]), short_path, cfg(n_steps=0))
        assert traj.shape == (1, 3)
        np.testing.assert_array_equal(traj[0], [1.0, 2.0, 3.0])

    def test_determinism_bit_exact(self, short_path):
        s = fd_lorenz(beta=0.5)
        a = simulate(s, SPIN_UP_STATE, short_path, cfg(n_steps=5000))
        b = simulate(s, SPIN_UP_STATE, short_path, cfg(n_steps=5000))
        np.testing.assert_array_equal(a, b)

    def test_bounded_trajectory(self, short_path):
        s = deterministic_lorenz()
        traj = simulate(s, SPIN_UP_STATE, short_path, cfg(n_steps=20_000))
        assert np.max(np.abs(traj)) < 1e3

    def test_salt_vs_fd_diverge_quickly(self, short_path):
        salt = salt_lorenz(beta=0.5)
        fd = fd_lorenz(beta=0.5)
        a = simulate(salt, SPIN_UP_STATE, short_path, cfg(n_steps=1000, mismatch=True))
        b = simulate(fd, SPIN_UP_STATE, short_path, cfg(n_steps=1000))
        gap = np.max(np.abs(a - b), axis=1)
        assert np.any(gap > 1e-9)

    def test_beta_zero_salt_equals_deterministic(self, short_path):
        a = simulate(salt_lorenz(beta=0.0), SPIN_UP_STATE, short_path, cfg(n_steps=2000))
        b = simulate(deterministic_lorenz(), SPIN_UP_STATE, short_path, cfg(n_steps=2000))
        np.testing.assert_array_equal(a, b)

    def test_strided_increments(self, short_path):
        # the kernel reads the increments through a pointer
        inc = short_path.increments[:3000]
        strided = WienerPath(1, 0.001, np.repeat(inc, 2)[::2])
        assert strided.increments.flags.c_contiguous
        c = cfg(n_steps=3000, mismatch=True)
        s = salt_lorenz(beta=0.5)
        assert np.array_equal(simulate(s, SPIN_UP_STATE, strided, c),
                              simulate(s, SPIN_UP_STATE, WienerPath(1, 0.001, inc), c))

    def test_path_too_short(self):
        s = deterministic_lorenz()
        path = generate_path(1, 10, 0.001)
        with pytest.raises(ValueError):
            simulate(s, SPIN_UP_STATE, path, cfg(n_steps=11))

    def test_python_loop_memory_stays_flat(self, monkeypatch):
        # the trajectory's array takes 4.8 MB; the loop stores it 1024 states
        # at a time instead of holding every state as a tuple
        n = 200_000
        s, c = salt_lorenz(beta=0.5), cfg(n_steps=n, mismatch=True)
        path = generate_path(5, n, 0.001)
        want = simulate(s, SPIN_UP_STATE, path, c)  # on the step kernel
        monkeypatch.setattr(integrator, "_kernel", integrator._PythonKernel)
        tracemalloc.start()
        try:
            got = simulate(s, SPIN_UP_STATE, path, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 24 * (n + 1)
        assert np.array_equal(got, want)


class TestSpinUp:
    def test_keeps_no_trajectory(self):
        # simulate's 20k states alone take 480 kB, over twice the bound
        s = salt_lorenz(beta=0.5)
        path = generate_path(5, 20_000, 0.001)
        c = cfg(n_steps=20_000, mismatch=True)
        tracemalloc.start()
        try:
            x = spin_up(s, path, c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200_000
        assert np.array_equal(x, simulate(s, SPIN_UP_STATE, path, c)[-1])

    @pytest.mark.parametrize("scheme", [EM, HEUN], ids=["em", "heun"])
    def test_blow_up_at_simulates_step(self, scheme):
        s = fd_lorenz(beta=0.5)
        path = generate_path(3, 200, 0.5)
        c = cfg(scheme, dt=0.5, n_steps=200, mismatch=True)
        with pytest.raises(BlowUpError) as want:
            simulate(s, SPIN_UP_STATE, path, c)
        with pytest.raises(BlowUpError) as got:
            spin_up(s, path, c)
        assert got.value.step_index == want.value.step_index
        assert np.array_equal(got.value.state, want.value.state, equal_nan=True)

    def test_determinism(self, short_path):
        s = salt_lorenz(beta=0.5)
        c = cfg(n_steps=10_000, mismatch=True)
        a = spin_up(s, short_path, c)
        b = spin_up(s, short_path, c)
        np.testing.assert_array_equal(a, b)

    def test_lands_in_absorbing_region(self, short_path):
        from stochlyap.analysis import lyapunov_function

        s = deterministic_lorenz()
        x = spin_up(s, short_path, cfg(n_steps=20_000))
        # well inside the V-level set that bounds the attractor
        assert lyapunov_function(s.params, x) < 4.0 * s.params.r**2 * s.params.sigma


class TestWeakOrder:
    def test_em_mean_matches_linearized_moment(self):
        # frozen linear system: dx = A x dt + beta x dW with A the Lorenz
        # Jacobian at the origin; the EM mean recursion is exactly
        # (I + A dt)^n x0, estimated here over 10^4 paths
        s = fd_lorenz(beta=0.5)
        a = jacobian_drift(deterministic_lorenz(), np.zeros(3))
        dt, n, npaths = 0.001, 100, 10_000
        increments = np.sqrt(dt) * np.random.Generator(np.random.Philox(99)).standard_normal(
            (n, npaths))
        x = np.tile(np.array([1.0, 1.0, 1.0])[:, None], (1, npaths))
        for k in range(n):
            dW = increments[k]
            x = x + dt * (a @ x) + s.beta * x * dW
        exact = np.linalg.matrix_power(np.eye(3) + dt * a, n) @ np.ones(3)
        mean = x.mean(axis=1)
        stderr = x.std(axis=1) / np.sqrt(npaths)
        np.testing.assert_array_less(np.abs(mean - exact), 3.0 * stderr + 1e-12)


def pair_systems(scheme, beta):
    """A sweep row's SALT and FD systems: paper-mode Euler-Maruyama takes
    their native forms, strict Heun their Stratonovich ones."""
    systems = salt_lorenz(beta=beta), fd_lorenz(beta=beta)
    if scheme is HEUN:
        systems = tuple(convert_convention(s, Convention.STRATONOVICH) for s in systems)
    return systems


def new_runs(systems, scheme, dt, spin, n_steps, every=10, trajectory=False):
    """Runs of systems as a sweep row prepares them, their series filled
    with a sentinel so that rows left unwritten compare too; with
    trajectory, spin-up runs that store their states."""
    c = cfg(scheme, dt, spin, mismatch=scheme is EM)
    runs = [Run(s, c, n_steps=n_steps, sample_every=every,
                out=np.full((spin, 3), -7.0) if trajectory else None) for s in systems]
    for run in runs:
        run.series[:] = -7.0
    return runs


def outcome(run):
    """What advance leaves in a run, as bytes where it is floats."""
    return (run.state.tobytes(), run.series.tobytes(), run.failed, run.phase, run.seed,
            float(run.w_terminal).hex(), None if run.out is None else run.out.tobytes())


@pytest.mark.usefixtures("kernel")
class TestPairedRuns:
    """``Run.advance(path, partner)`` steps two runs as the two lanes of the
    kernel's calls and leaves each as advancing it alone does, bit for bit."""

    @staticmethod
    def check(systems, scheme, dt, spin, n_steps, seed, **kw):
        path = generate_path(seed, spin + n_steps, dt)
        alone = new_runs(systems, scheme, dt, spin, n_steps, **kw)
        for run in alone:
            run.advance(path)
        first, second = new_runs(systems, scheme, dt, spin, n_steps, **kw)
        first.advance(path, second)
        assert [outcome(first), outcome(second)] == [outcome(run) for run in alone]
        return [(run.phase, run.failed) for run in alone]

    @pytest.mark.parametrize("scheme", [EM, HEUN], ids=["paper-em", "strict-heun"])
    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
    def test_a_salt_and_fd_row(self, scheme, beta):
        runs = self.check(pair_systems(scheme, beta), scheme, 0.001, 300, 1000, 7, every=7)
        assert runs == [("", -1)] * 2

    @pytest.mark.parametrize("scheme", [EM, HEUN], ids=["paper-em", "strict-heun"])
    def test_past_a_reorthogonalisation(self, scheme):
        systems = pair_systems(scheme, 0.5)
        assert self.check(systems, scheme, 0.001, 100, REORTH_EVERY + 500, 3, every=100) == [
            ("", -1)] * 2

    # (scheme, dt, beta, seed, spin-up, exponent steps): the SALT and FD runs'
    # (phase, failing step) alone; each case runs in both lane orders
    FAILURES = {
        "salt-spin-up": ((EM, 0.02, 0.5, 2, 300, 100), [("spin-up", 62), ("", -1)]),
        "salt-exponent": ((EM, 0.02, 0.5, 2, 30, 200), [("exponent phase", 32), ("", -1)]),
        "fd-exponent": ((EM, 0.02, 0.5, 1, 300, 100), [("", -1), ("exponent phase", 16)]),
        "both-spin-up": ((EM, 0.02, 1.5, 1, 300, 100), [("spin-up", 94), ("spin-up", 86)]),
        "both-exponent": ((EM, 0.02, 1.5, 1, 30, 200),
                          [("exponent phase", 64), ("exponent phase", 56)]),
        "both-each-phase": ((EM, 0.05, 3.0, 3, 30, 200),
                            [("spin-up", 25), ("exponent phase", 0)]),
        # the rows of test_cli's BLOW_UP_SWEEP, beta = 0 and 3
        "same-step": ((EM, 0.05, 0.0, 4, 30, 200), [("spin-up", 23), ("spin-up", 23)]),
        "blow-up-sweep": ((EM, 0.05, 3.0, 4, 30, 200), [("spin-up", 22), ("exponent phase", 11)]),
        "heun-salt-spin-up": ((HEUN, 0.02, 3.0, 3, 300, 100), [("spin-up", 40), ("", -1)]),
        "heun-salt-exponent": ((HEUN, 0.02, 3.0, 1, 30, 200),
                               [("exponent phase", 66), ("", -1)]),
        "heun-both-spin-up": ((HEUN, 0.02, 3.0, 1, 300, 100), [("spin-up", 96), ("spin-up", 295)]),
        "heun-both-exponent": ((HEUN, 0.02, 3.0, 2, 30, 200),
                               [("exponent phase", 26), ("exponent phase", 8)]),
        "dt-0.5": ((EM, 0.5, 2.0, 8, 100, 200), [("spin-up", 10), ("spin-up", 9)]),
    }

    @pytest.mark.parametrize("lanes", ["salt-fd", "fd-salt"])
    @pytest.mark.parametrize("case", list(FAILURES))
    def test_failures_in_either_lane(self, case, lanes):
        (scheme, dt, beta, seed, spin, n_steps), want = self.FAILURES[case]
        order = slice(None) if lanes == "salt-fd" else slice(None, None, -1)
        got = self.check(pair_systems(scheme, beta)[order], scheme, dt, spin, n_steps, seed)
        assert got == want[order]

    def test_two_trajectories(self):
        # the SALT trajectory overflows at step 62; the FD one runs on
        systems = pair_systems(EM, 0.5)
        got = self.check(systems, EM, 0.02, 300, 0, 2, trajectory=True)
        assert got == [("trajectory", 62), ("", -1)]

    @pytest.mark.parametrize("name, value", [
        ("scheme", HEUN), ("dt", 0.002), ("spin", 299), ("n_steps", 999), ("every", 5),
        ("offset", 1),
    ])
    def test_a_partner_that_steps_otherwise_is_refused(self, name, value):
        def run(s, scheme=EM, dt=0.001, spin=300, n_steps=1000, every=10, offset=0):
            return Run(s, cfg(scheme, dt, spin, mismatch=True), offset=offset, n_steps=n_steps,
                       sample_every=every)

        salt, fd = pair_systems(EM, 0.5)
        first, partner = run(salt), run(fd, **{name: value})
        with pytest.raises(ValueError, match="a partner run must step as the run does"):
            first.advance(generate_path(1, 2000, 0.001), partner)
        assert first.failed == partner.failed == -1 and not hasattr(first, "seed")

    def test_a_run_is_not_its_own_partner(self):
        run = Run(fd_lorenz(beta=0.5), cfg(n_steps=10), n_steps=10)
        with pytest.raises(ValueError, match="own partner"):
            run.advance(generate_path(1, 20, 0.001), run)


class TestKernelLoader:
    """The step kernel is built once per source and command into the cache
    directory and loaded; where that fails the loader gives None."""

    def test_concurrent_loads_leave_one_library(self, tmp_path, monkeypatch):
        monkeypatch.setattr(integrator, "_KERNEL_CACHE", tmp_path)
        with ThreadPoolExecutor(max_workers=4) as pool:
            kernels = list(pool.map(lambda _: integrator._load_kernel(), range(4),
                                    timeout=300))
        assert all(k is not None for k in kernels)
        (lib,) = tmp_path.iterdir()  # no temporary files are left
        assert lib.match("_kernel-*.so")

    def test_a_build_deletes_the_older_libraries(self, tmp_path, monkeypatch):
        monkeypatch.setattr(integrator, "_KERNEL_CACHE", tmp_path)
        assert integrator._load_kernel() is not None
        (old,) = tmp_path.iterdir()
        # another process's build in flight, and a file that is not a library
        others = {tmp_path / f"{old.stem}-abc123.tmp", tmp_path / "notes.txt"}
        for other in others:
            other.touch()
        monkeypatch.setattr(integrator, "_CFLAGS", (*integrator._CFLAGS, "-g0"))
        assert integrator._load_kernel() is not None
        (new,) = set(tmp_path.iterdir()) - others
        assert new != old and new.match("_kernel-*.so")

    def test_a_failed_build_keeps_the_library(self, tmp_path, monkeypatch):
        monkeypatch.setattr(integrator, "_KERNEL_CACHE", tmp_path)
        assert integrator._load_kernel() is not None
        libs = list(tmp_path.iterdir())
        monkeypatch.setattr(integrator, "_CC", "false")
        assert integrator._load_kernel() is None
        assert list(tmp_path.iterdir()) == libs

    @pytest.mark.parametrize("compiler, cache", [
        ("no-such-compiler", "cache"), ("false", "cache"), ("cc", "file/cache"),
    ], ids=["missing", "failing", "cache-not-a-directory"])
    def test_failed_build_gives_none(self, compiler, cache, tmp_path, monkeypatch):
        (tmp_path / "file").touch()
        (tmp_path / "cache").mkdir()
        monkeypatch.setattr(integrator, "_CC", compiler)
        monkeypatch.setattr(integrator, "_KERNEL_CACHE", tmp_path / cache)
        assert integrator._load_kernel() is None
        assert not any((tmp_path / "cache").iterdir())

    @pytest.mark.parametrize("name", ["base_loop", "frame_loop", "repr_rows"])
    def test_entry_points_agree_on_their_parameters(self, name):
        # ctypes passes a call of the wrong arity on without a word; the twin
        # names the Sys blocks s and s2 args and args2
        kernel = integrator._kernel()
        assert not isinstance(kernel, integrator._PythonKernel), "the step kernel did not build"
        sources = "".join(source.read_text() for source in integrator._KERNEL_SOURCES)
        (params,) = re.findall(rf"\blong {name}\(([^)]*)\)\s*{{", sources)  # the definition
        names = [re.findall(r"\w+", param)[-1] for param in params.split(",")]
        twin = list(inspect.signature(getattr(integrator._PythonKernel, name)).parameters)
        assert [{"s": "args", "s2": "args2"}.get(n, n) for n in names] == twin
        assert len(names) == len(getattr(kernel, name).argtypes)

    def test_each_step_function_is_defined_once(self):
        # one body for both widths: no second copy of a step for the lane pair
        sources = "".join(source.read_text() for source in integrator._KERNEL_SOURCES)
        for name in ("coefficients", "base_step", "bounded", "frame_increment", "rotate"):
            assert len(re.findall(rf"\b{name}\([^;{{]*\)\s*{{", sources)) == 1, name

    def test_the_library_defines_only_the_entry_points(self):
        kernel = integrator._kernel()
        assert not isinstance(kernel, integrator._PythonKernel), "the step kernel did not build"
        assert shutil.which("nm"), "nm lists the library's symbols"
        listing = subprocess.run(["nm", "-D", "--defined-only", kernel._name],
                                 capture_output=True, text=True, check=True).stdout
        assert sorted(line.split()[-1] for line in listing.splitlines()) == [
            "base_loop", "frame_loop", "repr_rows"]

    def test_package_data_ships_the_source(self):
        # a source a non-editable install lacks fails the build: it runs in Python
        root = Path(__file__).resolve().parents[1]
        pyproject = tomllib.loads((root / "pyproject.toml").read_text())
        shipped = pyproject["tool"]["setuptools"]["package-data"]["stochlyap"]
        assert integrator._KERNEL_SOURCES
        for source in integrator._KERNEL_SOURCES:
            assert source.parent == Path(integrator.__file__).parent
            assert source.name in shipped
