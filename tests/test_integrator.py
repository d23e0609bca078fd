import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochlyap.integrator import (
    BlowUpError,
    ConventionMismatchError,
    IntegratorConfig,
    SPIN_UP_STATE,
    Scheme,
    _segments,
    heun_step,
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
from stochlyap.wiener import _BLOCK_STEPS, generate_path

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
        with pytest.raises(BlowUpError):
            step(s, np.array([1e80, 1e80, 1e80]), 0.0, cfg())


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


class TestFloatStepMatchesNumpy:
    """The float base step against the ndarray expressions it replaced."""

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
            pred, out = heun_step(s, x, dw, 0.001)
            want_pred, want_out = numpy_heun(s, x, dw, 0.001)
            assert np.array_equal(pred, want_pred) and np.array_equal(out, want_out)
            assert np.array_equal(step(s, x, dw, cfg(HEUN)), want_out)

    @given(
        sigma=st.floats(1.0, 20.0), r=st.floats(0.5, 50.0), b=st.floats(0.5, 5.0),
        beta=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
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

    def test_path_too_short(self):
        s = deterministic_lorenz()
        path = generate_path(1, 10, 0.001)
        with pytest.raises(ValueError):
            simulate(s, SPIN_UP_STATE, path, cfg(n_steps=11))


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


@pytest.mark.parametrize("start, n", [(0, 2500), (1000, 1100), (7, 0), (2499, 1)])
def test_segments_cross_blocks(start, n):
    # the loops read the increments from start as floats, a block at a time
    path = generate_path(5, 2500, 0.01)
    pieces = list(_segments(path.scalar()[start:start + n]))
    got = [dw for _, _, dws in pieces for dw in dws]
    assert got == path.increments[start:start + n].tolist()
    assert all(type(v) is float for v in got)
    block_ends = [*range(_BLOCK_STEPS, n, _BLOCK_STEPS), n]
    assert [hi for _, hi, _ in pieces] == block_ends[:len(pieces)]


@pytest.mark.parametrize("n, every", [(10_500, (100, 10_000)), (10_500, (1,)),
                                      (2049, (7,)), (5, (10,)), (0, (3,))])
def test_segments_end_at_every_event(n, every):
    inc = np.arange(n, dtype=float)
    pieces = list(_segments(inc, *every))
    assert [lo for lo, _, _ in pieces] == [0, *(hi for _, hi, _ in pieces)][:len(pieces)]
    assert all(dws == inc[lo:hi].tolist() for lo, hi, dws in pieces)
    ends = {hi for _, hi, _ in pieces}
    assert ends == {k for k in range(1, n + 1)
                    if k == n or any(k % e == 0 for e in (*every, _BLOCK_STEPS))}
