import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stochlyap
from stochlyap.cayley import (
    CayleyState,
    _increment_at,
    conjugated_jacobians,
    exponents_from_rho,
    inverse_cayley,
    maybe_restart,
    run_nle,
    step_k_rho,
)
from stochlyap.integrator import (
    REORTH_EVERY,
    SPIN_UP_STATE,
    BlowUpError,
    IntegratorConfig,
    Scheme,
    _float_steps,
    _kernel_args,
    _reorthogonalize,
    _rotate,
    simulate,
    spin_up,
    step,
)
from stochlyap.models import (
    Convention,
    LorenzParams,
    NoiseKind,
    SystemDef,
    convert_convention,
    deterministic_lorenz,
    fd_lorenz,
    jacobian_correction,
    jacobian_diffusion,
    jacobian_drift,
    salt_lorenz,
)
from stochlyap.smallmat import SkewMat3, _cayley_entries, cayley, frobenius, qr_decompose
from stochlyap.wiener import WienerPath, generate_path


def random_skew(rng, scale=0.3):
    return SkewMat3(rng.uniform(-scale, scale, 3))


def random_orthogonal(rng):
    return cayley(random_skew(rng))


class TestConjugatedJacobians:
    def test_identity_is_noop(self):
        s = salt_lorenz(beta=0.5)
        x = np.array([1.0, 2.0, 3.0])
        j0, j1 = conjugated_jacobians(s, x, np.eye(3))
        np.testing.assert_array_equal(j0, jacobian_drift(s, x))

    def test_traces_preserved(self, rng):
        s = fd_lorenz(beta=0.5)
        for _ in range(20):
            x = rng.uniform(-20, 20, 3)
            q = random_orthogonal(rng)
            j0, j1 = conjugated_jacobians(s, x, q)
            assert np.trace(j0) == pytest.approx(
                np.trace(jacobian_drift(s, x)), abs=1e-12
            )
            assert np.trace(j1) == pytest.approx(3 * 0.5, abs=1e-12)

    def test_drift_trace_reference_value(self, rng):
        s = deterministic_lorenz()
        j0, _ = conjugated_jacobians(
            s, rng.uniform(-20, 20, 3), random_orthogonal(rng)
        )
        assert np.trace(j0) == pytest.approx(-13.6667, abs=5e-5)


class TestStepKRho:
    def test_at_zero_k_deterministic(self, rng):
        # at K = 0 with no noise: drho is the diagonal of j0*dt and the K
        # step carries -(1/2) of the skew part of the strictly lower triangle
        j0 = rng.uniform(-5, 5, (3, 3))
        dt = 1e-3
        cs = step_k_rho(CayleyState(), j0, np.zeros((3, 3)), dt, 0.0)
        np.testing.assert_allclose(cs.rho, np.diagonal(j0) * dt, atol=1e-15)
        a = j0 * dt
        want = -0.5 * np.array([a[1, 0], a[2, 0], a[2, 1]])
        np.testing.assert_allclose(cs.k.lower, want, atol=1e-12)
        assert cs.step == 1

    def test_zero_increment_is_identity(self, rng):
        start = CayleyState(k=random_skew(rng), rho=np.array([1.0, 2.0, 3.0]))
        cs = step_k_rho(start, rng.uniform(-5, 5, (3, 3)), np.zeros((3, 3)), 0.0, 0.0)
        np.testing.assert_allclose(cs.k.lower, start.k.lower, atol=1e-14)
        np.testing.assert_array_equal(cs.rho, start.rho)
        assert cs.step == start.step + 1

    def test_per_step_liouville_identity(self, rng):
        # sum of the rho increments equals trace(j0) dt + trace(j1) dW,
        # whatever the current K; this is the robustness mechanism
        dt = 1e-3
        for _ in range(200):
            cs = CayleyState(k=random_skew(rng, scale=0.4))
            j0 = rng.uniform(-20, 20, (3, 3))
            j1 = rng.uniform(-2, 2, (3, 3))
            dW = rng.normal(0.0, np.sqrt(dt))
            out = step_k_rho(cs, j0, j1, dt, dW)
            want = np.trace(j0) * dt + np.trace(j1) * dW
            scale = max(abs(want), 1.0)
            assert abs(np.sum(out.rho) - want) <= 1e-12 * scale


class TestRestart:
    def test_below_threshold_unchanged(self):
        cs = CayleyState(k=SkewMat3(np.array([0.05, 0.05, 0.0])))
        assert maybe_restart(cs, 0.8) is cs

    def test_restart_resets_k_and_counts(self, rng):
        k = SkewMat3(np.array([0.6, 0.0, 0.0]))
        cs = CayleyState(k=k, rho=np.array([1.0, -2.0, 3.0]))
        out = maybe_restart(cs, 0.8)
        assert out.k.norm() == 0.0
        assert out.restarts == 1
        np.testing.assert_array_equal(out.rho, cs.rho)  # rho carries over
        assert frobenius(out.q_accum.T @ out.q_accum - np.eye(3)) <= 1e-10

    def test_eta_validation(self):
        with pytest.raises(ValueError):
            maybe_restart(CayleyState(), 1.5)


class TestExponentsFromRho:
    def test_division(self):
        np.testing.assert_allclose(
            exponents_from_rho(np.array([1.0, 0.0, -2.0]), 2.0), [0.5, 0.0, -1.0]
        )

    def test_zero(self):
        np.testing.assert_array_equal(
            exponents_from_rho(np.zeros(3), 5.0), np.zeros(3)
        )

    def test_sorted_descending(self):
        out = exponents_from_rho(np.array([-3.0, 5.0, 1.0]), 1.0)
        np.testing.assert_array_equal(out, [5.0, 1.0, -3.0])

    def test_nonpositive_time(self):
        with pytest.raises(ValueError):
            exponents_from_rho(np.zeros(3), 0.0)


class TestInverseCayley:
    def test_roundtrip(self, rng):
        for _ in range(50):
            k = random_skew(rng, scale=0.5)
            np.testing.assert_allclose(
                inverse_cayley(cayley(k)).lower, k.lower, atol=1e-12
            )


class TestRunNle:
    def test_result_invariants(self, short_path):
        s = deterministic_lorenz()
        x0 = spin_up(s, short_path, IntegratorConfig(n_steps=10_000))
        res = run_nle(s, x0, short_path, 0.001, 10_000, path_offset=10_000)
        assert res.sum == pytest.approx(float(np.sum(res.lambdas)), abs=1e-12)
        assert np.all(np.diff(res.rho_series[:, 0]) > 0)
        assert res.rho_series[-1, 0] == pytest.approx(res.t_final)
        assert res.restarts > 0
        assert res.ortho_drift <= 1e-10
        assert res.trace_residual <= 1e-10

    def test_determinism(self, short_path):
        s = fd_lorenz(beta=0.5)
        x0 = spin_up(s, short_path, IntegratorConfig(n_steps=5_000))
        a = run_nle(s, x0, short_path, 0.001, 5_000, path_offset=5_000)
        b = run_nle(s, x0, short_path, 0.001, 5_000, path_offset=5_000)
        np.testing.assert_array_equal(a.lambdas, b.lambdas)

    def test_eta_invariance(self, short_path, reference_nle):
        # the reference stepper at two thresholds restarts a different number
        # of times; the kernel, which restarts every step, matches both
        s = salt_lorenz(beta=0.5)
        cfg = IntegratorConfig(n_steps=5_000, allow_convention_mismatch=True)
        x0 = spin_up(s, short_path, cfg)
        a, restarts_a = reference_nle(s, x0, short_path, 0.001, 10_000, 0.5, 5_000)
        b, restarts_b = reference_nle(s, x0, short_path, 0.001, 10_000, 0.8, 5_000)
        assert restarts_a > restarts_b > 0
        np.testing.assert_allclose(a, b, atol=1e-9)
        res = run_nle(s, x0, short_path, 0.001, 10_000, path_offset=5_000,
                      allow_convention_mismatch=True)
        np.testing.assert_allclose(res.lambdas, a, atol=1e-9)
        np.testing.assert_allclose(res.lambdas, b, atol=1e-9)

    @pytest.mark.parametrize("system", [
        salt_lorenz(beta=0.5), fd_lorenz(beta=0.5), deterministic_lorenz(),
    ], ids=["salt", "fd", "deterministic"])
    def test_matches_reference_stepper(self, system, short_path, reference_nle):
        cfg = IntegratorConfig(n_steps=5_000, allow_convention_mismatch=True)
        x0 = spin_up(system, short_path, cfg)
        want, _ = reference_nle(system, x0, short_path, 0.001, 10_000, 0.8, 5_000)
        res = run_nle(system, x0, short_path, 0.001, 10_000, path_offset=5_000,
                      allow_convention_mismatch=True)
        np.testing.assert_allclose(res.lambdas, want, rtol=0, atol=1e-12)
        assert res.restarts == 10_000

    def test_heun_matches_pinned_values(self, short_path):
        # exponents of the K/eta engine this kernel replaced, on the same input
        s = salt_lorenz(beta=0.5)
        x0 = spin_up(s, short_path, IntegratorConfig(scheme=Scheme.HEUN, n_steps=5_000))
        res = run_nle(s, x0, short_path, 0.001, 10_000, scheme=Scheme.HEUN,
                      path_offset=5_000)
        want = [0.5364754832675234, -0.8760765871749664, -13.32706556275922]
        np.testing.assert_allclose(res.lambdas, want, rtol=0, atol=1e-10)
        assert res.trace_residual <= 1e-10

    def test_rejects_bad_eta_and_sampling(self, short_path):
        s = deterministic_lorenz()
        x0 = np.array([1.0, 1.0, 20.0])
        with pytest.raises(ValueError, match="eta"):
            run_nle(s, x0, short_path, 0.001, 100, eta=float("nan"))
        with pytest.raises(ValueError, match="sample_every"):
            run_nle(s, x0, short_path, 0.001, 100, sample_every=0)

    def test_rejects_a_state_of_other_size(self, short_path, kernel):
        # the kernel reads three components through a pointer
        s = deterministic_lorenz()
        for x0 in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
            with pytest.raises(ValueError, match="3 components"):
                run_nle(s, np.array(x0), short_path, 0.001, 100)
            with pytest.raises(ValueError):
                simulate(s, np.array(x0), short_path, IntegratorConfig(n_steps=100))

    def test_rejects_a_window_outside_the_path(self, short_path, kernel):
        # the kernel reads the increments through a pointer
        s = deterministic_lorenz()
        x0 = np.array([1.0, 1.0, 20.0])
        with pytest.raises(ValueError, match=r"^offset must be >= 0, got -5$"):
            run_nle(s, x0, short_path, 0.001, 10, path_offset=-5)
        with pytest.raises(ValueError, match=r"^offset must be >= 0, got -1$"):
            simulate(s, x0, short_path, IntegratorConfig(n_steps=10), offset=-1)
        n = len(short_path)
        with pytest.raises(ValueError, match=f"^path has {n} steps, need {n + 1}$"):
            run_nle(s, x0, short_path, 0.001, 10, path_offset=n - 9)

    def test_blow_up_carries_step_index(self, short_path):
        s = deterministic_lorenz()
        with pytest.raises(BlowUpError) as exc:
            run_nle(s, np.array([1e60, 1e60, 1e60]), short_path, 0.001, 100)
        assert exc.value.step_index == 0

    @pytest.mark.parametrize("scheme", [Scheme.EULER_MARUYAMA, Scheme.HEUN],
                             ids=["em", "heun"])
    def test_blow_up_step_matches_base_trajectory(self, scheme, short_path):
        # dt = 0.5 overflows the FD state; the engine's base step fails where
        # simulate does, each error (spin_up's too) names its phase and path,
        # and a NaN start fails at step 0
        s, x0 = fd_lorenz(beta=0.5), np.array([1.0, 2.0, 3.0])
        path = generate_path(3, 200, 0.5)
        cfg = IntegratorConfig(scheme, 0.5, 200, allow_convention_mismatch=True)
        with pytest.raises(BlowUpError) as spun:
            spin_up(s, path, cfg)
        with pytest.raises(BlowUpError) as base:
            simulate(s, x0, path, cfg)
        with pytest.raises(BlowUpError) as engine:
            run_nle(s, x0, path, 0.5, 200, scheme=scheme, allow_convention_mismatch=True)
        assert engine.value.step_index == base.value.step_index > 0
        for exc, phase in ((spun, "spin-up"), (base, "trajectory"), (engine, "exponent phase")):
            err = exc.value
            assert err.context == f"the {phase} (fd, beta=0.5, seed=3)"
            assert (err.phase, err.system, err.beta, err.seed) == (phase, "fd", 0.5, 3)
        with pytest.raises(BlowUpError) as exc:
            run_nle(s, np.array([1.0, float("nan"), 3.0]), short_path, 0.001, 10,
                    scheme=scheme, allow_convention_mismatch=True)
        assert exc.value.step_index == 0

    def test_salt_sum_matches_deterministic(self, short_path):
        s = salt_lorenz(beta=0.5)
        cfg = IntegratorConfig(n_steps=5_000, allow_convention_mismatch=True)
        x0 = spin_up(s, short_path, cfg)
        res = run_nle(
            s, x0, short_path, 0.001, 10_000,
            path_offset=5_000, allow_convention_mismatch=True,
        )
        assert res.sum == pytest.approx(-(10.0 + 1.0 + 8.0 / 3.0), abs=1e-10)

    def test_against_benettin_qr_oracle(self):
        # independent check: Euler tangent propagation with periodic QR
        # re-orthonormalization, reading exponents off the R diagonals
        s = deterministic_lorenz()
        dt, n_spin, n = 0.001, 20_000, 50_000
        path = generate_path(5, n_spin + n, dt)
        x0 = spin_up(s, path, IntegratorConfig(n_steps=n_spin))
        res = run_nle(s, x0, path, dt, n, path_offset=n_spin)

        x = np.asarray(x0, dtype=float)
        v = np.eye(3)
        logs = np.zeros(3)
        cfg = IntegratorConfig(dt=dt, n_steps=1)
        for i in range(n):
            v = v + dt * jacobian_drift(s, x) @ v
            if (i + 1) % 10 == 0:
                q, r = qr_decompose(v)
                logs += np.log(np.diagonal(r))
                v = q
            x = step(s, x, 0.0, cfg)
        q, r = qr_decompose(v)
        logs += np.log(np.diagonal(r))
        oracle = np.sort(logs / (n * dt))[::-1]
        # both are first-order discretizations of the same tangent flow, so
        # agreement is limited by the O(dt) bias and finite-time fluctuation
        np.testing.assert_allclose(res.lambdas, oracle, atol=0.2)

    def test_heun_mode_runs(self, short_path):
        from stochlyap.models import Convention, convert_convention

        s = convert_convention(fd_lorenz(beta=0.3), Convention.STRATONOVICH)
        cfg = IntegratorConfig(
            scheme=Scheme.HEUN, n_steps=5_000, allow_convention_mismatch=False
        )
        x0 = spin_up(s, short_path, cfg)
        res = run_nle(
            s, x0, short_path, 0.001, 5_000,
            scheme=Scheme.HEUN, path_offset=5_000,
        )
        assert np.all(np.isfinite(res.lambdas))


def closure_nle(s, x0, path, dt, n_steps, path_offset=0, sample_every=100,
                scheme=Scheme.EULER_MARUYAMA):
    """``run_nle``'s step on the closures that mirror the step kernel: the
    base step and frame increment of ``_float_steps``, and ``_rotate``.  A Heun
    step takes the increment at (x, Q) and at (p, Q cayley(S)), with p the
    predictor, then rho += (d + e) / 2 and Q <- Q cayley((S + T) / 2).
    Returns (rho_series, final frame)."""
    base_step, _, increment, _ = _float_steps(_kernel_args(s, dt))
    x = tuple(np.asarray(x0, dtype=float).tolist())
    q = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    r0 = r1 = r2 = 0.0
    rows = []
    for i, dw in enumerate(path.scalar()[path_offset:path_offset + n_steps].tolist()):
        if scheme is Scheme.HEUN:
            p, x_next = base_step(True, *x, dw)
            d0, d1, d2, s0, s1, s2 = increment(q, *x, dw)
            e0, e1, e2, t0, t1, t2 = increment(_rotate(q, s0, s1, s2), *p, dw)
            r0, r1, r2 = r0 + 0.5 * (d0 + e0), r1 + 0.5 * (d1 + e1), r2 + 0.5 * (d2 + e2)
            q = _rotate(q, 0.5 * (s0 + t0), 0.5 * (s1 + t1), 0.5 * (s2 + t2))
        else:
            x_next = base_step(False, *x, dw)[1]
            d0, d1, d2, s0, s1, s2 = increment(q, *x, dw)
            r0, r1, r2 = r0 + d0, r1 + d1, r2 + d2
            q = _rotate(q, s0, s1, s2)
        if (i + 1) % REORTH_EVERY == 0:
            q = tuple(_reorthogonalize(np.array(q).reshape(3, 3)).ravel().tolist())
        x = x_next
        if (i + 1) % sample_every == 0 or i + 1 == n_steps:
            rows.append(((i + 1) * dt, r0, r1, r2))
    return np.array(rows), np.array(q).reshape(3, 3)


def assert_body_matches_closures(s, x0, path, dt, n_steps, path_offset=0,
                                 sample_every=100, scheme=Scheme.EULER_MARUYAMA):
    res = run_nle(s, x0, path, dt, n_steps, sample_every=sample_every, scheme=scheme,
                  path_offset=path_offset, allow_convention_mismatch=True)
    series, q = closure_nle(s, x0, path, dt, n_steps, path_offset, sample_every, scheme)
    assert np.array_equal(res.rho_series, series)
    assert np.array_equal(res.lambdas, exponents_from_rho(series[-1, 1:], n_steps * dt))
    assert res.ortho_drift == frobenius(q.T @ q - np.eye(3))
    # every other field, by the numpy formulas the engine once spelled out
    t, w = n_steps * dt, float(np.sum(path.window(path_offset, n_steps)))
    assert np.array_equal(res.lambdas, np.sort(series[-1, 1:] / t)[::-1])
    assert res.sum == float(np.sum(res.lambdas))
    d = q.T @ q - np.eye(3)
    assert res.ortho_drift == float(np.sqrt(np.sum(d * d)))
    assert (res.t_final, res.w_terminal, res.restarts) == (t, w, n_steps)
    theory = (float(np.trace(jacobian_drift(s, np.zeros(3))))
              + float(np.trace(jacobian_diffusion(s))) * w / t)
    assert res.trace_residual == abs(res.sum - theory)


FORMS = [
    deterministic_lorenz(),
    deterministic_lorenz(LorenzParams(16.0, 45.92, 4.0)),
    salt_lorenz(beta=0.5),
    fd_lorenz(beta=0.5),
    convert_convention(salt_lorenz(beta=0.5), Convention.ITO),
    convert_convention(fd_lorenz(beta=0.5), Convention.STRATONOVICH),
]
FORM_IDS = ["deterministic", "table2", "salt", "fd", "salt-ito", "fd-strict"]
# every form under each scheme; Euler cases keep the bare form ids
SCHEME_FORMS = [
    pytest.param(s, scheme, id=prefix + i)
    for scheme, prefix in ((Scheme.EULER_MARUYAMA, ""), (Scheme.HEUN, "heun-"))
    for s, i in zip(FORMS, FORM_IDS)
]


@pytest.mark.usefixtures("kernel")
class TestEulerBodyMatchesClosures:
    """run_nle's Euler and Heun steps, on each kernel path, against the closures."""

    @pytest.mark.parametrize("s, scheme", SCHEME_FORMS)
    def test_bit_for_bit_past_reorthogonalization(self, s, scheme, short_path):
        n = REORTH_EVERY + 500
        cfg = IntegratorConfig(n_steps=2_000, allow_convention_mismatch=True)
        x0 = spin_up(s, short_path, cfg)
        assert_body_matches_closures(s, x0, short_path, 0.001, n, 2_000, 37, scheme)

    @given(
        sigma=st.floats(1.0, 20.0), r=st.floats(0.5, 50.0), b=st.floats(0.5, 5.0),
        beta=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_property_bit_for_bit(self, sigma, r, b, beta, seed):
        p = LorenzParams(sigma, r, b)
        path = generate_path(seed, 300, 0.001)
        for s in (deterministic_lorenz(p), salt_lorenz(p, beta), fd_lorenz(p, beta),
                  convert_convention(salt_lorenz(p, beta), Convention.ITO),
                  convert_convention(fd_lorenz(p, beta), Convention.STRATONOVICH)):
            for scheme in Scheme:
                assert_body_matches_closures(s, SPIN_UP_STATE, path, 0.001, 300,
                                             sample_every=7, scheme=scheme)

    @pytest.mark.parametrize("s", FORMS, ids=FORM_IDS)
    def test_frame_increment_folds_m_as_the_ndarray_form(self, s, rng):
        # the folded constants of M against A = Q^T (Df0 dt + Df1 dW) Q
        for _ in range(50):
            q, x = random_orthogonal(rng), rng.uniform(-30.0, 30.0, 3)
            dw = float(rng.normal(0.0, 0.03))
            increment = _float_steps(_kernel_args(s, 0.001))[2]
            got = increment(tuple(q.ravel().tolist()), *x.tolist(), dw)
            s_lower, drho = _increment_at(q, jacobian_drift(s, x), jacobian_diffusion(s),
                                          0.001, dw)
            np.testing.assert_allclose(got, [*drho, *s_lower], rtol=0, atol=1e-15)

    def test_rotate_uses_the_cayley_entries(self, rng):
        for _ in range(50):
            q = random_orthogonal(rng).ravel().tolist()
            s0, s1, s2 = rng.uniform(-0.3, 0.3, 3).tolist()
            num, den = _cayley_entries(s0, s1, s2)
            c = [[v / den for v in row] for row in num]
            want = [q[3 * i] * c[0][j] + q[3 * i + 1] * c[1][j] + q[3 * i + 2] * c[2][j]
                    for i in range(3) for j in range(3)]
            assert _rotate(q, s0, s1, s2) == tuple(want)


def reference_blow_up(s, x0, path, scheme, dt, n):
    """(step index, state) of the first state of a ``_float_steps`` loop that
    fails the bound, or (None, end state)."""
    base_step, bounded, _, _ = _float_steps(_kernel_args(s, dt))
    x = tuple(x0)
    for i, dw in enumerate(path.scalar()[:n].tolist()):
        x = base_step(scheme is Scheme.HEUN, *x, dw)[1]
        if not bounded(*x):
            return i, np.array(x)
    return None, np.array(x)


SEGMENT_EDGE_STEPS = 10_500


@pytest.mark.usefixtures("kernel")
class TestBlowUpAtSegmentEdges:
    """On each kernel path, a blow-up on either side of a sample of rho
    (every 100 steps here), of the end of a kernel call at a
    re-orthogonalisation, or of the last step names its own step.  A huge
    increment overflows FD to large positive states under Heun, SALT to
    large negative ones."""

    @pytest.mark.parametrize("scheme", [Scheme.EULER_MARUYAMA, Scheme.HEUN],
                             ids=["em", "heun"])
    @pytest.mark.parametrize("s, k, dw", [
        *((fd_lorenz(beta=0.5), k, 1e120) for k in (
            0, 99, 100, 1023, 1024, 9999, 10_000, SEGMENT_EDGE_STEPS - 1)),
        (fd_lorenz(beta=0.5), 1024, -1e120),
        (fd_lorenz(beta=0.5), 1024, float("nan")),
        (salt_lorenz(beta=0.5), 1023, 1e120),
    ], ids=lambda v: v.kind.value if isinstance(v, SystemDef) else None)
    def test_step_and_state_match_the_reference(self, s, k, dw, scheme):
        n = SEGMENT_EDGE_STEPS
        inc = generate_path(11, n, 0.001).increments.copy()
        inc[k] = dw
        path = WienerPath(11, 0.001, inc)
        want_step, want_state = reference_blow_up(s, SPIN_UP_STATE, path, scheme, 0.001, n)
        assert want_step == k
        cfg = IntegratorConfig(scheme, 0.001, n, allow_convention_mismatch=True)
        for run in (lambda: simulate(s, SPIN_UP_STATE, path, cfg),
                    lambda: spin_up(s, path, cfg),
                    lambda: run_nle(s, SPIN_UP_STATE, path, 0.001, n, scheme=scheme,
                                    allow_convention_mismatch=True)):
            with pytest.raises(BlowUpError) as exc:
                run()
            assert exc.value.step_index == k
            np.testing.assert_array_equal(exc.value.state, want_state)


# every noise kind in each convention, at beta = 0 and beta > 0: the five
# forms above and any kind added later
EVERY_SYSTEM = [
    pytest.param(SystemDef(LorenzParams(), kind, beta, convention),
                 id=f"{kind.value}-{convention.value}-{beta}")
    for kind in NoiseKind for convention in Convention
    for beta in ((0.0,) if kind is NoiseKind.NONE else (0.0, 0.5))
]


class TestStructuralZeros:
    """The entries the step kernel skips as zero:
    Df1 and the drift correction's factor at (0, 1), (0, 2), (1, 0) and
    (2, 0), and the convention correction at (0, 2), (1, 0), (1, 2), (2, 0)
    and (2, 1)."""

    @pytest.mark.parametrize("s", EVERY_SYSTEM)
    def test_noise_jacobians_vanish_off_the_pattern(self, s):
        for jac in (jacobian_diffusion(s), jacobian_correction(s)):
            assert [jac[0, 1], jac[0, 2], jac[1, 0], jac[2, 0]] == [0.0] * 4

    @pytest.mark.parametrize("s", EVERY_SYSTEM)
    def test_correction_vanishes_where_the_frame_step_skips_it(self, s):
        k = jacobian_correction(s)
        assert [k[0, 2], k[1, 0], k[1, 2], k[2, 0], k[2, 1]] == [0.0] * 5


# FD below the convection threshold on the default protocol, on the compiled
# kernel over the grid and on its Python twin at one point of it
CLOSED_FORM_CASES = [("c", r, beta, seed, strict) for r in (0.5, 0.9) for beta in (0.0, 0.5, 1.0)
                     for seed in (1, 2, 3) for strict in (False, True)]
CLOSED_FORM_CASES.append(("python", 0.5, 0.5, 1, False))


class TestClosedFormBelowConvection:
    """For r < 1 every trajectory falls into the origin, where both noises
    vanish and the variational equation has the constant drift Jacobian A =
    Df0(0).  FD's Df1 = beta I commutes with A, so over a window of length
    tau, with W the path's increment over it, the exponents are mu_i +
    beta W / tau in paper mode (the algorithm's rho increment has no Ito
    term) and mu_i - beta^2 / 2 + beta W / tau in strict Heun, mu being A's
    eigenvalues (-(sigma + 1) +- sqrt((sigma - 1)^2 + 4 sigma r)) / 2 and
    -b.  The window is the rho series' second half, after the frame has
    turned to A's eigenvectors.  Worst errors measured: 2.65e-10 at r = 0.9,
    beta = 0, and 3.2e-12 for beta > 0."""

    @pytest.mark.parametrize("kernel, r, beta, seed, strict", CLOSED_FORM_CASES,
                             indirect=["kernel"])
    def test_fd_exponents_over_the_second_half(self, kernel, r, beta, seed, strict):
        dt, n_spin, n = 0.001, 50_000, 100_000
        p = LorenzParams(r=r)
        s, scheme = fd_lorenz(p, beta), Scheme.HEUN if strict else Scheme.EULER_MARUYAMA
        if strict:
            s = convert_convention(s, Convention.STRATONOVICH)
        path = generate_path(seed, n_spin + n, dt)
        x0 = spin_up(s, path, IntegratorConfig(scheme, dt, n_spin))
        res = run_nle(s, x0, path, dt, n, scheme=scheme, path_offset=n_spin)
        series, tau = res.rho_series, n // 2 * dt
        mid, end = series[n // 2 // 100 - 1], series[-1]  # sampled every 100 steps
        assert (mid[0], end[0]) == (tau, 2 * tau)
        got = np.sort((end[1:] - mid[1:]) / tau)
        w = float(path.increments[n_spin + n // 2:].sum())
        root = np.sqrt((p.sigma - 1) ** 2 + 4 * p.sigma * r)
        mu = np.sort([(-(p.sigma + 1) - root) / 2, -p.b, (-(p.sigma + 1) + root) / 2])
        want = mu - (beta**2 / 2 if strict else 0.0) + beta * w / tau
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_package_attribute_is_engine_module():
    assert stochlyap.cayley is sys.modules["stochlyap.cayley"]
