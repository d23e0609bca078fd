import math
import pickle
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stochlyap
from stochlyap import analysis
from stochlyap.cayley import (
    REORTH_EVERY,
    CayleyState,
    _folded_m,
    _frame_increment,
    _increment_at,
    _reorthogonalize,
    _rotate,
    conjugated_jacobians,
    exponents_from_rho,
    inverse_cayley,
    maybe_restart,
    run_nle,
    run_nle_batch,
    step_k_rho,
)
from stochlyap.integrator import (
    SPIN_UP_STATE,
    BlowUpError,
    IntegratorConfig,
    Scheme,
    _float_steps,
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

    def test_blow_up_carries_step_index(self, short_path):
        s = deterministic_lorenz()
        with pytest.raises(BlowUpError) as exc:
            run_nle(s, np.array([1e60, 1e60, 1e60]), short_path, 0.001, 100)
        assert exc.value.step_index == 0

    @pytest.mark.parametrize("scheme", [Scheme.EULER_MARUYAMA, Scheme.HEUN],
                             ids=["em", "heun"])
    def test_blow_up_step_matches_base_trajectory(self, scheme, short_path):
        # dt = 0.5 overflows the FD state; the engine's base step fails where
        # simulate does, and a NaN start fails at step 0
        s, x0 = fd_lorenz(beta=0.5), np.array([1.0, 2.0, 3.0])
        path = generate_path(3, 200, 0.5)
        cfg = IntegratorConfig(scheme, 0.5, 200, allow_convention_mismatch=True)
        with pytest.raises(BlowUpError) as base:
            simulate(s, x0, path, cfg)
        with pytest.raises(BlowUpError) as engine:
            run_nle(s, x0, path, 0.5, 200, scheme=scheme, allow_convention_mismatch=True)
        assert engine.value.step_index == base.value.step_index > 0
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
    """``run_nle``'s step as the closures its loop bodies write out: the base
    step of ``_float_steps``, ``_frame_increment`` and ``_rotate``.  A Heun
    step takes the increment at (x, Q) and at (p, Q cayley(S)), with p the
    predictor, then rho += (d + e) / 2 and Q <- Q cayley((S + T) / 2).
    Returns (rho_series, final frame)."""
    (euler, heun), increment = _float_steps(s, dt), _frame_increment(s, dt)
    x = tuple(np.asarray(x0, dtype=float).tolist())
    q = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    r0 = r1 = r2 = 0.0
    rows = []
    for i, dw in enumerate(path.scalar()[path_offset:path_offset + n_steps].tolist()):
        if scheme is Scheme.HEUN:
            p, x_next = heun(*x, dw)
            d0, d1, d2, s0, s1, s2 = increment(q, *x, dw)
            e0, e1, e2, t0, t1, t2 = increment(_rotate(q, s0, s1, s2), *p, dw)
            r0, r1, r2 = r0 + 0.5 * (d0 + e0), r1 + 0.5 * (d1 + e1), r2 + 0.5 * (d2 + e2)
            q = _rotate(q, 0.5 * (s0 + t0), 0.5 * (s1 + t1), 0.5 * (s2 + t2))
        else:
            x_next = euler(*x, dw)
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


class TestEulerBodyMatchesClosures:
    """run_nle's straight-line Euler and Heun steps against the closures."""

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
    @settings(max_examples=25, deadline=None)
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
            got = _frame_increment(s, 0.001)(tuple(q.ravel().tolist()), *x.tolist(), dw)
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
    euler, heun = _float_steps(s, dt)
    x = tuple(x0)
    for i, dw in enumerate(path.scalar()[:n].tolist()):
        try:
            x = euler(*x, dw) if scheme is Scheme.EULER_MARUYAMA else heun(*x, dw)[1]
        except BlowUpError as err:
            return i, err.state
    return None, np.array(x)


SEGMENT_EDGE_STEPS = 10_500


class TestBlowUpAtSegmentEdges:
    """The loops walk the path in segments that end on a sample (every 100
    steps here), a re-orthogonalisation, a block of increments or the last
    step; a blow-up on either side of each edge names its own step.  A huge
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
    """The entries run_nle's and the integrator's loop bodies skip as zero:
    Df1 and the drift correction at (0, 1), (0, 2), (1, 0) and (2, 0), so the
    folded M at (0, 2), (1, 0), (1, 2), (2, 0) and (2, 1)."""

    @pytest.mark.parametrize("s", EVERY_SYSTEM)
    def test_noise_jacobians_vanish_off_the_pattern(self, s):
        for jac in (jacobian_diffusion(s), jacobian_correction(s)):
            assert [jac[0, 1], jac[0, 2], jac[1, 0], jac[2, 0]] == [0.0] * 4

    @pytest.mark.parametrize("s", EVERY_SYSTEM)
    def test_folded_m_vanishes_where_the_bodies_skip_it(self, s):
        (_, _, e02, k10, _, k12, k20, k21, _), j1, h = _folded_m(s, 0.001)
        assert [e02, k10, k12, k20, k21] == [0.0] * 5
        for rows in (j1, h):  # the diffusion rows, flat
            assert [rows[1], rows[2], rows[3], rows[6]] == [0.0] * 4


def scalar_run(s, seed, dt, n_spin, n_steps, sample_every=100):
    """The per-trajectory reference of the batch: spin_up, then run_nle."""
    path = generate_path(seed, n_spin + n_steps, dt)
    x0 = spin_up(s, path, IntegratorConfig(dt=dt, n_steps=n_spin,
                                           allow_convention_mismatch=True))
    return run_nle(s, x0, path, dt, n_steps, sample_every=sample_every,
                   path_offset=n_spin, allow_convention_mismatch=True)


def assert_matches_scalar(batch, scalar, tol=1e-10):
    np.testing.assert_allclose(batch.lambdas, scalar.lambdas, rtol=0, atol=tol)
    for name in ("sum", "trace_residual", "w_terminal", "t_final", "ortho_drift"):
        assert abs(getattr(batch, name) - getattr(scalar, name)) <= tol, name
    assert batch.rho_series.shape == scalar.rho_series.shape
    np.testing.assert_allclose(batch.rho_series, scalar.rho_series, rtol=0, atol=tol)
    assert batch.restarts == scalar.restarts


# run_nle_batch runs batches below its crossover row by row on run_nle and
# larger ones on the lockstep kernel; each engine path is taken by moving it
ENGINES = ("rows", "lockstep")


def batch_on(engine, *args, **kwargs):
    """``run_nle_batch`` on the given engine path, whatever the batch size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stochlyap.cayley, "_LOCKSTEP_FROM", math.inf if engine == "rows" else 1)
        return run_nle_batch(*args, **kwargs)


def blow_up_on(engine, *args):
    with pytest.raises(BlowUpError) as exc:
        batch_on(engine, *args)
    return exc.value


def assert_same_blow_up(rows, lockstep):
    assert str(rows) == str(lockstep)
    assert rows.step_index == lockstep.step_index
    assert rows.context == lockstep.context


class TestRunNleBatch:
    MIXED = [
        salt_lorenz(beta=0.5), fd_lorenz(beta=0.5), salt_lorenz(beta=0.9),
        fd_lorenz(beta=0.2), deterministic_lorenz(), fd_lorenz(beta=0.0),
    ]

    @pytest.mark.parametrize("seeds", [[3] * 6, [3, 4, 5, 3, 6, 7]],
                             ids=["fixed", "fresh"])
    def test_rows_match_scalar_runs(self, seeds):
        want = [scalar_run(s, seed, 0.001, 2_000, 3_000, 70)
                for s, seed in zip(self.MIXED, seeds)]
        for engine in ENGINES:
            res = batch_on(engine, self.MIXED, seeds, 0.001, 2_000, 3_000, sample_every=70)
            assert len(res) == len(self.MIXED)
            for got, scalar in zip(res, want):
                assert_matches_scalar(got, scalar)

    def test_zero_spin_up_and_single_trajectory(self):
        s = fd_lorenz(beta=0.7)
        want = scalar_run(s, 9, 0.001, 0, 500, 1)
        for engine in ENGINES:
            (got,) = batch_on(engine, [s], [9], 0.001, 0, 500, sample_every=1)
            assert_matches_scalar(got, want)

    def test_crossover_picks_the_engine(self, monkeypatch):
        engine, calls = stochlyap.cayley, []
        rows, blocks = engine._run_rows, engine.increment_blocks
        monkeypatch.setattr(engine, "_run_rows",
                            lambda *a: calls.append("rows") or rows(*a))
        monkeypatch.setattr(engine, "increment_blocks",
                            lambda *a: calls.append("lockstep") or blocks(*a))
        n = engine._LOCKSTEP_FROM
        for b in (n - 1, n):
            assert len(run_nle_batch([salt_lorenz()] * b, [1] * b, 0.001, 10, 20)) == b
        assert calls == ["rows", "lockstep"]

    def test_quoted_crossover_is_the_dispatch_threshold(self):
        # README's analysis and cayley rows and the docstrings quote it
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = [line for line in readme.splitlines()
                if line.startswith(("| `stochlyap.analysis`", "| `stochlyap.cayley`"))]
        assert len(rows) == 2
        for text in [*rows, analysis.__doc__, stochlyap.cayley.__doc__, run_nle_batch.__doc__]:
            below = re.findall(r"below\s+(?:B\s*=\s*)?(\d+)", text, re.IGNORECASE)
            above = re.findall(r"from\s+(?:B\s*=\s*)?(\d+)\s+on", text, re.IGNORECASE)
            assert below and above, text
            assert {int(n) for n in below + above} == {stochlyap.cayley._LOCKSTEP_FROM}, text

    def test_rejects_mixed_params_and_foreign_convention(self):
        other = salt_lorenz(LorenzParams(16.0, 45.92, 4.0), 0.5)
        strat_fd = convert_convention(fd_lorenz(), Convention.STRATONOVICH)
        for engine in ENGINES:
            with pytest.raises(ValueError, match="parameters"):
                batch_on(engine, [salt_lorenz(), other], [1, 1], 0.001, 10, 10)
            with pytest.raises(ValueError, match="native convention"):
                batch_on(engine, [strat_fd], [1], 0.001, 10, 10)

    def test_rejects_bad_sizes(self):
        s = [salt_lorenz()]
        for engine in ENGINES:
            for kwargs in (dict(seeds=[1, 2]), dict(n_steps=0), dict(spin_up_steps=-1),
                           dict(dt=float("nan")), dict(sample_every=0)):
                args = dict(systems=s, seeds=[1], dt=0.001, spin_up_steps=10, n_steps=10)
                with pytest.raises(ValueError):
                    batch_on(engine, **{**args, **kwargs})
            with pytest.raises(ValueError):
                batch_on(engine, [], [], 0.001, 10, 10)

    @pytest.mark.parametrize("n_spin, phase", [(100, "spin-up"), (0, "exponent phase")])
    def test_blow_up_names_phase_step_and_trajectory(self, n_spin, phase):
        systems = [salt_lorenz(beta=0.1), fd_lorenz(beta=0.3)]
        errs = [blow_up_on(engine, systems, [4, 11], 0.5, n_spin, 100)
                for engine in ENGINES]
        for err in errs:
            assert err.context.startswith(f"the {phase} (")
            assert "beta=" in err.context and "seed=" in err.context
            msg = str(err)
            assert f"step {err.step_index} of the {phase}" in msg
            # the error survives a worker process
            again = pickle.loads(pickle.dumps(err))
            assert str(again) == msg and again.step_index == err.step_index
        assert_same_blow_up(*errs)

    @pytest.mark.parametrize("n_spin, phase, salt_first", [
        (0, "exponent phase", False), (14, "spin-up", False), (14, "spin-up", True)],
        ids=["0-exponent phase", "14-spin-up", "14-spin-up-salt-first"])
    def test_blow_up_names_the_earliest_failure(self, n_spin, phase, salt_first,
                                                monkeypatch):
        # at dt = 0.2 the FD row overflows at step 14 and the SALT row at step
        # 13; with 14 spin-up steps the SALT row fails in the earlier phase
        fd, salt = fd_lorenz(beta=2.0), salt_lorenz(beta=0.1)
        systems = [salt, fd] if salt_first else [fd, salt]
        exponent_phases, run = [], stochlyap.cayley.run_nle
        monkeypatch.setattr(stochlyap.cayley, "run_nle", lambda s, *a, **kw:
                            exponent_phases.append(s) or run(s, *a, **kw))
        errs = [blow_up_on(engine, systems, [4, 4], 0.2, n_spin, 100)
                for engine in ENGINES]
        assert errs[0].step_index == 13
        assert errs[0].context == f"the {phase} (salt, beta=0.1, seed=4)"
        assert_same_blow_up(*errs)
        # after a spin-up failure the row path runs no further exponent phase
        ran = systems if phase == "exponent phase" else systems[:systems.index(salt)]
        assert exponent_phases == ran

    @given(
        sigma=st.floats(1.0, 20.0), r=st.floats(0.5, 50.0), b=st.floats(0.5, 5.0),
        beta=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_batch_equals_scalar_and_sum_identities(self, sigma, r, b, beta, seed):
        p = LorenzParams(sigma, r, b)
        systems = [salt_lorenz(p, beta), fd_lorenz(p, beta)]
        want = [scalar_run(s, seed, 0.001, 50, 150, 50) for s in systems]
        trace = -(sigma + 1.0 + b)
        for engine in ENGINES:
            salt, fd = batch_on(engine, systems, [seed, seed], 0.001, 50, 150,
                                sample_every=50)
            for got, scalar in zip((salt, fd), want):
                assert_matches_scalar(got, scalar)
            assert abs(salt.sum - trace) <= 1e-10
            assert abs(fd.sum - (trace + 3.0 * beta * fd.w_terminal / fd.t_final)) <= 1e-10


def test_package_attribute_is_engine_module():
    assert stochlyap.cayley is sys.modules["stochlyap.cayley"]
