"""End-to-end acceptance suite.

One test per headline claim, each printing a single pass/fail line.  The
exponent-sum checks exploit that the discrete sum identity is exact at
every step, so they run at reduced length; the spectrum and threshold
invariance checks use the full reference protocol (50000 spin-up steps +
100000 exponent steps at dt = 0.001, eta = 0.8, Euler-Maruyama).
"""

import numpy as np
import pytest

from stochlyap.analysis import (
    RunSpec,
    SweepConfig,
    SweepMode,
    ellipsoid_residual,
    fit_fd_sum,
    liouville_oracle,
    lyapunov_function,
    run_one,
    sweep_beta,
    theoretical_sum,
)
from stochlyap.cayley import CayleyState, run_nle, step_k_rho
from stochlyap.integrator import IntegratorConfig, simulate, spin_up
from stochlyap.models import (
    LorenzParams,
    SystemDef,
    deterministic_lorenz,
    diffusion,
    drift,
    fd_lorenz,
    jacobian_diffusion,
    jacobian_drift,
    salt_lorenz,
)
from stochlyap.smallmat import SkewMat3, cayley, frobenius, qr_decompose
from stochlyap.wiener import generate_path

DT = 0.001
SPIN = 50_000
NLE = 100_000
ETA = 0.8
STD = LorenzParams()
STD_SUM = -(STD.sigma + 1.0 + STD.b)


def report(num: int, title: str, ok: bool) -> None:
    print(f"criterion {num} ({title}): {'PASS' if ok else 'FAIL'}")


def full_run(s: SystemDef, seed: int = 1, eta: float = ETA):
    path = generate_path(seed, SPIN + NLE, DT)
    icfg = IntegratorConfig(dt=DT, n_steps=SPIN, allow_convention_mismatch=True)
    x0 = spin_up(s, path, icfg)
    return run_nle(
        s, x0, path, DT, NLE, eta,
        path_offset=SPIN, allow_convention_mismatch=True,
    )


def short_run(s: SystemDef, seed: int, n_spin: int = 2_000, n_nle: int = 5_000):
    path = generate_path(seed, n_spin + n_nle, DT)
    icfg = IntegratorConfig(dt=DT, n_steps=n_spin, allow_convention_mismatch=True)
    x0 = spin_up(s, path, icfg)
    res = run_nle(
        s, x0, path, DT, n_nle, ETA,
        path_offset=n_spin, allow_convention_mismatch=True,
    )
    return res, path, x0, n_spin, n_nle


@pytest.fixture(scope="module")
def table1_result():
    return full_run(deterministic_lorenz())


@pytest.fixture(scope="module")
def table2_result():
    return full_run(deterministic_lorenz(LorenzParams(16.0, 45.92, 4.0)))


def test_criterion_1_standard_parameter_spectrum(table1_result):
    res = table1_result
    sum_ok = abs(res.sum - (-13.6665)) <= 5e-4
    l1_ok = abs(res.lambdas[0] - 0.9056) <= 0.15
    l3_ok = abs(res.lambdas[2] - (-14.5721)) <= 0.3
    report(1, "deterministic spectrum, standard parameters",
           sum_ok and l1_ok and l3_ok)
    assert sum_ok, f"sum {res.sum}"
    assert l1_ok, f"lambda1 {res.lambdas[0]}"
    assert l3_ok, f"lambda3 {res.lambdas[2]}"


def test_criterion_2_alternate_parameter_spectrum(table2_result):
    res = table2_result
    sum_ok = abs(res.sum - (-20.9998)) <= 5e-4
    l1_ok = abs(res.lambdas[0] - 1.50) <= 0.15
    report(2, "deterministic spectrum, sigma=16 r=45.92 b=4", sum_ok and l1_ok)
    assert sum_ok, f"sum {res.sum}"
    assert l1_ok, f"lambda1 {res.lambdas[0]}"


@pytest.mark.parametrize("params, l1, l1_tol, l3", [
    ((10.0, 28.0, 8.0 / 3.0), 0.9056, 0.005, -14.5723),  # Sprott (2003)
    ((16.0, 45.92, 4.0), 1.50, 0.015, None),  # Wolf et al. (1985), two decimals
])
def test_deterministic_spectrum_to_the_literature_under_heun(params, l1, l1_tol, l3):
    # Heun at dt = 5e-4 over T = 1000 meets the literature spectra to ~1e-3, and
    # lambda_2 = 0 exactly for a flow whose attractor is not a fixed point
    sigma, r, b = params
    res, _ = run_one(RunSpec(system="deterministic", sigma=sigma, r=r, b=b, scheme="heun",
                             dt=5e-4, nle_steps=2_000_000))
    assert abs(res.lambdas[0] - l1) <= l1_tol, f"lambda1 {res.lambdas[0]}"
    assert abs(res.lambdas[1]) <= 0.005, f"lambda2 {res.lambdas[1]}"
    assert l3 is None or abs(res.lambdas[2] - l3) <= 0.005, f"lambda3 {res.lambdas[2]}"


def test_criterion_3_transport_noise_sum_invariance():
    sums = [
        short_run(salt_lorenz(beta=0.5), seed)[0].sum for seed in range(1, 11)
    ]
    sums += [
        short_run(salt_lorenz(beta=beta), 1)[0].sum for beta in (0.1, 1.0)
    ]
    ok = all(abs(v - STD_SUM) <= 1e-3 for v in sums)
    report(3, "transport-noise sum invariant over seeds and amplitudes", ok)
    assert ok, f"worst deviation {max(abs(v - STD_SUM) for v in sums)}"


def test_criterion_4_fd_noise_finite_time_sum():
    res, _, _, _, _ = short_run(fd_lorenz(beta=0.5), seed=1)
    want = theoretical_sum(fd_lorenz(beta=0.5), res.w_terminal, res.t_final)
    ok = abs(res.sum - want) < 1e-3
    report(4, "fd-noise sum tracks -(sigma+1+b) + 3 beta W_T/T", ok)
    assert ok, f"sum {res.sum} vs theory {want}"


def test_criterion_5_discrete_determinant_identity():
    rng = np.random.Generator(np.random.Philox(2024))
    worst = 0.0
    for _ in range(10_000):
        cs = CayleyState(k=SkewMat3(rng.uniform(-0.3, 0.3, 3)))
        j0 = rng.uniform(-30.0, 30.0, (3, 3))
        j1 = rng.uniform(-3.0, 3.0, (3, 3))
        dW = rng.normal(0.0, np.sqrt(DT))
        out = step_k_rho(cs, j0, j1, DT, dW)
        want = np.trace(j0) * DT + np.trace(j1) * dW
        worst = max(worst, abs(np.sum(out.rho) - want) / max(abs(want), 1.0))
    per_step_ok = worst < 1e-12

    s = fd_lorenz(beta=0.5)
    res, path, x0, n_spin, n_nle = short_run(s, seed=1)
    traj = simulate(
        s, x0, path,
        IntegratorConfig(dt=DT, n_steps=n_nle), offset=n_spin,
    )
    oracle = liouville_oracle(s, traj, path, n_spin)
    full_ok = abs(res.sum - oracle) / abs(oracle) < 1e-10
    report(5, "per-step and full-run log-determinant identity",
           per_step_ok and full_ok)
    assert per_step_ok, f"worst per-step residual {worst}"
    assert full_ok, f"sum {res.sum} vs oracle {oracle}"


def test_criterion_6_fixed_path_amplitude_sweep():
    cfg = SweepConfig(spin_up_steps=500, nle_steps=1_000)
    rows = sweep_beta(
        np.linspace(0.0, 1.0, 100), SweepMode.FIXED_PATH, 1, cfg
    )
    fit = fit_fd_sum(rows)
    w = rows[0].w_T_over_T
    slope_ok = abs(fit.slope - 3.0 * w) <= 0.01 * abs(3.0 * w)
    r2_ok = fit.r_squared > 0.999
    salt_std = float(np.std([row.sum_salt for row in rows], ddof=1))
    salt_ok = salt_std < 1e-6
    report(6, "fd sum linear in amplitude along one path, transport sum flat",
           slope_ok and r2_ok and salt_ok)
    assert r2_ok, f"R^2 {fit.r_squared}"
    assert slope_ok, f"slope {fit.slope} vs 3 W_T/T {3 * w}"
    assert salt_ok, f"salt-sum std {salt_std}"


def test_criterion_7_restart_threshold_invariance(reference_nle):
    # the K/eta reference stepper at two thresholds, and the frame kernel,
    # which is that stepper restarted after every step
    s = salt_lorenz(beta=0.5)
    path = generate_path(1, SPIN + NLE, DT)
    icfg = IntegratorConfig(dt=DT, n_steps=SPIN, allow_convention_mismatch=True)
    x0 = spin_up(s, path, icfg)
    a, restarts_a = reference_nle(s, x0, path, DT, NLE, 0.5, SPIN)
    b, restarts_b = reference_nle(s, x0, path, DT, NLE, 0.8, SPIN)
    kernel = full_run(s).lambdas
    diff = max(float(np.max(np.abs(u - v))) for u, v in ((a, b), (kernel, a), (kernel, b)))
    ok = diff <= 1e-6 and restarts_a != restarts_b
    report(7, "exponents independent of the restart threshold", ok)
    assert ok, f"max exponent difference {diff} (restarts {restarts_a} vs {restarts_b})"


def test_criterion_8_structural_properties(table1_result):
    rng = np.random.Generator(np.random.Philox(77))

    qr_ok = True
    for _ in range(100):
        m = rng.uniform(-5.0, 5.0, (3, 3))
        if abs(np.linalg.det(m)) < 1e-3:
            continue
        q, r = qr_decompose(m)
        qr_ok &= frobenius(m - q @ r) <= 1e-12 * max(frobenius(m), 1.0)
        qr_ok &= frobenius(q.T @ q - np.eye(3)) <= 1e-12

    cayley_ok = True
    skew_ok = True
    for _ in range(100):
        k = SkewMat3(rng.uniform(-0.5, 0.5, 3))
        km = k.matrix()
        skew_ok &= bool(np.all(km + km.T == 0.0))
        q = cayley(k)
        cayley_ok &= frobenius(q.T @ q - np.eye(3)) <= 1e-12

    jac_ok = True
    h = 1e-6
    for s in (deterministic_lorenz(), salt_lorenz(beta=0.5), fd_lorenz(beta=0.5)):
        for _ in range(100):
            x = rng.uniform(-20.0, 20.0, 3)
            fd0 = np.empty((3, 3))
            fd1 = np.empty((3, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd0[:, j] = (drift(s, x + e) - drift(s, x - e)) / (2 * h)
                fd1[:, j] = (diffusion(s, x + e) - diffusion(s, x - e)) / (2 * h)
            jac_ok &= bool(np.max(np.abs(jacobian_drift(s, x) - fd0)) <= 1e-5)
            jac_ok &= bool(np.max(np.abs(jacobian_diffusion(s) - fd1)) <= 1e-5)

    drift_ok = table1_result.ortho_drift <= 1e-10

    ok = qr_ok and cayley_ok and skew_ok and jac_ok and drift_ok
    report(8, "factorization, orthogonality and Jacobian structure", ok)
    assert qr_ok, "QR reconstruction/orthogonality"
    assert cayley_ok, "Cayley image orthogonality"
    assert skew_ok, "exact skew-symmetry"
    assert jac_ok, "analytic vs finite-difference Jacobians"
    assert drift_ok, f"accumulated-rotation drift {table1_result.ortho_drift}"


def test_criterion_9_boundedness_diagnostic():
    s = deterministic_lorenz()
    n_long = 1_000_000
    path = generate_path(1, SPIN + n_long, DT)
    x0 = spin_up(s, path, IntegratorConfig(dt=DT, n_steps=SPIN))
    traj = simulate(
        s, x0, path, IntegratorConfig(dt=DT, n_steps=n_long), offset=SPIN
    )

    # absorbing level: the largest V on the critical ellipsoid, outside of
    # which V strictly decreases, evaluated on a dense surface grid
    theta = np.linspace(0.0, np.pi, 400)
    phi = np.linspace(0.0, 2.0 * np.pi, 800)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    surface = np.stack(
        [
            np.sqrt(STD.b * STD.r) * np.sin(tt) * np.cos(pp),
            np.sqrt(STD.b) * STD.r * np.sin(tt) * np.sin(pp),
            STD.r + STD.r * np.cos(tt),
        ],
        axis=-1,
    )
    v_bound = float(np.max(lyapunov_function(STD, surface)))

    v = lyapunov_function(STD, traj)
    level_ok = float(np.max(v)) <= 1.01 * v_bound

    res = ellipsoid_residual(STD, traj[:-1])
    outside = res < -0.1
    decrease_ok = bool(np.all(v[1:][outside] < v[:-1][outside]))

    report(9, "trajectory confined to the absorbing level set", level_ok and decrease_ok)
    assert level_ok, f"max V {np.max(v)} vs bound {v_bound}"
    assert decrease_ok, "V failed to decrease outside the critical ellipsoid"
