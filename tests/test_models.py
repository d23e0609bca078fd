import numpy as np
import pytest

from stochlyap.models import (
    Convention,
    LorenzParams,
    NoiseKind,
    SystemDef,
    convert_convention,
    deterministic_lorenz,
    diffusion,
    drift,
    fd_lorenz,
    jacobian_correction,
    jacobian_diffusion,
    jacobian_drift,
    salt_lorenz,
)

STD = LorenzParams()


def central_difference_jacobian(f, x, h=1e-6):
    jac = np.empty((3, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        jac[:, j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return jac


class TestParams:
    def test_defaults(self):
        assert STD.sigma == 10.0 and STD.r == 28.0 and STD.b == pytest.approx(8 / 3)

    def test_positivity(self):
        nan = float("nan")
        for bad in (dict(sigma=-1.0), dict(sigma=nan), dict(r=nan), dict(b=nan)):
            with pytest.raises(ValueError):
                LorenzParams(**bad)
        with pytest.raises(ValueError):
            SystemDef(STD, NoiseKind.SALT, beta=nan)

    def test_none_requires_zero_beta(self):
        with pytest.raises(ValueError):
            SystemDef(STD, NoiseKind.NONE, beta=0.5)


class TestSystemDefConvention:
    def test_default_is_native(self):
        x = np.array([1.0, 2.0, 3.0])
        salt = SystemDef(STD, NoiseKind.SALT, 0.5)
        assert salt == salt_lorenz(beta=0.5)
        np.testing.assert_array_equal(drift(salt, x), [10.0, 23.0, -6.0])
        fd = SystemDef(STD, NoiseKind.FD, 0.5)
        assert fd == fd_lorenz(beta=0.5)
        np.testing.assert_array_equal(drift(fd, x), drift(fd_lorenz(beta=0.5), x))
        assert SystemDef(STD).convention is Convention.ITO

    def test_explicit_convention_is_honoured(self):
        x = np.array([1.0, 2.0, 3.0])
        salt_ito = SystemDef(STD, NoiseKind.SALT, 0.5, Convention.ITO)
        assert salt_ito.convention is Convention.ITO
        np.testing.assert_allclose(drift(salt_ito, x), [10.0, 22.75, -6.375], atol=1e-14)
        fd_strat = SystemDef(STD, NoiseKind.FD, 0.5, Convention.STRATONOVICH)
        assert fd_strat == convert_convention(fd_lorenz(beta=0.5), Convention.STRATONOVICH)


class TestDrift:
    def test_origin_is_equilibrium(self):
        s = deterministic_lorenz()
        np.testing.assert_array_equal(drift(s, np.zeros(3)), np.zeros(3))

    def test_hand_value(self):
        s = deterministic_lorenz()
        np.testing.assert_allclose(
            drift(s, np.array([1.0, 1.0, 1.0])), [0.0, 26.0, 1.0 - 8.0 / 3.0]
        )

    def test_nontrivial_fixed_point(self):
        s = deterministic_lorenz()
        c = np.sqrt(STD.b * (STD.r - 1.0))
        np.testing.assert_allclose(
            drift(s, np.array([c, c, STD.r - 1.0])), np.zeros(3), atol=1e-12
        )

    def test_same_drift_all_kinds(self):
        x = np.array([1.3, -0.7, 5.0])
        want = drift(deterministic_lorenz(), x)
        np.testing.assert_array_equal(drift(salt_lorenz(beta=0.5), x), want)
        np.testing.assert_array_equal(drift(fd_lorenz(beta=0.5), x), want)


class TestDiffusion:
    def test_salt(self):
        s = salt_lorenz(beta=0.5)
        np.testing.assert_allclose(
            diffusion(s, np.array([1.0, 2.0, 3.0])), [0.0, -1.5, 1.0]
        )

    def test_fd(self):
        s = fd_lorenz(beta=0.5)
        np.testing.assert_allclose(
            diffusion(s, np.array([1.0, 2.0, 3.0])), [0.5, 1.0, 1.5]
        )

    def test_zero_beta(self):
        for s in (salt_lorenz(beta=0.0), fd_lorenz(beta=0.0), deterministic_lorenz()):
            np.testing.assert_array_equal(diffusion(s, np.ones(3)), np.zeros(3))

    def test_salt_rotation_generator(self, rng):
        # the noise field is tangent to circles in the (Y, Z) plane
        s = salt_lorenz(beta=0.7)
        for _ in range(20):
            x = rng.uniform(-20, 20, 3)
            f1 = diffusion(s, x)
            assert x[1] * f1[1] + x[2] * f1[2] == pytest.approx(0.0, abs=1e-12)


class TestJacobians:
    def test_drift_trace_constant(self, rng):
        s = deterministic_lorenz()
        want = -(STD.sigma + 1.0 + STD.b)
        for _ in range(100):
            x = rng.uniform(-30, 30, 3)
            assert np.trace(jacobian_drift(s, x)) == pytest.approx(want, abs=1e-12)

    def test_trace_value_to_four_decimals(self):
        s = deterministic_lorenz()
        tr = np.trace(jacobian_drift(s, np.array([3.0, -1.0, 17.0])))
        assert tr == pytest.approx(-13.6667, abs=5e-5)

    def test_drift_at_origin(self):
        s = deterministic_lorenz()
        want = np.array([[-10.0, 10.0, 0.0], [28.0, -1.0, 0.0], [0.0, 0.0, -8 / 3]])
        np.testing.assert_allclose(jacobian_drift(s, np.zeros(3)), want)

    def test_salt_diffusion_traceless(self):
        s = salt_lorenz(beta=0.5)
        j1 = jacobian_diffusion(s)
        np.testing.assert_allclose(
            j1, [[0, 0, 0], [0, 0, -0.5], [0, 0.5, 0]], atol=1e-15
        )
        assert np.trace(j1) == 0.0

    def test_fd_diffusion_trace(self):
        s = fd_lorenz(beta=0.5)
        np.testing.assert_allclose(jacobian_diffusion(s), 0.5 * np.eye(3))
        assert np.trace(jacobian_diffusion(s)) == pytest.approx(1.5)

    def test_zero_beta_zero_matrix(self):
        np.testing.assert_array_equal(
            jacobian_diffusion(salt_lorenz(beta=0.0)), np.zeros((3, 3))
        )

    @pytest.mark.parametrize(
        "system",
        [
            deterministic_lorenz(),
            salt_lorenz(beta=0.5),
            fd_lorenz(beta=0.5),
            convert_convention(salt_lorenz(beta=0.5), Convention.ITO),
            convert_convention(fd_lorenz(beta=0.5), Convention.STRATONOVICH),
        ],
    )
    def test_against_finite_differences(self, system, rng):
        for _ in range(100):
            x = rng.uniform(-20, 20, 3)
            fd_jac = central_difference_jacobian(lambda y: drift(system, y), x)
            np.testing.assert_allclose(jacobian_drift(system, x), fd_jac, atol=1e-5)
            fd_jac1 = central_difference_jacobian(lambda y: diffusion(system, y), x)
            np.testing.assert_allclose(jacobian_diffusion(system), fd_jac1, atol=1e-5)


class TestCorrectionOverflow:
    @pytest.mark.parametrize("make, target", [(salt_lorenz, Convention.ITO),
                                              (fd_lorenz, Convention.STRATONOVICH)])
    def test_overflowing_beta_squared_names_beta(self, make, target):
        s = convert_convention(make(beta=1e155), target)
        with pytest.raises(ValueError, match=r"^beta = 1e\+155 is too large"):
            jacobian_correction(s)
        # a beta whose square is finite still gives the correction
        s = convert_convention(make(beta=1e154), target)
        assert np.isfinite(jacobian_correction(s)).all()

    def test_native_convention_needs_no_square(self):
        np.testing.assert_array_equal(jacobian_correction(fd_lorenz(beta=1e200)),
                                      np.zeros((3, 3)))


class TestConventionConversion:
    def test_salt_to_ito_correction(self):
        beta = 0.5
        s = convert_convention(salt_lorenz(beta=beta), Convention.ITO)
        x = np.array([1.0, 2.0, 3.0])
        base = drift(salt_lorenz(beta=beta), x)
        want = base + np.array([0.0, -(beta**2) * x[1] / 2, -(beta**2) * x[2] / 2])
        np.testing.assert_allclose(drift(s, x), want, atol=1e-14)

    def test_fd_to_stratonovich_correction(self):
        beta = 0.5
        s = convert_convention(fd_lorenz(beta=beta), Convention.STRATONOVICH)
        x = np.array([1.0, 2.0, 3.0])
        base = drift(fd_lorenz(beta=beta), x)
        np.testing.assert_allclose(
            drift(s, x), base - (beta**2) / 2.0 * x, atol=1e-14
        )

    def test_involution(self, rng):
        for s in (salt_lorenz(beta=0.8), fd_lorenz(beta=0.8)):
            twice = convert_convention(
                convert_convention(s, Convention.STRATONOVICH), s.convention
            )
            for _ in range(10):
                x = rng.uniform(-20, 20, 3)
                np.testing.assert_allclose(drift(twice, x), drift(s, x), atol=1e-12)

    def test_zero_beta_identity(self):
        s = salt_lorenz(beta=0.0)
        conv = convert_convention(s, Convention.ITO)
        x = np.array([2.0, -3.0, 9.0])
        np.testing.assert_array_equal(drift(conv, x), drift(s, x))

    def test_diffusion_unchanged(self):
        s = convert_convention(fd_lorenz(beta=0.5), Convention.STRATONOVICH)
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(diffusion(s, x), diffusion(fd_lorenz(beta=0.5), x))
