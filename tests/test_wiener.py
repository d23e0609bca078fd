import numpy as np
import pytest

from stochlyap.wiener import (
    WienerPath,
    generate_path,
)


def test_determinism_bit_exact():
    a = generate_path(7, 100_000, 0.001)
    b = generate_path(7, 100_000, 0.001)
    np.testing.assert_array_equal(a.increments, b.increments)


@pytest.mark.parametrize("n, dt", [(3_000, 0.001), (21_000, 0.003), (150_000, 1e-4)])
def test_increments_are_the_pinned_generator_times_sqrt_dt(n, dt):
    # GENERATOR_ID's draws, bit for bit: scaling in place changes no bit
    draws = np.random.Generator(np.random.Philox(11)).standard_normal(n)
    want = np.sqrt(dt) * draws
    assert generate_path(11, n, dt).increments.tobytes() == want.tobytes()


def test_different_seeds_differ():
    a = generate_path(7, 1000, 0.001)
    b = generate_path(8, 1000, 0.001)
    assert not np.array_equal(a.increments, b.increments)


def test_increment_statistics():
    dt = 0.001
    path = generate_path(3, 1_000_000, dt)
    inc = path.increments
    assert np.var(inc) == pytest.approx(dt, rel=0.01)
    assert abs(np.mean(inc)) <= 3.0 * np.sqrt(dt / 1_000_000)


def test_argument_validation():
    with pytest.raises(ValueError):
        generate_path(1, 10, 0.0)
    with pytest.raises(ValueError):
        generate_path(1, 0, 0.001)
    with pytest.raises(ValueError):
        WienerPath(seed=0, dt=0.1, increments=np.zeros((5, 2)))


@pytest.mark.parametrize("dt", [float("inf"), float("-inf"), float("nan")])
def test_rejects_non_finite_dt(dt):
    with pytest.raises(ValueError, match=f"^dt must be finite, got {dt}$"):
        generate_path(1, 3, dt)


@pytest.mark.parametrize("dt", [1e-320, 5e-324])
def test_rejects_subnormal_dt(dt):
    with pytest.raises(ValueError, match=f"^dt must be a normal float, .* got {dt}$"):
        generate_path(1, 3, dt)


def test_window_is_the_read_only_slice():
    path = generate_path(1, 10, 0.001)
    window = path.window(4, 6)  # ends at the path's last step
    np.testing.assert_array_equal(window, path.increments[4:10])
    with pytest.raises(ValueError):
        window[0] = 1.0
    with pytest.raises(ValueError, match=r"^path has 10 steps, need 11$"):
        path.window(4, 7)
    with pytest.raises(ValueError, match=r"^offset must be >= 0, got -1$"):
        path.window(-1, 2)


def test_increments_are_immutable():
    path = generate_path(1, 10, 0.001)
    with pytest.raises(ValueError):
        path.increments[0] = 1.0
