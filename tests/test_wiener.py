import numpy as np
import pytest

from stochlyap.wiener import (
    GENERATOR_ID,
    WienerPath,
    generate_path,
    increment_blocks,
    terminal_value,
)


def test_determinism_bit_exact():
    a = generate_path(7, 100_000, 0.001)
    b = generate_path(7, 100_000, 0.001)
    np.testing.assert_array_equal(a.increments, b.increments)
    assert a.generator_id == GENERATOR_ID


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


def test_terminal_value():
    path = WienerPath(seed=0, dt=0.1, increments=np.array([0.1, -0.2, 0.3]))
    assert terminal_value(path, 0) == 0.0
    assert terminal_value(path, 2) == pytest.approx(-0.1)
    assert terminal_value(path, 3) == pytest.approx(0.2)
    with pytest.raises(IndexError):
        terminal_value(path, 4)


def test_dump_load_roundtrip_bit_exact(tmp_path):
    path = generate_path(11, 5000, 0.002)
    fname = tmp_path / "path.csv"
    path.dump(fname)
    loaded = WienerPath.load(fname)
    assert loaded.seed == path.seed
    assert loaded.dt == path.dt
    assert loaded.generator_id == path.generator_id
    np.testing.assert_array_equal(loaded.increments, path.increments)


def test_load_reads_the_header_format(tmp_path):
    fname = tmp_path / "path.csv"
    fname.write_text("# seed = 3\n# dt = 0.01\n# n = 2\n# channels = 1\n"
                     "# generator-id = np-philox4x64-standard-normal-v1\n"
                     "0.1\n-0.025\n")
    loaded = WienerPath.load(fname)
    assert (loaded.seed, loaded.dt) == (3, 0.01)
    np.testing.assert_array_equal(loaded.increments, [0.1, -0.025])
    loaded.dump(tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_text() == fname.read_text()


def test_increments_are_immutable():
    path = generate_path(1, 10, 0.001)
    with pytest.raises(ValueError):
        path.increments[0] = 1.0


def test_increment_blocks_continue_each_stream():
    blocks = list(increment_blocks([5, 9, 5], 2500, 0.01))
    assert [b.shape for b in blocks] == [(1024, 3)] * 2 + [(452, 3)]
    stacked = np.vstack(blocks)
    for u, seed in enumerate([5, 9, 5]):
        np.testing.assert_array_equal(stacked[:, u], generate_path(seed, 2500, 0.01).increments)
