import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stochlyap.smallmat import (
    SingularMatrixError,
    SkewMat3,
    cayley,
    frobenius,
    inverse,
    qr_decompose,
)

finite_entries = st.floats(-10.0, 10.0, allow_nan=False)


def matrices3():
    return st.lists(finite_entries, min_size=9, max_size=9).map(
        lambda v: np.array(v).reshape(3, 3)
    )


def skew3(bound=0.4):
    entry = st.floats(-bound, bound, allow_nan=False)
    return st.tuples(entry, entry, entry).map(lambda v: SkewMat3(np.array(v)))


class TestQr:
    def test_identity(self):
        q, r = qr_decompose(np.eye(3))
        np.testing.assert_allclose(q, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(r, np.eye(3), atol=1e-15)

    def test_diagonal(self):
        m = np.diag([2.0, 3.0, 4.0])
        q, r = qr_decompose(m)
        np.testing.assert_allclose(q, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(r, m, atol=1e-15)

    def test_permutation(self):
        m = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        q, r = qr_decompose(m)
        np.testing.assert_allclose(q, m, atol=1e-14)
        np.testing.assert_allclose(r, np.eye(3), atol=1e-14)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            qr_decompose(np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]]))

    @given(matrices3())
    @settings(max_examples=200)
    def test_reconstruction(self, m):
        with np.errstate(divide="ignore", invalid="ignore"):  # a singular draw is rejected
            assume(abs(np.linalg.det(m)) > 1e-3)
        q, r = qr_decompose(m)
        assert frobenius(m - q @ r) <= 1e-12 * max(frobenius(m), 1.0)
        assert frobenius(q.T @ q - np.eye(3)) <= 1e-12
        assert np.all(np.diagonal(r) > 0)
        assert np.allclose(np.tril(r, -1), 0.0)


class TestInverse:
    def test_identity(self):
        np.testing.assert_allclose(inverse(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        got = inverse(np.diag([2.0, 4.0, 5.0]))
        np.testing.assert_allclose(got, np.diag([0.5, 0.25, 0.2]), atol=1e-15)

    def test_ipk_block(self):
        k = SkewMat3(np.array([1.0, 0.0, 0.0]))
        got = inverse(np.eye(3) + k.matrix())
        want = np.array([[0.5, 0.5, 0.0], [-0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            inverse(np.zeros((3, 3)))

    @given(matrices3())
    @settings(max_examples=100)
    def test_roundtrip(self, m):
        with np.errstate(divide="ignore", invalid="ignore"):  # a singular draw is rejected
            assume(abs(np.linalg.det(m)) > 1e-3)
        assert frobenius(m @ inverse(m) - np.eye(3)) <= 1e-10


class TestCayley:
    def test_zero_gives_identity(self):
        np.testing.assert_allclose(cayley(SkewMat3.zero()), np.eye(3))

    def test_unit_block(self):
        q = cayley(SkewMat3(np.array([1.0, 0.0, 0.0])))
        want = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(q, want, atol=1e-15)

    @given(skew3())
    @settings(max_examples=200)
    def test_orthogonal_det_plus_one(self, k):
        q = cayley(k)
        assert frobenius(q.T @ q - np.eye(3)) <= 1e-12
        assert abs(np.linalg.det(q) - 1.0) <= 1e-12

    @given(skew3())
    def test_negation_transposes(self, k):
        assert frobenius(cayley(SkewMat3(-k.lower)) - cayley(k).T) <= 1e-12

    @given(skew3(bound=1.0))
    @settings(max_examples=200)
    def test_closed_form_matches_definition(self, k):
        km = k.matrix()
        want = (np.eye(3) - km) @ inverse(np.eye(3) + km)
        assert np.max(np.abs(cayley(k) - want)) <= 1e-14

    @given(skew3())
    def test_factors_commute(self, k):
        km = k.matrix()
        g = np.eye(3) - km
        h = inverse(np.eye(3) + km)
        assert frobenius(g @ h - h @ g) <= 1e-12

    def test_large_parameter_stays_orthogonal(self):
        # I + K is never singular for real skew K, so the map is total;
        # large parameters approach the pi-rotation limit but stay valid
        q = cayley(SkewMat3(np.array([1e8, 0.0, 0.0])))
        assert frobenius(q.T @ q - np.eye(3)) <= 1e-6
        np.testing.assert_allclose(q[2, 2], 1.0)


class TestSkewMat3:
    def test_exactly_skew(self):
        k = SkewMat3(np.array([0.3, -0.2, 0.7]))
        m = k.matrix()
        assert np.all(m + m.T == 0.0)
        assert np.all(np.diagonal(m) == 0.0)

    def test_norm_matches_frobenius(self):
        k = SkewMat3(np.array([0.3, -0.2, 0.7]))
        assert k.norm() == pytest.approx(frobenius(k.matrix()), abs=1e-15)

    def test_from_matrix_roundtrip(self):
        k = SkewMat3(np.array([0.1, 0.2, 0.3]))
        np.testing.assert_array_equal(SkewMat3.from_matrix(k.matrix()).lower, k.lower)
