"""Small dense matrix kernels: QR, inversion and the Cayley transform.

Everything here operates on plain numpy arrays with value semantics.  The
inverse and the Cayley transform are closed-form 3x3 formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SingularMatrixError",
    "CayleyDomainError",
    "SkewMat3",
    "LOWER_FLAT",
    "frobenius",
    "qr_decompose",
    "inverse",
    "cayley",
]

_QR_DIAG_FLOOR = 1e-14
_DET_FLOOR = 1e-14

# Row-major flat positions of the strictly lower triangle (1,0), (2,0), (2,1)
# of a 3x3 matrix, in the order of ``SkewMat3.lower``.
LOWER_FLAT = np.array([3, 6, 7])


class SingularMatrixError(ValueError):
    """A matrix required to be invertible is numerically singular."""


class CayleyDomainError(ValueError):
    """A Cayley parameter left the domain its caller guarantees."""


def frobenius(m: np.ndarray) -> float:
    """Frobenius norm, the canonical matrix norm throughout the package."""
    m = np.asarray(m, dtype=float)
    return math.sqrt((m * m).sum())


@dataclass(frozen=True)
class SkewMat3:
    """A 3x3 skew-symmetric matrix stored by its strictly lower triangle.

    ``lower`` holds the entries (1,0), (2,0), (2,1); the expansion to a
    full matrix is skew-symmetric exactly, by construction.
    """

    lower: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        low = np.asarray(self.lower, dtype=float)
        if low.shape != (3,):
            raise ValueError(f"lower triangle must have shape (3,), got {low.shape}")
        object.__setattr__(self, "lower", low)

    @classmethod
    def zero(cls) -> "SkewMat3":
        return cls(np.zeros(3))

    @classmethod
    def from_matrix(cls, m: np.ndarray) -> "SkewMat3":
        """Project a matrix onto its skew part, keeping the lower triangle."""
        return cls(np.asarray(m, dtype=float).take(LOWER_FLAT))

    def matrix(self) -> np.ndarray:
        a, b, c = self.lower
        return np.array([[0.0, -a, -b], [a, 0.0, -c], [b, c, 0.0]])

    def norm(self) -> float:
        # ||K||_F for a skew matrix: each lower entry appears twice.
        return float(np.sqrt(2.0 * np.dot(self.lower, self.lower)))


def qr_decompose(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR factorization with the positive-diagonal sign convention.

    Returns (q, r) with q orthogonal and r upper triangular with strictly
    positive diagonal, which makes the factorization unique.
    """
    m = np.asarray(m, dtype=float)
    q, r = np.linalg.qr(m)
    diag = np.diagonal(r)
    if np.any(np.abs(diag) < _QR_DIAG_FLOOR):
        raise SingularMatrixError(
            f"QR diagonal entry below {_QR_DIAG_FLOOR:g}: {diag}"
        )
    signs = np.sign(diag)
    return q * signs, signs[:, None] * r


def inverse(m: np.ndarray) -> np.ndarray:
    """Closed-form 3x3 inverse via the adjugate."""
    m = np.asarray(m, dtype=float)
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    ca = e * i - f * h
    cb = c * h - b * i
    cc = b * f - c * e
    cd = f * g - d * i
    ce = a * i - c * g
    cf = c * d - a * f
    cg = d * h - e * g
    ch = b * g - a * h
    ci = a * e - b * d
    det = a * ca + b * cd + c * cg
    if abs(det) < _DET_FLOOR:
        raise SingularMatrixError(f"3x3 determinant {det:g} below {_DET_FLOOR:g}")
    return np.array([[ca, cb, cc], [cd, ce, cf], [cg, ch, ci]]) / det


def _cayley_entries(a, b, c):
    """Numerator rows and denominator of the Cayley transform of the skew
    matrix with lower triangle (a, b, c), on Python floats.

    With the Gibbs vector w = (c, -b, a) of K (K v = w x v) the transform is
    the rotation ((1 - |w|^2) I + 2 w w^T - 2 K) / (1 + |w|^2).
    """
    w2 = a * a + b * b + c * c
    d = 1.0 - w2
    return (
        (d + 2.0 * c * c, 2.0 * (a - b * c), 2.0 * (b + a * c)),
        (-2.0 * (a + b * c), d + 2.0 * b * b, 2.0 * (c - a * b)),
        (2.0 * (a * c - b), -2.0 * (c + a * b), d + 2.0 * a * a),
    ), 1.0 + w2


def cayley(k: SkewMat3) -> np.ndarray:
    """Cayley transform (I - K)(I + K)^-1 of a skew-symmetric 3x3 matrix.

    The denominator 1 + |w|^2 is det(I + K) >= 1, so the map is total and
    its image orthogonal with determinant +1 for every real skew K.
    """
    a, b, c = k.lower.tolist()
    num, den = _cayley_entries(a, b, c)
    out = np.array(num)
    out /= den
    return out
