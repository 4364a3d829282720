"""Reproducible generation of matrices with prescribed singular values.

Stream contract: a rank-r m x n matrix draws a full m x m Gaussian
square, then a full n x n one, from its stream, and orthogonalizes only
the leading r columns of each. Stream use therefore does not depend on r,
and the matrix equals the one built from the QR factors of the full
squares up to round-off (within 1e-13 of its Frobenius norm).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SingularProfile:
    """Prescribed singular spectrum: harmonic lam/i or an explicit list."""

    kind: str
    r: int
    lam: float | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("harmonic", "explicit"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.r < 1:
            raise ValueError(f"rank must be positive, got {self.r}")
        if self.kind == "harmonic":
            if self.lam is None or not self.lam > 0:
                raise ValueError(f"harmonic profile needs lam > 0, got {self.lam}")
        else:
            if not self.values:
                raise ValueError("explicit profile needs a nonempty value list")
            if len(self.values) != self.r:
                raise ValueError(
                    f"explicit profile length {len(self.values)} != r = {self.r}"
                )
            vals = self.values
            if any(v <= 0 for v in vals):
                raise ValueError("explicit singular values must be positive")
            if any(vals[i] < vals[i + 1] for i in range(len(vals) - 1)):
                raise ValueError("explicit singular values must be nonincreasing")

    @classmethod
    def harmonic(cls, lam: float, r: int) -> "SingularProfile":
        return cls(kind="harmonic", r=r, lam=lam)

    @classmethod
    def explicit(cls, values) -> "SingularProfile":
        vals = tuple(float(v) for v in values)
        return cls(kind="explicit", r=len(vals), values=vals)

    def resolve(self) -> np.ndarray:
        if self.kind == "harmonic":
            return self.lam / np.arange(1, self.r + 1)
        return np.asarray(self.values, dtype=float)


def random_orthogonal(dim: int, rng: np.random.Generator,
                      cols: int | None = None) -> np.ndarray:
    """Leading `cols` columns (default all) of a random orthogonal matrix,
    from QR of an i.i.d. Gaussian square.

    The full dim x dim square is always drawn, so the stream advances by
    dim*dim normals whatever `cols` is. Only its first `cols` columns are
    factored, at O(dim*cols^2) cost: the first j columns of a QR factor
    depend only on the first j input columns, so this is the full
    square's factor's leading block up to round-off.

    Each column's sign is fixed so the orthogonal factor's diagonal is
    nonnegative, making the output deterministic per stream (dim=1
    always yields [[1]]).
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if cols is None:
        cols = dim
    if not 1 <= cols <= dim:
        raise ValueError(f"cols must be in [1, {dim}], got {cols}")
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim))[:, :cols])
    signs = np.where(np.diag(Q) < 0, -1.0, 1.0)
    return Q * signs


def prescribed_matrix(m: int, n: int, profile: SingularProfile,
                      rng: np.random.Generator) -> np.ndarray:
    """m x n matrix with exactly the profile's singular values.

    Built as U_r diag(s) V_r' from the leading r columns of independent
    random orthogonal factors, so the spectrum is exact up to
    orthogonalization round-off. U's m x m square is drawn before V's
    n x n square.
    """
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got {m}x{n}")
    if profile.r > min(m, n):
        raise ValueError(f"rank {profile.r} exceeds min(m, n) = {min(m, n)}")
    sigma = profile.resolve()
    U = random_orthogonal(m, rng, profile.r)
    V = random_orthogonal(n, rng, profile.r)
    return (U * sigma) @ V.T


def harmonic_matrix(m: int, n: int, r: int, lam: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Member of the harmonic class: rank r, singular values lam/i."""
    return prescribed_matrix(m, n, SingularProfile.harmonic(lam, r), rng)
