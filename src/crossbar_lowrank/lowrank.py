"""Truncated SVD, best rank-k approximation, and the L/R split factorization.

The two-step scheme stores A_k = L R on two small arrays instead of A on
one large array: L = U_k sqrt(S_k) is m x k, R = sqrt(S_k) V_k' is k x n.
Splitting the singular values symmetrically gives both factors the same
Frobenius mass, ||L||_F^2 = ||R||_F^2 = trace(S_k), which is what the
stage-noise error terms depend on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import as_matrix

# relative cutoff below which a singular value counts as numerically zero
RANK_TOL_REL = 1e-10


@dataclass(frozen=True)
class SvdResult:
    """Thin SVD A = U diag(singulars) V' with a deterministic sign convention.

    U is m x p and V is n x p with orthonormal columns, p = min(m, n);
    singulars is nonincreasing and nonnegative. rank counts singular
    values above RANK_TOL_REL * singulars[0].
    """

    U: np.ndarray
    singulars: np.ndarray
    V: np.ndarray
    rank: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.U.shape[0], self.V.shape[0])


@dataclass(frozen=True)
class LrFactors:
    """Rank-k split A_k = L R used by the two-step scheme; k is L.shape[1]."""

    L: np.ndarray
    R: np.ndarray


def numerical_rank(s: np.ndarray) -> int:
    """Count of singular values above RANK_TOL_REL * s[0], the one rank
    rule of this module; a singular value that is not finite, as an
    overflow leaves it, is a ValueError."""
    if not np.isfinite(s).all():
        raise ValueError("a singular value is not finite in float64: "
                         "the matrix entries are too large")
    tol = RANK_TOL_REL * s[0] if s.size and s[0] > 0 else 0.0
    return int(np.count_nonzero(s > tol))


def singular_values(A) -> np.ndarray:
    """Nonincreasing singular values of A, with no singular vectors computed.

    They agree with svd(A).singulars to round-off, not bit for bit,
    because LAPACK takes a different path when it skips the vectors.
    """
    return np.linalg.svd(as_matrix(A), full_matrices=False, compute_uv=False)


def svd(A) -> SvdResult:
    A = as_matrix(A)
    U, s, Vt = np.linalg.svd(A, full_matrices=False, compute_uv=True)
    V = Vt.T
    # sign convention: largest-magnitude entry of each U column is positive,
    # with V flipped jointly so the product is unchanged
    p = s.shape[0]
    lead = np.argmax(np.abs(U), axis=0)
    signs = np.where(U[lead, np.arange(p)] < 0, -1.0, 1.0)
    U = U * signs
    V = V * signs
    return SvdResult(U=U, singulars=s, V=V, rank=numerical_rank(s))


def truncate(s: SvdResult, k: int) -> np.ndarray:
    """Best Frobenius rank-k approximation A_k; k beyond rank is clamped."""
    if k < 0:
        raise ValueError(f"rank must be nonnegative, got {k}")
    k = min(k, s.rank)
    if k == 0:
        return np.zeros(s.shape)
    return (s.U[:, :k] * s.singulars[:k]) @ s.V[:, :k].T


def factor_lr(s: SvdResult, k: int) -> LrFactors:
    """Split A_k into L = U_k sqrt(S_k) and R = sqrt(S_k) V_k'.

    k beyond the numerical rank is rejected: sqrt of a zero singular
    value would allocate dead crossbar rows.
    """
    if not 1 <= k <= s.rank:
        raise ValueError(f"k must be in [1, rank]=[1, {s.rank}], got {k}")
    root = np.sqrt(s.singulars[:k])
    L = s.U[:, :k] * root
    R = (s.V[:, :k] * root).T
    return LrFactors(L=L, R=R)


def truncation_error_sq(s: SvdResult, k: int) -> float:
    """Squared Frobenius tail sum(singulars[k:rank]**2); 0 when k >= rank."""
    if k < 0:
        raise ValueError(f"rank must be nonnegative, got {k}")
    if k >= s.rank:
        return 0.0
    tail = s.singulars[k:s.rank]
    return float(np.sum(tail * tail))
