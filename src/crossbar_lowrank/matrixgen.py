"""Reproducible generation of matrices with prescribed singular values.

A spectrum is a plain 1-D array of singular values, valid when
`check_spectrum` passes it. `harmonic_spectrum` is the one statement of
the harmonic profile lam/i, i <= r. `prescribed_factors` draws the
orthonormal factors of a matrix with any valid, nonempty and positive
spectrum, and `prescribed_matrix` multiplies them out.

Stream contract: a rank-r m x n matrix draws an m x r Gaussian block,
then an n x r one, from its stream, and orthogonalizes each: (m + n) r
normals in all, and nothing of size m x m or n x n.
"""
from __future__ import annotations

import math

import numpy as np


def check_spectrum(singulars) -> np.ndarray:
    """singulars as a float64 array, checked to be 1-D, finite,
    nonnegative and nonincreasing."""
    s = np.asarray(singulars, dtype=float)
    # valid at once if nonincreasing (so NaN-free) from a finite to a nonnegative value
    if s.ndim == 1 and s.size and s[0] < math.inf and s[-1] >= 0 and (s[1:] <= s[:-1]).all():
        return s
    if s.ndim != 1:
        raise ValueError(f"singular values must be a 1-D array, got shape {s.shape}")
    if not (np.isfinite(s) & (s >= 0)).all():
        raise ValueError("singular values must be finite and nonnegative")
    if (s[1:] > s[:-1]).any():
        raise ValueError("singular values must be nonincreasing")
    return s


def harmonic_spectrum(lam: float, r: int) -> np.ndarray:
    """The harmonic profile lam/i, i <= r: the spectrum every target is
    built from and every closed form is evaluated on."""
    if r < 1:
        raise ValueError(f"rank must be positive, got {r}")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"lam must be finite and positive, got {lam}")
    return lam / np.arange(1, r + 1)


def random_orthogonal(dim: int, rng: np.random.Generator,
                      cols: int | None = None) -> np.ndarray:
    """`cols` (default dim) orthonormal columns of a random orthogonal
    matrix, from QR of an i.i.d. Gaussian dim x cols block: the stream
    advances by dim*cols normals, and the QR costs O(dim*cols^2).

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
    Q, _ = np.linalg.qr(rng.standard_normal((dim, cols)))
    signs = np.where(np.diag(Q) < 0, -1.0, 1.0)
    return Q * signs


def prescribed_factors(m: int, n: int, singulars,
                       rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, sigma, V): m x r and n x r orthonormal columns of independent
    random orthogonal factors, and the given singular values as an array,
    so that U diag(sigma) V' has exactly those singular values up to
    orthogonalization round-off. U's m x r block is drawn before V's n x r
    block.

    The values must pass check_spectrum and be nonempty, positive and at
    most min(m, n) long; they are checked before anything is drawn.
    """
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got {m}x{n}")
    sigma = check_spectrum(singulars)
    r = sigma.size
    if r == 0 or sigma[-1] == 0:  # nonincreasing, so the last value is the least
        raise ValueError("singular values must be nonempty and positive")
    if r > min(m, n):
        raise ValueError(f"rank {r} exceeds min(m, n) = {min(m, n)}")
    U = random_orthogonal(m, rng, r)
    V = random_orthogonal(n, rng, r)
    return U, sigma, V


def prescribed_matrix(m: int, n: int, singulars,
                      rng: np.random.Generator) -> np.ndarray:
    """m x n matrix U diag(s) V' of prescribed_factors(m, n, singulars, rng)."""
    U, sigma, V = prescribed_factors(m, n, singulars, rng)
    return (U * sigma) @ V.T


def harmonic_matrix(m: int, n: int, r: int, lam: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Member of the harmonic class: rank r, singular values lam/i."""
    return prescribed_matrix(m, n, harmonic_spectrum(lam, r), rng)
