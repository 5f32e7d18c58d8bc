"""Dense float64 matrix kernel and the deterministic random stream.

Matrices are plain 2-D C-contiguous ``numpy.ndarray`` objects (row-major,
``float64``), which realizes the package's matrix contract directly; the
helpers here add the shape and symmetry checking the rest of the package
relies on. The eigensolver is a self-contained cyclic Jacobi sweep rather
than a LAPACK binding so results are identical on every platform.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, InsufficientDataError, NumericError, ShapeError

_MASK = 0xFFFFFFFFFFFFFFFF
_DOUBLE_SCALE = 2.0 ** -53


class Rng:
    """Deterministic 64-bit stream: splitmix64 seeding + xoshiro256** steps.

    The stream is fully defined by the update equations below so any
    implementation, in any language, reproduces it bit for bit.

    Seeding (splitmix64, four outputs become the state ``s0..s3``)::

        x     = (x + 0x9E3779B97F4A7C15) mod 2^64
        z     = x
        z     = ((z xor (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
        z     = ((z xor (z >> 27)) * 0x94D049BB133111EB) mod 2^64
        s_i   = z xor (z >> 31)

    One step (xoshiro256**)::

        out = rotl64(s1 * 5, 7) * 9
        t   = s1 << 17
        s2 ^= s0;  s3 ^= s1;  s1 ^= s2;  s0 ^= s3;  s2 ^= t
        s3  = rotl64(s3, 45)

    Derived draws, in consumption order:

    * ``uniform()``  : one step; ``(out >> 11) * 2^-53`` in [0, 1).
    * ``below(m)``   : one step; ``out mod m``.
    * ``normals(n)`` : ceil(n/2) Box-Muller pairs, each consuming two
      uniforms ``(u1, u2)``; ``r = sqrt(-2 ln(1 - u1))`` and the pair is
      ``(r cos(2 pi u2), r sin(2 pi u2))``.
    * ``shuffle(seq)``: Fisher-Yates, ``i`` from ``len-1`` down to ``1``,
      swapping ``seq[i]`` with ``seq[below(i + 1)]``.
    """

    def __init__(self, seed: int):
        if not 0 <= int(seed) <= _MASK:
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
        x = int(seed)
        state = []
        for _ in range(4):
            x = (x + 0x9E3779B97F4A7C15) & _MASK
            z = x
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            state.append(z ^ (z >> 31))
        if not any(state):  # all-zero state would lock the generator
            state[0] = 0x9E3779B97F4A7C15
        self._s = state

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        r = (s1 * 5) & _MASK
        r = ((r << 7) | (r >> 57)) & _MASK
        r = (r * 9) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        self._s = [s0, s1, s2, s3]
        return r

    def _bulk_u64(self, n: int) -> list[int]:
        # Hot path: locals only, no attribute lookups inside the loop.
        s0, s1, s2, s3 = self._s
        out = [0] * n
        for i in range(n):
            r = (s1 * 5) & _MASK
            r = ((r << 7) | (r >> 57)) & _MASK
            out[i] = (r * 9) & _MASK
            t = (s1 << 17) & _MASK
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        self._s = [s0, s1, s2, s3]
        return out

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * _DOUBLE_SCALE

    def uniforms(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be nonnegative")
        raw = np.array(self._bulk_u64(n), dtype=np.uint64)
        return (raw >> np.uint64(11)).astype(np.float64) * _DOUBLE_SCALE

    def normals(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError("n must be nonnegative")
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        u1 = u[0::2]
        u2 = u[1::2]
        r = np.sqrt(-2.0 * np.log1p(-u1))
        ang = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(ang)
        out[1::2] = r * np.sin(ang)
        return out[:n]

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def shuffle(self, seq) -> None:
        # the n-1 below(i + 1) draws, taken from the stream in one block
        n = len(seq)
        for i, r in zip(range(n - 1, 0, -1), self._bulk_u64(max(n - 1, 0))):
            j = r % (i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything else loudly."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    return np.ascontiguousarray(m)


def matmul(a, b) -> np.ndarray:
    a = as_matrix(a, "left operand")
    b = as_matrix(b, "right operand")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(
            f"cannot multiply {a.shape[0]}x{a.shape[1]} by {b.shape[0]}x{b.shape[1]}: "
            f"inner dimensions {a.shape[1]} and {b.shape[0]} differ")
    return a @ b


def column_stats(m) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population standard deviation (divisor n)."""
    m = as_matrix(m)
    if m.shape[0] < 1:
        raise ShapeError("column_stats needs at least one row")
    means = m.mean(axis=0)
    stds = np.sqrt(np.mean((m - means) ** 2, axis=0))
    return means, stds


def covariance(m) -> np.ndarray:
    """Sample covariance (divisor n-1) of the rows of ``m``."""
    m = as_matrix(m)
    n = m.shape[0]
    if n < 2:
        raise InsufficientDataError(f"covariance needs at least 2 rows, got {n}")
    centered = m - m.mean(axis=0)
    cov = (centered.T @ centered) / (n - 1)
    return (cov + cov.T) / 2.0  # kill accumulation asymmetry


def _check_symmetric(m: np.ndarray) -> None:
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    gap = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if gap > 1e-9 * scale:
        raise ContractError(f"matrix is not symmetric (max |m - m^T| = {gap:.3e})")


def sym_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi sweeps.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted
    descending and eigenvectors as the ROWS of the returned matrix, so that
    ``eigenvectors.T @ diag(eigenvalues) @ eigenvectors`` reconstructs ``m``.
    Eigenvalues in [-1e-9, 0) are clamped to 0 so nominally PSD inputs stay
    PSD under roundoff.
    """
    a = as_matrix(m, "sym_eig input").copy()
    n, cols = a.shape
    if n != cols:
        raise ShapeError(f"sym_eig needs a square matrix, got {n}x{cols}")
    _check_symmetric(a)
    if n == 0:
        return np.empty(0), np.empty((0, 0))
    if n == 1:
        return a[0].copy(), np.ones((1, 1))

    v = np.eye(n)
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.zeros(n), v
    # Rotations with |a_pq| below this cannot move the result at float64
    # resolution; skipping them makes late sweeps nearly free.
    skip = 1e-18 * norm
    tol = 1e-13 * norm
    converged = False
    for _ in range(60):
        off = float(np.sqrt(max(0.0, np.sum(a * a) - np.sum(np.diag(a) ** 2))))
        if off <= tol:
            converged = True
            break
        for p in range(n - 1):
            row = a[p]
            for q in range(p + 1, n):
                apq = row[q]
                if abs(apq) <= skip:
                    continue
                app = a[p, p]
                aqq = a[q, q]
                theta = (aqq - app) / (2.0 * apq)
                t = 1.0 / (abs(theta) + np.sqrt(1.0 + theta * theta))
                if theta < 0.0:
                    t = -t
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                cp = a[:, p].copy()
                cq = a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                rp = a[p, :].copy()
                rq = a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        converged = False
    if not converged:
        off = float(np.sqrt(max(0.0, np.sum(a * a) - np.sum(np.diag(a) ** 2))))
        if off > 1e-7 * norm:
            raise NumericError(f"Jacobi eigensolver did not converge (off-diagonal {off:.3e})")

    w = np.diag(a).copy()
    w[(w >= -1e-9) & (w < 0.0)] = 0.0
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order].T.copy()
