"""The deterministic random stream, the matrix check and the eigensolver.

Matrices are plain 2-D C-contiguous ``numpy.ndarray`` objects (row-major,
``float64``); ``as_matrix`` enforces that shape and ``sym_eig`` adds the
symmetry and finiteness checks before LAPACK's symmetric solver
(``numpy.linalg.eigh``). The products it decomposes are formed by their
caller (``pca.fit``). A rerun on the same machine (same NumPy, BLAS/LAPACK
build and thread count) gives identical results; other machines agree to
rounding, not bit for bit.

Large blocks of random draws are computed in lanes: the xoshiro256** state
update is linear over GF(2), so the state ``j`` steps ahead is a 256x256 bit
matrix power applied to the current state. Each lane jumps to its start
that way and all lanes then step together as NumPy ``uint64`` arrays. The
result is the same stream, bit for bit, as stepping one draw at a time.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ContractError, NumericError, ParameterError, ShapeError

_MASK = 0xFFFFFFFFFFFFFFFF
_DOUBLE_SCALE = 2.0 ** -53

# Blocks of at least this many draws are computed in lanes (Rng._lane_u64);
# smaller ones step in plain Python, which is faster there.
LANE_MIN = 4096

_BIT = np.arange(64, dtype=np.uint64)


def _state_bits(words: np.ndarray) -> np.ndarray:
    """``[4, m]`` uint64 states as ``[256, m]`` float64 bit columns."""
    return ((words[:, None, :] >> _BIT[None, :, None]) & np.uint64(1)).reshape(
        256, words.shape[1]).astype(np.float64)


def _state_words(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_state_bits`."""
    return (bits.reshape(4, 64, -1).astype(np.uint64) << _BIT[None, :, None]).sum(
        axis=1, dtype=np.uint64)


def _step_lanes(start: np.ndarray, steps: int, stop: int):
    """Step the ``[4, K]`` uint64 lane states ``start`` together ``steps`` times.

    Returns ``(s1, snapshot)``: ``s1[t]`` is every lane's ``s1`` word before
    step ``t`` (``steps + 1`` rows), and ``snapshot`` is the ``[4, K]`` state
    of every lane after ``stop`` steps.
    """
    s0, s2, s3 = (start[i].copy() for i in (0, 2, 3))
    s1 = np.empty((steps + 1, start.shape[1]), dtype=np.uint64)
    s1[0] = start[1]
    t = np.empty_like(s0)
    snapshot = None
    for i in range(steps):
        cur = s1[i]
        np.left_shift(cur, 17, out=t)
        s2 ^= s0
        s3 ^= cur
        np.bitwise_xor(cur, s2, out=s1[i + 1])
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, 45, out=t)
        s3 >>= 19
        s3 |= t
        if i + 1 == stop:
            snapshot = np.stack([s0, s1[i + 1], s2, s3])
    return s1, snapshot


@functools.cache
def _step_power(j: int) -> np.ndarray:
    """T^(2^j), T the xoshiro256** step matrix over GF(2), as uint8 0/1.

    Column i is the image of state bit i (bit b of word w is 64w + b). Each
    power is built once per process, by squaring the one before as a
    float64 matmul mod 2 (exact: the sums stay at or below 256), and kept
    as uint8 so the cache stays small.
    """
    if j == 0:
        unit = np.zeros((4, 256), dtype=np.uint64)
        bit = np.arange(256)
        unit[bit // 64, bit] = np.uint64(1) << _BIT[bit % 64]
        return _state_bits(_step_lanes(unit, 1, 1)[1]).astype(np.uint8)
    half = _step_power(j - 1).astype(np.float64)
    return ((half @ half) % 2.0).astype(np.uint8)


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

    Blocks of at least ``LANE_MIN`` draws are computed in lanes (see the
    module docstring); the stream and the state after the block are the
    same as from single steps.

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
            raise ParameterError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
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
        return self._bulk_u64(1)[0]

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

    def _lane_u64(self, n: int) -> np.ndarray:
        # K lanes of L = 2^k steps, L near sqrt(n); lane j starts at
        # T^(jL) s. The lane starts double each round: P = T^(L 2^i) maps
        # the first m starts onto the next m.
        k = (n.bit_length() + 1) // 2
        steps = 1 << k
        lanes = -(-n // steps)
        starts = _state_bits(np.array(self._s, dtype=np.uint64)[:, None])
        i = 0
        while starts.shape[1] < lanes:
            jump = _step_power(k + i).astype(np.float64)
            ahead = jump @ starts[:, :lanes - starts.shape[1]]
            starts = np.hstack([starts, ahead % 2.0])
            i += 1
        s1, snapshot = _step_lanes(_state_words(starts), steps, n - (lanes - 1) * steps)
        self._s = [int(w) for w in snapshot[:, -1]]
        r = s1[:steps] * np.uint64(5)
        r = (r << np.uint64(7)) | (r >> np.uint64(57))
        r *= np.uint64(9)
        return r.T.ravel()[:n]

    def uniform(self) -> float:
        return (self.next_u64() >> 11) * _DOUBLE_SCALE

    def uniforms(self, n: int) -> np.ndarray:
        if n < 0:
            raise ParameterError(f"n must be nonnegative, got {n}")
        if n >= LANE_MIN:
            raw = self._lane_u64(n)
        else:
            raw = np.array(self._bulk_u64(n), dtype=np.uint64)
        return (raw >> np.uint64(11)).astype(np.float64) * _DOUBLE_SCALE

    def normals(self, n: int) -> np.ndarray:
        if n < 0:
            raise ParameterError(f"n must be nonnegative, got {n}")
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
            raise ParameterError(f"bound must be positive, got {bound}")
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


def _check_symmetric(m: np.ndarray) -> None:
    scale = max(1.0, float(np.max(np.abs(m))) if m.size else 1.0)
    gap = float(np.max(np.abs(m - m.T))) if m.size else 0.0
    if gap > 1e-9 * scale:
        raise ContractError(f"matrix is not symmetric (max |m - m^T| = {gap:.3e})")


def sym_eig(m) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of a symmetric matrix (LAPACK, via ``eigh``).

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues sorted
    descending and eigenvectors as the ROWS of the returned matrix, so that
    ``eigenvectors.T @ diag(eigenvalues) @ eigenvectors`` reconstructs ``m``.
    Eigenvalues in [-1e-9, 0) are clamped to 0 so nominally PSD inputs stay
    PSD under roundoff. Non-finite input, and eigenvalues that overflow
    float64, raise ``NumericError``.
    """
    a = as_matrix(m, "sym_eig input")
    n, cols = a.shape
    if n != cols:
        raise ShapeError(f"sym_eig needs a square matrix, got {n}x{cols}")
    if not np.isfinite(a).all():
        raise NumericError("sym_eig input has non-finite entries (NaN or Inf)")
    _check_symmetric(a)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc
    if not np.isfinite(w).all():
        raise NumericError("sym_eig overflowed: an eigenvalue exceeds the float64 range")
    w[(w >= -1e-9) & (w < 0.0)] = 0.0
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order].T.copy()
