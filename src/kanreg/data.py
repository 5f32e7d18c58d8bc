"""Feature tables: file formats, splits, standardization, synthetic data.

Two interchangeable on-disk formats carry (features, score) rows:

* CSV with header ``f0,...,f{d-1},mos``, UTF-8, '.' decimal separator.
* A little-endian binary container: magic ``KANF``, u16 version (= 1),
  u32 n, u32 d, then n*d float64 features row-major, then n float64 scores.

Loaders reject malformed input with precise locations instead of guessing.
"""

from __future__ import annotations

import csv
import itertools
import os
import struct
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (FormatError, InsufficientDataError, ParameterError,
                     ParseError, ShapeError, UnsupportedVersionError)
from .linalg import Rng, as_matrix

BINARY_MAGIC = b"KANF"
BINARY_VERSION = 1
_HEADER = struct.Struct("<4sHII")

TRAIN_FRACTION_NUM = 7     # 0.70 as exact integer arithmetic
VAL_FRACTION_NUM = 15      # 0.15


@dataclass
class FeatureTable:
    name: str
    features: np.ndarray    # [n, d] float64
    scores: np.ndarray      # [n] float64

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass
class SplitIndices:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


@dataclass
class Standardizer:
    means: np.ndarray
    stds: np.ndarray        # population std of the fitting rows
    epsilon: float = 1e-8


def atomic_write_text(path, text: str) -> None:
    """Write via temp file + rename so readers never observe partial files."""
    _atomic_write(path, [text.encode("utf-8")])


def _atomic_write(path, chunks) -> None:
    """Write an iterable of byte chunks via temp file + rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kanreg-tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _infer_format(path, fmt: str | None) -> str:
    if fmt is None:
        fmt = "bin" if Path(path).suffix.lower() == ".bin" else "csv"
    if fmt not in ("csv", "bin"):
        raise ParameterError(f"format must be 'csv' or 'bin', got {fmt!r}")
    return fmt


def load_table(path, fmt: str | None = None) -> FeatureTable:
    fmt = _infer_format(path, fmt)
    name = Path(path).stem
    if fmt == "bin":
        return _load_binary(path, name)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            data = _load_csv(fh, path)
        except UnicodeDecodeError:  # the text layer decodes whole chunks, not lines
            raise utf8_error(path) from None
    d = data.shape[1] - 1
    return FeatureTable(name=name, features=data[:, :d].copy(), scores=data[:, d].copy())


def utf8_error(path) -> ParseError:
    """A ParseError naming ``path`` and the first line in it that is not UTF-8."""
    offset = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as e:
                return ParseError(f"{path} is not UTF-8 text", line=lineno,
                                  offset=offset + e.start)
            offset += len(raw)
    return ParseError(f"{path} is not UTF-8 text")


def _load_csv(fh, path) -> np.ndarray:
    """The [n, d + 1] values of a CSV table, every cell read as ``float()`` reads it.

    NumPy's C reader parses plain numeric tables in one pass. Whatever it
    rejects or cannot vouch for (quoted cells, '1_000', full-width digits,
    a ragged, non-numeric or non-finite cell, no data rows) goes through the
    row loop, which reads the cell forms only ``float()`` accepts and names
    the line and column of each error.
    """
    reader = csv.reader(fh)
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError("empty CSV file", line=1)
        if len(header) < 2 or header[-1].strip() != "mos":
            raise ParseError("header must end with a 'mos' column after at "
                             "least one feature column", line=1)
        data = _load_numeric(fh, len(header))
        if data is not None:
            return data
        fh.seek(0)
        reader = csv.reader(fh)
        next(reader)
        return _load_rows(reader, len(header), path)
    except csv.Error as e:  # e.g. an unclosed quote that runs past the field limit
        raise ParseError(f"{path} is not valid CSV ({e})", line=reader.line_num) from None


def _load_numeric(fh, width: int) -> np.ndarray | None:
    """The rest of ``fh`` as ``width`` finite columns, or None if NumPy's reader cannot tell."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # comments=None: the default '#' would read '1#2' as 1
            data = np.loadtxt(fh, dtype=np.float64, delimiter=",", comments=None, ndmin=2)
    except UnicodeDecodeError:
        raise
    except ValueError:
        return None
    if data.shape[0] >= 1 and data.shape[1] == width and np.isfinite(data).all():
        return data
    return None


def _load_rows(reader, width: int, path) -> np.ndarray:
    """The row loop: each record through ``float()``, errors at their physical line."""
    rows: list[np.ndarray] = []
    for row in reader:
        if not row:
            continue
        lineno = reader.line_num  # the record's last line; a quoted cell may span lines
        if len(row) != width:
            raise ParseError(f"expected {width} fields, got {len(row)}", line=lineno)
        try:
            values = np.array(row, dtype=np.float64)  # parses as float() does
        except ValueError:
            for col, cell in enumerate(row, start=1):
                try:
                    float(cell)
                except ValueError:
                    raise ParseError(f"non-numeric cell {cell!r}",
                                     line=lineno, column=col) from None
            raise
        finite = np.isfinite(values)
        if not finite.all():
            raise ParseError("non-finite value", line=lineno,
                             column=int(np.argmin(finite)) + 1)
        rows.append(values)
    if not rows:
        raise InsufficientDataError(f"{path}: no data rows")
    return np.stack(rows)


def _load_binary(path, name: str) -> FeatureTable:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header ({len(raw)} bytes)")
    magic, version, n, d = _HEADER.unpack_from(raw, 0)
    if magic != BINARY_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {BINARY_MAGIC!r}")
    if version != BINARY_VERSION:
        raise UnsupportedVersionError(
            f"{path}: binary version {version} is not supported (expected {BINARY_VERSION})")
    expected = _HEADER.size + 8 * n * d + 8 * n
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload is {len(raw) - _HEADER.size} bytes but n={n}, d={d} "
            f"requires {expected - _HEADER.size}")
    if n < 1 or d < 1:
        raise InsufficientDataError(f"{path}: declares n={n}, d={d}")
    features = np.frombuffer(raw, dtype="<f8", count=n * d,
                             offset=_HEADER.size).reshape(n, d).astype(np.float64)
    scores = np.frombuffer(raw, dtype="<f8", count=n,
                           offset=_HEADER.size + 8 * n * d).astype(np.float64)
    if not (np.all(np.isfinite(features)) and np.all(np.isfinite(scores))):
        raise FormatError(f"{path}: non-finite value in payload")
    return FeatureTable(name=name, features=features, scores=scores)


def save_table(table: FeatureTable, path, fmt: str | None = None) -> None:
    fmt = _infer_format(path, fmt)
    n, d = table.features.shape
    if table.scores.shape != (n,):
        raise ShapeError(f"scores shape {table.scores.shape} does not match n={n}")
    if fmt == "csv":  # streamed one line at a time
        header = ",".join([f"f{j}" for j in range(d)] + ["mos"]) + "\n"
        row_fmt = ",".join(["%.17g"] * (d + 1)) + "\n"  # %.17g prints doubles losslessly
        lines = (row_fmt % (*row.tolist(), score)
                 for row, score in zip(table.features, table.scores.tolist()))
        _atomic_write(path, (line.encode("utf-8")
                             for line in itertools.chain([header], lines)))
    else:
        payload = _HEADER.pack(BINARY_MAGIC, BINARY_VERSION, n, d)
        payload += table.features.astype("<f8").tobytes(order="C")
        payload += table.scores.astype("<f8").tobytes(order="C")
        _atomic_write(path, [payload])


def split(n: int, seed: int) -> SplitIndices:
    """Deterministic 70/15/15 shuffle split of range(n).

    Sizes are floor(0.7 n) / floor(0.15 n) / remainder; for n < 7 the val
    floor would be zero, so one row moves from train to val to keep every
    part nonempty.
    """
    if n < 3:
        raise InsufficientDataError(f"need at least 3 rows to split, got {n}")
    idx = list(range(n))
    Rng(seed).shuffle(idx)
    n_train = (TRAIN_FRACTION_NUM * n) // 10
    n_val = (VAL_FRACTION_NUM * n) // 100
    if n_val == 0:
        n_val = 1
        n_train -= 1
    return SplitIndices(
        train=np.asarray(idx[:n_train], dtype=np.int64),
        val=np.asarray(idx[n_train:n_train + n_val], dtype=np.int64),
        test=np.asarray(idx[n_train + n_val:], dtype=np.int64),
    )


def fit_standardizer(features, indices=None) -> Standardizer:
    """Column means / population stds over the selected rows only."""
    rows = as_matrix(features if indices is None
                     else features[np.asarray(indices, dtype=np.int64)], "standardizer input")
    if rows.shape[0] < 1:
        raise ShapeError("a standardizer needs at least one row")
    return Standardizer(means=rows.mean(axis=0), stds=rows.std(axis=0))


def apply_standardizer(std: Standardizer, features) -> np.ndarray:
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2 or f.shape[1] != std.means.size:
        raise ShapeError(
            f"standardizer was fit on {std.means.size} columns, input shape is {f.shape}")
    return (f - std.means) / (std.stds + std.epsilon)


SYNTHETIC_TARGETS = ("linear", "quadratic", "mixed")


def make_synthetic(n: int, d: int, intrinsic_rank: int, noise_sigma: float = 0.0,
                   target: str = "quadratic", seed: int = 0,
                   name: str = "synthetic") -> FeatureTable:
    """Low-rank Gaussian feature table with a latent-driven score.

    Features are ``Z @ W (+ noise)`` for Z [n x rank] standard normal and a
    fixed loading matrix W [rank x d] whose rows carry geometrically
    decaying scales. Distinct factor variances keep the covariance spectrum
    away from degeneracy, so a PCA of the features recovers the individual
    factors instead of an arbitrary basis of their span. The score is a
    linear, centered diagonal-quadratic, or quadratic-plus-cross-term
    function of Z, then affinely mapped onto [0, 100]. Everything is a pure
    function of the seed. The three coefficient vectors are always drawn,
    so tables with different targets share identical features for a given
    seed.
    """
    if n < 1 or d < 1:
        raise ParameterError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if not 1 <= intrinsic_rank <= d:
        raise ParameterError(
            f"intrinsic_rank must be in [1, {d}], got {intrinsic_rank}")
    if noise_sigma < 0.0:
        raise ParameterError(f"noise_sigma must be >= 0, got {noise_sigma}")
    if target not in SYNTHETIC_TARGETS:
        raise ParameterError(
            f"target must be one of {SYNTHETIC_TARGETS}, got {target!r}")
    rng = Rng(seed)
    r = intrinsic_rank
    z = rng.normals(n * r).reshape(n, r)
    loading = rng.normals(r * d).reshape(r, d) / np.sqrt(r)
    # factor i variance ~ 1.5^-i: separated eigenvalues, identifiable PCs
    loading = loading * (1.5 ** (-0.5 * np.arange(r)))[:, None]
    features = z @ loading
    if noise_sigma > 0.0:
        features = features + noise_sigma * rng.normals(n * d).reshape(n, d)
    lin_coef = rng.normals(r)
    # nonlinear parts ride on a dominant linear trend (about a fifth of the
    # score variance each), so the signal stays learnable at small n while
    # still separating expansion orders
    quad_coef = 0.35 * rng.normals(r)
    cross_coef = 0.35 * rng.normals(r)
    raw = z @ lin_coef
    if target in ("quadratic", "mixed"):
        raw = raw + (z * z - 1.0) @ quad_coef
    if target == "mixed":
        raw = raw + (z * np.roll(z, -1, axis=1)) @ cross_coef
    lo = float(raw.min())
    hi = float(raw.max())
    if hi - lo < 1e-12:
        scores = np.full(n, 50.0)
    else:
        scores = 100.0 * (raw - lo) / (hi - lo)
    return FeatureTable(name=name, features=features, scores=scores)


def mos_histogram(scores, bins: int = 100) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of scores over uniform bin edges spanning [min, max].

    Returns ``(edges, counts)`` with len(edges) == bins + 1. Counts always
    sum to n; a constant score vector lands in a single bin.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    if s.size < 1:
        raise InsufficientDataError("histogram needs at least one score")
    if bins < 1:
        raise ParameterError(f"bins must be >= 1, got {bins}")
    counts, edges = np.histogram(s, bins=bins)
    return edges, counts.astype(np.int64)
