"""Correlation metrics and the paired significance test.

PLCC is the Pearson product-moment correlation of two float vectors. SRCC
is the Pearson correlation of their average ranks (ties get the mean of
the positions they occupy, so it matches the usual tied-rank definition
rather than the 6*sum(d^2) shortcut, which is only valid without ties).
The paired t-test is two-sided with n - 1 degrees of freedom; its p-value
comes from the regularized incomplete beta function evaluated with a
Lentz-style continued fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import FeatureTable
from .errors import (InsufficientDataError, ParameterError, ShapeError,
                     UndefinedCorrelationError)
from .network import ModelBundle, predict


def _pair(a, b) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise ShapeError(f"length mismatch: {a.size} vs {b.size}")
    if a.size < 2:
        raise InsufficientDataError(f"need at least 2 pairs, got {a.size}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ParameterError("inputs must be finite")
    return a, b


def plcc(a, b) -> float:
    """Pearson linear correlation coefficient, unclamped."""
    a, b = _pair(a, b)
    ac = a - a.mean()
    bc = b - b.mean()
    va = float(ac @ ac)
    vb = float(bc @ bc)
    if va <= 0.0 or vb <= 0.0:
        raise UndefinedCorrelationError(
            "correlation is undefined when an input is constant")
    return float(ac @ bc) / math.sqrt(va * vb)


def rank_average(values) -> np.ndarray:
    """1-based ranks; tied values share the mean of their positions."""
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    _, group, counts = np.unique(v, return_inverse=True, return_counts=True,
                                 equal_nan=False)
    # a tie group of c values ending at 1-based position e spans e-c+1..e
    ends = np.cumsum(counts)
    return (ends - 0.5 * (counts - 1))[group]


def srcc(a, b) -> float:
    """Spearman rank correlation: PLCC of the average ranks."""
    a, b = _pair(a, b)
    return plcc(rank_average(a), rank_average(b))


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta, modified Lentz iteration.
    max_iter = 300
    eps = 3e-16
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ParameterError(f"incomplete beta failed to converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ParameterError("beta parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    # use the branch where the continued fraction converges fast
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom."""
    if df < 1:
        raise ParameterError(f"degrees of freedom must be >= 1, got {df}")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    p = regularized_incomplete_beta(0.5 * df, 0.5, x)
    return min(1.0, max(0.0, p))


@dataclass(frozen=True)
class SignificanceResult:
    t_stat: float
    p_value: float
    significant: bool
    df: int


def paired_t_test(a, b) -> SignificanceResult:
    """Two-sided paired t-test on the differences a - b, at the 5% level.

    All-zero differences give t = 0, p = 1 (no evidence either way).
    Zero-variance nonzero differences give an infinite t and p = 0: the
    systems disagree by an exact constant, which no finite sample can
    explain away.
    """
    a, b = _pair(a, b)
    d = a - b
    n = d.size
    mean = float(d.mean())
    var = float(((d - mean) ** 2).sum()) / (n - 1)
    sd = math.sqrt(var)
    if sd == 0.0:
        if mean == 0.0:
            t = 0.0
            p = 1.0
        else:
            t = math.inf if mean > 0.0 else -math.inf
            p = 0.0
    else:
        t = mean / (sd / math.sqrt(n))
        p = student_t_two_sided_p(t, n - 1)
    return SignificanceResult(t_stat=t, p_value=p, significant=p < 0.05, df=n - 1)


@dataclass
class EvalReport:
    plcc: float
    srcc: float
    n: int


def evaluate(model: ModelBundle, table: FeatureTable, indices=None) -> EvalReport:
    """Score a trained model on (a subset of) a table."""
    if indices is None:
        feats = table.features
        y = table.scores
    else:
        idx = np.asarray(indices, dtype=np.int64).reshape(-1)
        feats = table.features[idx]
        y = table.scores[idx]
    preds = predict(model, feats)
    return EvalReport(plcc=plcc(preds, y), srcc=srcc(preds, y), n=int(y.size))
