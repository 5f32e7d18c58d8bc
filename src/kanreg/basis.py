"""Univariate activation basis families for KAN edges.

Nine families are supported. Eight of them ("coefficient families") map a
scalar input to a fixed-length feature vector whose entries are weighted by
learned coefficients:

* ``taylor``        Taylor terms ``x^j / j!``, j = 0..order
* ``chebyshev``     first-kind Chebyshev polynomials T_0..T_n
* ``jacobi``        Jacobi polynomials P_n^(alpha, beta)
* ``hermite``       probabilists' Hermite polynomials He_0..He_n
* ``gaussian_rbf``  Gaussian bumps exp(-((x - c)/h)^2) at 8 fixed centres on [-2, 2]
* ``bspline``       uniform B-splines on [-1, 1] (Cox-de Boor)
* ``bsrbf``         a bspline block, then Gaussian bumps at 8 fixed centres on [-1, 1]
* ``fourier``       [1, cos(pi x), sin(pi x), ..., cos(N pi x), sin(N pi x)]

The ninth, ``wavelet_mexican_hat``, has a single learned amplitude per edge
plus learnable per-edge scale and shift of the mother wavelet; it is
evaluated through :func:`mexican_hat`.

Both entry points, :func:`evaluate_basis` and :func:`mexican_hat`, return
``(values, derivative)``. ``derivative()`` builds the exact analytic
derivatives from arrays that same call made, so a caller that never asks
(inference, or a layer whose input gradient is not needed) pays nothing.
The bounded-domain families (see :data:`SQUASHED_FAMILIES`) expect inputs in
[-1, 1]; network layers guarantee this by passing their inputs through tanh.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import FormatError, ParameterError, json_number

FAMILIES = (
    "taylor",
    "chebyshev",
    "jacobi",
    "hermite",
    "gaussian_rbf",
    "bspline",
    "bsrbf",
    "wavelet_mexican_hat",
    "fourier",
)

# Families whose domain is [-1, 1]; layers squash their inputs with tanh.
# bsrbf joins because its bspline half needs the bounded domain.
SQUASHED_FAMILIES = frozenset(
    {"chebyshev", "jacobi", "hermite", "fourier", "bspline", "bsrbf"})

# Families whose basis function 0 is the constant 1 (see network.BIAS_MIN).
CONSTANT_FIRST_FAMILIES = frozenset({"taylor", "chebyshev", "jacobi", "hermite", "fourier"})

# The fixed RBF grids, (centres, width h), by family: gaussian_rbf spans
# [-2, 2], bsrbf's RBF half the bspline domain [-1, 1].
_RBF_GRIDS = {"gaussian_rbf": (np.linspace(-2.0, 2.0, 8), 4.0 / 7.0),
              "bsrbf": (np.linspace(-1.0, 1.0, 8), 2.0 / 7.0)}

# The polynomial families: ``order`` sets their basis size, terms 0..order.
_POLYNOMIAL_FAMILIES = ("taylor", "chebyshev", "jacobi", "hermite")

# Mexican hat normalization 2 / sqrt(3 sqrt(pi)); peak value at 0.
MEXICAN_HAT_PEAK = 2.0 / math.sqrt(3.0 * math.sqrt(math.pi))


@dataclass(frozen=True)
class BasisSpec:
    """One basis family plus the fields its CLI flags set, named as the flags.

    Only the fields :data:`FAMILY_FIELDS` lists for ``family`` are meaningful;
    the factory classmethods build well-formed specs and direct construction
    is validated the same way.
    """

    family: str
    order: int = 4                 # taylor / chebyshev / jacobi / hermite: highest term
    alpha: float = 1.0             # jacobi
    beta: float = 1.0              # jacobi
    grid_size: int = 5             # bspline / bsrbf: interior cells on [-1, 1]
    degree: int = 3                # bspline / bsrbf
    harmonics: int = 4             # fourier

    def __post_init__(self):
        f = self.family
        if f not in FAMILIES:
            raise ParameterError(f"unknown basis family {f!r}; expected one of {', '.join(FAMILIES)}")
        if f in _POLYNOMIAL_FAMILIES and self.order < 0:
            raise ParameterError(f"{f} order must be >= 0, got {self.order}")
        if f == "jacobi" and not (self.alpha > -1.0 and self.beta > -1.0):  # NaN too
            raise ParameterError(
                f"jacobi requires alpha > -1 and beta > -1, got alpha={self.alpha}, beta={self.beta}")
        if f in ("bspline", "bsrbf"):
            if self.degree < 0:
                raise ParameterError(f"{f} degree must be >= 0, got {self.degree}")
            if self.grid_size < self.degree + 1:
                raise ParameterError(
                    f"{f} grid_size must be >= degree + 1, got grid_size={self.grid_size} degree={self.degree}")
        if f == "fourier" and self.harmonics < 0:
            raise ParameterError(f"fourier harmonics must be >= 0, got {self.harmonics}")

    @classmethod
    def taylor(cls, order: int = 2) -> "BasisSpec":
        return cls(family="taylor", order=order)

    @classmethod
    def chebyshev(cls, order: int = 4) -> "BasisSpec":
        return cls(family="chebyshev", order=order)

    @classmethod
    def jacobi(cls, order: int = 4, alpha: float = 1.0, beta: float = 1.0) -> "BasisSpec":
        return cls(family="jacobi", order=order, alpha=alpha, beta=beta)

    @classmethod
    def hermite(cls, order: int = 4) -> "BasisSpec":
        return cls(family="hermite", order=order)

    @classmethod
    def gaussian_rbf(cls) -> "BasisSpec":
        return cls(family="gaussian_rbf")

    @classmethod
    def bspline(cls, grid_size: int = 5, degree: int = 3) -> "BasisSpec":
        return cls(family="bspline", grid_size=grid_size, degree=degree)

    @classmethod
    def bsrbf(cls, grid_size: int = 5, degree: int = 3) -> "BasisSpec":
        return cls(family="bsrbf", grid_size=grid_size, degree=degree)

    @classmethod
    def wavelet(cls) -> "BasisSpec":
        return cls(family="wavelet_mexican_hat")

    @classmethod
    def fourier(cls, harmonics: int = 4) -> "BasisSpec":
        return cls(family="fourier", harmonics=harmonics)

    def squashes_input(self) -> bool:
        return self.family in SQUASHED_FAMILIES

    def to_dict(self) -> dict:
        return {"family": self.family,
                **{attr: getattr(self, attr) for attr, _ in FAMILY_FIELDS[self.family]}}

    @classmethod
    def from_dict(cls, d: dict) -> "BasisSpec":
        """The spec of a model file's ``basis`` object, which holds exactly its family's fields."""
        f = d.get("family")
        if f not in FAMILIES:
            raise FormatError(f"basis has unknown family {f!r}")
        fields = FAMILY_FIELDS[f]
        extra = sorted(set(d) - {"family"} - {attr for attr, _ in fields})
        if extra:
            raise FormatError(f"basis holds fields that {f} does not store: {', '.join(extra)}")
        return cls(family=f, **{attr: json_number(d.get(attr), kind, f"basis.{attr}")
                                for attr, kind in fields})


# Per family, the spec fields a model file stores, in file order, as
# (attribute, type). Each attribute is also the _FLAGS key of the flag that sets it.
FAMILY_FIELDS = {
    "taylor": (("order", int),),
    "chebyshev": (("order", int),),
    "jacobi": (("order", int), ("alpha", float), ("beta", float)),
    "hermite": (("order", int),),
    "gaussian_rbf": (),
    "bspline": (("grid_size", int), ("degree", int)),
    "bsrbf": (("grid_size", int), ("degree", int)),
    "wavelet_mexican_hat": (),
    "fourier": (("harmonics", int),),
}


def basis_size(spec: BasisSpec) -> int:
    """Number of learned coefficients per edge for ``spec``."""
    f = spec.family
    if f in _POLYNOMIAL_FAMILIES:
        return spec.order + 1
    if f == "gaussian_rbf":
        return len(_RBF_GRIDS[f][0])
    if f == "bspline":
        return spec.grid_size + spec.degree
    if f == "bsrbf":
        return spec.grid_size + spec.degree + len(_RBF_GRIDS[f][0])
    if f == "fourier":
        return 2 * spec.harmonics + 1
    return 1  # wavelet_mexican_hat: one amplitude per edge


# Kernels: (float64 x [rows, cols], spec) -> (basis-major values [rows, b, cols], derivative).

def _taylor(xf: np.ndarray, spec: BasisSpec):
    """Taylor terms ``x^j / j!`` for j = 0..order; d/dx of term j is term j - 1."""
    vals = np.empty((len(xf), spec.order + 1, xf.shape[1]))
    vals[:, 0] = 1.0
    vals[:, 1:2] = xf[:, None]  # term 1, (1 * x) / 1, is x bit for bit
    for j in range(2, spec.order + 1):
        np.multiply(vals[:, j - 1], xf, out=vals[:, j])
        vals[:, j] /= j

    def derivative():
        d = np.zeros(vals.shape)  # half the call overhead of zeros_like, per backward layer
        d[:, 1:] = vals[:, :-1]
        return d
    return vals, derivative


def _chebyshev(xf: np.ndarray, spec: BasisSpec):
    """T_0..T_n of the first kind; dT_n/dx = n U_{n-1} via the second kind."""
    b = spec.order + 1

    def table(p1: np.ndarray, size: int) -> np.ndarray:
        """p_0 = 1, p_1 = p1, p_n = 2x p_{n-1} - p_{n-2}, for n < size."""
        p = np.empty((len(xf), size, xf.shape[1]))
        p[:, :1] = 1.0
        p[:, 1:2] = p1[:, None]
        for n in range(2, size):
            p[:, n] = 2.0 * xf * p[:, n - 1] - p[:, n - 2]
        return p

    def derivative():
        d = np.zeros((len(xf), b, xf.shape[1]))
        d[:, 1:] = np.arange(1, b)[:, None] * table(2.0 * xf, b - 1)
        return d
    return table(xf, b), derivative


def _jacobi_table(xf: np.ndarray, order: int, alpha: float, beta: float) -> np.ndarray:
    """P_0..P_order^(alpha, beta) at xf via the three-term recurrence."""
    p = np.empty((len(xf), order + 1, xf.shape[1]))
    p[:, 0] = 1.0
    if order >= 1:
        p[:, 1] = 0.5 * (alpha - beta) + 0.5 * (alpha + beta + 2.0) * xf
    ab = alpha + beta
    for n in range(2, order + 1):
        c1 = 2.0 * n * (n + ab) * (2.0 * n + ab - 2.0)
        c2 = (2.0 * n + ab - 1.0) * (alpha * alpha - beta * beta)
        c3 = (2.0 * n + ab - 1.0) * (2.0 * n + ab) * (2.0 * n + ab - 2.0)
        c4 = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * (2.0 * n + ab)
        p[:, n] = ((c2 + c3 * xf) * p[:, n - 1] - c4 * p[:, n - 2]) / c1
    return p


def _jacobi(xf: np.ndarray, spec: BasisSpec):
    """Jacobi polynomials; dP_n/dx = ((n + a + b + 1)/2) P_{n-1}^(a+1, b+1)."""
    order, alpha, beta = spec.order, spec.alpha, spec.beta

    def derivative():
        d = np.zeros((len(xf), order + 1, xf.shape[1]))
        if order >= 1:
            shifted = _jacobi_table(xf, order - 1, alpha + 1.0, beta + 1.0)
            d[:, 1:] = (0.5 * (np.arange(1, order + 1) + alpha + beta + 1.0))[:, None] * shifted
        return d
    return _jacobi_table(xf, order, alpha, beta), derivative


def _hermite(xf: np.ndarray, spec: BasisSpec):
    """Probabilists' Hermite He_0..He_n; dHe_n/dx = n He_{n-1}."""
    b = spec.order + 1
    vals = np.empty((len(xf), b, xf.shape[1]))
    vals[:, 0] = 1.0
    if b > 1:
        vals[:, 1] = xf
    for n in range(2, b):
        vals[:, n] = xf * vals[:, n - 1] - (n - 1) * vals[:, n - 2]

    def derivative():
        d = np.zeros_like(vals)
        d[:, 1:] = np.arange(1, b)[:, None] * vals[:, :-1]
        return d
    return vals, derivative


def _rbf(xf: np.ndarray, spec: BasisSpec):
    """Gaussian bumps exp(-u^2), u = (x - c)/h, at the family's fixed grid."""
    grid, h = _RBF_GRIDS[spec.family]
    u = (xf[:, None] - grid[:, None]) / h
    vals = np.exp(-u * u)
    return vals, lambda: (-2.0 / h) * u * vals


def _bspline(xf: np.ndarray, spec: BasisSpec):
    """Uniform B-spline basis on [-1, 1] (Cox-de Boor).

    The knot grid has ``grid_size`` interior cells extended by ``degree``
    cells on each side, giving ``grid_size + degree`` basis functions that
    sum to one on the whole interval. Inputs are assigned to interior cells
    (the top edge is right-closed), so evaluation stays stable at x = 1.
    """
    grid_size, degree = spec.grid_size, spec.degree
    h = 2.0 / grid_size
    t = ((np.arange(grid_size + 2 * degree + 1) - degree) * h - 1.0)[:, None]
    m = len(t)
    cell = np.floor((xf + 1.0) / h).astype(np.int64) + degree
    cell = np.clip(cell, degree, degree + grid_size - 1)
    level = np.zeros((len(xf), m - 1, xf.shape[1]))
    np.put_along_axis(level, cell[:, None], 1.0, axis=1)
    xcol = xf[:, None]
    prev = level
    for k in range(1, degree + 1):
        width = m - 1 - k
        t0 = t[:width]
        tk = t[k:k + width]
        t1 = t[1:1 + width]
        tk1 = t[k + 1:k + 1 + width]
        low = prev  # level k-1; the derivative reads level degree-1
        prev = ((xcol - t0) / (tk - t0)) * low[:, :width] \
            + ((tk1 - xcol) / (tk1 - t1)) * low[:, 1:width + 1]
    b = grid_size + degree
    vals = prev[:, :b]

    def derivative():
        if degree == 0:
            return np.zeros_like(vals)
        p = degree
        return p * (low[:, :b] / (t[p:p + b] - t[:b])
                    - low[:, 1:b + 1] / (t[p + 1:p + 1 + b] - t[1:b + 1]))
    return vals, derivative


def _bsrbf(xf: np.ndarray, spec: BasisSpec):
    """The spec's bspline block, then Gaussian bumps on the [-1, 1] grid."""
    sv, sd = _bspline(xf, spec)
    rv, rd = _rbf(xf, spec)
    return np.concatenate([sv, rv], axis=1), lambda: np.concatenate([sd(), rd()], axis=1)


def _fourier(xf: np.ndarray, spec: BasisSpec):
    """[1, cos(pi x), sin(pi x), ..., cos(N pi x), sin(N pi x)]."""
    w = (np.arange(1, spec.harmonics + 1) * np.pi)[:, None]  # n pi, n = 1..N
    vals = np.empty((len(xf), 2 * spec.harmonics + 1, xf.shape[1]))
    vals[:, 0] = 1.0
    ang = w * xf[:, None]
    vals[:, 1::2] = np.cos(ang)
    vals[:, 2::2] = np.sin(ang)

    def derivative():
        d = np.zeros_like(vals)
        d[:, 1::2] = -w * vals[:, 2::2]
        d[:, 2::2] = w * vals[:, 1::2]
        return d
    return vals, derivative


_KERNELS = {
    "taylor": _taylor,
    "chebyshev": _chebyshev,
    "jacobi": _jacobi,
    "hermite": _hermite,
    "gaussian_rbf": _rbf,
    "bspline": _bspline,
    "bsrbf": _bsrbf,
    "fourier": _fourier,
}


def evaluate_basis(spec: BasisSpec, x):
    """Basis values of ``spec`` at ``x`` and a function that builds d/dx.

    Returns ``(values, derivative)``: values has shape ``x.shape + (b,)``
    and ``derivative()`` returns the exact analytic input derivative in the
    same shape, built from ``x`` and the arrays this call made (so change
    ``x`` in place only after calling it). Both are views of basis-major
    arrays: ``values.swapaxes(-1, -2)`` is C-contiguous.
    ``wavelet_mexican_hat`` is not a coefficient family (its parameters live
    on network edges); use :func:`mexican_hat` for it.
    """
    kernel = _KERNELS.get(spec.family)
    if kernel is None:
        raise ParameterError(
            f"{spec.family!r} has no fixed basis vector; evaluate it per edge instead")
    xa = np.asarray(x, dtype=np.float64)
    lead, cols = (xa.shape[:-1], xa.shape[-1]) if xa.ndim else ((), 1)
    vals, derivative = kernel(xa.reshape(math.prod(lead), cols), spec)

    def public(a):  # [rows, b, cols] -> x.shape + (b,), without a copy
        return a.swapaxes(1, 2).reshape(xa.shape + (a.shape[1],))
    return public(vals), lambda: public(derivative())


def mexican_hat(x, scale, shift):
    """Scaled/shifted Mexican hat wavelet and a function for its derivatives.

    psi(u) = (2 / sqrt(3 sqrt(pi))) (1 - u^2) exp(-u^2 / 2) and the family
    member is psi_{s,t}(x) = s^{-1/2} psi((x - t)/s), broadcast over all
    inputs. Returns ``(value, derivatives)``; ``derivatives()`` returns
    ``(d_x, d_scale)`` (d/d_shift is ``-d_x``) and reads only arrays made
    by this call, so later in-place updates of ``scale`` do not reach it.
    """
    xa = np.asarray(x, dtype=np.float64)
    s = np.array(scale, dtype=np.float64)
    t = np.asarray(shift, dtype=np.float64)
    if np.any(s <= 0.0):
        raise ParameterError("wavelet scale must be positive")
    u = (xa - t) / s
    inv_sqrt_s = 1.0 / np.sqrt(s)

    def psi_of_u():  # recomputed in derivatives() so only u stays alive
        e = np.exp(-0.5 * u * u)
        return e, MEXICAN_HAT_PEAK * (1.0 - u * u) * e

    def derivatives():
        e, psi = psi_of_u()
        dpsi = MEXICAN_HAT_PEAK * e * (u * u * u - 3.0 * u)
        d_x = inv_sqrt_s * dpsi / s
        return d_x, -(inv_sqrt_s / s) * (0.5 * psi + u * dpsi)
    return inv_sqrt_s * psi_of_u()[1], derivatives


def eval_mexican_hat(x, scale, shift):
    """``(value, d_x, d_scale, d_shift)`` of :func:`mexican_hat`, built at once."""
    value, derivatives = mexican_hat(x, scale, shift)
    d_x, d_scale = derivatives()
    return value, d_x, d_scale, -d_x
