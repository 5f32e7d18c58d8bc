"""Univariate activation basis families for KAN edges.

Nine families are supported. Eight of them ("coefficient families") map a
scalar input to a fixed-length feature vector whose entries are weighted by
learned coefficients:

* ``taylor``        monomials ``(x - center)^j``, j = 0..order
* ``chebyshev``     first-kind Chebyshev polynomials T_0..T_n
* ``jacobi``        Jacobi polynomials P_n^(alpha, beta)
* ``hermite``       probabilists' Hermite polynomials He_0..He_n
* ``gaussian_rbf``  Gaussian bumps exp(-((x - c)/h)^2) at fixed centers
* ``bspline``       uniform B-splines on [-1, 1] (Cox-de Boor)
* ``bsrbf``         concatenation of a bspline block and a gaussian_rbf block
* ``fourier``       [1, cos(pi x), sin(pi x), ..., cos(N pi x), sin(N pi x)]

The ninth, ``wavelet_mexican_hat``, has a single learned amplitude per edge
plus learnable per-edge scale and shift of the mother wavelet; it is
evaluated through :func:`eval_mexican_hat` which also returns the partial
derivatives needed for training.

Every evaluator returns ``(values, d_values)`` where both arrays have the
input's shape plus a trailing basis axis, and ``d_values`` is the exact
analytic derivative with respect to the input. The bounded-domain families
(see :data:`SQUASHED_FAMILIES`) expect inputs in [-1, 1]; network layers
guarantee this by passing their inputs through tanh first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import ParameterError

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

_RBF_CENTERS_WIDE = tuple(float(c) for c in np.linspace(-2.0, 2.0, 8))
_RBF_CENTERS_UNIT = tuple(float(c) for c in np.linspace(-1.0, 1.0, 8))

# Mexican hat normalization 2 / sqrt(3 sqrt(pi)); peak value at 0.
MEXICAN_HAT_PEAK = 2.0 / math.sqrt(3.0 * math.sqrt(math.pi))


@dataclass(frozen=True)
class BasisSpec:
    """Tagged selection of one basis family plus its hyperparameters.

    Only the fields relevant to ``family`` are meaningful; the factory
    classmethods build well-formed specs and direct construction is
    validated the same way.
    """

    family: str
    order: int = 2                 # taylor: highest monomial power
    center: float = 0.0            # taylor: expansion point
    n_max: int = 4                 # chebyshev / jacobi / hermite: highest degree
    alpha: float = 1.0             # jacobi
    beta: float = 1.0              # jacobi
    centers: tuple[float, ...] = _RBF_CENTERS_WIDE   # gaussian_rbf
    bandwidth: float = 4.0 / 7.0                     # gaussian_rbf
    grid_size: int = 5             # bspline: interior cells on [-1, 1]
    degree: int = 3                # bspline
    n_harmonics: int = 4           # fourier
    spline_part: "BasisSpec | None" = field(default=None)  # bsrbf
    rbf_part: "BasisSpec | None" = field(default=None)     # bsrbf

    def __post_init__(self):
        f = self.family
        if f not in FAMILIES:
            raise ParameterError(f"unknown basis family {f!r}; expected one of {', '.join(FAMILIES)}")
        if f == "taylor" and self.order < 0:
            raise ParameterError(f"taylor order must be >= 0, got {self.order}")
        if f in ("chebyshev", "jacobi", "hermite") and self.n_max < 0:
            raise ParameterError(f"{f} degree must be >= 0, got {self.n_max}")
        if f == "jacobi" and (self.alpha <= -1.0 or self.beta <= -1.0):
            raise ParameterError(
                f"jacobi requires alpha > -1 and beta > -1, got alpha={self.alpha}, beta={self.beta}")
        if f == "gaussian_rbf":
            if len(self.centers) < 1:
                raise ParameterError("gaussian_rbf needs at least one center")
            if not self.bandwidth > 0.0:
                raise ParameterError(f"gaussian_rbf bandwidth must be positive, got {self.bandwidth}")
        if f == "bspline":
            if self.degree < 0:
                raise ParameterError(f"bspline degree must be >= 0, got {self.degree}")
            if self.grid_size < self.degree + 1:
                raise ParameterError(
                    f"bspline grid_size must be >= degree + 1, got grid_size={self.grid_size} degree={self.degree}")
        if f == "fourier" and self.n_harmonics < 0:
            raise ParameterError(f"fourier harmonics must be >= 0, got {self.n_harmonics}")
        if f == "bsrbf":
            spline = self.spline_part or BasisSpec.bspline()
            rbf = self.rbf_part or BasisSpec.gaussian_rbf(
                centers=_RBF_CENTERS_UNIT, bandwidth=2.0 / 7.0)
            if spline.family != "bspline":
                raise ParameterError("bsrbf spline_part must have family 'bspline'")
            if rbf.family != "gaussian_rbf":
                raise ParameterError("bsrbf rbf_part must have family 'gaussian_rbf'")
            object.__setattr__(self, "spline_part", spline)
            object.__setattr__(self, "rbf_part", rbf)

    @classmethod
    def taylor(cls, order: int = 2, center: float = 0.0) -> "BasisSpec":
        return cls(family="taylor", order=order, center=center)

    @classmethod
    def chebyshev(cls, n_max: int = 4) -> "BasisSpec":
        return cls(family="chebyshev", n_max=n_max)

    @classmethod
    def jacobi(cls, n_max: int = 4, alpha: float = 1.0, beta: float = 1.0) -> "BasisSpec":
        return cls(family="jacobi", n_max=n_max, alpha=alpha, beta=beta)

    @classmethod
    def hermite(cls, n_max: int = 4) -> "BasisSpec":
        return cls(family="hermite", n_max=n_max)

    @classmethod
    def gaussian_rbf(cls, centers=_RBF_CENTERS_WIDE, bandwidth: float = 4.0 / 7.0) -> "BasisSpec":
        return cls(family="gaussian_rbf", centers=tuple(float(c) for c in centers),
                   bandwidth=float(bandwidth))

    @classmethod
    def bspline(cls, grid_size: int = 5, degree: int = 3) -> "BasisSpec":
        return cls(family="bspline", grid_size=grid_size, degree=degree)

    @classmethod
    def bsrbf(cls, spline: "BasisSpec | None" = None, rbf: "BasisSpec | None" = None) -> "BasisSpec":
        return cls(family="bsrbf", spline_part=spline, rbf_part=rbf)

    @classmethod
    def wavelet(cls) -> "BasisSpec":
        return cls(family="wavelet_mexican_hat")

    @classmethod
    def fourier(cls, n_harmonics: int = 4) -> "BasisSpec":
        return cls(family="fourier", n_harmonics=n_harmonics)

    def squashes_input(self) -> bool:
        return self.family in SQUASHED_FAMILIES

    def to_dict(self) -> dict:
        d = {"family": self.family}
        for attr, _, _ in FAMILY_FIELDS[self.family]:
            value = getattr(self, attr)
            if isinstance(value, BasisSpec):
                value = value.to_dict()
            d[attr.removesuffix("_part")] = list(value) if isinstance(value, tuple) else value
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BasisSpec":
        f = d.get("family")
        if f not in FAMILY_FIELDS:
            raise ParameterError(f"unknown basis family in serialized spec: {f!r}")
        fields = {}
        for attr, read, _ in FAMILY_FIELDS[f]:
            if attr != "center" or attr in d:  # a file without a center expands at 0
                fields[attr] = read(d[attr.removesuffix("_part")])
        return cls(family=f, **fields)


# Per family, the spec fields a model file stores, in file order:
# (attribute, reader, CLI key). The file key is the attribute without its
# "_part" suffix. The CLI key names the flag that sets the field (None: the
# default always holds); for bsrbf's spline part it names the family whose
# flags build the nested spec.
FAMILY_FIELDS = {
    "taylor": (("order", int, "order"), ("center", float, None)),
    "chebyshev": (("n_max", int, "order"),),
    "jacobi": (("n_max", int, "order"), ("alpha", float, "alpha"),
               ("beta", float, "beta")),
    "hermite": (("n_max", int, "order"),),
    "gaussian_rbf": (("centers", lambda c: tuple(map(float, c)), None),
                     ("bandwidth", float, None)),
    "bspline": (("grid_size", int, "grid_size"), ("degree", int, "degree")),
    "bsrbf": (("spline_part", BasisSpec.from_dict, "bspline"),
              ("rbf_part", BasisSpec.from_dict, None)),
    "wavelet_mexican_hat": (),
    "fourier": (("n_harmonics", int, "harmonics"),),
}


def basis_size(spec: BasisSpec) -> int:
    """Number of learned coefficients per edge for ``spec``."""
    f = spec.family
    if f == "taylor":
        return spec.order + 1
    if f in ("chebyshev", "jacobi", "hermite"):
        return spec.n_max + 1
    if f == "gaussian_rbf":
        return len(spec.centers)
    if f == "bspline":
        return spec.grid_size + spec.degree
    if f == "bsrbf":
        return basis_size(spec.spline_part) + basis_size(spec.rbf_part)
    if f == "fourier":
        return 2 * spec.n_harmonics + 1
    return 1  # wavelet_mexican_hat: one amplitude per edge


def _prep(x) -> tuple[np.ndarray, tuple[int, ...]]:
    xa = np.asarray(x, dtype=np.float64)
    return xa.reshape(-1), xa.shape


def eval_taylor(x, order: int, center: float = 0.0):
    """Monomials ``(x - center)^j`` for j = 0..order and their derivatives."""
    if order < 0:
        raise ParameterError(f"taylor order must be >= 0, got {order}")
    xf, shape = _prep(x)
    u = xf - center
    b = order + 1
    vals = np.empty((xf.size, b))
    d = np.zeros((xf.size, b))
    vals[:, 0] = 1.0
    for j in range(1, b):
        vals[:, j] = vals[:, j - 1] * u
        d[:, j] = j * vals[:, j - 1]
    return vals.reshape(shape + (b,)), d.reshape(shape + (b,))


def eval_chebyshev(x, n_max: int):
    """T_0..T_n of the first kind; dT_n/dx = n U_{n-1} via the second kind."""
    if n_max < 0:
        raise ParameterError(f"chebyshev degree must be >= 0, got {n_max}")
    xf, shape = _prep(x)
    b = n_max + 1
    vals = np.empty((xf.size, b))
    d = np.zeros((xf.size, b))
    vals[:, 0] = 1.0
    if n_max >= 1:
        vals[:, 1] = xf
        d[:, 1] = 1.0
        for n in range(2, b):
            vals[:, n] = 2.0 * xf * vals[:, n - 1] - vals[:, n - 2]
    if n_max >= 2:
        u = np.empty((xf.size, n_max))  # U_0..U_{n_max-1}
        u[:, 0] = 1.0
        u[:, 1] = 2.0 * xf
        for n in range(2, n_max):
            u[:, n] = 2.0 * xf * u[:, n - 1] - u[:, n - 2]
        for n in range(2, b):
            d[:, n] = n * u[:, n - 1]
    return vals.reshape(shape + (b,)), d.reshape(shape + (b,))


def _jacobi_table(xf: np.ndarray, n_max: int, alpha: float, beta: float) -> np.ndarray:
    """P_0..P_n^(alpha, beta) at xf via the three-term recurrence."""
    p = np.empty((xf.size, n_max + 1))
    p[:, 0] = 1.0
    if n_max >= 1:
        p[:, 1] = 0.5 * (alpha - beta) + 0.5 * (alpha + beta + 2.0) * xf
    ab = alpha + beta
    for n in range(2, n_max + 1):
        c1 = 2.0 * n * (n + ab) * (2.0 * n + ab - 2.0)
        c2 = (2.0 * n + ab - 1.0) * (alpha * alpha - beta * beta)
        c3 = (2.0 * n + ab - 1.0) * (2.0 * n + ab) * (2.0 * n + ab - 2.0)
        c4 = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * (2.0 * n + ab)
        p[:, n] = ((c2 + c3 * xf) * p[:, n - 1] - c4 * p[:, n - 2]) / c1
    return p


def eval_jacobi(x, n_max: int, alpha: float, beta: float):
    """Jacobi polynomials; dP_n/dx = ((n + a + b + 1)/2) P_{n-1}^(a+1, b+1)."""
    if n_max < 0:
        raise ParameterError(f"jacobi degree must be >= 0, got {n_max}")
    if alpha <= -1.0 or beta <= -1.0:
        raise ParameterError(f"jacobi requires alpha > -1 and beta > -1, got {alpha}, {beta}")
    xf, shape = _prep(x)
    b = n_max + 1
    vals = _jacobi_table(xf, n_max, alpha, beta)
    d = np.zeros((xf.size, b))
    if n_max >= 1:
        shifted = _jacobi_table(xf, n_max - 1, alpha + 1.0, beta + 1.0)
        for n in range(1, b):
            d[:, n] = 0.5 * (n + alpha + beta + 1.0) * shifted[:, n - 1]
    return vals.reshape(shape + (b,)), d.reshape(shape + (b,))


def eval_hermite(x, n_max: int):
    """Probabilists' Hermite He_0..He_n; dHe_n/dx = n He_{n-1}."""
    if n_max < 0:
        raise ParameterError(f"hermite degree must be >= 0, got {n_max}")
    xf, shape = _prep(x)
    b = n_max + 1
    vals = np.empty((xf.size, b))
    d = np.zeros((xf.size, b))
    vals[:, 0] = 1.0
    if n_max >= 1:
        vals[:, 1] = xf
        d[:, 1] = 1.0
    for n in range(2, b):
        vals[:, n] = xf * vals[:, n - 1] - (n - 1) * vals[:, n - 2]
        d[:, n] = n * vals[:, n - 1]
    return vals.reshape(shape + (b,)), d.reshape(shape + (b,))


def eval_gaussian_rbf(x, centers, bandwidth: float):
    """Gaussian bumps exp(-u^2), u = (x - c)/h, one per center."""
    if not bandwidth > 0.0:
        raise ParameterError(f"gaussian_rbf bandwidth must be positive, got {bandwidth}")
    c = np.asarray(centers, dtype=np.float64).reshape(-1)
    if c.size < 1:
        raise ParameterError("gaussian_rbf needs at least one center")
    xf, shape = _prep(x)
    u = (xf[:, None] - c[None, :]) / bandwidth
    vals = np.exp(-u * u)
    d = (-2.0 / bandwidth) * u * vals
    b = c.size
    return vals.reshape(shape + (b,)), d.reshape(shape + (b,))


def _bspline_knots(grid_size: int, degree: int) -> np.ndarray:
    h = 2.0 / grid_size
    return (np.arange(grid_size + 2 * degree + 1) - degree) * h - 1.0


def eval_bspline(x, grid_size: int, degree: int):
    """Uniform B-spline basis on [-1, 1] (Cox-de Boor) with derivatives.

    The knot grid has ``grid_size`` interior cells extended by ``degree``
    cells on each side, giving ``grid_size + degree`` basis functions that
    sum to one on the whole interval. Inputs are assigned to interior cells
    (the top edge is right-closed), so evaluation stays stable at x = 1.
    """
    if degree < 0:
        raise ParameterError(f"bspline degree must be >= 0, got {degree}")
    if grid_size < degree + 1:
        raise ParameterError(
            f"bspline grid_size must be >= degree + 1, got grid_size={grid_size} degree={degree}")
    xf, shape = _prep(x)
    t = _bspline_knots(grid_size, degree)
    m = t.size
    h = 2.0 / grid_size
    cell = np.floor((xf + 1.0) / h).astype(np.int64) + degree
    cell = np.clip(cell, degree, degree + grid_size - 1)
    level = np.zeros((xf.size, m - 1))
    level[np.arange(xf.size), cell] = 1.0
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
    if degree == 0:
        d = np.zeros_like(vals)
    else:
        p = degree
        d = p * (low[:, :b] / (t[p:p + b] - t[:b])
                 - low[:, 1:b + 1] / (t[p + 1:p + 1 + b] - t[1:b + 1]))
    return vals.reshape(shape + (b,)), d.reshape(shape + (b,))


def eval_bsrbf(x, spec: BasisSpec):
    """Concatenated bspline and gaussian_rbf blocks of a bsrbf spec."""
    if spec.family != "bsrbf":
        raise ParameterError(f"eval_bsrbf needs a bsrbf spec, got {spec.family!r}")
    sv, sd = eval_bspline(x, spec.spline_part.grid_size, spec.spline_part.degree)
    rv, rd = eval_gaussian_rbf(x, spec.rbf_part.centers, spec.rbf_part.bandwidth)
    return np.concatenate([sv, rv], axis=-1), np.concatenate([sd, rd], axis=-1)


def eval_fourier(x, n_harmonics: int):
    """[1, cos(pi x), sin(pi x), ..., cos(N pi x), sin(N pi x)]."""
    if n_harmonics < 0:
        raise ParameterError(f"fourier harmonics must be >= 0, got {n_harmonics}")
    xf, shape = _prep(x)
    b = 2 * n_harmonics + 1
    vals = np.empty((xf.size, b))
    d = np.zeros((xf.size, b))
    vals[:, 0] = 1.0
    for n in range(1, n_harmonics + 1):
        w = n * np.pi
        ang = w * xf
        c = np.cos(ang)
        s = np.sin(ang)
        vals[:, 2 * n - 1] = c
        vals[:, 2 * n] = s
        d[:, 2 * n - 1] = -w * s
        d[:, 2 * n] = w * c
    return vals.reshape(shape + (b,)), d.reshape(shape + (b,))


def eval_mexican_hat(x, scale, shift):
    """Scaled/shifted Mexican hat wavelet with all training derivatives.

    psi(u) = (2 / sqrt(3 sqrt(pi))) (1 - u^2) exp(-u^2 / 2) and the family
    member is psi_{s,t}(x) = s^{-1/2} psi((x - t)/s). Returns
    ``(value, d_x, d_scale, d_shift)``, broadcasting over all inputs.
    """
    xa = np.asarray(x, dtype=np.float64)
    s = np.asarray(scale, dtype=np.float64)
    t = np.asarray(shift, dtype=np.float64)
    if np.any(s <= 0.0):
        raise ParameterError("wavelet scale must be positive")
    u = (xa - t) / s
    e = np.exp(-0.5 * u * u)
    psi = MEXICAN_HAT_PEAK * (1.0 - u * u) * e
    dpsi = MEXICAN_HAT_PEAK * e * (u ** 3 - 3.0 * u)
    inv_sqrt_s = 1.0 / np.sqrt(s)
    value = inv_sqrt_s * psi
    d_x = inv_sqrt_s * dpsi / s
    d_shift = -d_x
    d_scale = -(inv_sqrt_s / s) * (0.5 * psi + u * dpsi)
    return value, d_x, d_scale, d_shift


_COEFF_EVALUATORS = {
    "taylor": lambda x, s: eval_taylor(x, s.order, s.center),
    "chebyshev": lambda x, s: eval_chebyshev(x, s.n_max),
    "jacobi": lambda x, s: eval_jacobi(x, s.n_max, s.alpha, s.beta),
    "hermite": lambda x, s: eval_hermite(x, s.n_max),
    "gaussian_rbf": lambda x, s: eval_gaussian_rbf(x, s.centers, s.bandwidth),
    "bspline": lambda x, s: eval_bspline(x, s.grid_size, s.degree),
    "bsrbf": lambda x, s: eval_bsrbf(x, s),
    "fourier": lambda x, s: eval_fourier(x, s.n_harmonics),
}


def evaluate_basis(spec: BasisSpec, x):
    """Dispatch to the coefficient-family evaluator for ``spec``.

    ``wavelet_mexican_hat`` is not a coefficient family (its parameters live
    on network edges); use :func:`eval_mexican_hat` for it.
    """
    fn = _COEFF_EVALUATORS.get(spec.family)
    if fn is None:
        raise ParameterError(
            f"{spec.family!r} has no fixed basis vector; evaluate it per edge instead")
    return fn(x, spec)
