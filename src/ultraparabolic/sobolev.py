"""Spectral Sobolev machinery on a periodic box.

Fields live on the uniform grid of the box [-pi L, pi L)^n with N points per
axis; their Fourier coefficients are indexed by frequencies k/L with integer
k in FFT layout, normalized so the constant function 1 has zero-mode
coefficient 1 and the L2 norm equals the l2 norm of the coefficients
(Plancherel with box-averaged measure).

H^s norms use the inhomogeneous Japanese-bracket weight <xi> = (1+|xi|^2)^(1/2).
The commutator and product bound tests evaluate empirical ratios

    ||[h, Lambda^s] f||_{L2} / (||h||_{H^s0} ||f||_{H^(s-1)})
    ||h f||_{H^s}          / (||h||_{H^s1} ||f||_{H^s})

with s0 = |s-1| + n/2 + 2 and s1 = |s| + n/2 + 1.  Products and commutators
are exact convolutions over the frequency lattice (pointwise grid products
for inputs band-limited below half Nyquist, which is enforced).  With radii
r_h and r_f the result lies in the box |k_i| <= R = r_h + r_f and is formed
there alone by one zero-padded FFT convolution, whose shape depends only on
the boxes, never on N: a grid and its zero-padded refinement agree bit for
bit.  h's zero mode is taken out of it (the product adds it back exactly),
so a constant h gives exactly h^(0) f and a commutator of exact zero, as
does s = 0, where both convolved boxes are the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "TorusGrid",
    "SpectralField",
    "SobolevIndexSet",
    "hs_norm",
    "spectral_product",
    "commutator_bound_test",
    "product_bound_test",
    "BoundTestReport",
    "random_band_limited",
]


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid: n axes, N points per axis, box half-period pi*L."""

    n: int
    N: int
    L: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one dimension")
        if self.N < 4 or self.N % 2:
            raise ValueError("N must be an even integer >= 4 (powers of two recommended)")
        if not self.L > 0:
            raise ValueError("box scale L must be positive")
        if not (np.isfinite(self.spacing) and np.isfinite((self.N // 2) / self.L)):
            raise ValueError(f"box scale L = {self.L!r} gives a grid spacing or frequencies "
                             f"that are not finite numbers")

    @property
    def shape(self):
        return (self.N,) * self.n

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi * self.L / self.N

    @cached_property
    def axis_modes(self) -> np.ndarray:
        """Integer mode numbers in FFT layout: 0, 1, ..., N/2-1, -N/2, ..., -1."""
        k = np.arange(self.N)
        k[k >= self.N // 2] -= self.N
        return k

    @cached_property
    def axis_points(self) -> np.ndarray:
        return -np.pi * self.L + self.spacing * np.arange(self.N)

    def coordinate(self, axis: int) -> np.ndarray:
        """Coordinates along `axis`, shaped (1, ..., N, ..., 1) to broadcast over the grid."""
        return _along(self.axis_points, axis, self.n)

    def frequency(self, axis: int) -> np.ndarray:
        """Frequencies k/L of the given axis, shaped (1, ..., N, ..., 1) like coordinate."""
        return _along(self.axis_modes / self.L, axis, self.n)

    @cached_property
    def frequency_sq(self) -> np.ndarray:
        return _frequency_sq([self.frequency(axis) for axis in range(self.n)], self.shape)

    def bessel_weight(self, s: float) -> np.ndarray:
        """<xi>^s = (1 + |xi|^2)^(s/2) over the grid frequencies."""
        return _bessel_weight(self.frequency_sq, s)


def _along(vector: np.ndarray, axis: int, n: int) -> np.ndarray:
    """A 1-D vector shaped (1, ..., len, ..., 1) to lie along `axis` of n axes."""
    shape = [1] * n
    shape[axis] = len(vector)
    return vector.reshape(shape)


def _frequency_sq(freqs, shape) -> np.ndarray:
    """|xi|^2 at `shape`: zeros plus each per-axis frequency squared, in axis order."""
    out = np.zeros(shape)
    for f in freqs:
        out = out + f**2
    return out


def _bessel_weight(xi_sq: np.ndarray, s: float) -> np.ndarray:
    """<xi>^s = (1 + |xi|^2)^(s/2) from |xi|^2; ones for s = 0."""
    if s == 0:
        return np.ones_like(xi_sq)
    return np.power(1.0 + xi_sq, 0.5 * s)


class SpectralField:
    """Fourier-side field on a TorusGrid: complex coefficients in FFT layout."""

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid: TorusGrid, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != grid.shape:
            raise ValueError(f"coefficients must have shape {grid.shape}")
        self.grid = grid
        self.coeffs = coeffs

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros(grid.shape, dtype=np.complex128))

    @classmethod
    def from_grid_values(cls, grid, values, out=None):
        """The spectrum fftn(values) / values.size of grid samples, formed in place.

        The values are copied into one complex128 array, `out` when given,
        and transformed there, so the call holds its result alone: 2 float64
        grid arrays for real values, where an out-of-place fftn holds 4.
        The bits are those of the out-of-place transform.
        """
        values = np.asarray(values)
        if values.shape != grid.shape:
            raise ValueError(f"grid values must have shape {grid.shape}")
        coeffs = np.empty(grid.shape, dtype=np.complex128) if out is None else out
        np.copyto(coeffs, values)
        np.fft.fftn(coeffs, out=coeffs)
        coeffs /= values.size
        return cls(grid, coeffs)

    @classmethod
    def single_mode(cls, grid, modes, amplitude=1.0):
        """Pure exponential exp(i k.x/L) with the given integer mode numbers."""
        coeffs = np.zeros(grid.shape, dtype=np.complex128)
        idx = tuple(int(m) % grid.N for m in modes)
        coeffs[idx] = amplitude
        return cls(grid, coeffs)

    @classmethod
    def constant(cls, grid, value=1.0):
        return cls.single_mode(grid, (0,) * grid.n, value)

    # -- basics -----------------------------------------------------------------

    def copy(self):
        return SpectralField(self.grid, self.coeffs.copy())

    def grid_values(self) -> np.ndarray:
        """Grid samples sum_k c_k e^{i k.x/L}: the unscaled inverse FFT, with no scaled copy."""
        return np.fft.ifftn(self.coeffs, norm="forward")

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * scalar)

    __rmul__ = __mul__

    def _check(self, other):
        if not isinstance(other, SpectralField) or other.grid != self.grid:
            raise ValueError("fields must share a grid")

    def __repr__(self):
        return f"SpectralField(n={self.grid.n}, N={self.grid.N}, L={self.grid.L})"


@dataclass(frozen=True)
class SobolevIndexSet:
    """The auxiliary exponents attached to a regularity s in dimension n."""

    s: float
    n: int

    @property
    def s0(self) -> float:
        """Multiplier regularity for the commutator bound: |s-1| + n/2 + 2."""
        return abs(self.s - 1.0) + 0.5 * self.n + 2.0

    @property
    def s1(self) -> float:
        """Multiplier regularity for the product bound: |s| + n/2 + 1."""
        return abs(self.s) + 0.5 * self.n + 1.0


def hs_norm(field: SpectralField, s: float) -> float:
    """Sobolev norm ||<xi>^s u^||_{l2}; equals 1 for the constant function 1.

    A weight that overflows to inf on a zero coefficient adds nothing, so the
    norm reads inf (or a finite number), never the nan of inf * 0.
    """
    power = field.coeffs.real**2 + field.coeffs.imag**2
    with np.errstate(invalid="ignore"):  # inf * 0, handled by _weighted_sum
        return float(np.sqrt(_weighted_sum(field.grid.bessel_weight(2.0 * s), power)))


def _weighted_sum(terms, factor) -> float:
    """sum(terms * factor), formed in `terms`, where a zero factor zeroes its term."""
    terms *= factor
    total = float(terms.sum())
    if np.isnan(total):
        terms[factor == 0.0] = 0.0
        total = float(terms.sum())
    return total


# ---------------------------------------------------------------------------
# exact lattice convolution and the bound tests


def _band_radius(field: SpectralField, label: str) -> int:
    """The largest |k_i| over the support; refuses one reaching half Nyquist, where it would alias."""
    radius = int(np.abs(field.grid.axis_modes[np.argwhere(field.coeffs)]).max(initial=0))
    limit = field.grid.N // 4
    if radius >= limit:
        raise ValueError(
            f"{label} must be band-limited below half Nyquist (|k| < {limit}), "
            f"support reaches |k| = {radius}"
        )
    return radius


def _box_index(grid: TorusGrid, R: int):
    """Index of the modes |k_i| <= R into FFT-layout coefficients, as a centred (2R+1)^n box."""
    return np.ix_(*(np.arange(-R, R + 1) % grid.N,) * grid.n)


def _box_convolutions(h: SpectralField, r_h: int, boxes, R: int) -> np.ndarray:
    """(h - h^(0)) * g on the box |k_i| <= R, for each centred (2R+1)^n box g in `boxes`.

    Each is a linear convolution, so none wraps: an fftn pair zero-padded to
    shape (2 r_h + 2R + 1)^n, of which the slice r_h ... r_h + 2R is kept.
    """
    n = h.grid.n
    h_box = h.coeffs[_box_index(h.grid, r_h)]  # a copy
    h_box[(r_h,) * n] = 0.0
    axes = tuple(range(-n, 0))
    shape = (2 * r_h + 2 * R + 1,) * n
    spectra = np.fft.fftn(boxes, shape, axes=axes)
    spectra *= np.fft.fftn(h_box, shape, axes=axes)
    return np.fft.ifftn(spectra, axes=axes)[(...,) + (slice(r_h, r_h + 2 * R + 1),) * n]


def spectral_product(h: SpectralField, f: SpectralField) -> SpectralField:
    """Pointwise product computed as exact circular convolution of coefficients.

    Alias-free for inputs band-limited below half Nyquist (enforced).  On the
    box |k_i| <= r_h + r_f it is _box_convolutions of f's box plus h^(0) f,
    added back exactly; the box is scattered back into a full-grid field.
    """
    h._check(f)
    r_h = _band_radius(h, "h")
    R = r_h + _band_radius(f, "f")
    box = _box_index(h.grid, R)
    f_box = f.coeffs[box]
    out = np.zeros(h.grid.shape, dtype=np.complex128)
    out[box] = _box_convolutions(h, r_h, [f_box], R)[0] + h.coeffs[(0,) * h.grid.n] * f_box
    return SpectralField(h.grid, out)


@dataclass(frozen=True)
class BoundTestReport:
    """Empirical ratio of one inequality instance (constants recorded, never asserted)."""

    kind: str
    s: float
    auxiliary_exponent: float
    numerator: float
    denominator: float
    ratio: float


def commutator_bound_test(h: SpectralField, f: SpectralField, s: float) -> BoundTestReport:
    """Ratio ||[h, Lambda^s] f||_{L2} / (||h||_{H^s0} ||f||_{H^(s-1)}).

    The commutator coefficients are the lattice sum
        sum_eta h^(eta) (<xi-eta>^s - <xi>^s) f^(xi-eta),
    formed as h * (m f) - m (h * f), m = <xi>^s, by one _box_convolutions of
    the boxes m f and f, so a constant h or s = 0 cancels to exact zero.
    Zero h or f is rejected (the ratio would divide by zero).
    """
    h._check(f)
    if not np.any(h.coeffs) or not np.any(f.coeffs):
        raise ValueError("commutator ratio undefined for zero h or f")
    grid = h.grid
    r_h = _band_radius(h, "h")
    R = r_h + _band_radius(f, "f")
    # <xi>^s on the box, by the operations of grid.bessel_weight
    box_freqs = [_along(np.arange(-R, R + 1) / grid.L, ax, grid.n) for ax in range(grid.n)]
    m = _bessel_weight(_frequency_sq(box_freqs, (2 * R + 1,) * grid.n), s)
    f_box = f.coeffs[_box_index(grid, R)]
    h_mf, h_f = _box_convolutions(h, r_h, [m * f_box, f_box], R)
    numerator = float(np.linalg.norm(h_mf - m * h_f))
    idxset = SobolevIndexSet(s, grid.n)
    denominator = hs_norm(h, idxset.s0) * hs_norm(f, s - 1.0)
    return BoundTestReport(
        kind="commutator",
        s=s,
        auxiliary_exponent=idxset.s0,
        numerator=numerator,
        denominator=denominator,
        ratio=numerator / denominator,
    )


def product_bound_test(h: SpectralField, f: SpectralField, s: float) -> BoundTestReport:
    """Ratio ||h f||_{H^s} / (||h||_{H^s1} ||f||_{H^s}); h = 1 gives exactly 1."""
    h._check(f)
    if not np.any(h.coeffs) or not np.any(f.coeffs):
        raise ValueError("product ratio undefined for zero h or f")
    prod = spectral_product(h, f)
    idxset = SobolevIndexSet(s, h.grid.n)
    numerator = hs_norm(prod, s)
    denominator = hs_norm(h, idxset.s1) * hs_norm(f, s)
    return BoundTestReport(
        kind="product",
        s=s,
        auxiliary_exponent=idxset.s1,
        numerator=numerator,
        denominator=denominator,
        ratio=numerator / denominator,
    )


def random_band_limited(grid: TorusGrid, rng: np.random.Generator, decay: float = 2.0,
                        band: int | None = None) -> SpectralField:
    """Real random field, spectrum ~ <xi>^(-decay), support |k_i| < band (< N/4)."""
    limit = grid.N // 4
    band = limit if band is None else min(int(band), limit)
    noise = rng.standard_normal(grid.shape)
    coeffs = SpectralField.from_grid_values(grid, noise).coeffs
    mask = np.ones(grid.shape, dtype=bool)
    for axis in range(grid.n):
        k = np.abs(grid.frequency(axis) * grid.L)
        mask &= k < band
    coeffs = np.where(mask, coeffs, 0.0)
    coeffs *= grid.bessel_weight(-decay)
    return SpectralField(grid, coeffs)
