"""
Spectral Sobolev machinery on the periodic box
==============================================

Norms, Bessel-potential multipliers, and products for trigonometric
polynomials on [-pi L, pi L)^n.  Everything is a lattice computation on
Fourier coefficients, so band-limited identities hold to machine precision
and two structurally-zero cases below are exactly zero.
"""

import numpy as np

from ultraparabolic import (
    SpectralField,
    TorusGrid,
    commutator_bound_test,
    hs_norm,
    product_bound_test,
    random_band_limited,
    spectral_product,
)



def bessel_apply(field, s):
    """Bessel smoothing operator Lambda^s: multiply coefficients by <xi>^s."""
    return SpectralField(field.grid, field.coeffs * field.grid.bessel_weight(s))


def peetre_gap(grid, s):
    """Max of <xi+eta>^s / (2^|s| <xi>^s <eta>^|s|) over all grid frequency pairs.

    The pointwise inequality holds iff the returned value is <= 1 (up to
    round-off); the sweep is quadratic in the mode count.
    """
    axes = np.meshgrid(*(grid.axis_modes / grid.L for _ in range(grid.n)), indexing="ij")
    xi = np.stack([a.ravel() for a in axes], axis=-1)  # every frequency, (N^n, n)
    bracket = np.sqrt(1.0 + np.sum(xi**2, axis=1))
    pair_sq = np.sum((xi[:, None, :] + xi[None, :, :]) ** 2, axis=-1)
    lhs = np.power(1.0 + pair_sq, 0.5 * s)
    rhs = (2.0 ** abs(s)) * np.power(bracket[:, None], s) * np.power(bracket[None, :], abs(s))
    return float(np.max(lhs / rhs))


grid = TorusGrid(2, 64, 1.0)
rng = np.random.default_rng(314)

# ----------------------------------------------------------------------
# a single mode has a closed-form H^s norm: <k/L>^s times its amplitude
mode = SpectralField.single_mode(grid, (3, 4), 1.0)
expected = (1.0 + 3.0**2 + 4.0**2) ** (1.0 / 2)  # s = 1, |k| = 5
print(f"single mode (3,4): H^1 norm = {hs_norm(mode, 1.0):.12f} "
      f"(closed form {expected:.12f})")

# ----------------------------------------------------------------------
# the Bessel multiplier of order s then -s is the identity
f = random_band_limited(grid, rng)
round_trip = bessel_apply(bessel_apply(f, 1.7), -1.7)
print(f"Bessel +s then -s round trip error: "
      f"{np.max(np.abs(round_trip.coeffs - f.coeffs)):.3e}")

# ----------------------------------------------------------------------
# products of band-limited fields are exact lattice convolutions
h = random_band_limited(grid, rng)
prod = spectral_product(h, f)
print(f"product of band-limited draws keeps H^0 norm finite: "
      f"{hs_norm(prod, 0.0):.6f}")

# ----------------------------------------------------------------------
# inequality ratios: measured, never asserted as constants
for s in (-1.0, 2.0):
    comm = commutator_bound_test(h, f, s)
    prodr = product_bound_test(h, f, s)
    print(f"s = {s}: commutator ratio {comm.ratio:.6f}, "
          f"product ratio {prodr.ratio:.6f}")

# ----------------------------------------------------------------------
# two exact cancellations: a constant h commutes with the multiplier,
# and s = 0 makes the multiplier itself constant
const = SpectralField.single_mode(grid, (0, 0), 2.5)
print(f"constant h: commutator ratio = {commutator_bound_test(const, f, 2.0).ratio}")
print(f"s = 0:      commutator ratio = {commutator_bound_test(h, f, 0.0).ratio}")

# ----------------------------------------------------------------------
# the two-parameter frequency inequality underlying the product bound
# (the sweep is quadratic in the mode count, so use a small grid)
small = TorusGrid(2, 16, 1.0)
print(f"peetre gap at s = 2 (must be <= 1): {peetre_gap(small, 2.0):.6f}")
