"""The per-snapshot norms that the energy balance and the residual read.

One pass over a snapshot's spectrum gives all three (snapshot_norms), so the
solve stage forms them from the spectrum it writes to the snapshot's .upf.
Kept out of sobolev and solver so that neither grows: every process that
imports a module compiles it, and its compiler's peak counts in the
process's memory.
"""

import numpy as np

from .sobolev import SpectralField, _frequency_sq


# Values per block of snapshot_norms (64 KiB of float64): enough that a
# block's NumPy calls outweigh their Python overhead, which one block per slab
# would not on 2-D grids (9.2 ms against 0.5 ms for the 9 snapshots of
# brownian-inertia at N = 64).
_BLOCK = 2**13


def snapshot_norms(field: SpectralField, s: float, m0: int) -> tuple:
    """(||u||_{H^s}^2, sum_{k<m0} ||d_k u||_{H^s}^2, ||u||_{H^2}^2) of one field.

    What the energy balance and the residual normaliser of a solution
    snapshot read, d_k along the leading m0 >= 1 (diffused) axes: sums over
    the coefficients c of <xi>^{2s} |c|^2, (sum_{k<m0} xi_k^2) <xi>^{2s}
    |c|^2 and <xi>^4 |c|^2.  They are taken over blocks of whole slabs along
    axis 0, each of at most _BLOCK values or one slab, in three arrays of a
    block's size, so no grid-size weight or power is formed on a grid of
    more than _BLOCK points.  A weight that overflows to inf on a zero
    coefficient, or on a zero xi_k^2 sum, adds nothing, as in hs_norm.
    """
    grid = field.grid
    rest = [grid.frequency(ax)[0] for ax in range(1, grid.n)]
    rest_sq = _frequency_sq(rest, grid.shape[1:]).ravel()
    diffused_sq = _frequency_sq(rest[:m0 - 1], grid.shape[1:]).ravel()
    rows = min(grid.N, max(1, _BLOCK // rest_sq.size))
    blocks = [np.empty((rows, rest_sq.size)) for _ in range(3)]
    coeffs, xi_sq = field.coeffs.reshape(grid.N, -1), grid.frequency(0).reshape(-1, 1) ** 2
    hs = dissipation = h2 = 0.0
    with np.errstate(invalid="ignore"):  # inf * 0, summed to nan and handled below
        for j in range(0, grid.N, rows):
            c, x = coeffs[j:j + rows], xi_sq[j:j + rows]
            power, weight, spare = (block[:len(x)] for block in blocks)
            np.multiply(c.real, c.real, out=power)
            power += np.multiply(c.imag, c.imag, out=weight)
            np.add(rest_sq, 1.0 + x, out=spare)  # <xi>^2 on the block
            h2 += _weighted_sum(np.square(spare, out=weight), power)
            hs += _weighted_sum(np.power(spare, s, out=weight), power)
            dissipation += _weighted_sum(weight, np.add(diffused_sq, x, out=spare))
    return hs, dissipation, h2


def _weighted_sum(terms, factor) -> float:
    """sum(terms * factor), formed in `terms`, where a zero factor zeroes its term."""
    terms *= factor
    total = float(terms.sum())
    if np.isnan(total):
        terms[factor == 0.0] = 0.0
        total = float(terms.sum())
    return total
