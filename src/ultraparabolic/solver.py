"""Evolution solvers for the degenerate model problems, plus a-posteriori checks.

Two routes produce a TrajectorySolution (a time-indexed family of spectral
snapshots on one grid):

* solve_exact -- characteristics in frequency space.  For drift-only lower
  order structure (b = b0 = g = 0, constant a) the evolution of a single
  continuum mode e^{i zeta.x} is exact: the mode transports to e^{-tB} zeta
  and is damped by exp(-a zeta^T Q(t) zeta), with Q(t) the controllability
  Gramian, in closed form since B is nilpotent (_damping_exponent); the
  transported off-lattice modes are resampled on the grid by per-axis
  fractional phase shifts, valid whenever the drift's coupling digraph is
  acyclic (then e^{-tB} is unit-triangular in topological order).  Up to
  floating round-off and spectral tails, the snapshots are the exact solution
  samples, so the route also satisfies the semigroup property to near machine
  precision.  The route's native output is one ModeLedger per snapshot (the
  damped amplitudes; frequencies() gives every mode's true frequency
  e^{-tB} xi).  Each ledger is formed each time it is read and not kept, so
  a stage that walks the snapshots in order holds one ledger at a time.  A
  snapshot's grid field is formed from its ledger by the resampling the
  first time `fields`, `snapshot(i)` or `final` reads it, and is then kept,
  so a stage that reads only the ledgers never resamples.  The phases,
  damping and frequencies are built from the per-axis vectors of
  grid.frequency and grid.coordinate, which broadcast over the grid, so
  each costs only the axes it varies along.

* solve_fd -- theta-method IMEX finite differences on the same box with zero
  Dirichlet data: diffusion (second-order central) is treated implicitly on
  the diffused slabs, drift and the lower-order terms explicitly with
  second-order upwind-biased one-sided differences chosen by the local sign
  of the transport speed.  The explicit transport (_upwind, imported only
  by solve_fd) is one N x N upwind matrix per axis, or a stack of them over
  the one earlier axis the speed varies along, applied by one matmul, on
  grids of four or more axes where every speed spans at most one other
  axis, an earlier one, and the matrices fit in one grid array; otherwise a
  stencil of one centre term for all axes plus each axis's neighbour terms
  on at most two sign boxes per axis.
  Each implicit step (theta = 1/2, Crank-Nicolson) applies the DST-I matrix,
  the eigenbasis of the 3-point Dirichlet second difference, along every
  diffused axis that a does not vary along, and the state stays in those
  sine coordinates.  Every slab solver takes one step form, Douglas's delta
  form (_slab_steps): the increment dt (a L s + S E(u)), with L the sine
  eigenvalues plus a 3-point second difference along each diffused axis a
  varies along, goes through one batched tridiagonal (Thomas) sweep along
  each such axis, or through one division when there is none; with at most
  one such axis this is the Crank-Nicolson step.  A step is one transform of
  the explicit terms, a few passes and the sweeps, and one transform back,
  all on NumPy alone, in one step loop, with one advance per step size.
  Coefficients and transport speeds keep the per-axis form of
  Preset.evaluate; only u, the state and the step's two work arrays (three
  with the stencil, whose 4u takes one) have the full grid shape.  solve_fd
  lists the guards that refuse a run up front.
  The route keeps its native output, one real grid array per snapshot (the
  last is the final state itself, not a copy); a snapshot's spectrum is
  formed each time it is read, in place, and `fields.spectra()` forms them
  all in one reused buffer.

residual_series measures how well any trajectory satisfies the PDE (spectral
space derivatives, fourth-order central time differences); every first or
second derivative along an axis is one product with a fixed real N x N
matrix along that axis (a BLAS matmul, no transform), plus, for a first
derivative, the rank-one Nyquist term of the complex transform pair.
energy_check tracks the parabolic energy balance against its theoretical
budget.  Both read each snapshot's norms from one pass over its spectrum
(snapshot_norms), which the CLI's solve stage forms with each .upf write.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

import numpy as np

from ._errors import CFLError, CoercivityError, SolverError
from ._norms import snapshot_norms
from .problems import ConstantPreset, ProblemSpec, coercivity_check
from .sobolev import SpectralField, TorusGrid, _along, hs_norm
from .vfalgebra import _matmul

__all__ = [
    "SolverError",
    "CFLError",
    "CoercivityError",
    "ModeLedger",
    "TrajectorySolution",
    "solve_exact",
    "solve_fd",
    "solve_auto",
    "residual_series",
    "ResidualReport",
    "energy_check",
    "EnergyReport",
]


def _row_combinations(M: np.ndarray, arrays, rows):
    """Yield sum_j M[r, j] * arrays[j] for each r in rows, one row at a time.

    Zero entries of M are skipped, and each sum broadcasts over only the
    arrays it adds, so per-axis arrays (grid.frequency, grid.coordinate) give
    a result that spans just the axes its row couples.  This is the one place
    where a drift matrix meets per-axis arrays: the transformed frequencies
    e^{-tB} xi, the phase shifts of the exact transport, and the speeds
    sum_k B[k, j] x_k.
    """
    for r in rows:
        used = [j for j, c in enumerate(M[r]) if c != 0.0]
        out = np.zeros(np.broadcast_shapes(*(np.shape(arrays[j]) for j in used)))
        for j in used:
            out += M[r, j] * arrays[j]
        yield out


@dataclass(frozen=True)
class ModeLedger:
    """Exact per-mode content of one snapshot: the characteristics route's native form.

    Each initial lattice mode evolves in closed form: its frequency moves to
    e^{-tB} xi (generally off the lattice) and its amplitude is damped.  The
    grid samples of such a mode spread across the whole discrete spectrum, so
    any norm computed from the resampled FFT that amplifies high frequencies
    (derivative norms of order d pick up a |xi|^d factor) is eventually
    dominated by the spreading rather than by the solution.  The ledger keeps
    the evolution in its native form: `coefficients[idx]` is the damped
    amplitude of the mode at initial lattice index idx, and its true frequency
    along axis ax is sum_j matrix[ax, j] * xi_j(idx), from `frequencies()[ax]`.
    Weighted mode sums computed from the ledger are exact at any order.
    The exact route forms a snapshot's ledger each time it is read and keeps
    none (see _Ledgers); its grid field is resampled from the ledger on first
    read (see TrajectorySolution).
    """

    grid: TorusGrid
    matrix: np.ndarray
    coefficients: np.ndarray

    def frequencies(self) -> list:
        """True frequency of each mode along every axis.

        Each spans only the axes its row of `matrix` couples and broadcasts
        over the lattice.
        """
        freqs = [self.grid.frequency(ax) for ax in range(self.grid.n)]
        return list(_row_combinations(self.matrix, freqs, range(self.grid.n)))


class _OnRead(Sequence):
    """A sequence whose item i is self._item(i); a slice is the tuple of its items."""

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self._item(j) for j in range(*i.indices(len(self))))
        return self._item(i)


class _GridFields(_OnRead):
    """The FD route's snapshots: real grid values, their spectra formed on read.

    `values[i]` is the real state u at times[i]; item i is
    SpectralField.from_grid_values of it, formed each time it is read and not
    kept, so a solution holds 8 bytes per grid point and snapshot.  spectra()
    forms them all in one complex buffer, each valid until the next is
    formed, so walking the snapshots allocates one spectrum in all.
    """

    def __init__(self, grid: TorusGrid, values: tuple):
        self.grid = grid
        self.values = values

    def __len__(self):
        return len(self.values)

    def _item(self, i):
        return SpectralField.from_grid_values(self.grid, self.values[i])

    def spectra(self):
        coeffs = np.empty(self.grid.shape, dtype=np.complex128)
        for values in self.values:
            yield SpectralField.from_grid_values(self.grid, values, out=coeffs)


class _Ledgers(_OnRead):
    """The exact route's ModeLedgers, each formed when it is read and not kept.

    Item i is the ledger at times[i]: e^{-t_i B} and the initial coefficients
    `base` damped by exp(-a xi^T Q(t_i) xi) (_damping_exponent, exponentiated
    in place), so reading the snapshots in order holds one ledger at a time.
    """

    def __init__(self, grid: TorusGrid, base: np.ndarray, a: float, powers: list, m0: int,
                 times: np.ndarray):
        self.grid, self.base, self.a = grid, base, a
        self.powers, self.m0, self.times = powers, m0, times

    def __len__(self):
        return len(self.times)

    def _item(self, i):
        t = self.times[i]
        damping = _damping_exponent(self.grid, self.powers, self.m0, t)
        damping *= -self.a
        return ModeLedger(self.grid, _matrix_exponential(self.powers, -t),
                          self.base * np.exp(damping, out=damping))


class _LedgerFields(_OnRead):
    """The exact route's grid fields, resampled from its ledgers when first read.

    Item i is ledger i's amplitudes resampled on the grid by _transport at
    times[i].  The ledger is read for it and dropped; the field is formed
    once and kept, because `solve` reads every field twice (its norms and
    .upf write, then the residual).
    """

    def __init__(self, ledgers: _Ledgers, order: list):
        self._ledgers = ledgers
        self._order = order
        self._formed = [None] * len(ledgers)

    def __len__(self):
        return len(self._ledgers)

    def spectra(self):
        """The fields in order, as _GridFields.spectra walks the FD route's."""
        return iter(self)

    def _item(self, i):
        if self._formed[i] is None:
            ledgers, ledger = self._ledgers, self._ledgers[i]
            self._formed[i] = SpectralField(ledger.grid, _transport(
                ledger.grid, ledger.coefficients, ledgers.powers, self._order, ledgers.times[i]))
        return self._formed[i]


@dataclass(frozen=True)
class TrajectorySolution:
    """Snapshots of one evolution: times[i] holds fields[i] on a common grid.

    `mode_ledgers` is populated by the exact route only.  There the ledgers
    are the solution: a sequence that forms ledger i each time it is read and
    keeps none, so norm measurements, which read the ledgers (true
    off-lattice frequencies) one snapshot at a time, hold one ledger and
    never form a field.  `fields` forms snapshot i's grid field from ledger i
    the first time it is read (through `fields`, `snapshot(i)` or `final`)
    and keeps it.  On the FD route `fields` holds the real grid values
    (`fields.values`) and forms a snapshot's spectrum each time it is read.
    On either route `fields.spectra()` walks every snapshot's spectrum once,
    the FD route's in one reused buffer.
    """

    method: str
    grid: TorusGrid
    times: np.ndarray
    fields: Sequence
    diagnostics: dict = field(default_factory=dict, compare=False)
    mode_ledgers: Sequence | None = None

    def __post_init__(self):
        if len(self.fields) != len(self.times):
            raise ValueError("one field per time required")
        if self.mode_ledgers is not None and len(self.mode_ledgers) != len(self.times):
            raise ValueError("one mode ledger per time required")

    def __len__(self):
        return len(self.times)

    def snapshot(self, i) -> SpectralField:
        return self.fields[i]

    @property
    def final(self) -> SpectralField:
        return self.fields[-1]


# ---------------------------------------------------------------------------
# drift matrix helpers


def _nilpotent_powers(B: tuple, n: int) -> list:
    """[I, B, B^2, ...] as float arrays, exact cut at the nilpotency index."""
    B = tuple(tuple(Fraction(x) for x in row) for row in B)
    powers = [tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))]
    for _ in range(n):
        M = _matmul(powers[-1], B)
        if not any(any(row) for row in M):
            return [np.array(P, dtype=float) for P in powers]
        powers.append(M)
    raise SolverError("drift matrix is not nilpotent; exact transport unavailable")


def _matrix_exponential(powers: list, t: float) -> np.ndarray:
    return sum((t**q / factorial(q)) * P for q, P in enumerate(powers))


def _axis_order(B: tuple) -> list:
    """Topological order of the coupling digraph i -> j iff B[i][j] != 0.

    In this order e^{-tB} is unit upper triangular, so the per-axis phase
    shifts commute with later axes' indexing.  A cycle (including a diagonal
    entry) means the drift feeds an axis back into itself and the fractional
    shift decomposition does not exist.
    """
    n = len(B)
    succ = {i: {j for j in range(n) if B[i][j] != 0} for i in range(n)}
    indeg = {j: 0 for j in range(n)}
    for i in range(n):
        for j in succ[i]:
            indeg[j] += 1
    ready = sorted(j for j in range(n) if indeg[j] == 0)
    order = []
    while ready:
        i = ready.pop(0)
        order.append(i)
        for j in sorted(succ[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    if len(order) != n:
        raise SolverError("drift coupling digraph has a cycle; use the finite-difference route")
    return order


# ---------------------------------------------------------------------------
# exact route


def _exact_route_supported(spec: ProblemSpec):
    """None when the exact route applies, else the reason it does not."""
    if not isinstance(spec.a, ConstantPreset):
        return "variable diffusion coefficient"
    if not all(p.is_zero for p in spec.b):
        return "first-order transport coefficients b"
    if not spec.b0.is_zero:
        return "zeroth-order coefficient b0"
    if not spec.g.is_zero:
        return "nonzero source term g"
    try:
        _axis_order(spec.B)
    except SolverError:
        return "a drift whose coupling digraph has a cycle"
    return None


def _damping_exponent(grid, powers, m0, t) -> np.ndarray:
    """xi^T Q(t) xi on the full frequency mesh, Q(t) = int_0^t e^{-tau B^T} P e^{-tau B} dtau.

    With `powers` [I, B, ..., B^k] (B^{k+1} = 0), the controllability Gramian
    is the polynomial Q(t) = sum_{p,q} (-1)^{p+q} t^{p+q+1} / (p! q! (p+q+1))
    (B^p)^T P B^q, P the projection onto the m0 diffused axes (Kolmogorov,
    Ann. of Math. 35, 1934).  The form is sum_i xi_i (U xi)_i, U the upper
    fold of Q (its off-diagonal doubled): each row of U xi spans only the
    axes it couples, and each product is added into the full mesh once.
    """
    Q = sum((-1.0) ** (p + q) * t ** (p + q + 1) / (factorial(p) * factorial(q) * (p + q + 1))
            * (Bp[:m0].T @ Bq[:m0]) for p, Bp in enumerate(powers) for q, Bq in enumerate(powers))
    U = 2.0 * np.triu(Q, 1) + np.diag(np.diag(Q))
    rows = [i for i in range(grid.n) if np.any(U[i])]
    freqs = [grid.frequency(ax) for ax in range(grid.n)]
    total = np.zeros(grid.shape)
    for i, y in zip(rows, _row_combinations(U, freqs, rows)):
        total += freqs[i] * y
    return total


def _transport(grid, coeffs, powers, order, t) -> np.ndarray:
    """Resample modes at e^{-tB} xi by per-axis fractional phase shifts.

    The phase along axis ax spans ax and the axes that shift it, so its
    complex exp runs on those axes only and broadcasts into the grid.  The
    coefficients are copied once, and every shifted axis's transform pair
    and phase run in place in that copy, so the resampling holds one complex
    grid array besides `coeffs`.
    """
    out = np.array(coeffs, dtype=np.complex128)
    M = _matrix_exponential(powers, -t)
    np.fill_diagonal(M, 0.0)  # each axis is shifted by the other axes' modes
    modes = [grid.frequency(ax) * grid.L for ax in range(grid.n)]
    for ax, shift in zip(order, _row_combinations(M, modes, order)):
        if not np.any(shift):
            continue
        np.fft.ifft(out, axis=ax, out=out)
        out *= np.exp(1j * shift * grid.coordinate(ax) / grid.L)
        np.fft.fft(out, axis=ax, out=out)
    return out


def _checked_run(spec: ProblemSpec, grid, times, default: np.ndarray):
    """(grid, times) of a run, checked in the same order by both routes.

    `times` becomes a float array (`default` when None): refuses a non-finite
    time, then anything but a nonempty 1-D array of nonnegative, strictly
    increasing instants, before any coefficient is sampled.  Then refuses a
    grid (the spec's default when None) of another dimension, and a sampled
    diffusion coefficient outside [1/Lambda, Lambda] (CoercivityError).
    """
    times = default if times is None else np.asarray(times, dtype=float)
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        raise SolverError(f"snapshot time {times.flat[bad[0]]} (entry {bad[0]}) is not finite")
    if times.ndim != 1 or len(times) == 0 or np.any(times < 0):
        raise SolverError("times must be a nonempty 1-D array of nonnegative instants")
    if np.any(np.diff(times) <= 0):
        raise SolverError("snapshot times must be strictly increasing")
    grid = grid or spec.default_grid()
    if grid.n != spec.n:
        raise SolverError(f"grid dimension {grid.n} != spec dimension {spec.n}")
    coercivity = coercivity_check(spec, grid)
    if not coercivity.ok:
        raise CoercivityError(coercivity)
    return grid, times


def solve_exact(spec: ProblemSpec, grid: TorusGrid | None = None, times=None,
                u0: SpectralField | None = None) -> TrajectorySolution:
    """Characteristics solution sampled on the grid at the requested times.

    Requires b = b0 = g = 0, constant a and an acyclic drift coupling digraph
    (see _exact_route_supported) and a run that passes _checked_run (times,
    grid, coercivity), and refuses, before any grid array is formed, a run
    that would not fit in physical memory (naming the largest N that fits, see
    _require_memory).  `u0` overrides the spec's initial preset (used for
    semigroup restarts).  The ledgers, damped by the closed-form Gramian, are
    formed on read (_Ledgers), the grid fields from them (_LedgerFields).
    """
    reason = _exact_route_supported(spec)
    if reason is not None:
        raise SolverError(f"exact route does not support {reason}; use solve_fd")
    grid, times = _checked_run(spec, grid, times, np.array([0.0, spec.T]))
    _require_memory(len(times), grid.n, grid.N, route="exact")
    base = (u0 if u0 is not None else spec.u0.spectral(grid)).coeffs
    ledgers = _Ledgers(grid, base, float(spec.a.value), _nilpotent_powers(spec.B, spec.n),
                       spec.m0, times)
    return TrajectorySolution(
        method="exact",
        grid=grid,
        times=times,
        fields=_LedgerFields(ledgers, _axis_order(spec.B)),
        mode_ledgers=ledgers,
    )


# ---------------------------------------------------------------------------
# finite-difference route


def _transport_speeds(spec: ProblemSpec, grid: TorusGrid) -> dict:
    """{axis j: speed} for each axis whose transport speed is not zero.

    The speed along axis j is the drift column sum_k B[k, j] x_k plus the
    first-order coefficient b_j on diffused axes.  Both come in per-axis form
    (grid.coordinate, Preset.evaluate), so each speed spans only the axes it
    varies along, broadcasts against the grid, and costs only those axes.
    """
    coords = [grid.coordinate(ax) for ax in range(grid.n)]
    speeds = {}
    for j, w in enumerate(_row_combinations(spec.B_float().T, coords, range(grid.n))):
        if j < spec.m0 and not spec.b[j].is_zero:
            w = w + spec.b[j].evaluate(grid)
        if np.any(w):
            speeds[j] = w
    return speeds


def _slab_sine_basis(N: int, axes, n: int, h: float):
    """Orthonormal DST-I matrix S and the eigenvalues of the Laplacian along `axes`.

    S[j, k] = sqrt(2/(N+1)) sin(pi j k/(N+1)) is symmetric and its own
    inverse, and D2 = S diag(mu) S for the 3-point Dirichlet second difference,
    mu_k = -(4/h^2) sin^2(pi k/(2(N+1))).  Applied along each of `axes`, S
    diagonalises the 3-point Laplacian along them.  Its eigenvalues are sums
    of one mu per axis; they are returned with length N on `axes` and 1
    elsewhere, so they broadcast over the grid (0.0 when `axes` is empty).
    """
    k = np.arange(1, N + 1)
    S = np.sqrt(2.0 / (N + 1)) * np.sin(np.pi * np.outer(k, k) / (N + 1))
    mu = -(4.0 / (h * h)) * np.sin(np.pi * k / (2.0 * (N + 1))) ** 2
    lam = sum((_along(mu, ax, n) for ax in axes), 0.0)
    return S, lam


def _apply_along(D, x, ax: int, out):
    """sum_k D[i, k] x[..., k, ...] along axis ax of x, written into `out`.

    D is a (rows, N) matrix, N the length of x's axis ax; `out` has x's shape
    with `rows` in place of N there.  x and out are C-contiguous and do not
    overlap, so the product is one np.matmul with no allocation: D against
    the (before, N, after) view, or, on the last axis, the (-1, N) view
    against D.T, where the batched form would be a stack of matrix-vector
    products and about 10x slower.
    """
    N = x.shape[ax]
    if ax == x.ndim - 1:
        np.matmul(x.reshape(-1, N), D.T, out=out.reshape(-1, D.shape[0]))
    else:
        before = int(np.prod(x.shape[:ax], dtype=int))
        np.matmul(D, x.reshape(before, N, -1), out=out.reshape(before, D.shape[0], -1))
    return out


def _sine_transform(S, x, spare, axes, out=None):
    """Apply S along each of `axes` of x; return (result, free buffer).

    x and spare take turns as input and output, so nothing is allocated.
    With `out`, x is only read and the result lands in `out`: the first
    product goes to `out` or `spare`, whichever puts the last one in `out`,
    and those two take turns from there; with no axes, x is copied into it.
    """
    if out is not None:
        if not axes:
            np.copyto(out, x)
            return out, spare
        first = out if len(axes) % 2 else spare
        _apply_along(S, x, axes[0], first)
        x, spare, axes = first, (spare if first is out else out), axes[1:]
    for ax in axes:
        _apply_along(S, x, ax, spare)
        x, spare = spare, x
    return x, spare


def _slab_steps(a_vals, m0: int, h: float, u, state, spare):
    """The theta step of every slab solver, in Douglas's delta form; returns step.

    The diffused axes a varies along, l_1 < ... < l_m, are swept; along the
    others a's sample has length 1, so a commutes with the DST-I matrix S
    (_slab_sine_basis) there.  `state` holds s = S u, S applied along those
    other axes (every diffused axis when m = 0), and `u` the grid values the
    explicit terms read.  With L = lam + sum_l D2_l, lam the other axes'
    sine eigenvalues and D2_l the 3-point Dirichlet second difference along
    l, each step is

        s' = s + T_m ... T_1 dt (a L s + S E(u)),   u' = S s',

        T_1 = (I - theta dt a (D2_{l_1} + lam))^{-1},
        T_k = (I - theta dt a D2_{l_k})^{-1}

    (Douglas and Gunn, Numer. Math. 6, 1964).  a and each D2_l commute with
    S, so in grid values this is u' = u + S T_m ... T_1 S dt (a lap u + E(u)),
    lap the 3-point slab Laplacian; with m <= 1 it is the Crank-Nicolson step
    (I - theta dt a lap) u' = u + dt ((1 - theta) a lap u + E(u)).  With no
    swept axis, T_1 is the division by 1 - theta dt a lam.  Otherwise each
    factor is a tridiagonal system along its axis, with off-diagonals
    -theta dt a / h^2 and diagonal 1 + theta dt a (2/h^2 - eig), eig lam for
    T_1 and 0 for the rest.  A batched Thomas sweep solves it: with the
    reciprocal pivots p_i and the modified super-diagonal c_i = off_i p_i,
    the increment is scaled by p once, then y_i -= c_i y_{i-1} runs forward
    and x_i -= c_i x_{i+1} backward, each a pass over one slice of N^(n-1)
    points through one slice buffer that the sweeps share.  No sweep needs
    pivoting: eig <= 0, and the coercivity guard runs first and gives
    a >= 1/Lambda > 0, so each diagonal exceeds the sum of its off-diagonals
    by at least 1 and every pivot is at least 1.  The factors are linear, so
    T_1's pivots also take the factor dt.

    step(step_dt) builds every factor's pivots p, and c for a sweep, of the
    broadcast shape of a and lam, and returns advance(rate), which takes one
    step from the explicit terms `rate` = E(u) of the current u and leaves
    the new state and grid values in `state` and `u`; solve_fd makes one
    per step size.  The coefficients of a L, a (lam - 2 m / h^2) on the
    diagonal and a / h^2 off it, are built once.  `rate` and `spare` are
    overwritten: the transforms take turns in them, and once the transformed
    explicit terms are added into the increment, the off-diagonal terms of
    a L s are formed, one face at a time, in the buffer that held those
    terms.  So a step needs no grid array beyond u, the state and these two.
    """
    n, N = u.ndim, u.shape[0]
    lines = [ax for ax in range(m0) if np.shape(a_vals)[ax] > 1]
    axes = [ax for ax in range(m0) if ax not in lines]
    S, lam = _slab_sine_basis(N, axes, n, h)
    _sine_transform(S, u, spare, axes, out=state)
    c = 1.0 / (h * h)
    centre = a_vals * (lam - 2.0 * len(lines) * c)
    coupling = a_vals * c
    # (rows, neighbours) of the off-diagonal terms: i - 1, then i + 1, along each swept axis
    faces = []
    for ax in lines:
        lower = (slice(None),) * ax + (slice(None, -1),)
        upper = (slice(None),) * ax + (slice(1, None),)
        faces += [(upper, lower), (lower, upper)]
    # slice i along each swept axis, with that sweep's eigenvalues
    sweeps = [([(slice(None),) * l + (i,) for i in range(N)], lam if k == 0 else 0.0)
              for k, l in enumerate(lines)]
    line = np.empty((N,) * (n - 1)) if lines else None

    def step(step_dt):
        off = (-_THETA * step_dt) * coupling
        factors = []
        for cells, eig in sweeps:
            diag = 1.0 + _THETA * step_dt * a_vals * (2.0 * c - eig)
            pivot, upper = np.empty(diag.shape), np.empty(diag.shape)
            pivot[cells[0]] = 1.0 / diag[cells[0]]
            upper[cells[0]] = off[cells[0]] * pivot[cells[0]]
            for prev, cell in zip(cells, cells[1:]):
                pivot[cell] = 1.0 / (diag[cell] - off[cell] * upper[prev])
                upper[cell] = off[cell] * pivot[cell]
            factors.append((cells, pivot, upper))
        if not factors:
            factors.append(((), 1.0 / (1.0 - _THETA * step_dt * a_vals * lam), None))
        first = factors[0][1]
        first *= step_dt

        def advance(rate):
            hat, delta = _sine_transform(S, rate, spare, axes)
            np.multiply(state, centre, out=delta)
            delta += hat
            for rows, neighbours in faces:  # each face term in hat's freed buffer
                np.multiply(state[neighbours], coupling[rows], out=hat[rows])
                np.add(delta[rows], hat[rows], out=delta[rows])
            for cells, pivot, upper in factors:
                delta *= pivot
                for prev, cell in zip(cells, cells[1:]):
                    np.multiply(upper[cell], delta[prev], out=line)
                    np.subtract(delta[cell], line, out=delta[cell])
                for cell, succ in zip(cells[-2::-1], cells[::-1]):
                    np.multiply(upper[cell], delta[succ], out=line)
                    np.subtract(delta[cell], line, out=delta[cell])
            np.add(state, delta, out=state)
            _sine_transform(S, state, hat, axes, out=u)

        return advance

    return step


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not say."""
    try:
        return float(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (AttributeError, ValueError, OSError):
        return float("inf")


# Full float64 grid arrays a solve stage holds beyond its snapshots, summed
# over its phases: the grid values, the state and three step buffers (5;
# the matrices kernel needs two buffers, the stencil a third for its 4u,
# and the last snapshot is the grid values themselves, so solve_fd peaks
# at 3.05, and at 3.22 on kolmogorov-general at N = 20), the residual's
# transients (5; residual_series 3.2) and the one complex buffer in which
# every .upf write's spectrum and its norms are formed (2, at 16 B per
# point; fftn transforms it in place, and the norms' slabs come after),
# each measured with tracemalloc on fokkerplanck at N = 8 unless named.  The
# phases do not overlap, so the sum also covers the largest of them and
# leaves room for the interpreter and the libraries.
_FD_STAGE_ARRAYS = 5 + 5 + 2

# The same count for the exact route, whose snapshots are complex (2 arrays
# each, counted by the guard) and formed on read, then kept by `solve`: the
# initial spectrum, held throughout (2), one field's formation from its
# ledger (8, the field included) and the residual's transients (10; u0's
# spectrum, formed before any snapshot, takes 10.1 on kolmogorov2d-lowreg
# and 3 elsewhere, and the smoothing profile 5.2), each measured with
# tracemalloc on kolmogorov2d and kolmogorov2d-lowreg at N = 256, chain3 at
# N = 32 and lp-block at N = 12.  `solve` peaked at 13.5 beyond its
# snapshots, `smoothing`, which keeps none, at 10.5.
_EXACT_STAGE_ARRAYS = 2 + 8 + 10

# route: (float64 grid arrays per snapshot, work and transient arrays)
_ROUTE_ARRAYS = {"FD": (1, _FD_STAGE_ARRAYS), "exact": (2, _EXACT_STAGE_ARRAYS)}


def _require_memory(snapshots: int, n: int, N: int, solver_axes=(), route: str = "FD") -> None:
    """Refuse, before allocating, a run of `route` whose arrays exceed physical memory.

    The run holds _ROUTE_ARRAYS[route] float64 grid arrays: so many per
    snapshot and so many work and transient arrays, and one float64 array
    of N**k values for each k in `solver_axes` (the FD slab step's pivots,
    coefficients and slice buffer, and the transport's matrices).  The
    error names the route and the largest N that fits.
    """
    per_snapshot, stage = _ROUTE_ARRAYS[route]

    def need(size):
        size = float(size)
        return 8.0 * ((per_snapshot * snapshots + stage) * size**n
                      + sum(size**k for k in solver_axes))

    budget = _physical_memory()
    if need(N) <= budget:
        return
    fit = int((budget / need(1)) ** (1.0 / n)) // 2 * 2 + 2  # the root, rounded, plus one step
    while fit >= 4 and need(fit) > budget:
        fit -= 2
    raise SolverError(
        f"the {route} route needs about {need(N) / 2**20:.4g} MiB for {snapshots} snapshots, "
        f"{stage} work and transient arrays" + (" and the solver's" if solver_axes else "")
        + f" on N = {N} in {n}-D, more than the {budget / 2**20:.4g} MiB of physical memory; "
        + (f"retry with N <= {fit}" if fit >= 4 else "no grid fits"))


# The implicit weight of the theta scheme (Crank-Nicolson), which every slab
# solver reads, and the largest advective CFL number solve_fd accepts.
_THETA = 0.5
_CFL_LIMIT = 0.8

# Refuse a run that needs more time steps than this: even on the smallest
# grids it would take minutes, and a mistyped --dt would hang the stage.
_MAX_FD_STEPS = 100_000


def _snapshot_segments(times, dt_base, T):
    """Split [0, times[-1]] into (n_steps, dt) runs ending at each snapshot.

    dt_base is the largest step; each gap takes the fewest equal steps no
    longer than it.  `times` has passed _checked_run; a time beyond T is
    refused here.
    Refuses, before any step is counted out, a dt that needs more than
    _MAX_FD_STEPS steps to reach the last snapshot.
    """
    times = np.asarray(times, dtype=float)
    if np.any(times > T + 1e-12 * max(T, 1.0)):
        raise SolverError(f"snapshot times must lie in [0, T] = [0, {T}]")
    end = float(times[-1])
    needed = end / dt_base if dt_base > 0 else np.inf
    if not needed <= _MAX_FD_STEPS:  # also refuses a nan, zero or subnormal dt
        raise SolverError(
            f"dt = {dt_base:.6g} needs {needed:.3g} steps to reach t = {end:.6g}, "
            f"more than the limit of {_MAX_FD_STEPS}; retry with "
            f"dt >= {2.0 * end / _MAX_FD_STEPS:.6g}")
    segments = []
    for gap in np.diff(times, prepend=0.0).tolist():
        steps = max(1, int(np.ceil(gap / dt_base - 1e-12))) if gap else 0
        segments.append((steps, gap / steps if steps else dt_base))
    return times, segments


def solve_fd(spec: ProblemSpec, grid: TorusGrid | None = None, dt: float | None = None,
             times=None) -> TrajectorySolution:
    """IMEX Crank-Nicolson scheme: implicit central diffusion, explicit upwind transport.

    One loop takes every step: the explicit terms E(u) of the grid values u
    go to the advance of _slab_steps, which updates the state, kept in sine
    coordinates along the diffused axes a does not vary along, and u; a step
    allocates no grid-sized array.  Beyond u and the state, the solve holds
    two grid-sized step buffers, the explicit terms and a spare, and a third
    for the 4u of the stencil transport only.  One advance, with its
    factors, serves every gap taken with its step size.  dt (default: the
    advective bound, at most T/64) is the largest step; each gap takes the
    fewest equal steps no longer than it.
    Refuses a run that fails _checked_run (times, grid, coercivity) before
    any work.  Aborts with CFLError (carrying a suggested dt) when the
    advective step bound (_CFL_LIMIT) fails, and with SolverError when the run would take
    more than _MAX_FD_STEPS steps (naming a dt that passes) or when its
    snapshots, work arrays and the solve stage's transients would not fit in
    physical memory (naming the largest N that fits, see _require_memory).
    `fields` keeps each snapshot's real grid values, the last one being u
    itself, and forms its spectrum on read (see _GridFields).  Diagnostics
    record the discrete mass and the
    fraction of the solution touching the boundary shell at each snapshot,
    the advective CFL number (`cfl`) and its limit (`cfl_limit`),
    which implicit slab solver ran (`slab_solver`, chosen from the diffused
    axes a's sample varies along, `slab_sweeps`, each Thomas-swept: "sine"
    for none, "sine-tridiagonal" for one and "sine-adi", Douglas's factors,
    for two or more; one step form serves all three, see _slab_steps),
    which explicit transport kernel ran (`transport`, see _upwind:
    "matrices", one N x N upwind matrix or one stack of them over an
    earlier axis per axis, on a grid of four or more axes when every speed
    varies along at most one axis besides its own, an earlier one, and the
    matrices hold no more values than one grid array; "stencil", the centre
    term and sign-box neighbour terms, otherwise),
    the number of time steps taken (`steps`) and why the spec needs this
    route (`route_reason`, from _exact_route_supported; None when the exact
    route would apply).
    """
    grid, times = _checked_run(spec, grid, times, np.linspace(0.0, spec.T, 9))
    h = grid.spacing
    n, m0, N = spec.n, spec.m0, grid.N

    speeds = _transport_speeds(spec, grid)
    b0_vals = None if spec.b0.is_zero else spec.b0.evaluate(grid)
    g_vals = None if spec.g.is_zero else spec.g.evaluate(grid)
    a_vals = spec.a.evaluate(grid)

    max_speed = float(np.max(sum(np.abs(w) for w in speeds.values())))
    if dt is None:
        advective = _CFL_LIMIT * h / (2.0 * max_speed) if max_speed > 0 else np.inf
        dt = float(min(spec.T / 64.0, advective))
    cfl = max_speed * dt / h
    if cfl > _CFL_LIMIT:
        raise CFLError(dt, cfl, _CFL_LIMIT, suggested_dt=0.5 * _CFL_LIMIT * h / max_speed)
    b0_max = 0.0 if b0_vals is None else float(np.abs(b0_vals).max())
    if dt * b0_max > 1.0:
        raise CFLError(dt, dt * b0_max, 1.0, suggested_dt=0.5 / b0_max)

    times, segments = _snapshot_segments(times, dt, spec.T)

    # the implicit slab solver, by the number of diffused axes a varies along
    varies = [ax for ax, size in enumerate(np.shape(a_vals)) if size > 1]
    sweeps = [ax for ax in varies if ax < m0]
    slab_solver = ("sine", "sine-tridiagonal", "sine-adi")[min(len(sweeps), 2)]
    # the slab step's arrays: per step size, one pivot array without a sweep
    # or a pivot and a c array per sweep, spanning the axes of a and of the
    # slab eigenvalues; per solve, a L's diagonal on those axes, a / h^2 on
    # a's, and with sweeps their shared slice of n - 1 axes
    factor_axes = len(set(varies) | set(range(m0)))
    sizes = len({step_dt for steps, step_dt in segments if steps})
    slab = max(2 * len(sweeps), 1) * sizes * (factor_axes,) + (factor_axes, len(varies))
    if sweeps:
        slab += (n - 1,)
    from ._upwind import apply_transport, matrix_axes, transport_plan

    # the transport kernel's matrices (none on the stencil)
    matrices = matrix_axes(speeds, grid.shape) or ()
    _require_memory(len(times), n, N, slab + matrices)

    plan = transport_plan(speeds, b0_vals, h, grid.shape)
    # work arrays, allocated once per solve: the state in sine coordinates,
    # the explicit terms `rate` and `spare`, which serve in turn the
    # transport's terms, the sine transforms and the off-diagonal terms of
    # a L; the stencil's 4u takes a fourth, which the matrices do without
    spare, rate, state = (np.empty(grid.shape) for _ in range(3))
    u4 = np.empty(grid.shape) if plan[0] == "stencil" else None
    # the grid values, a fresh C-ordered copy at the full grid shape
    u = np.array(np.broadcast_to(spec.u0.evaluate(grid), grid.shape), dtype=float, order="C")
    step = _slab_steps(a_vals, m0, h, u, state, spare)

    def explicit_terms(u):
        apply_transport(plan, u, u4, spare, rate)
        if g_vals is not None:
            np.add(rate, g_vals, out=rate)
        return rate

    shell = [(slice(None),) * ax + (i,) for ax in range(n) for i in (0, N - 1)]  # 2n faces
    values, mass, boundary_fraction = [], [], []
    # inf, not OverflowError, once a huge box scale takes the cell volume
    # out of the float range
    with np.errstate(over="ignore"):
        volume_element = float(np.float64(h) ** n)

    def record(u):
        values.append(u)
        mass.append(float(u.sum()) * volume_element)
        magnitude = np.abs(u, out=spare)  # a step buffer, free between steps
        peak = float(magnitude.max())
        edge = max(float(magnitude[face].max()) for face in shell)
        boundary_fraction.append(edge / peak if peak > 0 else 0.0)

    advances = {}  # one per distinct step size
    last = len(segments) - 1
    for k, (steps, step_dt) in enumerate(segments):
        if steps and step_dt not in advances:
            advances[step_dt] = step(step_dt)
        for _ in range(steps):
            advances[step_dt](explicit_terms(u))
        record(u if k == last else u.copy())  # no step writes u after the last

    return TrajectorySolution(
        method="fd",
        grid=grid,
        times=times,
        fields=_GridFields(grid, tuple(values)),
        diagnostics={
            "dt": dt,
            "cfl": cfl,
            "cfl_limit": _CFL_LIMIT,
            "mass": np.array(mass),
            "boundary_fraction": np.array(boundary_fraction),
            "slab_solver": slab_solver,
            "slab_sweeps": sweeps,
            "transport": plan[0],
            "steps": sum(steps for steps, _ in segments),
            "route_reason": _exact_route_supported(spec),
        },
    )


def solve_auto(spec: ProblemSpec, grid=None, dt=None, times=None) -> TrajectorySolution:
    """Exact route when the spec allows it, finite differences otherwise."""
    if _exact_route_supported(spec) is None:
        return solve_exact(spec, grid=grid, times=times)
    return solve_fd(spec, grid=grid, dt=dt, times=times)


# ---------------------------------------------------------------------------
# a-posteriori checks


@dataclass(frozen=True)
class ResidualReport:
    """Normalized PDE residual at the interior snapshot times."""

    times: np.ndarray
    values: np.ndarray

    @property
    def max_value(self) -> float:
        return float(np.max(self.values))


def _derivative_matrices(grid: TorusGrid):
    """(D1, D2, nyquist): spectral differentiation along one axis as real matrices.

    D1 = irfft(i xi rfft(.)) and D2 = irfft(-xi^2 rfft(.)) are N x N.  On a
    real or complex column u, D2 u is the complex pair's ifft(-xi^2 fft(u)),
    and the pair's first derivative is D1 u + i (-1)^j (nyquist u): its
    Nyquist term i xi_{N/2} F_{N/2} (-1)^j / N, with F_{N/2} =
    sum_k (-1)^k u_k, is imaginary for a real u, so irfft drops it.  That
    rank-one part is the 1 x N row nyquist = (xi_{N/2} / N) (-1)^k.
    """
    N = grid.N
    xi = grid.axis_modes[:N // 2 + 1, None] / grid.L  # ends at the Nyquist mode -N/2
    spectrum = np.fft.rfft(np.eye(N), axis=0)
    D1 = np.fft.irfft(1j * xi * spectrum, n=N, axis=0)
    D2 = np.fft.irfft(-(xi**2) * spectrum, n=N, axis=0)
    nyquist = (xi[-1] / N) * (-1.0) ** np.arange(N)[None, :]
    return D1, D2, nyquist


def residual_series(solution: TrajectorySolution, spec: ProblemSpec,
                    norms=None) -> ResidualReport:
    """||du/dt + Xu + Yu - a lap u - g||_{L2} / (||u||_{H2} + 1) at interior times.

    Time derivative: fourth-order five-point central stencil, so the snapshot
    times must be uniformly spaced with at least five entries; space
    derivatives are spectral on the snapshot grid, and ||u||_{H^2}^2 is the
    last of snapshot i's snapshot_norms: norms[i], or formed here without
    `norms`.  Each first and second derivative along an axis is one product
    with a fixed N x N matrix (_derivative_matrices, built once per call)
    along that axis (_apply_along): a BLAS matmul in place of a 1-D
    transform pair.  The first derivative's Nyquist term is the rank-one part
    i (-1)^j (xi_{N/2} / N) sum_k (-1)^k u_k, one alternating sum per line.
    The normalisers come first.  Then the stencil is formed in place in one
    kept array, and each term is formed in a second kept array and added to
    it at once, so nothing of grid size is allocated per snapshot; the sum
    of |r|^2 is a dot product.
    On the FD route u is real and so is every array: the stencil runs on the
    grid values, and the Nyquist terms, which are imaginary, go to a third
    kept array and add their squares to the sum, so the FD residual is the
    one the complex transforms measure.  On fokkerplanck at N = 8 the series
    peaks at 3.2 float64 grid arrays beyond the snapshots (tracemalloc).
    The exact route's grid fields are complex, so there du/dt and u take one
    n-D inverse FFT each, in place: du/dt in the stencil's array, which
    becomes the residual, and u in a copy of its coefficients without their
    mean (which no term of that route sees, so a constant field's terms are
    exactly zero); the Nyquist terms, times i, go into the residual itself.
    """
    times = solution.times
    if len(times) < 5:
        raise SolverError("residual needs at least five uniformly spaced snapshots")
    gaps = np.diff(times)
    dt = float(gaps[0])
    if dt <= 0 or np.max(np.abs(gaps - dt)) > 1e-9 * max(dt, 1.0):
        raise SolverError("residual needs uniformly spaced snapshot times")
    grid = solution.grid
    if grid.n != spec.n:
        raise SolverError("solution grid does not match the spec dimension")
    a_vals = spec.a.evaluate(grid)
    b0_vals = None if spec.b0.is_zero else spec.b0.evaluate(grid)
    g_vals = None if spec.g.is_zero else spec.g.evaluate(grid)
    speeds = _transport_speeds(spec, grid)
    axes = sorted(set(speeds) | set(range(spec.m0)))
    N, n = grid.N, grid.n
    real = isinstance(solution.fields, _GridFields)
    stack = solution.fields.values if real else [f.coeffs for f in solution.fields]
    D1, D2, nyquist = _derivative_matrices(grid)
    if not real:
        nyquist = 1j * nyquist  # a complex residual takes the Nyquist terms in itself
    alternating = (-1.0) ** np.arange(N)

    interior = range(2, len(times) - 2)
    # the normalisers first, so their spectra are gone before the kept arrays
    if norms is None:
        norms = {i: snapshot_norms(solution.fields[i], float(spec.s), spec.m0)
                 for i in interior}
    scales = [float(np.sqrt(norms[i][2])) + 1.0 for i in interior]
    stencil = np.empty_like(stack[0])
    term = np.empty_like(stencil)  # each term, added to the residual at once
    sums = np.empty(N ** (n - 1), dtype=term.dtype)  # the alternating sum of each line
    imag = np.empty(grid.shape) if real and speeds else None  # the Nyquist terms of a real u

    out_times, out_values = [], []
    for i, scale in zip(interior, scales):
        # (8 (u[i+1] - u[i-1]) + u[i-2] - u[i+2]) / (12 dt), in place
        np.subtract(stack[i + 1], stack[i - 1], out=stencil)
        stencil *= 8.0
        stencil += stack[i - 2]
        stencil -= stack[i + 2]
        stencil /= 12.0 * dt
        if real:
            residual, values, nyquist_terms = stencil, stack[i], imag
            if imag is not None:
                imag.fill(0.0)
        else:
            # du/dt on the grid (SpectralField.grid_values), in the stencil's array
            residual = np.fft.ifftn(stencil, norm="forward", out=stencil)
            # u without its mean: the exact route has no b0, and derivatives
            # annihilate the mean, so, as with transform pairs, a constant
            # field's terms are exactly zero
            values = solution.fields[i].coeffs * stencil.size
            values[(0,) * n] = 0.0
            np.fft.ifftn(values, out=values)
            nyquist_terms = residual
        for ax in axes:
            if ax in speeds:
                _apply_along(D1, values, ax, term)
                term *= speeds[ax]
                residual += term
                # speed * (-1)^j * (nyquist u), u's sums spanning every axis but ax
                line = tuple(1 if a == ax else N for a in range(n))
                np.multiply(_apply_along(nyquist, values, ax, sums.reshape(line)),
                            _along(alternating, ax, n), out=term)
                term *= speeds[ax]
                nyquist_terms += term
            if ax < spec.m0:
                _apply_along(D2, values, ax, term)
                term *= a_vals
                residual -= term
        if b0_vals is not None:
            np.multiply(b0_vals, values, out=term)
            residual += term
        if g_vals is not None:
            residual -= g_vals
        power = np.vdot(residual, residual).real
        if imag is not None:
            power += np.vdot(imag, imag)
        out_times.append(times[i])
        out_values.append(float(np.sqrt(power / residual.size)) / scale)
        del values  # on the exact route, gone before the next one is formed
    return ResidualReport(times=np.array(out_times), values=np.array(out_values))


@dataclass(frozen=True)
class EnergyReport:
    """Parabolic energy balance along a trajectory, relative to its budget.

    energy[i] = ||u(t_i)||_{H^s}^2
                + (1/Lambda) sum_{k<m0} int_0^{t_i} ||d_k u||_{H^s}^2 dtau
    budget    = ||u(0)||_{H^s}^2 + (int_0^T ||g||_{H^s} dtau)^2
    ratio     = energy / budget  (zero budget with zero energy reports 0)
    """

    times: np.ndarray
    energy: np.ndarray
    budget: float
    ratio: np.ndarray

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratio))


def energy_check(solution: TrajectorySolution, spec: ProblemSpec, norms=None) -> EnergyReport:
    """The EnergyReport of a trajectory in H^s, s = spec.s.

    Each snapshot's ||u||_{H^s}^2 and sum_{k<m0} ||d_k u||_{H^s}^2 are the
    first two of its snapshot_norms: norms[i], or formed here without `norms`.
    """
    s = float(spec.s)
    grid = solution.grid
    times = solution.times
    if norms is None:
        norms = [snapshot_norms(f, s, spec.m0) for f in solution.fields]
    norms_sq, dissipation, _ = np.array(norms, dtype=float).T
    integral = np.concatenate(
        [[0.0], np.cumsum(0.5 * (dissipation[1:] + dissipation[:-1]) * np.diff(times))]
    )
    energy = norms_sq + integral / float(spec.Lambda)
    if spec.g.is_zero:
        source = 0.0
    else:
        g_vals = np.broadcast_to(spec.g.evaluate(grid), grid.shape)
        g_norm = hs_norm(SpectralField.from_grid_values(grid, g_vals), s)
        source = (g_norm * float(times[-1] - times[0])) ** 2
    budget = norms_sq[0] + source
    if budget == 0.0:
        ratio = np.where(energy <= 1e-30, 0.0, np.inf)
    else:
        ratio = energy / budget
    return EnergyReport(times=times, energy=energy, budget=budget, ratio=ratio)
