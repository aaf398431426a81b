"""Evolution solvers for the degenerate model problems, plus a-posteriori checks.

Two routes produce a TrajectorySolution (a time-indexed family of spectral
snapshots on one grid):

* solve_exact -- characteristics in frequency space.  For drift-only lower
  order structure (b = b0 = g = 0, constant a) the evolution of a single
  continuum mode e^{i zeta.x} is exact: the mode transports to e^{-tB} zeta
  and is damped by exp(-a int_0^t |P e^{-tau B} zeta|^2 dtau), with P the
  projection onto the diffused axes.  The damping integrand is a polynomial
  in tau (B is nilpotent), so fixed-order Gauss-Legendre quadrature is exact;
  the transported off-lattice modes are resampled on the grid by per-axis
  fractional phase shifts, valid whenever the drift's coupling digraph is
  acyclic (then e^{-tB} is unit-triangular in topological order).  Up to
  floating round-off and spectral tails, the snapshots are the exact solution
  samples, so the route also satisfies the semigroup property to near machine
  precision.  The route's native output is one ModeLedger per snapshot (the
  damped amplitudes; frequencies() gives every mode's true frequency
  e^{-tB} xi).  A snapshot's grid field is formed from its ledger by the
  resampling the first time `fields`, `snapshot(i)` or `final` reads it, and
  is then kept, so a stage that reads only the ledgers never resamples.  The
  phases, damping and frequencies are built from per-axis vectors that
  broadcast over the grid, so each costs only the axes it varies along.

* solve_fd -- theta-method IMEX finite differences on the same box with zero
  Dirichlet data: diffusion (second-order central) is treated implicitly on
  the diffused slabs, drift and the lower-order terms explicitly with
  second-order upwind-biased one-sided differences chosen by the local sign
  of the transport speed.  When a does not vary along a diffused axis, each
  implicit step is solved exactly in the DST-I eigenbasis of the Dirichlet
  slab Laplacian (fast Poisson diagonalisation: a dense sine matrix along
  each diffused axis, no factorization); otherwise by sparse LU, one
  factorization shared by all columns when a varies only along diffused
  axes, one per column else.  The step is refused up front when the
  advective CFL number exceeds the limit (the error carries a suggested
  step), when the diffusion coefficient leaves [1/Lambda, Lambda] at a
  sample point, or when reaching the last snapshot takes more than
  _MAX_FD_STEPS steps (the error names a step that passes).  SciPy (sparse
  matrices and LU) is imported by this route alone, when it first runs.

residual_series measures how well any trajectory satisfies the PDE (spectral
space derivatives, fourth-order central time differences), and energy_check
tracks the parabolic energy balance against its theoretical budget.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import leggauss

from .problems import ConstantPreset, ProblemSpec, coercivity_check
from .sobolev import SpectralField, TorusGrid, hs_norm
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


class SolverError(RuntimeError):
    """A solve could not be carried out as requested."""


class CFLError(SolverError):
    """Explicit advection step too large for the grid; carries a suggestion."""

    def __init__(self, dt, cfl, limit, suggested_dt):
        self.dt = dt
        self.cfl = cfl
        self.limit = limit
        self.suggested_dt = suggested_dt
        super().__init__(
            f"advective CFL number {cfl:.3g} exceeds limit {limit:.3g} at dt = {dt:.6g}; "
            f"retry with dt <= {suggested_dt:.6g}"
        )


class CoercivityError(SolverError):
    """Diffusion coefficient violates the two-sided ellipticity bound."""

    def __init__(self, report):
        self.report = report
        super().__init__(report.message())


def _row_combinations(M: np.ndarray, arrays, rows):
    """Yield sum_j M[r, j] * arrays[j] for each r in rows, one row at a time.

    Zero entries of M are skipped, and each sum broadcasts over only the
    arrays it adds, so per-axis arrays (see _axis_vectors) give a result that
    spans just the axes its row couples.  This is the one place where a drift
    matrix meets per-axis arrays: the transformed frequencies e^{-tB} xi, the
    phase shifts of the exact transport, and the speeds sum_k B[k, j] x_k.
    """
    for r in rows:
        used = [j for j, c in enumerate(M[r]) if c != 0.0]
        out = np.zeros(np.broadcast_shapes(*(np.shape(arrays[j]) for j in used)))
        for j in used:
            out += M[r, j] * arrays[j]
        yield out


def _axis_vectors(grid: TorusGrid, values: np.ndarray) -> list:
    """One length-N vector per axis, shaped (1, ..., N, ..., 1) to broadcast over the grid.

    `values` is grid.axis_modes / grid.L for frequencies, grid.axis_points
    for coordinates: the numbers of grid.frequency and grid.coordinate,
    without the N**n broadcast.
    """
    n = grid.n
    return [values.reshape((1,) * ax + (grid.N,) + (1,) * (n - 1 - ax)) for ax in range(n)]


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
    along axis ax is `frequencies()[ax][idx]` = sum_j matrix[ax, j] * xi_j(idx).
    Weighted mode sums computed from the ledger are exact at any order.
    The exact route's grid field of a snapshot is formed from its ledger, on
    first read (see TrajectorySolution).
    """

    grid: TorusGrid
    matrix: np.ndarray
    coefficients: np.ndarray

    def frequencies(self) -> list:
        """True frequency of each mode along every axis, broadcast over the lattice.

        Each sum runs on the axes its row of `matrix` couples; the results are
        read-only views at the lattice shape.
        """
        freqs = _axis_vectors(self.grid, self.grid.axis_modes / self.grid.L)
        return [np.broadcast_to(f, self.grid.shape)
                for f in _row_combinations(self.matrix, freqs, range(self.grid.n))]


class _LedgerFields(Sequence):
    """The exact route's grid fields, formed from its ledgers when first read.

    Item i is the ledger's amplitudes resampled on the grid by _transport at
    times[i]; each is formed once and kept, because `solve` reads every field
    three times (residual, energy, write).
    """

    def __init__(self, ledgers: tuple, powers: list, order: list, times: np.ndarray):
        self._ledgers = ledgers
        self._powers = powers
        self._order = order
        self._times = times
        self._formed = [None] * len(ledgers)

    def __len__(self):
        return len(self._ledgers)

    def __getitem__(self, i):
        if self._formed[i] is None:
            ledger = self._ledgers[i]
            self._formed[i] = SpectralField(ledger.grid, _transport(
                ledger.grid, ledger.coefficients, self._powers, self._order, self._times[i]))
        return self._formed[i]


@dataclass(frozen=True)
class TrajectorySolution:
    """Snapshots of one evolution: times[i] holds fields[i] on a common grid.

    `mode_ledgers` is populated by the exact route only.  There the ledgers
    are the solution and `fields` is a sequence that forms snapshot i's grid
    field from ledger i the first time it is read (through `fields`,
    `snapshot(i)` or `final`) and keeps it; norm measurements read the
    ledgers (true off-lattice frequencies) and so never form a field.
    """

    spec_name: str
    spec_hash: str
    method: str
    grid: TorusGrid
    times: np.ndarray
    fields: Sequence
    diagnostics: dict = field(default_factory=dict, compare=False)
    mode_ledgers: tuple | None = None

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

    def hs_series(self, s: float) -> np.ndarray:
        return np.array([hs_norm(f, s) for f in self.fields])

    def mass_series(self) -> np.ndarray:
        """Box integral of each snapshot (volume * zero mode)."""
        volume = (2.0 * np.pi * self.grid.L) ** self.grid.n
        return np.array([volume * f.coeffs[(0,) * self.grid.n].real for f in self.fields])


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
    out = np.zeros_like(powers[0])
    fact = 1.0
    for q, P in enumerate(powers):
        if q:
            fact *= q
        out += (t**q / fact) * P
    return out


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


def _damping_exponent(grid, powers, m0, t, quad_order) -> np.ndarray:
    """int_0^t |P e^{-tau B} xi|^2 dtau on the full frequency mesh (exact GL).

    Each node's projected frequency spans only the axes its row couples; it
    is squared there and added into the full mesh.
    """
    if t == 0.0:
        return np.zeros(grid.shape)
    nodes, weights = leggauss(quad_order)
    taus = 0.5 * t * (nodes + 1.0)
    ws = 0.5 * t * weights
    freqs = _axis_vectors(grid, grid.axis_modes / grid.L)
    total = np.zeros(grid.shape)
    for tau, w in zip(taus, ws):
        for y in _row_combinations(_matrix_exponential(powers, -tau), freqs, range(m0)):
            total += w * y**2
    return total


def _transport(grid, coeffs, powers, order, t) -> np.ndarray:
    """Resample modes at e^{-tB} xi by per-axis fractional phase shifts.

    The phase along axis ax spans ax and the axes that shift it, so its
    complex exp runs on those axes only and broadcasts into the grid.
    """
    if t == 0.0:
        return coeffs.copy()
    M = _matrix_exponential(powers, -t)
    np.fill_diagonal(M, 0.0)  # each axis is shifted by the other axes' modes
    modes = [k * grid.L for k in _axis_vectors(grid, grid.axis_modes / grid.L)]
    coords = _axis_vectors(grid, grid.axis_points)
    out = coeffs
    for ax, shift in zip(order, _row_combinations(M, modes, order)):
        if not np.any(shift):
            continue
        values = np.fft.ifft(out, axis=ax)
        values *= np.exp(1j * shift * coords[ax] / grid.L)
        out = np.fft.fft(values, axis=ax)
    return np.asarray(out)


def solve_exact(spec: ProblemSpec, grid: TorusGrid | None = None, times=None,
                u0: SpectralField | None = None) -> TrajectorySolution:
    """Characteristics solution sampled on the grid at the requested times.

    Requires b = b0 = g = 0, constant a and an acyclic drift coupling digraph
    (see _exact_route_supported).  `u0` overrides the spec's initial preset
    (used for semigroup restarts).
    """
    reason = _exact_route_supported(spec)
    if reason is not None:
        raise SolverError(f"exact route does not support {reason}; use solve_fd")
    grid = grid or spec.default_grid()
    if grid.n != spec.n:
        raise SolverError(f"grid dimension {grid.n} != spec dimension {spec.n}")
    times = np.array([0.0, spec.T]) if times is None else np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0 or np.any(times < 0):
        raise SolverError("times must be a nonempty 1-D array of nonnegative instants")
    powers = _nilpotent_powers(spec.B, spec.n)
    order = _axis_order(spec.B)
    a_val = float(spec.a.value)
    base = (u0 if u0 is not None else spec.u0.spectral(grid)).coeffs
    quad_order = spec.n + 1
    ledgers = tuple(
        ModeLedger(grid, _matrix_exponential(powers, -t),
                   base * np.exp(-a_val * _damping_exponent(grid, powers, spec.m0, t, quad_order)))
        for t in times
    )
    return TrajectorySolution(
        spec_name=spec.name,
        spec_hash=spec.spec_hash(),
        method="exact",
        grid=grid,
        times=times,
        fields=_LedgerFields(ledgers, powers, order, times),
        mode_ledgers=ledgers,
    )


# ---------------------------------------------------------------------------
# finite-difference route


def _sample(preset, grid: TorusGrid) -> np.ndarray:
    """preset.evaluate(grid), kept only along the axes the preset varies on.

    The result broadcasts against the grid to the full sample, so arithmetic
    with it gives the same numbers, while a constant costs one value, not N**n.
    """
    values = preset.evaluate(grid)
    depends = preset.depends_axes(grid.n)
    if depends is None:
        return values
    return values[tuple(slice(None) if ax in depends else slice(0, 1)
                        for ax in range(grid.n))].copy()


def _transport_speeds(spec: ProblemSpec, grid: TorusGrid):
    """Yield (axis j, speed) for each axis whose transport speed is not zero.

    The speed along axis j is the drift column sum_k B[k, j] x_k plus the
    first-order coefficient b_j on diffused axes.  Speeds come one axis at a
    time, so a caller that uses each once never holds them all.
    """
    coords = [grid.coordinate(k) for k in range(grid.n)]
    for j, w in enumerate(_row_combinations(spec.B_float().T, coords, range(grid.n))):
        if j < spec.m0 and not spec.b[j].is_zero:
            w = w + spec.b[j].evaluate(grid)
        if np.any(w):
            yield j, w


def _upwind_difference(u, u3, u4, positive, axis, h, out) -> np.ndarray:
    """Second-order one-sided difference along axis, biased against the speed sign.

    Where `positive` (the mask speed > 0, at u's shape):
    (3u_i - 4u_{i-1} + u_{i-2}) / (2h); elsewhere (-3u_i + 4u_{i+1} - u_{i+2}) / (2h);
    zeros stand in for values outside the box (Dirichlet ghosts).  `u3` and
    `u4` hold 3u and 4u, so every axis shares them.  The value lands in `out`,
    a C-contiguous array of u's shape.  Each difference is formed on the
    flattened arrays as a contiguous shift by the axis stride; that shift wraps
    across rows at the two cells nearest each face, and those cells are formed
    again from slices.
    """
    N = u.shape[axis]
    s = int(np.prod(u.shape[axis + 1:], dtype=int))
    f3, f4, fu, fo, fp = (x.reshape(-1) for x in (u3, u4, u, out, positive))

    def face(x, i):
        return x[(slice(None),) * axis + (slice(i, i + 1),)]

    np.subtract(f4[s:], f3[:-s], out=fo[:-s])
    np.subtract(fo[:-2 * s], fu[2 * s:], out=fo[:-2 * s])
    np.subtract(face(u4, N - 1), face(u3, N - 2), out=face(out, N - 2))
    # multiply, not np.negative: NumPy 2.4 writes wrong values when
    # np.negative fills a strided view through out=
    np.multiply(face(u3, N - 1), -1.0, out=face(out, N - 1))
    np.subtract(f3[s:], f4[:-s], out=fo[s:], where=fp[s:])
    np.add(fo[2 * s:], fu[:-2 * s], out=fo[2 * s:], where=fp[2 * s:])
    np.copyto(face(out, 0), face(u3, 0), where=face(positive, 0))
    np.subtract(face(u3, 1), face(u4, 0), out=face(out, 1), where=face(positive, 1))
    out /= 2.0 * h
    return out


def _dirichlet_d2(N: int, h: float):
    import scipy.sparse as sp

    main = np.full(N, -2.0)
    off = np.ones(N - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / (h * h)


def _subgrid_laplacian(N: int, m0: int, h: float):
    """Sparse CSR Laplacian of the leading m0 axes (3-point Dirichlet stencil)."""
    import scipy.sparse as sp

    D2 = _dirichlet_d2(N, h)
    total = None
    for ax in range(m0):
        term = sp.identity(N**ax, format="csr")
        term = sp.kron(term, D2, format="csr")
        term = sp.kron(term, sp.identity(N ** (m0 - 1 - ax), format="csr"), format="csr")
        total = term if total is None else total + term
    return total


def _slab_sine_basis(N: int, m0: int, n: int, h: float):
    """Orthonormal DST-I matrix S and the eigenvalues of the slab Laplacian.

    S[j, k] = sqrt(2/(N+1)) sin(pi j k/(N+1)) is symmetric and its own
    inverse, and D2 = S diag(mu) S for the 3-point Dirichlet second difference,
    mu_k = -(4/h^2) sin^2(pi k/(2(N+1))).  Applied along each of the m0
    diffused axes, S diagonalises the slab Laplacian.  Its eigenvalues are
    sums of one mu per diffused axis; they are returned with shape
    (N,) * m0 + (1,) * (n - m0), so they broadcast over the grid.
    """
    k = np.arange(1, N + 1)
    S = np.sqrt(2.0 / (N + 1)) * np.sin(np.pi * np.outer(k, k) / (N + 1))
    mu = -(4.0 / (h * h)) * np.sin(np.pi * k / (2.0 * (N + 1))) ** 2
    lam = sum(mu.reshape((1,) * ax + (N,) + (1,) * (n - 1 - ax)) for ax in range(m0))
    return S, lam


def _sine_transform(S, x, spare, m0):
    """Apply S along each of the leading m0 axes of x; return (result, free buffer).

    x and spare take turns as input and output, so nothing is allocated.
    """
    N = S.shape[0]
    for ax in range(m0):
        np.matmul(S, x.reshape(N**ax, N, -1), out=spare.reshape(N**ax, N, -1))
        x, spare = spare, x
    return x, spare


# Refuse a run that needs more time steps than this: even on the smallest
# grids it would take minutes, and a mistyped --dt would hang the stage.
_MAX_FD_STEPS = 100_000


def _snapshot_segments(times, dt_base, T, strict):
    """Split [0, times[-1]] into (n_steps, dt) runs ending at each snapshot.

    With an explicit dt (`strict`), every gap must be an integer multiple of
    it; otherwise each gap uses the largest step <= dt_base that divides it.
    Refuses, before any step is counted out, a dt that needs more than
    _MAX_FD_STEPS steps to reach the last snapshot.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise SolverError("times must be a nonempty 1-D array")
    if np.any(times < 0) or np.any(times > T + 1e-12 * max(T, 1.0)):
        raise SolverError(f"snapshot times must lie in [0, T] = [0, {T}]")
    if np.any(np.diff(times) <= 0):
        raise SolverError("snapshot times must be strictly increasing")
    end = float(times[-1])
    needed = end / dt_base if dt_base > 0 else np.inf
    if not needed <= _MAX_FD_STEPS:  # also refuses a nan, zero or subnormal dt
        raise SolverError(
            f"dt = {dt_base:.6g} needs {needed:.3g} steps to reach t = {end:.6g}, "
            f"more than the limit of {_MAX_FD_STEPS}; retry with "
            f"dt >= {2.0 * end / _MAX_FD_STEPS:.6g}")
    segments = []
    prev = 0.0
    for target in times:
        gap = float(target - prev)
        if gap == 0.0:
            segments.append((0, dt_base))
        elif strict:
            steps = int(round(gap / dt_base))
            if steps < 1 or abs(steps * dt_base - gap) > 1e-9 * max(1.0, float(times[-1])):
                raise SolverError(
                    f"snapshot gap {gap:.6g} is not an integer multiple of dt = {dt_base:.6g}"
                )
            segments.append((steps, dt_base))
        else:
            steps = max(1, int(np.ceil(gap / dt_base - 1e-12)))
            segments.append((steps, gap / steps))
        prev = float(target)
    return times, segments


def solve_fd(spec: ProblemSpec, grid: TorusGrid | None = None, dt: float | None = None,
             times=None, cfl_limit: float = 0.8, theta: float = 0.5) -> TrajectorySolution:
    """IMEX theta-scheme: implicit central diffusion, explicit upwinded transport.

    Aborts with CoercivityError when the sampled diffusion coefficient leaves
    [1/Lambda, Lambda], with CFLError (carrying a suggested dt) when the
    advective step bound fails, and with SolverError (naming a dt that
    passes) when the run would take more than _MAX_FD_STEPS steps.
    Diagnostics record the discrete mass and the
    fraction of the solution touching the boundary shell at each snapshot,
    and which implicit slab solver ran (`slab_solver`: "sine",
    "splu-shared" or "splu-per-column", chosen from a's axis dependence).
    """
    grid = grid or spec.default_grid()
    if grid.n != spec.n:
        raise SolverError(f"grid dimension {grid.n} != spec dimension {spec.n}")
    coercivity = coercivity_check(spec, grid)
    if not coercivity.ok:
        raise CoercivityError(coercivity)
    h = grid.spacing
    n, m0, N = spec.n, spec.m0, grid.N

    speeds = dict(_transport_speeds(spec, grid))
    b0_vals = None if spec.b0.is_zero else _sample(spec.b0, grid)
    g_vals = None if spec.g.is_zero else _sample(spec.g, grid)
    a_vals = _sample(spec.a, grid)

    max_speed = float(np.max(sum(np.abs(w) for w in speeds.values())))
    strict = dt is not None
    if dt is None:
        advective = cfl_limit * h / (2.0 * max_speed) if max_speed > 0 else np.inf
        dt = float(min(spec.T / 64.0, advective))
    cfl = max_speed * dt / h
    if cfl > cfl_limit:
        raise CFLError(dt, cfl, cfl_limit, suggested_dt=0.5 * cfl_limit * h / max_speed)
    if b0_vals is not None and dt * float(np.abs(b0_vals).max()) > 1.0:
        raise CFLError(dt, dt * float(np.abs(b0_vals).max()), 1.0,
                       suggested_dt=0.5 / float(np.abs(b0_vals).max()))

    times = np.linspace(0.0, spec.T, 9) if times is None else np.asarray(times, dtype=float)
    times, segments = _snapshot_segments(times, dt, spec.T, strict)

    # implicit diffusion operator on the leading m0-dimensional slabs
    lap = _subgrid_laplacian(N, m0, h).tocsr()
    M = N**m0
    R = N ** (n - m0)
    depends = spec.a.depends_axes(n)
    if depends is not None and all(ax >= m0 for ax in depends):
        slab_solver = "sine"  # a is constant on every slab
    elif depends is not None and all(ax < m0 for ax in depends):
        slab_solver = "splu-shared"  # every column sees the same slab operator
    else:
        slab_solver = "splu-per-column"

    # work arrays, allocated once per solve
    u3, u4, rate, work = (np.empty(grid.shape) for _ in range(4))
    upwind = {j: (w, w > 0) for j, w in speeds.items()}

    if slab_solver == "sine":
        S, lam = _slab_sine_basis(N, m0, n, h)

        def implicit_solver(step_dt):
            denominator = 1.0 - theta * step_dt * a_vals * lam

            def solve(rhs):
                x, free = _sine_transform(S, rhs, u3, m0)
                np.divide(x, denominator, out=x)
                # 2 * m0 swaps in all: the result is back in rhs's buffer
                return _sine_transform(S, x, free, m0)[0]

            return solve
    else:
        import scipy.sparse as sp
        from scipy.sparse.linalg import splu

        eye = sp.identity(M, format="csr")
        a2d = np.broadcast_to(a_vals, grid.shape).reshape(M, R)
        factor_cache = {}

        def implicit_solver(step_dt):
            if step_dt not in factor_cache:
                def factor(a_col):
                    return splu((eye - theta * step_dt * sp.diags(a_col) @ lap).tocsc())

                if slab_solver == "splu-shared":
                    factor_cache[step_dt] = [factor(a2d[:, 0])]
                else:
                    factor_cache[step_dt] = [factor(a2d[:, j]) for j in range(R)]
            lus = factor_cache[step_dt]

            def solve(rhs):
                rhs2d = rhs.reshape(M, R)
                if slab_solver == "splu-shared":
                    return lus[0].solve(rhs2d).reshape(grid.shape)
                out = np.empty_like(rhs2d)
                for j in range(R):
                    out[:, j] = lus[j].solve(rhs2d[:, j])
                return out.reshape(grid.shape)

            return solve

    def explicit_terms(u):
        rate.fill(0.0)
        if upwind:
            np.multiply(u, 3.0, out=u3)
            np.multiply(u, 4.0, out=u4)
        for j, (w, positive) in upwind.items():
            d = _upwind_difference(u, u3, u4, positive, j, h, work)
            d *= w
            np.subtract(rate, d, out=rate)
        if b0_vals is not None:
            np.multiply(b0_vals, u, out=work)
            np.subtract(rate, work, out=rate)
        if g_vals is not None:
            np.add(rate, g_vals, out=rate)
        return rate

    boundary_mask = np.zeros(grid.shape, dtype=bool)
    for ax in range(n):
        sl = [slice(None)] * n
        sl[ax] = 0
        boundary_mask[tuple(sl)] = True
        sl[ax] = N - 1
        boundary_mask[tuple(sl)] = True

    u = spec.u0.evaluate(grid).astype(float)
    fields, mass, boundary_fraction = [], [], []
    volume_element = h**n

    def record(u):
        fields.append(SpectralField.from_grid_values(grid, u))
        mass.append(float(u.sum()) * volume_element)
        peak = float(np.abs(u).max())
        edge = float(np.abs(u[boundary_mask]).max())
        boundary_fraction.append(edge / peak if peak > 0 else 0.0)

    for steps, step_dt in segments:
        solve = implicit_solver(step_dt) if steps else None
        for _ in range(steps):
            # u + dt ((1 - theta) a lap u + explicit terms), formed in place
            rhs = (lap @ u.reshape(M, R)).reshape(grid.shape)
            rhs *= a_vals
            rhs *= 1.0 - theta
            rhs += explicit_terms(u)
            rhs *= step_dt
            rhs += u
            u = solve(rhs)
        record(u)

    return TrajectorySolution(
        spec_name=spec.name,
        spec_hash=spec.spec_hash(),
        method="fd",
        grid=grid,
        times=times,
        fields=tuple(fields),
        diagnostics={
            "dt": dt,
            "cfl": cfl,
            "mass": np.array(mass),
            "boundary_fraction": np.array(boundary_fraction),
            "slab_solver": slab_solver,
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


def residual_series(solution: TrajectorySolution, spec: ProblemSpec) -> ResidualReport:
    """||du/dt + Xu + Yu - a lap u - g||_{L2} / (||u||_{H2} + 1) at interior times.

    Time derivative: fourth-order five-point central stencil, so the snapshot
    times must be uniformly spaced with at least five entries; space
    derivatives are spectral on the snapshot grid.
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
    a_vals = _sample(spec.a, grid)
    b0_vals = None if spec.b0.is_zero else _sample(spec.b0, grid)
    g_vals = None if spec.g.is_zero else _sample(spec.g, grid)

    out_times, out_values = [], []
    coeff_stack = [f.coeffs for f in solution.fields]
    for i in range(2, len(times) - 2):
        dt_coeffs = (
            coeff_stack[i - 2] - 8.0 * coeff_stack[i - 1]
            + 8.0 * coeff_stack[i + 1] - coeff_stack[i + 2]
        ) / (12.0 * dt)
        residual = SpectralField(grid, dt_coeffs).grid_values()
        u = solution.fields[i]
        for j, w in _transport_speeds(spec, grid):
            grad = u.partial_derivative(tuple(int(k == j) for k in range(grid.n))).grid_values()
            residual = residual + w * grad
        if b0_vals is not None:
            residual = residual + b0_vals * u.grid_values()
        for ax in range(spec.m0):
            alpha = tuple(2 * int(j == ax) for j in range(grid.n))
            residual = residual - a_vals * u.partial_derivative(alpha).grid_values()
        if g_vals is not None:
            residual = residual - g_vals
        value = float(np.sqrt(np.mean(np.abs(residual) ** 2))) / (hs_norm(u, 2.0) + 1.0)
        out_times.append(times[i])
        out_values.append(value)
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


def energy_check(solution: TrajectorySolution, spec: ProblemSpec,
                 s: float | None = None) -> EnergyReport:
    s = float(spec.s) if s is None else float(s)
    grid = solution.grid
    times = solution.times
    norms_sq = solution.hs_series(s) ** 2
    dissipation = np.zeros(len(times))
    for ax in range(spec.m0):
        alpha = tuple(int(j == ax) for j in range(grid.n))
        rates = np.array([hs_norm(f.partial_derivative(alpha), s) ** 2 for f in solution.fields])
        dissipation = dissipation + rates
    integral = np.concatenate(
        [[0.0], np.cumsum(0.5 * (dissipation[1:] + dissipation[:-1]) * np.diff(times))]
    )
    energy = norms_sq + integral / float(spec.Lambda)
    if spec.g.is_zero:
        source = 0.0
    else:
        g_norm = hs_norm(SpectralField.from_grid_values(grid, spec.g.evaluate(grid)), s)
        source = (g_norm * float(times[-1] - times[0])) ** 2
    budget = norms_sq[0] + source
    if budget == 0.0:
        ratio = np.where(energy <= 1e-30, 0.0, np.inf)
    else:
        ratio = energy / budget
    return EnergyReport(times=times, energy=energy, budget=budget, ratio=ratio)
