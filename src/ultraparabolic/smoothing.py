"""Quantifying instant smoothing: weighted derivative suprema and Gevrey fits.

For a trajectory u(t) the d-th order smoothing functional is

    S_d = max_{t >= t_min} max_{|alpha| = d}  t^{kappa d} ||d^alpha u(t)||_{H^s} / alpha!

with kappa = delta + 2r (the time weight matching the problem's anisotropy:
delta from the spec, r the bracket-tower depth).  The normalized scale
L_d = S_d^(1/(d+1)) stays bounded in d exactly when the trajectory smooths
analytically in the weighted sense; the report records max_d L_d over the
reliable orders as the empirical analyticity constant.

Two selector strategies choose the tested multi-indices alpha:

* "axis" (default) -- only the pure powers d * e_j.  Mixed derivatives are
  dominated by the same-order axis norms (||d^alpha u|| <= sum_j ||d_j^d u||,
  since prod |xi_j|^{alpha_j} <= sum_j |xi_j|^d pointwise), so the axis ladder
  already decides boundedness at a fraction of the cost.
* "full" -- every multi-index of order d; the report then also verifies the
  axis-domination inequality on each tested mixed index.

Norms prefer the solution's exact per-mode ledger when present (true
off-lattice frequencies; see solver.ModeLedger) and otherwise fall back to
the grid spectrum: the half spectrum of the real grid values on the FD
route.  Each snapshot is reduced once to its power spectrum |c|^2, and
each norm is formed on the span of its multiplier <xi>^s prod |xi_j|^alpha_j,
the axes that multiplier varies along, against the power summed over the
other axes.  At s = 0 a pure power d * e_j spans only the axes its
frequency row couples (one axis on a lattice), so the axis ladder makes a
few grid-size passes per snapshot (|c|^2 and one sum per distinct span)
and only span-size ones per order.  Every value is checked against its
round-off floor: a norm below 1000 * eps * (max multiplier) * ||u|| is
noise and the record carries reliable=False; unreliable orders are
reported but excluded from fits.

gevrey_fit quantifies the growth of the *unweighted* suprema
M_d = max_t ||d^alpha u(t)||_{H^s} by least squares in the model
log M_d = log_c + d * rate + sigma * log d!; sigma is the Gevrey exponent
(0 for single-mode/geometric scales, 1/2 for heat kernels, 1 for factorial
growth at the edge of analyticity).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import factorial, lgamma, prod

import numpy as np

from ._errors import DegenerateFitError, EmptyReportError
from .problems import ProblemSpec
from .solver import ModeLedger, TrajectorySolution, _GridFields
from .sobolev import SpectralField, TorusGrid, _bessel_weight, _frequency_sq

__all__ = [
    "DerivativeSelector",
    "derivative_multi_indices",
    "derivative_norm",
    "DerivativeRecord",
    "smoothing_profile",
    "SmoothingReport",
    "OrderRecord",
    "gevrey_fit",
    "fit_gevrey_sequence",
    "GevreyFit",
    "DegenerateFitError",
    "EmptyReportError",
]

_NOISE_FACTOR = 1e3
_EPS = float(np.finfo(float).eps)
# a sum of squares this large lost only terms below round-off to underflow
_SMALLEST_SAFE_SUM = 2.0**-900
_ROUNDOFF = 1e-12  # relative: the axis-domination slack and the argmax tie window


@dataclass(frozen=True)
class DerivativeSelector:
    """Which multi-indices of each order to test.

    strategy "axis" tests the pure powers d*e_j only; "full" sweeps every
    multi-index of order d.  `axes` restricts either strategy to a subset of
    coordinate axes (default: all).
    """

    strategy: str = "axis"
    axes: tuple | None = None

    def __post_init__(self):
        if self.strategy not in ("axis", "full"):
            raise ValueError(f"selector strategy must be 'axis' or 'full', got {self.strategy!r}")
        if self.axes is not None:
            object.__setattr__(self, "axes", tuple(int(ax) for ax in self.axes))

    def resolved_axes(self, n: int) -> tuple:
        axes = tuple(range(n)) if self.axes is None else self.axes
        if not axes or any(not 0 <= ax < n for ax in axes) or len(set(axes)) != len(axes):
            raise ValueError(f"axes must be a nonempty subset of range({n}) without repeats")
        return axes

    def indices(self, n: int, d: int) -> list:
        axes = self.resolved_axes(n)
        if d == 0:
            return [(0,) * n]
        if self.strategy == "axis":
            out = []
            for ax in axes:
                alpha = [0] * n
                alpha[ax] = d
                out.append(tuple(alpha))
            return out
        return derivative_multi_indices(n, d, axes)


def derivative_multi_indices(n: int, d: int, axes=None) -> list:
    """All multi-indices |alpha| = d over the given axes (default: all axes)."""
    axes = tuple(range(n)) if axes is None else tuple(axes)
    if not axes or any(not 0 <= ax < n for ax in axes):
        raise ValueError(f"axes must be a nonempty subset of range({n})")
    if d < 0:
        raise ValueError("derivative order must be nonnegative")
    if d == 0:
        return [(0,) * n]
    out = []
    for combo in combinations_with_replacement(axes, d):
        alpha = [0] * n
        for ax in combo:
            alpha[ax] += 1
        out.append(tuple(alpha))
    return out


@dataclass(frozen=True)
class DerivativeRecord:
    """One spectral derivative norm together with its round-off floor."""

    alpha: tuple
    value: float
    floor: float

    @property
    def reliable(self) -> bool:
        return self.value > self.floor or (self.value == 0.0 and self.floor == 0.0)


class _Modes:
    """One snapshot reduced to what its derivative norms read.

    `steps[ax]` is |xi_ax| over the snapshot's own frequencies and spans only
    the axes it varies along.  `weight` is <xi>^s: ones of shape (1, ..., 1)
    at s = 0, else an array over every axis.  `power` is |c|^2 formed from
    |c| / 2^scale, where 2^(scale-1) <= max |c| < 2^scale, so no square
    overflows, and one underflows only where |c| < 2^-537 max |c|; the bins
    of a half spectrum count twice (see _mode_data).  `norm` is ||c||.
    root(shape) is the square root of `power` summed over the axes along
    which a multiplier of that shape does not vary; each is formed once and
    kept, so the axis ladder reads at most n + 1 of them per snapshot.
    """

    __slots__ = ("steps", "weight", "power", "scale", "norm", "_roots")

    def __init__(self, freqs, amplitudes: np.ndarray, half: bool, s: float):
        self.steps = [np.abs(f) for f in freqs]
        self.weight = (np.ones((1,) * amplitudes.ndim) if s == 0
                       else _bessel_weight(_frequency_sq(freqs, amplitudes.shape), s))
        self.scale = math.frexp(float(amplitudes.max()))[1]
        power = np.ldexp(amplitudes, -self.scale, out=amplitudes)
        power *= power
        if half:
            power[..., 1:-1] *= 2.0
        self.power, self._roots = power, {}
        self.norm = _scaled(float(self.root((1,) * power.ndim).item()), self.scale)

    def root(self, shape) -> np.ndarray:
        """sqrt(power summed over the axes where `shape` has length 1 or that it lacks)."""
        root = self._roots.get(shape)
        if root is None:
            other = tuple(ax for ax in range(self.power.ndim)
                          if ax >= len(shape) or shape[ax] == 1)
            root = self._roots[shape] = np.sqrt(self.power.sum(axis=other, keepdims=True))
        return root


def _scaled(x: float, exponent: int) -> float:
    """x * 2^exponent, inf where it leaves the float range."""
    try:
        return math.ldexp(x, exponent)
    except OverflowError:
        return math.inf


def _mode_data(source, s: float, grid: TorusGrid | None = None) -> _Modes:
    """The _Modes of one snapshot at H^s.

    A ledger gives its modes' true frequencies e^{-tB} xi, a grid
    SpectralField the lattice frequencies.  Given `grid`, `source` is the FD
    route's real grid values: their half spectrum rfftn(u) / N^n is read on
    the lattice's first N/2 + 1 frequencies of the last axis, each bin
    counted twice except k = 0 and k = N/2 of that axis, which have no
    distinct conjugate partner, so no full complex spectrum is formed.  |c| is the one float array of the
    spectrum's size; it becomes the power spectrum in place.
    """
    if isinstance(source, ModeLedger):
        return _Modes(source.frequencies(), np.abs(source.coefficients), False, s)
    if isinstance(source, SpectralField):
        grid = source.grid
        return _Modes([grid.frequency(ax) for ax in range(grid.n)], np.abs(source.coeffs),
                      False, s)
    freqs = [grid.frequency(ax) for ax in range(grid.n)]
    freqs[-1] = freqs[-1][..., :grid.N // 2 + 1]
    amplitudes = np.abs(np.fft.rfftn(source))
    amplitudes /= source.size
    return _Modes(freqs, amplitudes, True, s)


def _record(multiplier, modes: _Modes, alpha) -> DerivativeRecord:
    """sqrt(sum |multiplier * c|^2) and its floor 1000 * eps * max multiplier * ||c||.

    The sum runs over the span of the multiplier, the axes it varies along:
    it is sum (multiplier * root)^2 with root = modes.root(multiplier.shape),
    equal to the sum over every mode because the multiplier is constant along
    the other axes.  So a multiplier that spans every axis costs a grid-size
    product, any other one a product the size of its span.  When a square
    leaves the float range, the sum is formed again from the multiplier
    divided by the power of two of its maximum: the value then overflows
    only when the norm does, and a term is lost to underflow only when its
    square is below 2^-1074 (max multiplier * max |c|)^2.  An overflowed
    weight meeting exactly zero coefficients (a zero root) adds nothing,
    not inf * 0 = nan.
    """
    root = modes.root(multiplier.shape)
    peak = float(multiplier.max())
    if peak == math.inf:
        multiplier = np.where(root != 0, multiplier, 0.0)
    product = multiplier * root
    total = float(np.vdot(product, product))
    exponent = 0
    if not _SMALLEST_SAFE_SUM <= total < math.inf:
        exponent = math.frexp(float(multiplier.max()))[1]
        product = np.ldexp(multiplier, -exponent) * root
        total = float(np.vdot(product, product))
    value = _scaled(math.sqrt(total), exponent + modes.scale)
    floor = _NOISE_FACTOR * _EPS * peak * modes.norm if modes.norm else 0.0
    return DerivativeRecord(alpha=alpha, value=value, floor=floor)


def _norm_of_modes(modes: _Modes, alpha) -> DerivativeRecord:
    """The record of d^alpha: <xi>^s times |xi_ax| once per order, in axis order.

    smoothing_profile walks the pure powers d * e_ax by the same repeated
    product, one factor per order, so both give the same floats.
    """
    multiplier = modes.weight
    for ax, a in enumerate(alpha):
        for _ in range(a):
            multiplier = multiplier * modes.steps[ax]
    return _record(multiplier, modes, alpha)


def derivative_norm(source, alpha, s: float) -> DerivativeRecord:
    """||d^alpha u||_{H^s} of a snapshot, with a round-off floor.

    `source` is a grid SpectralField or an exact per-mode ledger; the weighted
    mode sum is sqrt(sum |<xi>^s prod xi^alpha c|^2) over the snapshot's own
    frequencies, so ledger input stays exact for off-lattice modes at any
    order.  It is formed on the span of the multiplier (see _record), the
    same path smoothing_profile takes.  The floor is
    1000 * eps * (max multiplier) * ||c||, a Python float.  A weight that
    overflows on an exactly zero coefficient adds nothing (not inf * 0 = nan).
    `alpha` must hold one nonnegative integer per axis (ValueError otherwise).
    """
    if not isinstance(source, (SpectralField, ModeLedger)):
        raise TypeError(f"expected SpectralField or ModeLedger, got {type(source).__name__}")
    n = source.grid.n
    alpha = tuple(alpha)
    if len(alpha) != n or not all(
            isinstance(a, (int, np.integer)) and not isinstance(a, bool) and a >= 0
            for a in alpha):
        raise ValueError(f"alpha must hold one nonnegative integer per axis ({n}), got {alpha}")
    return _norm_of_modes(_mode_data(source, float(s)), tuple(int(a) for a in alpha))


@dataclass(frozen=True)
class OrderRecord:
    """Weighted and raw suprema at one derivative order."""

    d: int
    supremum: float          # S_d = max t^(kappa d) |d^alpha u|_{H^s} / alpha!
    scale: float             # L_d = S_d^(1/(d+1))
    argmax_time: float
    argmax_alpha: tuple
    raw_supremum: float      # M_d = max |d^alpha u|_{H^s}, no weight, no factorial
    raw_argmax_time: float
    reliable: bool


@dataclass(frozen=True)
class GevreyFit:
    """Least-squares parameters of log M_d = log_c + d * rate + sigma * log d!"""

    log_c: float
    rate: float
    sigma: float
    max_residual: float
    orders: tuple

    def predict(self, d: int) -> float:
        return float(np.exp(self.log_c + d * self.rate + self.sigma * lgamma(d + 1.0)))

    def to_json_dict(self) -> dict:
        return {
            "log_c": self.log_c,
            "rate": self.rate,
            "sigma": self.sigma,
            "max_residual": self.max_residual,
            "orders": list(self.orders),
        }


@dataclass(frozen=True)
class SmoothingReport:
    """Derivative-norm profile of one trajectory: S_d, L_d, raw M_d, and fit.

    Invariants kept by construction and verified on assembly:
    * the d = 0 entry equals the plain supremum of ||u(t)||_{H^s} over the
      used snapshots;
    * every tested mixed index obeys the axis-domination inequality
      ||d^alpha u|| <= sum_j ||d_j^{|alpha|} u|| (full strategy only);
    * |alpha|! <= (2^n)^{|alpha|+1} alpha! holds exactly on every tested
      index, so the choice of factorial normalization moves L_d by at most
      a factor 2^n.
    """

    spec_name: str
    method: str
    delta: float
    r: int
    kappa: float
    s: float
    t_min: float
    times_used: tuple
    grid_n: int
    grid_N: int
    grid_L: float
    strategy: str
    axes: tuple
    orders: tuple
    fit: GevreyFit | None
    fit_error: str | None
    axis_domination_verified: bool
    factorial_identity_verified: bool

    def scales(self) -> np.ndarray:
        return np.array([rec.scale for rec in self.orders])

    def suprema(self) -> np.ndarray:
        return np.array([rec.supremum for rec in self.orders])

    def reliable_orders(self) -> list:
        return [rec for rec in self.orders if rec.reliable]

    def empirical_L(self) -> float:
        """max_d L_d over the reliable orders."""
        return max(rec.scale for rec in self.reliable_orders())

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec_name,
            "method": self.method,
            "delta": self.delta,
            "r": self.r,
            "kappa": self.kappa,
            "s": self.s,
            "t_min": self.t_min,
            "times_used": list(self.times_used),
            "grid": {"n": self.grid_n, "N": self.grid_N, "L": self.grid_L},
            "selector": {"strategy": self.strategy, "axes": list(self.axes)},
            "orders": [
                {
                    "d": rec.d,
                    "S_d": rec.supremum,
                    "L_d": rec.scale,
                    "argmax_time": rec.argmax_time,
                    "argmax_alpha": list(rec.argmax_alpha),
                    "M_d": rec.raw_supremum,
                    "raw_argmax_time": rec.raw_argmax_time,
                    "reliable": rec.reliable,
                }
                for rec in self.orders
            ],
            "empirical_L": self.empirical_L(),
            "gevrey_fit": None if self.fit is None else self.fit.to_json_dict(),
            "fit_error": self.fit_error,
            "axis_domination_verified": self.axis_domination_verified,
            "factorial_identity_verified": self.factorial_identity_verified,
        }


def _multi_factorial(alpha) -> int:
    """alpha! = prod_j alpha_j!"""
    return prod(factorial(a) for a in alpha)


def _first_maximum(entries, key):
    """(max of e[key], the first entry e within _ROUNDOFF of it): a maximum and its argmax."""
    top = max(e[key] for e in entries)
    return top, next((e for e in entries if e[key] * (1.0 + _ROUNDOFF) >= top), entries[0])


def smoothing_profile(solution: TrajectorySolution, spec: ProblemSpec, d_max: int = 8,
                      selector: DerivativeSelector | None = None, s: float = 0.0,
                      t_min: float | None = None) -> SmoothingReport:
    """Weighted derivative suprema S_d and scales L_d for d = 0..d_max.

    The time weight is t^(kappa d) with kappa = delta + 2r; snapshots earlier
    than t_min (default: a hundredth of the final time) are excluded so the
    weight never has to fight the initial roughness at t = 0.  Norms are
    measured in H^s with plain L^2 (s = 0) as the default ladder.  Each argmax
    is the first candidate (earliest snapshot, then selector order) within
    _ROUNDOFF of S_d or M_d, so round-off does not pick among indices equal by symmetry.

    Raises EmptyReportError when every order's supremum sits below its noise
    floor (nothing in the report would be usable downstream).
    """
    if d_max < 0:
        raise ValueError("d_max must be nonnegative")
    selector = DerivativeSelector() if selector is None else selector
    s = float(s)
    kappa = float(spec.delta) + 2 * spec.tower().r
    times = solution.times
    t_min = float(times[-1]) / 100.0 if t_min is None else float(t_min)
    usable = [i for i, t in enumerate(times) if t >= t_min and t > 0]
    if not usable:
        raise ValueError(f"no snapshots at or after t_min = {t_min}")
    n = solution.grid.n
    axes = selector.resolved_axes(n)
    alphas = [selector.indices(n, d) for d in range(d_max + 1)]
    divisors = {alpha: _multi_factorial(alpha) for indices in alphas for alpha in indices}
    factorial_ok = all(
        factorial(d) <= (2**n) ** (d + 1) * divisors[alpha]
        for d in range(d_max + 1) for alpha in alphas[d]
    )
    pure = {ax: [tuple(d if j == ax else 0 for j in range(n)) for d in range(d_max + 1)]
            for ax in axes}  # pure[ax][d] = d * e_ax
    domination_ok = True
    candidates = [[] for _ in range(d_max + 1)]  # (S, M, t, alpha, reliable) in visiting order
    sources = solution.mode_ledgers or solution.fields
    # the FD route's snapshots are read as real grid values (half spectra)
    real = isinstance(sources, _GridFields)
    # snapshot-outer: each snapshot's ledger (formed on read) or spectrum is
    # reduced once to its _Modes, then dropped
    for i in usable:
        t = float(times[i])
        modes = (_mode_data(sources.values[i], s, solution.grid) if real
                 else _mode_data(sources[i], s))
        # the axis ladder: ladder[ax] is <xi>^s |xi_ax|^d, one factor more per order
        ladder = dict.fromkeys(axes, modes.weight)
        for d in range(d_max + 1):
            weight = t ** (kappa * d)
            axis_records = {}
            if d > 0:
                for ax in axes:
                    ladder[ax] = ladder[ax] * modes.steps[ax]
                    axis_records[pure[ax][d]] = _record(ladder[ax], modes, pure[ax][d])
            for alpha in alphas[d]:
                rec = axis_records.get(alpha) or _norm_of_modes(modes, alpha)
                if d > 0 and alpha not in axis_records:
                    bound = sum(axis_records[a].value for a in axis_records)
                    if rec.value > bound * (1.0 + _ROUNDOFF):
                        domination_ok = False
                candidates[d].append((weight * rec.value / divisors[alpha], rec.value,
                                      t, alpha, rec.reliable))
        del modes, ladder
    orders = []
    for d, entries in enumerate(candidates):
        (sup, at), (raw, raw_at) = _first_maximum(entries, 0), _first_maximum(entries, 1)
        orders.append(OrderRecord(d=d, supremum=sup, scale=sup ** (1.0 / (d + 1)),
                                  argmax_time=at[2], argmax_alpha=at[3], raw_supremum=raw,
                                  raw_argmax_time=raw_at[2], reliable=at[4]))
    if not any(rec.reliable for rec in orders):
        raise EmptyReportError(
            f"all derivative orders up to {d_max} sit below the round-off noise floor"
        )
    report = SmoothingReport(
        spec_name=spec.name,
        method=solution.method,
        delta=float(spec.delta),
        r=spec.tower().r,
        kappa=kappa,
        s=s,
        t_min=t_min,
        times_used=tuple(float(times[i]) for i in usable),
        grid_n=solution.grid.n,
        grid_N=solution.grid.N,
        grid_L=solution.grid.L,
        strategy=selector.strategy,
        axes=axes,
        orders=tuple(orders),
        fit=None,
        fit_error=None,
        axis_domination_verified=domination_ok,
        factorial_identity_verified=factorial_ok,
    )
    try:
        fit = gevrey_fit(report)
        fit_error = None
    except DegenerateFitError as exc:
        fit = None
        fit_error = str(exc)
    return dataclasses.replace(report, fit=fit, fit_error=fit_error)


def gevrey_fit(report: SmoothingReport) -> GevreyFit:
    """Fit factorial growth to the report's reliable raw suprema M_d.

    Orders d < 2 are dropped: log d! vanishes there, so those rows carry no
    information about sigma but would still pull the intercept/rate plane and
    bias it (for a Gaussian profile the d <= 1 rows shift sigma from 0.56 to
    0.62).  The growth model is asymptotic; it is fit where its distinguishing
    regressor is alive.
    """
    usable = [rec for rec in report.reliable_orders() if rec.d >= 2]
    return fit_gevrey_sequence(
        [rec.d for rec in usable], [rec.raw_supremum for rec in usable]
    )


def fit_gevrey_sequence(ds, values) -> GevreyFit:
    """Fit the factorial-growth model to a positive sequence of derivative sizes.

    Needs at least four orders, of which at least two have d >= 2 (below that
    log d! vanishes and sigma is invisible); rank deficiency raises
    DegenerateFitError rather than returning an arbitrary solution.
    """
    ds = [int(d) for d in ds]
    values = [float(v) for v in values]
    if len(ds) != len(values):
        raise ValueError("one value per order required")
    if len(ds) < 4:
        raise DegenerateFitError("need at least four derivative orders to fit three parameters")
    if len(set(ds)) != len(ds):
        raise DegenerateFitError("derivative orders must be distinct")
    if sum(1 for d in ds if d >= 2) < 2:
        raise DegenerateFitError("need at least two orders d >= 2 to see the factorial term")
    if any(v <= 0 for v in values):
        raise DegenerateFitError("derivative sizes must be positive to take logarithms")
    rows = np.array([[1.0, float(d), lgamma(d + 1.0)] for d in ds])
    rhs = np.log(values)
    solution, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    if rank < 3:
        raise DegenerateFitError("fit design is rank deficient for these orders")
    residuals = rows @ solution - rhs
    return GevreyFit(
        log_c=float(solution[0]),
        rate=float(solution[1]),
        sigma=float(solution[2]),
        max_residual=float(np.max(np.abs(residuals))),
        orders=tuple(ds),
    )
