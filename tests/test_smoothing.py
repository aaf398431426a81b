"""Smoothing-measurement tests: derivative norms against closed forms and
quadrature, weighted suprema bookkeeping, reliability flags, and Gevrey fits.
"""

import dataclasses
import math
import tracemalloc
from math import factorial

import numpy as np
import pytest
from scipy.integrate import quad

from ultraparabolic.problems import load_builtin
from ultraparabolic.smoothing import (
    DegenerateFitError,
    DerivativeSelector,
    EmptyReportError,
    derivative_multi_indices,
    derivative_norm,
    fit_gevrey_sequence,
    gevrey_fit,
    smoothing_profile,
    _mode_data,
)
from ultraparabolic.sobolev import SpectralField, TorusGrid, hs_norm
from ultraparabolic.solver import (
    ModeLedger,
    TrajectorySolution,
    residual_series,
    solve_auto,
    solve_exact,
    solve_fd,
)


def partial_derivative(f, alpha):
    """Exact spectral derivative d^alpha f: multiply by prod (i xi_j)^alpha_j."""
    out = f.coeffs
    for axis, a in enumerate(alpha):
        if a:
            out = out * (1j * f.grid.frequency(axis)) ** a
    return SpectralField(f.grid, out)


def comb(n, k):
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# multi-index enumeration and selectors


def test_multi_index_counts_match_stars_and_bars():
    for n in (1, 2, 3, 4):
        for d in (0, 1, 2, 3, 5):
            got = derivative_multi_indices(n, d)
            assert len(got) == comb(n + d - 1, d) if d else len(got) == 1
            assert len(set(got)) == len(got)
            assert all(sum(a) == d and len(a) == n for a in got)


def test_multi_index_axis_restriction():
    got = derivative_multi_indices(3, 2, axes=(1,))
    assert got == [(0, 2, 0)]
    with pytest.raises(ValueError):
        derivative_multi_indices(2, 1, axes=(5,))
    with pytest.raises(ValueError):
        derivative_multi_indices(2, -1)


def test_selector_axis_strategy_lists_pure_powers():
    sel = DerivativeSelector()
    assert sel.strategy == "axis"
    assert sel.indices(2, 3) == [(3, 0), (0, 3)]
    assert sel.indices(2, 0) == [(0, 0)]
    assert DerivativeSelector(axes=(1,)).indices(3, 2) == [(0, 2, 0)]


def test_selector_full_strategy_sweeps_everything():
    sel = DerivativeSelector("full")
    assert set(sel.indices(2, 2)) == {(2, 0), (1, 1), (0, 2)}


def test_selector_validation():
    with pytest.raises(ValueError):
        DerivativeSelector("diagonal")
    with pytest.raises(ValueError):
        DerivativeSelector(axes=(0, 0)).resolved_axes(2)
    with pytest.raises(ValueError):
        DerivativeSelector(axes=(3,)).resolved_axes(2)


# ---------------------------------------------------------------------------
# derivative norms


def full_grid_record(freqs, coeffs, alpha, s):
    """(value, floor) by the full-grid formula: norm(<xi>^s prod |xi_j|^alpha_j |c|)."""
    xi_sq = np.zeros(coeffs.shape)
    for f in freqs:
        xi_sq = xi_sq + f**2
    multiplier = (1.0 + xi_sq) ** (s / 2.0)
    for f, a in zip(freqs, alpha):
        multiplier = multiplier * np.abs(f) ** a
    amplitudes = np.abs(coeffs)
    value = float(np.linalg.norm(multiplier * amplitudes))
    floor = 1e3 * np.finfo(float).eps * float(multiplier.max()) * float(np.linalg.norm(amplitudes))
    return value, floor


def test_derivative_norm_matches_spectral_derivative_norm():
    grid = TorusGrid(2, 32, 4.0)
    rng = np.random.default_rng(5)
    field = SpectralField.from_grid_values(
        grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    )
    for alpha in ((0, 0), (1, 0), (2, 1), (0, 3)):
        for s in (-1.0, 0.0, 1.5):
            rec = derivative_norm(field, alpha, s)
            oracle = hs_norm(partial_derivative(field, alpha), s)
            assert rec.value == pytest.approx(oracle, rel=1e-13)
            assert rec.alpha == alpha

    # lp-block's ledger, whose e^{-tB} is not the identity: its frequency
    # rows span three, three, two and one axes
    spec = load_builtin("lp-block")
    ledger = solve_exact(spec, TorusGrid(4, 8, 1.0), times=[0.5]).mode_ledgers[0]
    assert not np.array_equal(ledger.matrix, np.eye(4))
    # an FD snapshot: kolmogorov-general runs on the FD route
    spec = load_builtin("kolmogorov-general")
    fd = solve_fd(spec, TorusGrid(4, 8, 1.0), times=[spec.T]).fields[0]
    cases = [(ledger, ledger.frequencies(), ledger.coefficients),
             (fd, [fd.grid.frequency(ax) for ax in range(4)], fd.coeffs)]
    for source, freqs, coeffs in cases:
        for alpha in ((0, 0, 0, 0), (3, 0, 0, 0), (0, 2, 0, 0), (0, 0, 4, 0), (0, 0, 0, 5),
                      (1, 0, 2, 1)):
            for s in (-1.0, 0.0, 1.5):
                rec = derivative_norm(source, alpha, s)
                value, floor = full_grid_record(freqs, coeffs, alpha, s)
                assert rec.value == pytest.approx(value, rel=1e-13), (alpha, s)
                assert rec.floor == pytest.approx(floor, rel=1e-13), (alpha, s)


@pytest.mark.parametrize("alpha", [(-1, 0), (1.7, 0), (1.0, 0), (True, 0), (1,), (1, 0, 2)])
def test_derivative_norm_refuses_alpha_without_one_nonnegative_integer_per_axis(alpha):
    field = SpectralField.single_mode(TorusGrid(2, 8, 1.0), (1, 2), 1.0)
    with pytest.raises(ValueError, match="alpha"):
        derivative_norm(field, alpha, 0.0)


def test_derivative_norm_takes_numpy_integers_and_gives_python_floats():
    field = SpectralField.single_mode(TorusGrid(2, 8, 1.0), (1, 2), 1.0)
    rec = derivative_norm(field, np.array([2, 1]), 0.0)
    assert rec.alpha == (2, 1) and all(type(a) is int for a in rec.alpha)
    assert type(rec.value) is float and type(rec.floor) is float
    assert rec.value == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(TypeError):
        derivative_norm(field.coeffs, (1, 0), 0.0)


def test_derivative_norm_alpha_zero_is_hs_norm():
    grid = TorusGrid(2, 16, 2.0)
    field = SpectralField.single_mode(grid, (2, -1), 0.7)
    for s in (-2.0, 0.0, 1.0):
        rec = derivative_norm(field, (0, 0), s)
        assert rec.value == pytest.approx(hs_norm(field, s), rel=1e-14)


def test_derivative_norm_single_mode_closed_form():
    grid = TorusGrid(2, 32, 4.0)
    k = (3, -2)
    amp = 0.8
    field = SpectralField.single_mode(grid, k, amp)
    xi = np.array(k) / grid.L
    s = -1.0
    rec = derivative_norm(field, (2, 1), s)
    expected = (1 + xi @ xi) ** (s / 2) * abs(xi[0]) ** 2 * abs(xi[1]) * amp
    assert rec.value == pytest.approx(expected, rel=1e-13)


def test_ledger_norm_with_identity_matrix_matches_field():
    grid = TorusGrid(2, 16, 3.0)
    rng = np.random.default_rng(11)
    field = SpectralField.from_grid_values(grid, rng.standard_normal(grid.shape))
    ledger = ModeLedger(grid, np.eye(2), field.coeffs)
    for alpha in ((0, 0), (1, 2)):
        a = derivative_norm(field, alpha, 0.5)
        b = derivative_norm(ledger, alpha, 0.5)
        assert a.value == b.value
        assert a.floor == b.floor


def test_ledger_norm_uses_true_frequencies():
    grid = TorusGrid(2, 16, 2.0)
    k = (4, 6)
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[k] = 1.0
    t = 0.3
    matrix = np.array([[1.0, -t], [0.0, 1.0]])
    ledger = ModeLedger(grid, matrix, coeffs)
    xi0 = k[0] / grid.L - t * k[1] / grid.L
    xi1 = k[1] / grid.L
    rec = derivative_norm(ledger, (3, 1), 0.0)
    assert rec.value == pytest.approx(abs(xi0) ** 3 * abs(xi1), rel=1e-13)
    freqs = ledger.frequencies()
    assert len(freqs) == 2
    assert np.allclose(freqs[0], grid.frequency(0) - t * grid.frequency(1))
    assert np.allclose(freqs[1], grid.frequency(1))
    modes = _mode_data(ledger, 2.0)
    assert np.allclose(modes.weight, 1.0 + freqs[0] ** 2 + freqs[1] ** 2)
    assert all(np.array_equal(step, np.abs(f)) for step, f in zip(modes.steps, freqs))

    # length-3 chain: e^{-tB} row 0 = (1, -t, t^2/2) carries the quadratic term
    spec = load_builtin("chain3")
    grid = TorusGrid(3, 8, 2.0)
    ledger = solve_exact(spec, grid, times=[t]).mode_ledgers[0]
    assert ledger.matrix[0, 2] == pytest.approx(0.5 * t**2, rel=1e-15)
    xi = [grid.frequency(ax) for ax in range(3)]
    freqs = ledger.frequencies()
    assert np.allclose(freqs[0], xi[0] - t * xi[1] + 0.5 * t**2 * xi[2], rtol=0, atol=1e-14)
    assert np.allclose(freqs[1], xi[1] - t * xi[2], rtol=0, atol=1e-14)
    assert np.array_equal(freqs[2], xi[2])


def test_heat_derivative_norms_match_gaussian_quadrature():
    """Diffused Gaussian: || d_0^d u(t) ||^2 has a closed Fourier-integral form."""
    spec = load_builtin("heat")
    grid = TorusGrid(2, 128, 4.0)  # band edge at xi = 16: sampling alias < 1e-10
    w = spec.u0.width
    sol = solve_exact(spec, grid, times=np.array([0.25, 1.0]))
    for i, t in enumerate([0.25, 1.0]):
        c = w * w + 2.0 * t
        for d in range(5):
            rec = derivative_norm(sol.fields[i], (d, 0), 0.0)
            moment = quad(lambda x: x ** (2 * d) * np.exp(-c * x * x), -np.inf, np.inf)[0]
            gauss = quad(lambda x: np.exp(-c * x * x), -np.inf, np.inf)[0]
            expected = (w * w / (2.0 * np.pi * grid.L)) * np.sqrt(moment * gauss)
            assert rec.value == pytest.approx(expected, rel=1e-8), (t, d)


def test_exact_solver_ledger_matches_grid_for_lattice_frequencies():
    spec = load_builtin("heat")
    sol = solve_exact(spec, times=np.array([0.0, 0.3, 0.9]))
    assert sol.mode_ledgers is not None
    for i in range(3):
        led = sol.mode_ledgers[i]
        assert np.array_equal(led.matrix, np.eye(2))
        assert np.array_equal(led.coefficients, sol.fields[i].coeffs)
        a = derivative_norm(led, (2, 2), -1.0)
        b = derivative_norm(sol.fields[i], (2, 2), -1.0)
        assert a.value == b.value


def test_grid_spectrum_inflates_high_orders_of_offlattice_modes():
    """Fractional frequency shifts smear the grid FFT; the ledger does not."""
    spec = load_builtin("kolmogorov2d-lowreg")
    sol = solve_exact(spec, times=np.array([0.5]))
    led = derivative_norm(sol.mode_ledgers[0], (6, 0), 0.0).value
    grid = derivative_norm(sol.fields[0], (6, 0), 0.0).value
    assert grid > 3.0 * led


def test_noise_floor_flags_vanishing_high_orders():
    grid = TorusGrid(2, 64, 4.0)
    field = SpectralField.single_mode(grid, (1, 0), 1.0)
    low = derivative_norm(field, (1, 0), 0.0)
    assert low.reliable
    high = derivative_norm(field, (30, 0), 0.0)
    assert high.value < high.floor
    assert not high.reliable


def test_exact_zero_of_zero_field_is_reliable():
    grid = TorusGrid(2, 16, 2.0)
    rec = derivative_norm(SpectralField.zero(grid), (2, 0), 0.0)
    assert rec.value == 0.0 and rec.floor == 0.0 and rec.reliable


def test_structural_zero_below_floor_is_flagged():
    # constant along x0: every d_0 derivative is exactly zero, but the field
    # itself is not, so a zero reading sits below the resolution floor
    grid = TorusGrid(2, 16, 2.0)
    field = SpectralField.single_mode(grid, (0, 3), 1.0)
    rec = derivative_norm(field, (2, 0), 0.0)
    assert rec.value == 0.0 and rec.floor > 0.0 and not rec.reliable


# ---------------------------------------------------------------------------
# smoothing profiles


def test_profile_d0_equals_sup_norm_over_used_times():
    spec = load_builtin("heat")
    times = np.linspace(spec.T / 100, spec.T, 11)
    sol = solve_exact(spec, times=times)
    rep = smoothing_profile(sol, spec, d_max=3)
    sup = max(hs_norm(f, 0.0) for f in sol.fields)
    assert rep.orders[0].supremum == pytest.approx(sup, rel=1e-14)
    assert rep.orders[0].argmax_time == times[0]
    assert rep.orders[0].scale == rep.orders[0].supremum


def test_profile_records_consistent_metadata_and_argmaxes():
    spec = load_builtin("kolmogorov2d")
    times = np.linspace(spec.T / 100, spec.T, 9)
    sol = solve_exact(spec, times=times)
    rep = smoothing_profile(sol, spec, d_max=4)
    assert rep.kappa == pytest.approx(float(spec.delta) + 2 * spec.tower().r)
    assert rep.delta == 1.5 and rep.r == 1 and rep.kappa == pytest.approx(3.5)
    assert rep.s == 0.0 and rep.strategy == "axis" and rep.axes == (0, 1)
    assert rep.times_used == tuple(times)
    assert (rep.grid_n, rep.grid_N, rep.grid_L) == (2, 64, 4.0)
    for rec in rep.orders:
        assert rec.d == sum(rec.argmax_alpha)
        assert rec.argmax_time in times
        assert rec.raw_argmax_time in times
        assert max(rec.argmax_alpha) == rec.d  # axis strategy: pure powers
        assert rec.scale == pytest.approx(rec.supremum ** (1.0 / (rec.d + 1)))
    assert rep.factorial_identity_verified


def test_profile_supremum_is_max_of_weighted_records():
    spec = load_builtin("kolmogorov2d")
    times = np.linspace(spec.T / 100, spec.T, 5)
    sol = solve_exact(spec, times=times)
    rep = smoothing_profile(sol, spec, d_max=3, s=-1.0)
    d = 3
    expected = max(
        t ** (rep.kappa * d) * derivative_norm(sol.mode_ledgers[i], alpha, -1.0).value
        / factorial(d)
        for i, t in enumerate(times)
        for alpha in ((3, 0), (0, 3))
    )
    assert rep.orders[d].supremum == pytest.approx(expected, rel=1e-14)


def _profile_by_definition(sol, spec, d_max, selector, s):
    """(best weighted entry, best raw entry) per order, straight from the definition."""
    kappa = float(spec.delta) + 2 * spec.tower().r
    t_min = float(sol.times[-1]) / 100.0
    usable = [i for i, t in enumerate(sol.times) if t >= t_min and t > 0]
    sources = sol.mode_ledgers if sol.mode_ledgers is not None else sol.fields
    out = []
    for d in range(d_max + 1):
        best = raw = None
        for i in usable:
            t = float(sol.times[i])
            for alpha in selector.indices(spec.n, d):
                rec = derivative_norm(sources[i], alpha, s)
                weighted = t ** (kappa * d) * rec.value / math.prod(factorial(a) for a in alpha)
                if best is None or weighted > best[0]:
                    best = (weighted, t, alpha, rec.reliable)
                if raw is None or rec.value > raw[0]:
                    raw = (rec.value, t)
        out.append((best, raw))
    return out


@pytest.mark.parametrize("name", ["kolmogorov2d", "chain3"])
@pytest.mark.parametrize("strategy", ["axis", "full"])
@pytest.mark.parametrize("source", ["ledger", "grid"])
def test_profile_equals_its_definition(name, strategy, source):
    spec = load_builtin(name)
    grid = TorusGrid(spec.n, 16, 2.0)
    times = np.linspace(spec.T / 100, spec.T, 5)
    sol = solve_exact(spec, grid, times=times)
    # repeat the first snapshot at a later time: exact ties that only the
    # snapshot visiting order breaks
    dup = np.array([times[0], (times[0] + times[1]) / 2, *times[1:]])
    pick = [0, 0, 1, 2, 3, 4]
    sol = dataclasses.replace(
        sol, times=dup, fields=tuple(sol.fields[i] for i in pick),
        mode_ledgers=(tuple(sol.mode_ledgers[i] for i in pick)
                      if source == "ledger" else None))
    selector = DerivativeSelector(strategy)
    rep = smoothing_profile(sol, spec, d_max=4, selector=selector, s=-0.5)
    expected = _profile_by_definition(sol, spec, 4, selector, -0.5)
    assert rep.orders[0].raw_argmax_time == dup[0]
    for rec, (best, raw) in zip(rep.orders, expected):
        assert rec.raw_supremum == raw[0]
        assert rec.raw_argmax_time == raw[1]
        assert rec.supremum == best[0]
        assert rec.argmax_time == best[1]
        assert rec.argmax_alpha == best[2]
        assert rec.reliable == best[3]


@pytest.mark.parametrize("strategy", ["axis", "full"])
@pytest.mark.parametrize("s", [0.0, -0.5])
def test_fd_profile_from_half_spectra_equals_its_definition(strategy, s):
    # the FD route keeps real grid values; the profile reads their half
    # spectra, the definition the full complex spectrum of each snapshot
    spec = load_builtin("kolmogorov-general")
    sol = solve_fd(spec, TorusGrid(4, 8, 1.0), times=np.linspace(spec.T / 4, spec.T, 4))
    assert sol.mode_ledgers is None and hasattr(sol.fields, "values")
    selector = DerivativeSelector(strategy)
    rep = smoothing_profile(sol, spec, d_max=4, selector=selector, s=s)
    expected = _profile_by_definition(sol, spec, 4, selector, s)
    for rec, (best, raw) in zip(rep.orders, expected):
        assert rec.raw_supremum == pytest.approx(raw[0], rel=1e-13)
        assert rec.raw_argmax_time == raw[1]
        assert rec.supremum == pytest.approx(best[0], rel=1e-13)
        assert rec.argmax_time == best[1]
        assert rec.argmax_alpha == best[2]
        assert rec.reliable == best[3]


def _profile_peak_in_grid_arrays(sol, spec, d_max):
    """tracemalloc peak of one smoothing_profile call, in float64 grid arrays."""
    smoothing_profile(sol, spec, d_max=d_max)  # warm: caches and lazy imports
    tracemalloc.start()
    try:
        smoothing_profile(sol, spec, d_max=d_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * sol.grid.N**sol.grid.n)


@pytest.mark.parametrize("name, N, times, bound", [
    # one FD snapshot: rfftn's half spectrum and its transform's work space
    # (about 2.5 arrays); the full-grid ladder of the earlier code took 9
    ("fokkerplanck", 8, [0.05], 3.0),
    # exact route: forming each ledger (complex coefficients and their
    # damping) takes about 4.9 arrays; the full-grid ladder took 7.9
    ("lp-block", 12, [0.1, 0.55, 1.0], 5.5),
])
def test_profile_memory_stays_within_a_few_grid_arrays_at_every_order(name, N, times, bound):
    spec = load_builtin(name)
    sol = solve_auto(spec, spec.default_grid(N=N), times=np.array(times))
    low = _profile_peak_in_grid_arrays(sol, spec, 2)
    high = _profile_peak_in_grid_arrays(sol, spec, 8)
    assert high <= bound, (low, high)
    # one multiplier per axis at a time: the order does not add arrays
    assert abs(high - low) <= 0.1, (low, high)


def test_profile_tmin_excludes_early_snapshots():
    spec = load_builtin("heat")
    times = np.array([0.0, 0.001, 0.5, 1.0])
    sol = solve_exact(spec, times=times)
    rep = smoothing_profile(sol, spec, d_max=1)
    assert rep.t_min == pytest.approx(0.01)
    assert rep.times_used == (0.5, 1.0)
    with pytest.raises(ValueError, match="no snapshots"):
        smoothing_profile(sol, spec, d_max=1, t_min=2.0)


def test_profile_axes_restriction():
    spec = load_builtin("kolmogorov2d")
    sol = solve_exact(spec, times=np.linspace(0.1, 1.0, 4))
    rep = smoothing_profile(sol, spec, d_max=3, selector=DerivativeSelector(axes=(1,)))
    for rec in rep.orders[1:]:
        assert rec.argmax_alpha[0] == 0 and rec.argmax_alpha[1] == rec.d


def test_full_sweep_dominates_axis_strategy_and_verifies_inequality():
    spec = load_builtin("kolmogorov2d-lowreg")
    sol = solve_exact(spec, times=np.linspace(0.1, 1.0, 7))
    axis = smoothing_profile(sol, spec, d_max=4)
    full = smoothing_profile(sol, spec, d_max=4, selector=DerivativeSelector("full"))
    assert full.axis_domination_verified
    assert axis.axis_domination_verified  # trivially: no mixed indices tested
    for da, df in zip(axis.orders, full.orders):
        assert df.supremum >= da.supremum * (1.0 - 1e-12)


def test_nested_time_grids_never_lose_and_barely_gain():
    spec = load_builtin("kolmogorov2d")
    coarse_times = np.linspace(spec.T / 100, spec.T, 21)
    fine_times = np.linspace(spec.T / 100, spec.T, 41)  # contains the coarse grid
    assert set(np.round(coarse_times, 12)).issubset(set(np.round(fine_times, 12)))
    coarse = smoothing_profile(solve_exact(spec, times=coarse_times), spec, d_max=6)
    fine = smoothing_profile(solve_exact(spec, times=fine_times), spec, d_max=6)
    for rc, rf in zip(coarse.orders, fine.orders):
        assert rf.supremum >= rc.supremum * (1.0 - 1e-12)   # sup over superset
        assert rf.supremum <= rc.supremum * 1.01            # grid-sup stability


def test_zero_solution_reports_all_zero_orders():
    spec = load_builtin("heat")
    grid = spec.default_grid()
    sol = solve_exact(spec, times=np.array([0.0, 0.5, 1.0]), u0=SpectralField.zero(grid))
    rep = smoothing_profile(sol, spec, d_max=4)
    assert np.array_equal(rep.suprema(), np.zeros(5))
    assert np.array_equal(rep.scales(), np.zeros(5))
    assert rep.fit is None and rep.fit_error is not None
    assert all(rec.reliable for rec in rep.orders)


def test_all_orders_below_floor_raises_empty_report():
    spec = load_builtin("heat")
    grid = TorusGrid(2, 16, 1.0)
    field = SpectralField.single_mode(grid, (7, 7), 1.0)
    sol = TrajectorySolution(method="manual", grid=grid, times=np.array([1.0]), fields=(field,))
    with pytest.raises(EmptyReportError):
        smoothing_profile(sol, spec, d_max=2, s=-40.0)


def test_argmax_ties_go_to_the_first_candidate_not_to_round_off():
    # modes (k, 0) and (0, k) whose amplitudes differ by 2^-50 relative: the
    # pure powers along the two axes are equal up to round-off, so the
    # reported argmax is the first in selector order, axis 0, whichever mode
    # round-off makes larger; S_d and M_d stay the exact maxima
    spec = load_builtin("heat")
    grid = TorusGrid(2, 16, 1.0)
    k, A = 3, 0.75
    for bumped in ((0, k), (k, 0)):
        coeffs = np.zeros(grid.shape, dtype=complex)
        coeffs[k, 0] = coeffs[0, k] = A
        coeffs[bumped] = A * (1.0 + 2.0**-50)
        field = SpectralField(grid, coeffs)
        sol = TrajectorySolution(method="manual", grid=grid, times=np.array([1.0]),
                                 fields=(field,))
        rep = smoothing_profile(sol, spec, d_max=6)
        for rec in rep.orders[1:]:
            assert rec.argmax_alpha == (rec.d, 0), (bumped, rec.d)
            top = max(derivative_norm(field, alpha, 0.0).value
                      for alpha in ((rec.d, 0), (0, rec.d)))
            assert rec.raw_supremum == top
            assert rec.supremum == top / math.factorial(rec.d)


def test_profile_validates_d_max():
    spec = load_builtin("heat")
    sol = solve_exact(spec, times=np.array([1.0]))
    with pytest.raises(ValueError):
        smoothing_profile(sol, spec, d_max=-1)


def test_report_json_dict_is_canonical_friendly():
    from ultraparabolic.fieldio import canonical_json

    spec = load_builtin("kolmogorov2d")
    sol = solve_exact(spec, times=np.linspace(0.1, 1.0, 6))
    rep = smoothing_profile(sol, spec, d_max=5)
    doc = rep.to_json_dict()
    text = canonical_json(doc)
    assert canonical_json(rep.to_json_dict()) == text
    assert '"empirical_L"' in text and '"gevrey_fit"' in text


# ---------------------------------------------------------------------------
# the measured smoothing behavior itself


def test_lowreg_kolmogorov_scales_bounded_and_taming():
    spec = load_builtin("kolmogorov2d-lowreg")
    grid = TorusGrid(2, 128, 4.0)
    times = np.linspace(spec.T / 100, spec.T, 41)
    rep = smoothing_profile(solve_exact(spec, grid, times=times), spec, d_max=8)
    L = rep.scales()
    assert all(rec.reliable for rec in rep.orders)
    positive = L[L > 0]
    assert L.max() / positive.min() < 10.0
    assert np.all(np.diff(L[4:]) <= 0)


def test_heat_gevrey_sigma_is_near_half():
    spec = load_builtin("heat")
    times = np.linspace(spec.T / 100, spec.T, 41)
    rep = smoothing_profile(solve_exact(spec, times=times), spec, d_max=8)
    assert rep.fit is not None
    assert abs(rep.fit.sigma - 0.5) <= 0.1
    assert rep.fit.orders == (2, 3, 4, 5, 6, 7, 8)


def test_single_mode_fit_is_geometric():
    spec = load_builtin("heat")
    grid = spec.default_grid()
    u0 = SpectralField.single_mode(grid, (12, 0), 1.0)  # frequency 12/L = 3
    sol = solve_exact(spec, grid, times=np.linspace(0.01, 0.2, 5), u0=u0)
    rep = smoothing_profile(sol, spec, d_max=6)
    fit = rep.fit
    assert fit is not None
    assert abs(fit.sigma) < 1e-8
    assert fit.rate == pytest.approx(np.log(3.0), abs=1e-8)
    assert fit.max_residual < 1e-8


def test_gevrey_fit_excludes_unreliable_orders():
    spec = load_builtin("heat")
    grid = spec.default_grid()
    u0 = SpectralField.single_mode(grid, (4, 0), 1.0)  # frequency 1: unreliable beyond d~21
    sol = solve_exact(spec, grid, times=np.linspace(0.01, 0.05, 4), u0=u0)
    rep = smoothing_profile(sol, spec, d_max=24)
    unreliable = [rec.d for rec in rep.orders if not rec.reliable]
    assert unreliable, "expected the top orders to drown in round-off"
    assert rep.fit is not None
    assert set(rep.fit.orders).isdisjoint(unreliable)
    assert abs(rep.fit.sigma) < 1e-6


# ---------------------------------------------------------------------------
# gevrey fit on synthetic sequences


def test_synthetic_factorial_sequence_fits_sigma_one():
    ds = list(range(2, 10))
    fit = fit_gevrey_sequence(ds, [float(factorial(d)) for d in ds])
    assert fit.sigma == pytest.approx(1.0, abs=1e-10)
    assert abs(fit.log_c) < 1e-9 and abs(fit.rate) < 1e-9
    assert fit.max_residual < 1e-10


def test_synthetic_geometric_sequence_fits_sigma_zero():
    ds = list(range(2, 9))
    fit = fit_gevrey_sequence(ds, [0.5 * 3.0**d for d in ds])
    assert abs(fit.sigma) < 1e-10
    assert fit.rate == pytest.approx(np.log(3.0), abs=1e-10)
    assert fit.log_c == pytest.approx(np.log(0.5), abs=1e-9)


def test_synthetic_sqrt_factorial_fits_sigma_half():
    ds = list(range(2, 12))
    fit = fit_gevrey_sequence(ds, [math.sqrt(factorial(d)) for d in ds])
    assert fit.sigma == pytest.approx(0.5, abs=1e-10)


def test_fit_predict_roundtrip():
    ds = list(range(2, 8))
    values = [2.0 * 1.7**d * factorial(d) ** 0.3 for d in ds]
    fit = fit_gevrey_sequence(ds, values)
    for d, v in zip(ds, values):
        assert fit.predict(d) == pytest.approx(v, rel=1e-9)


def test_fit_rejects_degenerate_inputs():
    with pytest.raises(DegenerateFitError, match="four"):
        fit_gevrey_sequence([2, 3, 4], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateFitError, match="distinct"):
        fit_gevrey_sequence([2, 2, 3, 4], [1.0, 1.0, 2.0, 3.0])
    with pytest.raises(DegenerateFitError, match="positive"):
        fit_gevrey_sequence([2, 3, 4, 5], [1.0, 0.0, 2.0, 3.0])
    with pytest.raises(DegenerateFitError, match="positive"):
        fit_gevrey_sequence([2, 3, 4, 5], [1.0, -2.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="one value per order"):
        fit_gevrey_sequence([2, 3, 4, 5], [1.0, 2.0])


def test_report_level_fit_matches_sequence_level():
    spec = load_builtin("heat")
    sol = solve_exact(spec, times=np.linspace(0.01, 1.0, 21))
    rep = smoothing_profile(sol, spec, d_max=7)
    direct = fit_gevrey_sequence(
        [r.d for r in rep.orders if r.d >= 2], [r.raw_supremum for r in rep.orders if r.d >= 2]
    )
    assert gevrey_fit(rep).sigma == direct.sigma == rep.fit.sigma


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowed_weights_on_zero_coefficients_give_no_nan():
    # frequencies up to 4/L = 4e80: <xi>^4 and |xi|^4 overflow to inf, while
    # most coefficients are exactly zero
    grid = TorusGrid(2, 8, 1e-80)
    constant = SpectralField.constant(grid, 1.0)
    assert hs_norm(constant, 2.0) == 1.0
    assert derivative_norm(constant, (4, 0), 0.0).value == 0.0
    live = constant + SpectralField.single_mode(grid, (3, 0), 0.5)
    assert hs_norm(live, 2.0) == np.inf
    assert derivative_norm(live, (4, 0), 0.0).value == np.inf

    # kolmogorov2d on that box: the data is the constant to double precision,
    # so the residual and every derivative of order >= 1 are exactly zero
    spec = load_builtin("kolmogorov2d")
    sol = solve_exact(spec, grid, times=np.linspace(0.0, spec.T, 5))
    assert [hs_norm(f, 2.0) for f in sol.fields] == [1.0] * 5
    assert np.array_equal(residual_series(sol, spec).values, np.zeros(1))
    rep = smoothing_profile(solve_exact(spec, grid, times=np.linspace(0.01, 1.0, 5)), spec,
                            d_max=4)
    for rec in rep.orders[1:]:
        assert rec.supremum == 0.0 and rec.raw_supremum == 0.0


def test_record_is_finite_where_the_squared_multiplier_overflows():
    # frequencies up to 4e80: |xi_0|^2 reaches 1.6e161, whose square
    # overflows, and a coefficient of 1e-170 squares to below the smallest
    # subnormal; the norm (3e80)^2 * 1e-170 = 9e-10 is an ordinary number
    grid = TorusGrid(2, 8, 1e-80)
    field = SpectralField.single_mode(grid, (3, 0), 1e-170)
    xi = 3.0 / grid.L
    rec = derivative_norm(field, (2, 0), 0.0)
    assert rec.value == pytest.approx(xi**2 * 1e-170, rel=1e-14)
    peak = (4.0 / grid.L) ** 2
    assert rec.floor == pytest.approx(1e3 * np.finfo(float).eps * peak * 1e-170, rel=1e-14)
    assert rec.reliable
    # the full-grid formula gives the same finite value here
    value, _ = full_grid_record([grid.frequency(0), grid.frequency(1)], field.coeffs, (2, 0), 0.0)
    assert rec.value == pytest.approx(value, rel=1e-14)
    # a coefficient whose square overflows: the norm is the coefficient itself
    big = SpectralField.single_mode(TorusGrid(2, 8, 1.0), (3, 1), 1e200)
    assert derivative_norm(big, (0, 0), 0.0).value == pytest.approx(1e200, rel=1e-15)
    assert derivative_norm(big, (1, 2), 0.0).value == pytest.approx(3e200, rel=1e-15)
    # a norm beyond the float range still reads inf
    assert derivative_norm(big, (300, 0), 0.0).value == np.inf
    # and one below it reads 0, with no warning
    tiny = SpectralField.single_mode(TorusGrid(2, 8, 1.0), (1, 0), 1e-300)
    assert derivative_norm(tiny, (0, 0), 0.0).value == pytest.approx(1e-300, rel=1e-15)
    small = SpectralField.single_mode(TorusGrid(2, 8, 1e30), (1, 0), 1e-300)
    assert derivative_norm(small, (2, 0), 0.0).value == 0.0


def test_repeated_product_multiplier_matches_powers_within_round_off():
    # the parent computed |xi_ax|^a with one pow per axis; each order of the
    # repeated product adds at most one rounding, so d * eps bounds the drift
    spec = load_builtin("kolmogorov2d-lowreg")
    ledger = solve_exact(spec, times=np.array([0.5])).mode_ledgers[0]
    for s in (0.0, -1.0):
        for alpha in ((8, 0), (0, 8), (3, 5), (1, 2), (6, 0)):
            powered, _ = full_grid_record(ledger.frequencies(), ledger.coefficients, alpha, s)
            rec = derivative_norm(ledger, alpha, s)
            assert rec.value == pytest.approx(powered, rel=2 * sum(alpha) * np.finfo(float).eps)
