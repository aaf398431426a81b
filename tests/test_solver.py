"""Solvers: exact-characteristics oracle checks, FD scheme behavior, reports."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from ultraparabolic.problems import (
    ConstantPreset,
    GaussianPreset,
    LinearPreset,
    ProblemSpec,
    SinPerturbPreset,
    load_builtin,
)
from ultraparabolic.sobolev import SpectralField, TorusGrid, hs_norm
from ultraparabolic.solver import (
    CFLError,
    CoercivityError,
    SolverError,
    _axis_order,
    _damping_exponent,
    _nilpotent_powers,
    _shifted,
    _transport,
    _upwind_derivative,
    energy_check,
    residual_series,
    solve_auto,
    solve_exact,
    solve_fd,
)

F = Fraction


def _mat(n, entries):
    B = [[F(0)] * n for _ in range(n)]
    for (i, j), v in entries.items():
        B[i][j] = F(v)
    return tuple(tuple(row) for row in B)


# ---------------------------------------------------------------------------
# exact route against closed forms


def test_heat_matches_closed_form():
    spec = load_builtin("heat")
    grid = spec.default_grid()
    sol = solve_exact(spec, grid, times=[0.0, 0.3, 1.0])
    u0 = spec.u0.spectral(grid)
    for i, t in enumerate(sol.times):
        oracle = u0.coeffs * np.exp(-grid.frequency_sq * t)
        assert np.max(np.abs(sol.fields[i].coeffs - oracle)) <= 1e-15


def test_transport_single_mode_closed_form():
    # single_mode(k) samples exp(i k.(x + pi L)/L); transport moves it to
    # e^{-tB} k/L with the same coordinate offset in the prefactor
    B = _mat(2, {(0, 1): 1})
    grid = TorusGrid(2, 16, 2.0)
    powers = _nilpotent_powers(B, 2)
    order = _axis_order(B)
    t = 0.37
    k = (3, 2)
    f = SpectralField.single_mode(grid, k)
    got = SpectralField(grid, _transport(grid, f.coeffs, powers, order, t)).grid_values()
    z0, z1 = (k[0] - t * k[1]) / grid.L, k[1] / grid.L
    x0, x1 = grid.coordinate(0), grid.coordinate(1)
    prefactor = (-1.0) ** (k[0] + k[1])
    oracle = prefactor * np.exp(1j * (z0 * x0 + z1 * x1))
    assert np.max(np.abs(got - oracle)) <= 1e-13


def test_damping_matches_adaptive_quadrature():
    B = _mat(3, {(0, 1): 1, (1, 2): 1})
    grid = TorusGrid(3, 8, 2.0)
    powers = _nilpotent_powers(B, 3)
    t = 0.61
    D = _damping_exponent(grid, powers, 1, t, quad_order=4)
    K = [grid.frequency(ax) * grid.L for ax in range(3)]
    for idx in [(1, 2, 3), (0, 5, 1), (7, 7, 7)]:
        k0, k1, k2 = (float(K[ax][idx]) for ax in range(3))
        # e^{-tau B} row 0 = (1, -tau, tau^2/2) for the length-3 chain
        oracle = quad(
            lambda tau: ((k0 - tau * k1 + 0.5 * tau**2 * k2) / grid.L) ** 2, 0.0, t
        )[0]
        assert abs(D[idx] - oracle) <= 1e-12 * max(1.0, oracle)


def test_exact_matches_brute_force_mode_sum():
    # independent oracle: evolve every initial mode by hand and sum on the grid
    spec = load_builtin("kolmogorov2d")
    t = 0.4
    grid = TorusGrid(2, 32, 4.0)
    u0 = spec.u0.spectral(grid)
    sol = solve_exact(spec, grid, times=[0.0, t])
    K0 = (grid.frequency(0) * grid.L).astype(int)
    K1 = (grid.frequency(1) * grid.L).astype(int)
    x0, x1 = grid.coordinate(0), grid.coordinate(1)
    acc = np.zeros(grid.shape, dtype=complex)
    L = grid.L
    for i in range(grid.N):
        for j in range(grid.N):
            c = u0.coeffs[i, j]
            if abs(c) < 1e-18:
                continue
            k0, k1 = K0[i, j], K1[i, j]
            damp = quad(lambda tau: ((k0 - tau * k1) / L) ** 2, 0.0, t)[0]
            z0, z1 = (k0 - t * k1) / L, k1 / L
            acc += c * np.exp(1j * np.pi * (k0 + k1)) * np.exp(-damp) * np.exp(
                1j * (z0 * x0 + z1 * x1)
            )
    got = sol.fields[1].grid_values()
    assert np.max(np.abs(acc - got)) <= 1e-13


def test_exact_semigroup_property():
    for name in ("kolmogorov2d", "chain3"):
        spec = load_builtin(name)
        grid = spec.default_grid()
        first = solve_exact(spec, grid, times=[0.0, 0.3])
        restarted = solve_exact(spec, grid, times=[0.4], u0=first.fields[1])
        direct = solve_exact(spec, grid, times=[0.7])
        gap = (restarted.fields[0] - direct.fields[0]).l2_norm()
        assert gap <= 1e-10 * direct.fields[0].l2_norm(), name


def test_cyclic_drift_is_refused_by_exact_route_and_solved_by_fd():
    base = load_builtin("kolmogorov2d")
    grid = TorusGrid(2, 16, 4.0)
    for B in (_mat(2, {(0, 1): 1, (1, 0): -1}), _mat(2, {(0, 0): 1})):
        spec = dataclasses.replace(base, B=B)
        with pytest.raises(SolverError, match="cycle"):
            solve_exact(spec, grid)
        assert solve_auto(spec, grid=grid, times=[0.0, spec.T]).method == "fd"


def test_nilpotent_powers_cut_and_rejection():
    powers = _nilpotent_powers(_mat(3, {(0, 1): 1, (1, 2): 1}), 3)
    assert len(powers) == 3  # I, B, B^2; B^3 = 0
    with pytest.raises(SolverError):
        _nilpotent_powers(_mat(2, {(0, 1): 1, (1, 0): 1}), 2)


def test_axis_order_topological():
    assert _axis_order(_mat(3, {(0, 1): 1, (1, 2): 1})) == [0, 1, 2]
    assert _axis_order(_mat(3, {(2, 1): 1, (1, 0): 1})) == [2, 1, 0]
    with pytest.raises(SolverError):
        _axis_order(_mat(2, {(0, 0): 1}))
    with pytest.raises(SolverError):
        _axis_order(_mat(2, {(0, 1): 1, (1, 0): 1}))


def test_exact_route_rejects_unsupported_terms():
    spec = load_builtin("fokkerplanck")
    with pytest.raises(SolverError, match="first-order"):
        solve_exact(spec)
    spec = load_builtin("kolmogorov2d")
    with pytest.raises(SolverError, match="dimension"):
        solve_exact(spec, TorusGrid(3, 8))
    with pytest.raises(SolverError):
        solve_exact(spec, times=[-0.5, 1.0])
    varying = dataclasses.replace(spec, a=SinPerturbPreset(axis=0, amplitude=0.25, base=1.0))
    with pytest.raises(SolverError, match="diffusion"):
        solve_exact(varying)


# ---------------------------------------------------------------------------
# finite-difference route


def test_shifted_zero_fill():
    u = np.arange(1.0, 6.0)
    assert _shifted(u, 0, 1).tolist() == [2.0, 3.0, 4.0, 5.0, 0.0]
    assert _shifted(u, 0, -2).tolist() == [0.0, 0.0, 1.0, 2.0, 3.0]


def test_upwind_exact_on_quadratic():
    # the 3-point one-sided stencils differentiate quadratics exactly
    grid = TorusGrid(1, 32, 1.0)
    x = grid.axis_points
    u = x**2
    h = grid.spacing
    for sign in (1.0, -1.0):
        d = _upwind_derivative(u, sign * np.ones_like(u), 0, h)
        interior = slice(3, -3)
        assert np.max(np.abs(d[interior] - 2 * x[interior])) <= 1e-11


def test_fd_heat_matches_exact():
    spec = load_builtin("heat")
    grid = TorusGrid(2, 64, 4.0)
    times = [0.0, 0.125, 0.25]
    fd = solve_fd(spec, grid, dt=0.25 / 64, times=times)
    ex = solve_exact(spec, grid, times=times)
    err = (fd.final - ex.final).l2_norm() / ex.final.l2_norm()
    assert err <= 0.03


def test_fd_error_shrinks_under_refinement():
    spec = load_builtin("kolmogorov2d")
    T1 = 0.2
    errors = {}
    for N in (32, 64):
        grid = TorusGrid(2, N, 4.0)
        steps = int(np.ceil(T1 / (0.05 * grid.spacing**2)))
        fd = solve_fd(spec, grid, dt=T1 / steps, times=[0.0, T1])
        ex = solve_exact(spec, grid, times=[0.0, T1])
        errors[N] = (fd.final - ex.final).l2_norm() / ex.final.l2_norm()
    assert errors[64] <= 0.45 * errors[32]


def test_fd_mass_conservation_zero_diagonal_drift():
    spec = load_builtin("kolmogorov2d")
    grid = TorusGrid(2, 64, 4.0)
    sol = solve_fd(spec, grid, times=np.linspace(0.0, 0.5, 5))
    mass = sol.diagnostics["mass"]
    assert np.max(np.abs(mass - mass[0])) <= 1e-10 * abs(mass[0])
    # oracle: zero mode times volume equals the direct Riemann sum
    direct = float(sol.final.grid_values().real.sum()) * grid.spacing**2
    assert abs(sol.mass_series()[-1] - direct) <= 1e-12 * abs(direct)


def test_fd_cfl_abort_carries_usable_suggestion():
    spec = load_builtin("kolmogorov2d")
    grid = TorusGrid(2, 64, 4.0)
    with pytest.raises(CFLError) as info:
        solve_fd(spec, grid, dt=0.25, times=[0.0, 0.25])
    err = info.value
    assert err.suggested_dt < err.dt
    assert "retry with dt" in str(err)
    retry_dt = 0.25 / int(np.ceil(0.25 / err.suggested_dt))
    sol = solve_fd(spec, grid, dt=retry_dt, times=[0.0, 0.25])
    assert sol.diagnostics["cfl"] <= 0.8


def test_fd_reaction_bound():
    spec = dataclasses.replace(load_builtin("kolmogorov2d"), b0=ConstantPreset(-300.0))
    with pytest.raises(CFLError):
        solve_fd(spec, TorusGrid(2, 16, 4.0), dt=0.25, times=[0.0, 0.25])


def test_fd_coercivity_abort_names_point():
    spec = dataclasses.replace(
        load_builtin("kolmogorov2d"), a=SinPerturbPreset(axis=0, amplitude=1.5, base=1.0)
    )
    with pytest.raises(CoercivityError, match="at x ="):
        solve_fd(spec, TorusGrid(2, 16, 4.0))


def test_fd_slab_batching_consistent():
    # a declared as a ramp of slope 0 along the non-diffused axis forces the
    # per-slab factorization path; results must match the shared path exactly
    base = load_builtin("kolmogorov2d")
    shared = dataclasses.replace(base, a=ConstantPreset(1.0))
    slabbed = dataclasses.replace(base, a=LinearPreset(axis=1, slope=0.0, intercept=1.0))
    grid = TorusGrid(2, 16, 4.0)
    times = [0.0, 0.1]
    sol_shared = solve_fd(shared, grid, dt=0.0125, times=times)
    sol_slab = solve_fd(slabbed, grid, dt=0.0125, times=times)
    assert sol_shared.diagnostics["shared_slab_factorization"] is True
    assert sol_slab.diagnostics["shared_slab_factorization"] is False
    gap = (sol_shared.final - sol_slab.final).l2_norm()
    assert gap <= 1e-13 * sol_shared.final.l2_norm()


def test_fd_snapshot_schedule_validation():
    spec = load_builtin("kolmogorov2d")
    grid = TorusGrid(2, 16, 4.0)
    with pytest.raises(SolverError, match="multiple"):
        solve_fd(spec, grid, dt=0.01, times=[0.0, 0.015])
    with pytest.raises(SolverError, match="increasing"):
        solve_fd(spec, grid, dt=0.01, times=[0.1, 0.1])
    with pytest.raises(SolverError):
        solve_fd(spec, grid, dt=0.01, times=[0.0, 2 * spec.T])
    sol = solve_fd(spec, grid, times=[0.0])
    assert len(sol) == 1 and sol.times[0] == 0.0


def test_fd_six_dimensional_kinetic_runs():
    spec = load_builtin("fokkerplanck")
    sol = solve_fd(spec, times=np.linspace(0.0, spec.T, 3))
    assert sol.method == "fd"
    assert sol.diagnostics["shared_slab_factorization"] is True
    assert np.all(np.isfinite(sol.hs_series(spec.s)))
    assert sol.diagnostics["boundary_fraction"].max() < 0.01


def test_auto_routing():
    expected = {
        "kolmogorov2d": "exact",
        "heat": "exact",
        "chain3": "exact",
        "lp-block": "exact",
        "brownian-inertia": "fd",
        "fokkerplanck": "fd",
        "kolmogorov-general": "fd",
    }
    for name, method in expected.items():
        spec = load_builtin(name)
        sol = solve_auto(spec, times=np.array([0.0, spec.T / 2]))
        assert sol.method == method, name


# ---------------------------------------------------------------------------
# a-posteriori reports


def test_residual_exact_solution_near_machine():
    spec = load_builtin("kolmogorov2d")
    grid = TorusGrid(2, 128, 4.0)
    t0, dt = 0.5, 4e-4
    sol = solve_exact(spec, grid, times=t0 + dt * np.arange(-2, 3))
    rep = residual_series(sol, spec)
    assert len(rep.values) == 1
    assert rep.max_value <= 1e-10


def test_residual_detects_tampered_snapshot():
    spec = load_builtin("kolmogorov2d")
    grid = TorusGrid(2, 64, 4.0)
    times = np.linspace(0.4, 0.6, 9)
    sol = solve_exact(spec, grid, times=times)
    clean = residual_series(sol, spec)
    fields = list(sol.fields)
    fields[4] = fields[4] * 1.001  # corrupt the middle snapshot
    tampered = dataclasses.replace(sol, fields=tuple(fields))
    dirty = residual_series(tampered, spec)
    spike = dirty.values[2] / max(clean.values[2], 1e-30)
    assert spike > 100.0


def test_residual_requires_uniform_dense_times():
    spec = load_builtin("kolmogorov2d")
    grid = TorusGrid(2, 32, 4.0)
    sol = solve_exact(spec, grid, times=[0.0, 0.1, 0.2])
    with pytest.raises(SolverError, match="five"):
        residual_series(sol, spec)
    sol = solve_exact(spec, grid, times=[0.0, 0.1, 0.2, 0.4, 0.8])
    with pytest.raises(SolverError, match="uniform"):
        residual_series(sol, spec)


def test_residual_covers_lower_order_terms():
    # FD solution of the kinetic model: residual finite and far below O(1)
    spec = load_builtin("brownian-inertia")
    grid = TorusGrid(2, 64, 4.0)
    times = np.linspace(0.2, 0.3, 5)
    sol = solve_fd(spec, grid, dt=0.025 / 16, times=times)
    rep = residual_series(sol, spec)
    assert np.all(np.isfinite(rep.values))
    assert rep.max_value < 0.5


def test_energy_heat_within_budget():
    spec = load_builtin("heat")
    grid = spec.default_grid()
    sol = solve_exact(spec, grid, times=np.linspace(0.0, spec.T, 51))
    rep = energy_check(sol, spec)
    assert rep.budget > 0
    assert rep.max_ratio <= 1.0 + 1e-12
    assert rep.ratio[0] == 1.0


def test_energy_zero_data_reports_zero():
    spec = dataclasses.replace(load_builtin("heat"), u0=ConstantPreset(0.0))
    sol = solve_exact(spec, spec.default_grid(), times=np.linspace(0.0, 1.0, 5))
    rep = energy_check(sol, spec)
    assert rep.budget == 0.0
    assert np.all(rep.ratio == 0.0)


def test_energy_monotone_infinite_when_budget_zero_but_energy_not():
    spec = dataclasses.replace(load_builtin("heat"), u0=ConstantPreset(0.0))
    sol = solve_exact(spec, spec.default_grid(), times=np.linspace(0.0, 1.0, 5))
    fields = list(sol.fields)
    fields[2] = fields[2] + SpectralField.constant(sol.grid, 1.0)
    rigged = dataclasses.replace(sol, fields=tuple(fields))
    rep = energy_check(rigged, spec)
    assert np.isinf(rep.ratio[2])


def test_trajectory_container_invariants():
    spec = load_builtin("kolmogorov2d")
    grid = TorusGrid(2, 32, 4.0)
    times = np.linspace(0.0, 1.0, 4)
    sol = solve_exact(spec, grid, times=times)
    assert len(sol) == 4
    assert sol.snapshot(0).l2_norm() == pytest.approx(hs_norm(sol.fields[0], 0.0))
    assert sol.final is sol.fields[-1]
    series = sol.hs_series(1.0)
    assert series.shape == (4,)
    assert np.all(np.diff(series) <= 1e-12)  # diffusion never grows this norm
    with pytest.raises(ValueError):
        dataclasses.replace(sol, times=np.array([0.0]))


def test_custom_spec_fd_vs_exact_chain3():
    spec = load_builtin("chain3")
    grid = TorusGrid(3, 32, 4.0)
    times = [0.0, 0.1]
    fd = solve_fd(spec, grid, dt=0.1 / 128, times=times)
    ex = solve_exact(spec, grid, times=times)
    err = (fd.final - ex.final).l2_norm() / ex.final.l2_norm()
    assert err <= 0.05
