"""Solvers: exact-characteristics oracle checks, FD scheme behavior, reports."""

import dataclasses
import importlib.util
import math
import re
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.sparse.linalg import splu

from ultraparabolic import _upwind, cli, solver

from ultraparabolic.fieldio import read_field, write_field
from ultraparabolic.problems import (
    ConstantPreset,
    GaussianPreset,
    LinearPreset,
    ProblemSpec,
    SinPerturbPreset,
    builtin_spec_names,
    load_builtin,
)
from ultraparabolic._norms import snapshot_norms
from ultraparabolic.sobolev import SpectralField, TorusGrid, hs_norm, random_band_limited
from ultraparabolic.vfalgebra import _matmul, _rank, bracket_tower, hormander_check
from ultraparabolic.smoothing import smoothing_profile
from ultraparabolic.solver import (
    _MAX_FD_STEPS,
    CFLError,
    CoercivityError,
    SolverError,
    _axis_order,
    _damping_exponent,
    _matrix_exponential,
    _nilpotent_powers,
    _snapshot_segments,
    _transport,
    _transport_speeds,
    energy_check,
    residual_series,
    solve_auto,
    solve_exact,
    solve_fd,
)

F = Fraction


# test-local spectral helpers: no runtime path needs them


def l2_norm(f):
    return float(np.linalg.norm(f.coeffs))


def partial_derivative(f, alpha):
    """Exact spectral derivative d^alpha f: multiply by prod (i xi_j)^alpha_j."""
    out = f.coeffs
    for axis, a in enumerate(alpha):
        if a:
            out = out * (1j * f.grid.frequency(axis)) ** a
    return SpectralField(f.grid, out)


def hs_series(sol, s):
    """The H^s norm of each snapshot."""
    return np.array([hs_norm(f, s) for f in sol.fields])


def mass_series(sol):
    """Box integral of each snapshot (volume * zero mode)."""
    volume = (2.0 * np.pi * sol.grid.L) ** sol.grid.n
    return np.array([volume * f.coeffs[(0,) * sol.grid.n].real for f in sol.fields])


def _shifted(u, axis, offset):
    """Reference: u[..., i + offset, ...] with zeros outside the box (Dirichlet ghosts)."""
    out = np.roll(u, -offset, axis=axis)
    sl = [slice(None)] * u.ndim
    if offset > 0:
        sl[axis] = slice(-offset, None)
    else:
        sl[axis] = slice(0, -offset)
    out[tuple(sl)] = 0.0
    return out


def _upwind_derivative(u, speed, axis, h):
    """Reference one-sided difference: both stencils from rolled copies, then a select."""
    backward = (3.0 * u - 4.0 * _shifted(u, axis, -1) + _shifted(u, axis, -2)) / (2.0 * h)
    forward = (-3.0 * u + 4.0 * _shifted(u, axis, 1) - _shifted(u, axis, 2)) / (2.0 * h)
    return np.where(speed > 0, backward, forward)


def _explicit_transport(u, speeds, h, b0=None):
    """The stencil kernel's explicit transport -sum_j w_j D_j u - b0 u on fresh buffers."""
    plan = _upwind.stencil_plan(speeds, b0, h, u.shape)
    return _upwind.apply_stencil(plan, u, *(np.empty_like(u) for _ in range(3)))


def _matrix_transport(u, speeds, h, b0=None):
    """The matrix kernel's explicit transport -sum_j w_j D_j u - b0 u on fresh buffers."""
    plan = _upwind.matrix_plan(speeds, b0, h, u.shape)
    return _upwind.apply_matrices(plan, u, np.empty_like(u), np.empty_like(u))


def _centre_neighbour_reference(u, speeds, h, b0=None):
    """Reference: centre * u + sum_j c_j * where(w_j > 0, 4 S_-1 u - S_-2 u, 4 S_+1 u - S_+2 u)."""
    total = np.zeros((1,) * u.ndim)
    for w in speeds.values():
        total = total + np.abs(w)
    centre = (-3.0 / (2.0 * h)) * total
    if b0 is not None:
        centre = centre - b0
    out = centre * u
    for j, w in speeds.items():
        backward = 4.0 * _shifted(u, j, -1) - _shifted(u, j, -2)
        forward = 4.0 * _shifted(u, j, 1) - _shifted(u, j, 2)
        out = out + (np.abs(w) / (2.0 * h)) * np.where(w > 0, backward, forward)
    return out


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
    D = _damping_exponent(grid, powers, 1, t)
    K = [np.broadcast_to(grid.frequency(ax) * grid.L, grid.shape) for ax in range(3)]
    for idx in [(1, 2, 3), (0, 5, 1), (7, 7, 7)]:
        k0, k1, k2 = (float(K[ax][idx]) for ax in range(3))
        # e^{-tau B} row 0 = (1, -tau, tau^2/2) for the length-3 chain
        oracle = quad(
            lambda tau: ((k0 - tau * k1 + 0.5 * tau**2 * k2) / grid.L) ** 2, 0.0, t
        )[0]
        assert abs(D[idx] - oracle) <= 1e-12 * max(1.0, oracle)


EXACT_ROUTE_BUILTINS = [name for name in builtin_spec_names()
                        if solver._exact_route_supported(load_builtin(name)) is None]


def test_kolmogorov2d_damping_is_the_closed_form_gramian_mode_by_mode():
    # Q(t) = [[t, -t^2/2], [-t^2/2, t^3/3]] for B = e_0 e_1^T, P = e_0 e_0^T
    spec = load_builtin("kolmogorov2d")
    grid = TorusGrid(2, 16, 4.0)
    powers = _nilpotent_powers(spec.B, 2)
    for t in (spec.T / 100, 0.37, spec.T):
        D = _damping_exponent(grid, powers, spec.m0, t)
        for i in range(grid.N):
            for j in range(grid.N):
                x0, x1 = float(grid.frequency(0)[i, 0]), float(grid.frequency(1)[0, j])
                want = t * x0**2 - t**2 * x0 * x1 + t**3 / 3.0 * x1**2
                assert abs(D[i, j] - want) <= 1e-13 * want, (t, i, j)


@pytest.mark.parametrize("name", EXACT_ROUTE_BUILTINS)
def test_closed_form_damping_matches_gauss_legendre(name):
    # the (n+1)-node Gauss-Legendre rule integrates the degree-2n integrand
    # exactly; ledgers and snapshots follow the damping within the same bound
    spec = load_builtin(name)
    grid = spec.default_grid(N=12 if spec.n >= 4 else 16)
    powers = _nilpotent_powers(spec.B, spec.n)
    order = _axis_order(spec.B)
    times = np.array([spec.T / 100, 0.37, spec.T])
    sol = solve_exact(spec, grid, times=times)
    base = spec.u0.spectral(grid).coeffs
    for i, t in enumerate(times):
        want = _full_grid_damping_exponent(grid, powers, spec.m0, t, spec.n + 1)
        got = _damping_exponent(grid, powers, spec.m0, t)
        assert np.all(np.abs(got - want) <= 1e-13 * want), (name, t)
        damped = base * np.exp(-float(spec.a.value) * want)
        ledger = sol.mode_ledgers[i].coefficients
        assert np.max(np.abs(ledger - damped)) <= 1e-13 * np.max(np.abs(damped)), (name, t)
        field = _transport(grid, damped, powers, order, t)
        assert (np.max(np.abs(sol.fields[i].coeffs - field))
                <= 1e-13 * np.max(np.abs(field))), (name, t)


def _exact_gramian(B, m0):
    """Q(1) = sum_{p,q} (-1)^{p+q} / (p! q! (p+q+1)) (B^p)^T P B^q in Fraction."""
    n = len(B)
    powers = [tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))]
    while any(any(row) for row in powers[-1]):
        powers.append(_matmul(powers[-1], B))
    Q = [[F(0)] * n for _ in range(n)]
    for p, Bp in enumerate(powers):
        for q, Bq in enumerate(powers):
            c = F((-1) ** (p + q), math.factorial(p) * math.factorial(q) * (p + q + 1))
            for i in range(n):
                for j in range(n):
                    Q[i][j] += c * sum((Bp[k][i] * Bq[k][j] for k in range(m0)), F(0))
    return Q


def _random_upper_drifts():
    rng = np.random.default_rng(26)
    drifts = []
    for n in (2, 3, 4, 5):
        for m0 in range(1, n + 1):
            entries = {(i, j): int(rng.integers(-2, 3)) * int(rng.random() < 0.5)
                       for i in range(n) for j in range(i + 1, n)}
            drifts.append((_mat(n, entries), m0))
    return drifts


@pytest.mark.parametrize("B, m0", [
    *((load_builtin(name).B, load_builtin(name).m0) for name in builtin_spec_names()),
    (_mat(2, {}), 1),  # kolmogorov2d-lowreg without its drift: rank 1
    *_random_upper_drifts(),
])
def test_gramian_rank_equals_the_spanning_certificate(B, m0):
    # Kalman's rank condition for (B, P) is Hormander's spanning for a constant drift
    rank = _rank(_exact_gramian(B, m0))
    assert rank == hormander_check(bracket_tower(B, m0)).rank
    if not any(any(row) for row in B):
        assert rank == m0


def test_exact_matches_brute_force_mode_sum():
    # independent oracle: evolve every initial mode by hand and sum on the grid
    spec = load_builtin("kolmogorov2d")
    t = 0.4
    grid = TorusGrid(2, 32, 4.0)
    u0 = spec.u0.spectral(grid)
    sol = solve_exact(spec, grid, times=[0.0, t])
    K0, K1 = (np.broadcast_to(grid.frequency(ax) * grid.L, grid.shape).astype(int)
              for ax in range(2))
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
        gap = l2_norm(restarted.fields[0] - direct.fields[0])
        assert gap <= 1e-10 * l2_norm(direct.fields[0]), name


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
    # the solver's stencil reads zeros beyond each face (h = 1/2, so 2h = 1);
    # the transport is -w D u, so w = 1 gives -D u and w = -1 gives D u
    backward = _explicit_transport(u, {0: np.ones(1)}, 0.5)
    assert backward.tolist() == [-3.0, -2.0, -2.0, -2.0, -2.0]
    forward = _explicit_transport(u, {0: -np.ones(1)}, 0.5)
    assert forward.tolist() == [2.0, 2.0, 2.0, 8.0, -15.0]
    # and so do the matrix kernel's rows, cut at the faces
    assert _matrix_transport(u, {0: np.ones(1)}, 0.5).tolist() == backward.tolist()
    assert _matrix_transport(u, {0: -np.ones(1)}, 0.5).tolist() == forward.tolist()


def _random_speeds(rng, shape):
    """Speed sets on a 3-D grid that reach every layout of a sign box.

    Full-shape speeds with zeros (both boxes span the grid); compact random
    speeds with zeros (boxes that overlap); monotone ramps whose boxes are
    cut along a later axis than their own, along the axis just before it,
    along two earlier ones and along their own; constant speeds of both
    signs.
    """
    full = {}
    for axis in range(len(shape)):
        speed = rng.standard_normal(shape)
        speed[0, 0, :2] = 0.0  # zero speed takes the forward branch
        speed[2:4, 1] = 0.0
        full[axis] = speed
    rough = {0: rng.standard_normal((1, shape[1], 1)),
             1: rng.standard_normal((shape[0], 1, 1)),
             2: rng.standard_normal((shape[0], shape[1], 1))}
    rough[1][1] = 0.0
    ramp = [np.linspace(-1.0, 2.0, size) for size in shape]
    ramps = {0: ramp[1].reshape(1, -1, 1),
             1: -ramp[0].reshape(-1, 1, 1),
             2: ramp[0].reshape(-1, 1, 1) + 2.0 * ramp[1].reshape(1, -1, 1)}
    constant = {0: np.full((1, 1, 1), 0.7), 1: np.full((1, 1, 1), -1.3),
                2: -ramp[2].reshape(1, 1, -1)}
    return full, rough, ramps, constant


def test_upwind_stencil_equals_roll_reference():
    # same operations in the same order as the rolled-copy reference, so the
    # values must be equal, not close, on every axis and both sign branches,
    # for speeds that vary along every axis and for speeds that vary along
    # some (the flat shifts along merged axes, re-formed at the faces)
    rng = np.random.default_rng(7)
    u = rng.standard_normal((6, 7, 8))
    h = 0.37
    b0 = rng.standard_normal((1, 7, 1))
    for speeds in _random_speeds(rng, u.shape):
        for b in (None, b0):
            want = _centre_neighbour_reference(u, speeds, h, b)
            assert np.array_equal(_explicit_transport(u, speeds, h, b), want)
            for axis, w in speeds.items():  # one axis at a time
                assert np.array_equal(_explicit_transport(u, {axis: w}, h),
                                      _centre_neighbour_reference(u, {axis: w}, h))


def _one_other_axis_speeds(rng, shape):
    """Speed sets whose speeds each vary along at most one other axis: (earlier, later).

    `earlier`, which the matrix kernel takes: constant speeds of both signs;
    speeds along their own axis; along their own axis and one earlier one,
    and along one earlier axis only, for every distance between the two (so
    the other axis is next to its own or not, and its own is the last axis
    or not); a mix of all four.  `later`, which only the stencil takes: the
    same with the other axis after its own, the last axis among them.  Every
    speed that varies is zero on a quarter of its cells.
    """
    n = len(shape)

    def sample(*axes):
        w = rng.standard_normal(tuple(shape[ax] if ax in axes else 1 for ax in range(n)))
        w.flat[::4] = 0.0
        return w

    earlier = [{j: np.full((1,) * n, rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
                for j in range(n)},
               {j: sample(j) for j in range(n)}]
    later = []
    for shift in range(1, n):
        earlier.append({j: sample(j, j - shift) for j in range(shift, n)})
        earlier.append({j: sample(j - shift) for j in range(shift, n)})
        later.append({j: sample(j, j + shift) for j in range(n - shift)})
        later.append({j: sample(j + shift) for j in range(n - shift)})
    earlier.append({0: np.full((1,) * n, -0.8), 1: sample(1), 2: sample(2, 0), 3: sample(1)})
    return earlier, later


def test_transport_equals_the_per_axis_upwind_form():
    # regrouping the centre terms of all axes moves the sum by round-off only;
    # also on a 4-D grid for the speeds along a later axis, which the matrix
    # kernel refuses
    rng = np.random.default_rng(11)
    u = rng.standard_normal((6, 7, 8))
    h = 0.37
    b0 = rng.standard_normal((6, 1, 1))
    cases = [(u, speeds, b0) for speeds in _random_speeds(rng, u.shape)]
    u = rng.standard_normal((5, 6, 7, 8))
    for speeds in _one_other_axis_speeds(rng, u.shape)[1]:
        cases += [(u, speeds, b0) for b0 in (None, np.full((1,) * 4, 0.6),
                                             rng.standard_normal((1, 6, 1, 1)))]
    for u, speeds, b0 in cases:
        want = np.zeros(u.shape) if b0 is None else -b0 * u
        for axis, w in speeds.items():
            want = want - w * _upwind_derivative(u, w, axis, h)
        got = _explicit_transport(u, speeds, h, b0)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_matrix_transport_equals_the_per_axis_upwind_form():
    # each axis's term as one matrix product per matrix moves the sum by round-off only
    rng = np.random.default_rng(13)
    shape = (5, 6, 7, 8)
    u = rng.standard_normal(shape)
    h = 0.37
    b0s = (None, np.full((1,) * 4, rng.standard_normal()),  # constant: on one diagonal
           rng.standard_normal((1, 6, 1, 1)))  # varying: a pass of its own
    earlier, later = _one_other_axis_speeds(rng, shape)
    for speeds in earlier:
        for b0 in b0s:
            want = np.zeros(shape) if b0 is None else -b0 * u
            for axis, w in speeds.items():
                want = want - w * _upwind_derivative(u, w, axis, h)
            got = _matrix_transport(u, speeds, h, b0)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # a speed spanning two other axes, or varying along a later one
    for speeds in [{3: rng.standard_normal((5, 6, 1, 1))}] + later:
        with pytest.raises(ValueError, match="later axis or along two or more"):
            _upwind.matrix_plan(speeds, None, h, shape)


@pytest.mark.parametrize("N", [6, 8, 10, 12, 16])
def test_transport_kernel_follows_the_speeds_and_the_grid(N):
    # matrices on grids of four or more axes where every speed spans at most
    # one other axis, an earlier one, and the matrices fit in one grid array;
    # the stencil on 2-D and 3-D grids, for a speed along a later axis and for
    # a speed that spans every axis (a full grid array, so on the smallest
    # grid only)
    def kernel(spec, size=N):
        grid = spec.default_grid(N=size)
        b0 = None if spec.b0.is_zero else spec.b0.evaluate(grid)
        speeds = _transport_speeds(spec, grid)
        name, plan = _upwind.transport_plan(speeds, b0, grid.spacing, grid.shape)
        if name == "matrices":
            held = sum(A.size for A, *_ in plan[0])
            assert held <= grid.N**grid.n
            assert held == sum(size**k for k in _upwind.matrix_axes(speeds, grid.shape))
        return name

    specs = {name: load_builtin(name) for name in builtin_spec_names()}
    fd = {name: kernel(spec) for name, spec in specs.items()
          if solver._exact_route_supported(spec) is not None}
    assert fd == {"brownian-inertia": "stencil", "fokkerplanck": "matrices",
                  "kolmogorov-general": "matrices"}
    assert {name: kernel(spec) for name, spec in specs.items() if spec.n < 4} == dict.fromkeys(
        ["brownian-inertia", "chain3", "heat", "kolmogorov2d", "kolmogorov2d-lowreg"], "stencil")
    fokkerplanck = specs["fokkerplanck"]
    gaussian = (GaussianPreset(width=1.0),) + fokkerplanck.b[1:]
    assert kernel(dataclasses.replace(fokkerplanck, b=gaussian), size=6) == "stencil"
    # a 2-D constant speed: N^2 values would fit, but the stencil is faster there
    drifting = dataclasses.replace(specs["heat"], b=(ConstantPreset(-0.5), ConstantPreset(0.0)))
    assert kernel(drifting) == "stencil"
    # on a 3-D grid, one speed stacked over an earlier axis: N^3 values fit too
    cube, one = (N,) * 3, {1: np.linspace(-1.0, 1.0, N).reshape(N, 1, 1)}
    assert _upwind.matrix_axes(one, cube) is None
    assert _upwind.transport_plan(one, None, 0.1, cube)[0] == "stencil"
    # on a 4-D grid the same speed takes the matrices, and one along the last axis does not
    hyper = (N,) * 4
    assert _upwind.matrix_axes(one | {0: np.full((1,) * 4, 0.5)}, hyper) == (3, 2)
    assert _upwind.matrix_axes({1: np.linspace(-1.0, 1.0, N).reshape(1, 1, 1, N)}, hyper) is None
    for speeds in _one_other_axis_speeds(np.random.default_rng(N), hyper)[1]:
        assert _upwind.transport_plan(speeds, None, 0.1, hyper)[0] == "stencil"


@pytest.mark.parametrize("case", ["fokkerplanck", "lp-block", "random"])
def test_sign_boxes_hold_every_cell_of_their_sign(case):
    # at most two boxes per speed, one per sign; a box's factor is |w| / (2h)
    # on the cells of its sign and 0 on the rest, so each cell with a
    # nonzero speed gets its term from exactly one box
    if case == "random":
        shape = (5, 6, 7)
        speeds = [np.random.default_rng(3).standard_normal(shape)]
    else:
        spec = load_builtin(case)
        grid = spec.default_grid(N=8)
        shape = grid.shape
        speeds = list(_transport_speeds(spec, grid).values())
    h = 0.5
    for j, w in enumerate(speeds):
        full = np.broadcast_to(w, shape)
        _, boxes = _upwind.stencil_plan({j: w}, None, h, shape)
        assert 1 <= len(boxes) <= 2
        cover = np.zeros(shape, dtype=int)
        signs = set()
        for box, c, *_ in boxes:
            c = np.broadcast_to(c, full[box].shape)
            assert np.array_equal(c[c > 0], np.abs(full[box][c > 0]) / (2 * h))
            signs.add(np.unique(np.sign(full[box][c > 0])).item())
            cover[box] += c > 0
        assert len(signs) == len(boxes)
        assert np.array_equal(cover, (full != 0).astype(int))


def test_upwind_exact_on_quadratic():
    # the 3-point one-sided stencils differentiate quadratics exactly
    grid = TorusGrid(1, 32, 1.0)
    x = grid.axis_points
    u = x**2
    h = grid.spacing
    for sign in (1.0, -1.0):
        d = -sign * _explicit_transport(u, {0: sign * np.ones_like(u)}, h)
        interior = slice(3, -3)
        assert np.max(np.abs(d[interior] - 2 * x[interior])) <= 1e-11


def test_fd_heat_matches_exact():
    spec = load_builtin("heat")
    grid = TorusGrid(2, 64, 4.0)
    times = [0.0, 0.125, 0.25]
    fd = solve_fd(spec, grid, dt=0.25 / 64, times=times)
    ex = solve_exact(spec, grid, times=times)
    err = l2_norm(fd.final - ex.final) / l2_norm(ex.final)
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
        errors[N] = l2_norm(fd.final - ex.final) / l2_norm(ex.final)
    assert errors[64] <= 0.45 * errors[32]


def test_fd_mass_conservation_zero_diagonal_drift():
    spec = load_builtin("kolmogorov2d")
    grid = TorusGrid(2, 64, 4.0)
    sol = solve_fd(spec, grid, times=np.linspace(0.0, 0.5, 5))
    mass = sol.diagnostics["mass"]
    assert np.max(np.abs(mass - mass[0])) <= 1e-10 * abs(mass[0])
    # oracle: zero mode times volume equals the direct Riemann sum
    direct = float(sol.final.grid_values().real.sum()) * grid.spacing**2
    assert abs(mass_series(sol)[-1] - direct) <= 1e-12 * abs(direct)


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
    grid = TorusGrid(2, 16, 4.0)
    with pytest.raises(CoercivityError, match="at x =") as info:
        solve_fd(spec, grid)
    # the sample spans axis 0 only; the point is the full grid's first minimum
    full = np.broadcast_to(spec.a.evaluate(grid), grid.shape)
    idx = np.unravel_index(int(np.argmin(full)), grid.shape)
    assert info.value.report.worst_point == tuple(float(grid.axis_points[i]) for i in idx)


class _VariesEverywhereLinear(LinearPreset):
    """A ramp sampled at the full grid shape: a twin that takes a per-column slab solver."""

    def evaluate(self, grid):
        return np.broadcast_to(super().evaluate(grid), grid.shape).copy()


@dataclasses.dataclass(frozen=True)
class _SpanningConstant(ConstantPreset):
    """A constant sampled with length N on `axes`: steers the slab solver choice."""

    axes: tuple = ()

    def evaluate(self, grid):
        shape = [grid.N if ax in self.axes else 1 for ax in range(grid.n)]
        return np.broadcast_to(super().evaluate(grid), shape).copy()


@dataclasses.dataclass(frozen=True)
class _TwoAxisCoefficient(ConstantPreset):
    """value + 0.75 sin(x_0 / L) sin(x_1 / L): varies along axes 0 and 1 alone."""

    value: float = 1.25

    def evaluate(self, grid):
        return self.value + 0.75 * (np.sin(grid.coordinate(0) / grid.L)
                                    * np.sin(grid.coordinate(1) / grid.L))


def test_fd_slab_batching_consistent():
    # the slab solvers, picked from the diffused axes a's sample varies along,
    # solve the same steps; fokkerplanck (m0 = 3, with b and b0) runs the sine
    # matrix along 3 axes, and Douglas's factors when a spans two of them, which
    # solve the steps of the factored sparse-LU reference
    for name, N, dt in (("kolmogorov2d", 16, 0.0125), ("fokkerplanck", 6, 0.25 / 64)):
        base = load_builtin(name)
        grid = base.default_grid(N=N)
        times = [0.0, 8 * dt]

        def final(a, slab_solver):
            spec = dataclasses.replace(base, a=a)
            sol = solve_fd(spec, grid, dt=dt, times=times)
            assert sol.diagnostics["slab_solver"] == slab_solver
            if slab_solver == "sine-adi":
                ref = _grid_loop_reference(sol, spec, _splu_adi_solver, strict=True)[-1]
                got = sol.fields.values[-1]
                assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref), (name, a)
            return sol.final

        # a full-grid sample spans every diffused axis: one on kolmogorov2d, three on fokkerplanck
        everywhere = "sine-tridiagonal" if base.m0 == 1 else "sine-adi"
        sine = final(ConstantPreset(1.0), "sine")
        cases = [(SinPerturbPreset(axis=0, amplitude=0.0), "sine-tridiagonal"),
                 (_SpanningConstant(1.0, axes=tuple(range(base.n))), everywhere)]
        if base.m0 >= 2:
            cases += [(_SpanningConstant(1.0, axes=(0, 1)), "sine-adi"),
                      (_SpanningConstant(1.0, axes=(0, 1, base.n - 1)), "sine-adi")]
        for a, slab_solver in cases:
            got = final(a, slab_solver)
            if slab_solver != "sine-adi":
                assert l2_norm(sine - got) <= 1e-13 * l2_norm(sine), (name, slab_solver)
        # a ramp along the last (non-diffused) axis keeps the sine solver
        ramp = {"axis": base.n - 1, "slope": 0.02, "intercept": 1.0}
        sloped = final(LinearPreset(**ramp), "sine")
        twin = final(_VariesEverywhereLinear(**ramp), everywhere)
        if everywhere != "sine-adi":
            assert l2_norm(sloped - twin) <= 1e-13 * l2_norm(twin), name
        assert l2_norm(sloped - sine) > 1e-6 * l2_norm(sine), name


def _dirichlet_d2(N: int, h: float):
    main = np.full(N, -2.0)
    off = np.ones(N - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / (h * h)


def _subgrid_laplacian(N: int, m0: int, h: float, axes=None):
    """Reference: sparse CSR Laplacian along `axes` (default all) of the leading m0 axes.

    The 3-point Dirichlet stencil, as a matrix on the N**m0 points of a column.
    """
    D2 = _dirichlet_d2(N, h)
    total = None
    for ax in range(m0) if axes is None else axes:
        term = sp.identity(N**ax, format="csr")
        term = sp.kron(term, D2, format="csr")
        term = sp.kron(term, sp.identity(N ** (m0 - 1 - ax), format="csr"), format="csr")
        total = term if total is None else total + term
    return total


def _splu_slab_solver(a_vals, m0, h, spare, factors=None):
    """Reference: the implicit slab step by sparse LU, one factorization per column.

    implicit_solver(step_dt) returns solve(rhs), which solves
    (I - dt a lap_k / 2) x = rhs for each factor k in turn and writes x into
    rhs's buffer.  `factors` lists each factor's axes, lap_k the Laplacian
    along them; the default, one factor of every diffused axis, is the
    Crank-Nicolson solve.
    """
    N, n = spare.shape[0], spare.ndim
    M, R = N**m0, N ** (n - m0)
    laps = [_subgrid_laplacian(N, m0, h, axes) for axes in (factors or [None])]
    a2d = np.broadcast_to(a_vals, spare.shape).reshape(M, R)

    def implicit_solver(step_dt):
        lus = [[splu((sp.identity(M, format="csr") - 0.5 * step_dt * sp.diags(a2d[:, j]) @ lap)
                     .tocsc()) for j in range(R)] for lap in laps]

        def solve(rhs):
            rhs2d = rhs.reshape(M, R)
            for factor in lus:
                for j, lu in enumerate(factor):
                    rhs2d[:, j] = lu.solve(rhs2d[:, j])
            return rhs

        return solve

    return implicit_solver


def _splu_adi_solver(a_vals, m0, h, spare):
    """Reference: Douglas's factors by sparse LU, with the signature of _splu_slab_solver.

    The first factor spans the first diffused axis a varies along and the
    diffused axes it does not; each later one, one more axis a varies along.
    """
    lines = [ax for ax in range(m0) if np.shape(a_vals)[ax] > 1]
    factors = [[ax for ax in range(m0) if ax not in lines[1:]]] + [[ax] for ax in lines[1:]]
    return _splu_slab_solver(a_vals, m0, h, spare, factors)


def _slab_factors(a_vals, m0, h, shape):
    """solve(step_dt, rhs): the slab step's factors T_m ... T_1 on step_dt rhs, in grid values.

    One step of solver._slab_steps from a zero state is u' = S T_m ... T_1 S
    (step_dt rhs), S the DST-I matrix along the diffused axes a does not vary
    along, so the step's own sine transforms wrap its factors.  One step
    builder serves every call; each call builds the factors of its step_dt
    and returns the step's grid-values buffer.
    """
    u, state, spare = (np.zeros(shape) for _ in range(3))
    step = solver._slab_steps(a_vals, m0, h, u, state, spare)

    def solve(step_dt, rhs):
        state.fill(0.0)
        step(step_dt)(rhs)
        return u

    return solve


@pytest.mark.parametrize("n, m0, line, other", [
    (2, 1, 0, None),  # m0 = 1: the sweep alone
    (3, 2, 0, None),  # l the first diffused axis
    (3, 2, 1, None),  # l the last
    (4, 3, 1, None),  # l a middle one
    (4, 3, 2, 3),     # l the last, and a varies along a non-diffused axis too
    (3, 2, 0, 2),     # l the first, coefficients differ per column
])
def test_sine_tridiagonal_step_equals_sparse_lu(n, m0, line, other):
    N, h = 6, 0.37
    rng = np.random.default_rng(10 * n + line)
    shape = [N if ax in (line, other) else 1 for ax in range(n)]
    a_vals = 0.6 + rng.random(shape)
    tridiagonal = _slab_factors(a_vals, m0, h, (N,) * n)
    reference = _splu_slab_solver(a_vals, m0, h, np.empty((N,) * n))
    # a second step size, then the first again: the factors belong to one step size each
    for step_dt in (0.05, 0.5, 0.05):
        rhs = rng.standard_normal((N,) * n)
        want = reference(step_dt)(step_dt * rhs)
        got = tridiagonal(step_dt, rhs)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), step_dt


def test_kolmogorov_general_sine_tridiagonal_snapshots_equal_the_sparse_lu_route():
    spec = load_builtin("kolmogorov-general")
    grid = spec.default_grid(N=8)
    # uniform snapshots, and uneven ones whose gaps take three different steps
    for times in (np.linspace(0.0, spec.T, 9), spec.T * np.array([0.0, 0.1, 0.25, 0.5])):
        sol = solve_fd(spec, grid, times=times)
        assert sol.diagnostics["slab_solver"] == "sine-tridiagonal"
        ref = _grid_loop_reference(sol, spec, _splu_slab_solver)
        for got, want in zip(sol.fields.values, ref, strict=True):
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("n, m0, axes", [
    (2, 2, (0, 1)),        # a along both diffused axes: no sine axis, one operator for every column
    (3, 2, (0, 1, 2)),     # and along the non-diffused axis: factors per column
    (4, 3, (0, 2)),        # a sine axis between two swept ones, folded into the first factor
    (4, 3, (0, 1, 2, 3)),  # three sweeps
])
def test_sine_adi_step_equals_sparse_lu(n, m0, axes):
    N, h = 6, 0.37
    rng = np.random.default_rng(10 * n + len(axes))
    a_vals = 0.5 + 1.5 * rng.random([N if ax in axes else 1 for ax in range(n)])
    adi = _slab_factors(a_vals, m0, h, (N,) * n)
    reference = _splu_adi_solver(a_vals, m0, h, np.empty((N,) * n))
    # a second step size, then the first again: the factors belong to one step size each
    for step_dt in (0.05, 0.5, 0.05):
        rhs = rng.standard_normal((N,) * n)
        want = reference(step_dt)(step_dt * rhs)
        got = adi(step_dt, rhs)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), step_dt


def _sine_division_solver(a_vals, m0, h, spare):
    """Reference: the Crank-Nicolson slab solve when a is constant along every diffused axis.

    With the signature of _splu_slab_solver: the DST-I matrix S, formed
    here, along each diffused axis, a division by 1 - dt a lam / 2, lam the
    3-point Laplacian's eigenvalues, and S back, written into rhs's buffer.
    """
    n, N = spare.ndim, spare.shape[0]
    k = np.arange(1, N + 1)
    S = np.sqrt(2.0 / (N + 1)) * np.sin(np.pi * np.outer(k, k) / (N + 1))
    mu = -(4.0 / (h * h)) * np.sin(np.pi * k / (2.0 * (N + 1))) ** 2
    lam = sum(mu.reshape([N if a == ax else 1 for a in range(n)]) for ax in range(m0))

    def transform(x):
        for ax in range(m0):
            x = np.moveaxis(np.tensordot(S, x, axes=(1, ax)), 0, ax)
        return x

    def implicit_solver(step_dt):
        denominator = 1.0 - 0.5 * step_dt * a_vals * lam

        def solve(rhs):
            rhs[...] = transform(transform(rhs) / denominator)
            return rhs

        return solve

    return implicit_solver


def _grid_loop_reference(sol, spec, slab_solver, strict=False):
    """Reference: the FD step loop on grid values, replaying sol's times and dt.

    Each step forms dt (a lap u + E(u)) with the sparse slab Laplacian
    (_subgrid_laplacian), solves it with slab_solver(a_vals, m0, h,
    spare)(step_dt) and adds the result to u (Douglas's delta form).  Returns
    the grid values at sol's snapshot times.
    """
    grid, m0 = sol.grid, spec.m0
    h = grid.spacing
    lap = _subgrid_laplacian(grid.N, m0, h)
    columns = (grid.N**m0, grid.N ** (grid.n - m0))
    a_vals = spec.a.evaluate(grid)
    b0 = None if spec.b0.is_zero else spec.b0.evaluate(grid)
    g = None if spec.g.is_zero else spec.g.evaluate(grid)
    plan = _upwind.transport_plan(_transport_speeds(spec, grid), b0, h, grid.shape)
    spare, u4, rate = (np.empty(grid.shape) for _ in range(3))
    implicit_solver = slab_solver(a_vals, m0, h, spare)
    u = np.array(np.broadcast_to(spec.u0.evaluate(grid), grid.shape), dtype=float)
    values = []
    for steps, step_dt in _snapshot_segments(sol.times, sol.diagnostics["dt"], spec.T, strict)[1]:
        solve = implicit_solver(step_dt) if steps else None
        for _ in range(steps):
            rhs = (lap @ u.reshape(columns)).reshape(grid.shape)
            rhs *= a_vals
            _upwind.apply_transport(plan, u, u4, spare, rate)
            if g is not None:
                rate += g
            rhs += rate
            rhs *= step_dt
            u += solve(rhs)
        values.append(u.copy())
    return values


def test_dst_coordinate_steps_equal_the_grid_loop():
    # every route keeps its state in DST coordinates: the same steps as the
    # grid loop up to round-off; on the sine route over 64 steps
    for name, N in (("fokkerplanck", 6), ("brownian-inertia", 32), ("kolmogorov2d", 16)):
        spec = load_builtin(name)
        sol = solve_fd(spec, spec.default_grid(N=N))
        assert sol.diagnostics["slab_solver"] == "sine" and sol.diagnostics["steps"] >= 64
        want = _grid_loop_reference(sol, spec, _sine_division_solver)
        for got, ref in zip(sol.fields.values, want, strict=True):
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref), name
    # the swept routes: the same steps as Crank-Nicolson, and as Douglas's
    # factors, by sparse LU, up to round-off
    spec = load_builtin("kolmogorov-general")
    sol = solve_fd(spec, spec.default_grid(N=8))
    assert sol.diagnostics["slab_solver"] == "sine-tridiagonal"
    want = _grid_loop_reference(sol, spec, _splu_slab_solver)
    for got, ref in zip(sol.fields.values, want, strict=True):
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
    base = load_builtin("fokkerplanck")
    spec = dataclasses.replace(base, a=_SpanningConstant(1.0, axes=(0, 1, base.n - 1)))
    dt = 0.25 / 64
    sol = solve_fd(spec, spec.default_grid(N=6), dt=dt, times=[0.0, 4 * dt, 8 * dt])
    assert sol.diagnostics["slab_solver"] == "sine-adi"
    lu = _grid_loop_reference(sol, spec, _splu_adi_solver, strict=True)
    for got, ref in zip(sol.fields.values, lu, strict=True):
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


def test_step_sizes_a_b_a_reuse_one_advance_each(monkeypatch):
    # snapshot gaps taken with steps A, B and then A again: solve_fd builds
    # one advance per distinct step size, and the third gap, on the first
    # gap's advance, matches a grid loop that builds a fresh solver per gap
    built = []

    def counted(step):
        def wrapped(step_dt):
            built.append(step_dt)
            return step(step_dt)
        return wrapped

    slab_steps = solver._slab_steps
    monkeypatch.setattr(solver, "_slab_steps", lambda *args: counted(slab_steps(*args)))
    base = load_builtin("fokkerplanck")
    cases = [(base, 6, "sine", _sine_division_solver),
             (load_builtin("kolmogorov-general"), 8, "sine-tridiagonal", _splu_slab_solver),
             (dataclasses.replace(base, a=_SpanningConstant(1.0, axes=(0, 1, base.n - 1))), 6,
              "sine-adi", _splu_adi_solver)]
    for spec, N, slab_solver, reference in cases:
        # dyadic gaps T/32, 3T/128, T/32: the first and last are equal to the bit
        times = spec.T * np.array([0.0, 1 / 32, 1 / 32 + 3 / 128, 2 / 32 + 3 / 128])
        built.clear()
        sol = solve_fd(spec, spec.default_grid(N=N), times=times)
        assert sol.diagnostics["slab_solver"] == slab_solver
        steps = [step_dt for n_steps, step_dt in _snapshot_segments(
            times, sol.diagnostics["dt"], spec.T, False)[1] if n_steps]
        assert len(steps) == 3 and steps[0] == steps[2] != steps[1], slab_solver
        assert built == steps[:2], slab_solver
        want = _grid_loop_reference(sol, spec, reference)
        for got, ref in zip(sol.fields.values, want, strict=True):
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref), slab_solver


@pytest.mark.parametrize("a, sweeps", [
    (ConstantPreset(1.0), []),
    (SinPerturbPreset(axis=0, amplitude=0.25), [0]),
    (GaussianPreset(width=10.0), [0, 1]),
], ids=["sine", "sine-tridiagonal", "sine-adi"])
def test_slab_steps_are_second_order_and_stable_at_a_step_of_t(a, sweeps):
    # the B = 0 two-axis spec that tests/test_cli.py writes (_two_diffused_axes_spec),
    # whose a = exp(-|x|^2 / 200) varies along both diffused axes, and the same
    # spec with a constant and with a varying along axis 0 alone.  Thresholds:
    # an observed order of at least 1.8 against a fine-dt Crank-Nicolson
    # reference by sparse LU, and one step of dt = T finite with no growth in l2
    spec = dataclasses.replace(load_builtin("heat"), T=0.5, Lambda=2.0,
                               a=a, u0=GaussianPreset(width=0.5))
    grid, T = TorusGrid(2, 16, 2.0), 0.5
    fine = solve_fd(spec, grid, dt=T / 512, times=[0.0, T])
    assert fine.diagnostics["slab_solver"] == ("sine", "sine-tridiagonal", "sine-adi")[len(sweeps)]
    assert fine.diagnostics["slab_sweeps"] == sweeps
    ref = _grid_loop_reference(fine, spec, _splu_slab_solver, strict=True)[-1]
    errors = [np.linalg.norm(solve_fd(spec, grid, dt=T / k, times=[0.0, T]).fields.values[-1]
                             - ref) / np.linalg.norm(ref) for k in (4, 8, 16)]
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 1.8), (errors, orders)
    start, end = solve_fd(spec, grid, dt=T, times=[0.0, T]).fields.values
    assert np.all(np.isfinite(end))
    assert np.linalg.norm(end) <= np.linalg.norm(start)


@pytest.mark.parametrize("name, N, slab_solver", [
    ("fokkerplanck", 8, "sine"),
    ("kolmogorov-general", 20, "sine-tridiagonal"),
    ("fokkerplanck", 8, "sine-adi"),  # a varies along two diffused axes
])
def test_fd_steps_allocate_no_full_grid(name, N, slab_solver, monkeypatch):
    spec = load_builtin(name)
    if slab_solver == "sine-adi":
        spec = dataclasses.replace(spec, a=_TwoAxisCoefficient())
    grid = spec.default_grid(N=N)
    array = 8 * grid.N**grid.n
    end = 2 * solve_fd(spec, grid, times=[0.0, spec.T / 64]).diagnostics["dt"]  # the default dt
    # 2 and then 16 steps to the same snapshots: a step that kept a full
    # grid array would raise the peak with the step count
    peaks = {}
    for steps in (2, 16):
        sol = solve_fd(spec, grid, dt=end / steps, times=[0.0, end])  # warm any first-call cache
        assert sol.diagnostics["slab_solver"] == slab_solver
        assert sol.diagnostics["steps"] == steps
        peaks[steps] = _traced_peak(lambda: solve_fd(spec, grid, dt=end / steps, times=[0.0, end]))
    assert abs(peaks[16] - peaks[2]) < array, peaks
    # one that formed and freed one would not, so each step is also traced
    # alone, from one explicit transport to the next: its peak stays within
    # half an array of the memory held when it began (NumPy's buffered loops
    # take a few 64 KiB buffers, about 0.1 array on these grids)
    transport, marks = _upwind.apply_transport, []

    def marked(*args):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return transport(*args)

    monkeypatch.setattr(_upwind, "apply_transport", marked)
    _traced_peak(lambda: solve_fd(spec, grid, dt=end / 16, times=[0.0, end]))
    rises = [peak - held for (held, _), (_, peak) in zip(marks, marks[1:])]
    assert len(rises) == 15 and max(rises) < array / 2, rises


def _matrix_derivatives(grid, u, ax):
    """The residual's first (with its Nyquist term) and second derivative of u along ax."""
    D1, D2, nyquist = solver._derivative_matrices(grid)
    line = tuple(1 if a == ax else grid.N for a in range(grid.n))
    sums = solver._apply_along(nyquist, u, ax, np.empty(line, dtype=u.dtype))
    alternating = solver._along((-1.0) ** np.arange(grid.N), ax, grid.n)
    first = solver._apply_along(D1, u, ax, np.empty_like(u))
    return first, sums * alternating, solver._apply_along(D2, u, ax, np.empty_like(u))


def _assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("N, n", [(4, 6), (6, 6), (8, 6), (20, 4), (64, 3)])
def test_derivative_matrices_equal_the_fft_pairs(N, n):
    grid = TorusGrid(n, N, 0.7)
    rng = np.random.default_rng(N + n)
    u = rng.standard_normal(grid.shape)
    v = u + 1j * rng.standard_normal(grid.shape)
    for ax in range(n):
        xi = grid.frequency(ax)
        half = np.take(xi, np.arange(N // 2 + 1), axis=ax)  # ends at the Nyquist mode -N/2
        # a real field: the rfft/irfft pairs, and the complex pair's Nyquist
        # term, which irfft drops, as the imaginary part
        first, nyquist, second = _matrix_derivatives(grid, u, ax)
        _assert_close(first, np.fft.irfft(1j * half * np.fft.rfft(u, axis=ax), n=N, axis=ax))
        _assert_close(second, np.fft.irfft(-half**2 * np.fft.rfft(u, axis=ax), n=N, axis=ax))
        _assert_close(first + 1j * nyquist, np.fft.ifft(1j * xi * np.fft.fft(u, axis=ax), axis=ax))
        # a complex field: the complex pairs
        first, nyquist, second = _matrix_derivatives(grid, v, ax)
        _assert_close(first + 1j * nyquist, np.fft.ifft(1j * xi * np.fft.fft(v, axis=ax), axis=ax))
        _assert_close(second, np.fft.ifft(-xi**2 * np.fft.fft(v, axis=ax), axis=ax))


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
    assert sol.diagnostics["slab_solver"] == "sine"
    assert np.all(np.isfinite(hs_series(sol, spec.s)))
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


def _full_grid_speeds(spec, grid):
    """Reference: each nonzero transport speed as a full N**n array."""
    coords = [grid.coordinate(k) for k in range(grid.n)]
    for j, w in enumerate(_full_grid_row_combinations(spec.B_float().T, coords, range(grid.n))):
        if j < spec.m0 and not spec.b[j].is_zero:
            w = w + spec.b[j].evaluate(grid)
        if np.any(w):
            yield j, w


def _residual_reference(solution, spec):
    """Reference: the per-term residual loop, one full n-D inverse FFT per term."""
    times = solution.times
    dt = float(times[1] - times[0])
    grid = solution.grid
    a_vals = spec.a.evaluate(grid)
    coeff_stack = [f.coeffs for f in solution.fields]
    values = []
    for i in range(2, len(times) - 2):
        dt_coeffs = (
            coeff_stack[i - 2] - 8.0 * coeff_stack[i - 1]
            + 8.0 * coeff_stack[i + 1] - coeff_stack[i + 2]
        ) / (12.0 * dt)
        residual = SpectralField(grid, dt_coeffs).grid_values()
        u = solution.fields[i]
        for j, w in _full_grid_speeds(spec, grid):
            grad = partial_derivative(u, tuple(int(k == j) for k in range(grid.n))).grid_values()
            residual = residual + w * grad
        if not spec.b0.is_zero:
            residual = residual + spec.b0.evaluate(grid) * u.grid_values()
        for ax in range(spec.m0):
            alpha = tuple(2 * int(j == ax) for j in range(grid.n))
            residual = residual - a_vals * partial_derivative(u, alpha).grid_values()
        if not spec.g.is_zero:
            residual = residual - spec.g.evaluate(grid)
        values.append(float(np.sqrt(np.mean(np.abs(residual) ** 2))) / (hs_norm(u, 2.0) + 1.0))
    return np.array(values)


def _gaussian_solution(spec, grid, t, steps=1000):
    """Reference: the closed-form solution on R^n at time t, sampled on the grid.

    For u_t + (M x + c).grad u + b0 u - a lap_P u = 0 with constant a and b0
    and Gaussian data of width w about m0, M the drift's transpose B^T plus
    the slopes of linear b and c the constant parts of b, the solution
    (Kolmogorov, Ann. of Math. 35, 1934) is the Gaussian

        e^{-(b0 - tr M) t} sqrt(det Sigma0 / det Sigma) exp(-(x - m)^T Sigma^{-1} (x - m) / 2),

    Sigma' = M Sigma + Sigma M^T + 2 a P (P the projection onto the diffused
    axes), Sigma0 = w^2 I, and m' = M m + c: RK4 with `steps` steps on both.
    """
    n = spec.n
    M = spec.B_float().T
    c = np.zeros(n)
    for j, b in enumerate(spec.b):
        if isinstance(b, LinearPreset):
            M[j, b.axis] += b.slope
            c[j] += b.intercept
        else:
            c[j] += b.value
    diffusion = np.diag([2.0 * spec.a.value * (j < spec.m0) for j in range(n)])
    sigma0 = spec.u0.width**2 * np.eye(n)

    def rate(state):
        sigma, m = state
        return M @ sigma + sigma @ M.T + diffusion, M @ m + c

    state = (sigma0, np.array(spec.u0.center or (0.0,) * n, dtype=float))
    dt = t / steps
    for _ in range(steps):
        k1 = rate(state)
        k2 = rate([x + 0.5 * dt * k for x, k in zip(state, k1)])
        k3 = rate([x + 0.5 * dt * k for x, k in zip(state, k2)])
        k4 = rate([x + dt * k for x, k in zip(state, k3)])
        state = [x + dt / 6.0 * (p + 2.0 * q + 2.0 * r + s)
                 for x, p, q, r, s in zip(state, k1, k2, k3, k4)]
    sigma, m = state
    inverse = np.linalg.inv(sigma)
    offsets = [grid.coordinate(ax) - m[ax] for ax in range(n)]
    form = np.zeros(grid.shape)
    for i in range(n):
        for k in range(n):
            form += inverse[i, k] * offsets[i] * offsets[k]
    scale = np.exp(-(spec.b0.value - np.trace(M)) * t)
    scale *= np.sqrt(np.linalg.det(sigma0) / np.linalg.det(sigma))
    return scale * np.exp(-0.5 * form)


def test_gaussian_reference_matches_the_exact_route():
    # the closed form against the characteristics solution, which it must
    # match up to the periodic box's truncation of the Gaussian's tails
    spec = load_builtin("kolmogorov2d")
    grid = spec.default_grid(N=64)
    final = solve_exact(spec, grid, times=[0.0, spec.T]).final.grid_values()
    want = _gaussian_solution(spec, grid, spec.T)
    assert np.linalg.norm(final - want) <= 1e-6 * np.linalg.norm(want)


@pytest.mark.parametrize("name, N, kernel, bound", [
    ("fokkerplanck", 8, "matrices", 0.105),  # 10.0 % at the re-anchor
    ("brownian-inertia", 64, "stencil", 0.071),  # 6.6 %
    ("kolmogorov2d", 64, "stencil", 0.117),  # 11.2 %, an exact-route spec through solve_fd
])
def test_fd_route_against_the_gaussian_closed_form(name, N, kernel, bound):
    # each transport kernel against the PDE: the final snapshot's relative l2
    # error at the default dt, pinned at the re-anchor's value plus 0.5 points;
    # the Dirichlet box cuts no more than a sliver of the solution
    spec = load_builtin(name)
    sol = solve_fd(spec, spec.default_grid(N=N))
    assert sol.diagnostics["transport"] == kernel
    assert sol.diagnostics["boundary_fraction"].max() < 1e-2
    want = _gaussian_solution(spec, sol.grid, float(sol.times[-1]))
    error = np.linalg.norm(sol.fields.values[-1] - want) / np.linalg.norm(want)
    assert error <= bound, error


def _assert_residual_matches_reference(solution, spec):
    # The per-axis transforms round differently from the per-term n-D ones.
    # The residual is normalised by ||u||_{H^2} + 1 >= 1 and is a difference
    # of terms of about that size, so an absolute 1e-16 is below one ulp of
    # the normaliser: a residual near round-off level agrees to that, every
    # other residual to 1e-13 relative.
    got = residual_series(solution, spec).values
    want = _residual_reference(solution, spec)
    assert np.all(want > 0.0)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-16)


@pytest.mark.parametrize("name", builtin_spec_names())
def test_residual_matches_per_term_reference_on_both_routes(name):
    spec = load_builtin(name)
    grid = spec.default_grid(N=8)
    times = np.linspace(0.0, spec.T, 9)
    solutions = [solve_auto(spec, grid, times=times)]
    if solutions[0].method == "exact":
        solutions.append(solve_fd(spec, grid, times=times))
    for sol in solutions:
        _assert_residual_matches_reference(sol, spec)


def test_residual_matches_per_term_reference_with_every_lower_order_term():
    # variable a, linear b on both diffused axes, non-constant b0 and g
    base = load_builtin("kolmogorov-general")
    spec = dataclasses.replace(
        base, name="every-term",
        a=SinPerturbPreset(axis=1, amplitude=0.2),
        b=(LinearPreset(axis=0, slope=-0.5, intercept=0.1),
           LinearPreset(axis=2, slope=0.3, intercept=-0.2)),
        b0=SinPerturbPreset(axis=3, amplitude=0.4, base=0.5),
        g=GaussianPreset(width=0.9))
    grid = spec.default_grid(N=8)
    sol = solve_fd(spec, grid, times=np.linspace(0.0, spec.T, 9))
    assert sol.diagnostics["slab_solver"] == "sine-tridiagonal"
    _assert_residual_matches_reference(sol, spec)


def test_compact_transport_speeds_equal_the_full_grid_speeds():
    # fokkerplanck: every speed varies along one axis (a drift column or b_j)
    spec = load_builtin("fokkerplanck")
    grid = spec.default_grid(N=6)
    speeds = _transport_speeds(spec, grid)
    reference = dict(_full_grid_speeds(spec, grid))
    assert sorted(speeds) == sorted(reference) == list(range(6))
    for j, w in speeds.items():
        assert w.ndim == grid.n and w.size == grid.N  # one axis, not N**n points
        assert np.array_equal(np.broadcast_to(w, grid.shape), reference[j])


@pytest.mark.parametrize("n, m0, s", [(1, 1, 1.0), (2, 2, -1.0), (3, 1, 0.5), (4, 2, 1.0)])
def test_snapshot_norms_equal_the_per_axis_derivative_norms(n, m0, s):
    # one slab pass against one hs_norm per derivative, also with one axis
    # (a slab of one value) and with every axis diffused
    grid = TorusGrid(n, 8, L=1.3)
    f = random_band_limited(grid, np.random.default_rng(n), decay=1.0)
    dissipation = sum(hs_norm(partial_derivative(f, tuple(int(j == k) for j in range(n))), s) ** 2
                      for k in range(m0))
    want = (hs_norm(f, s) ** 2, dissipation, hs_norm(f, 2.0) ** 2)
    np.testing.assert_allclose(snapshot_norms(f, s, m0), want, rtol=1e-13, atol=0.0)


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


def _energy_reference(solution, spec):
    """Reference: the per-axis energy, one derivative field and hs_norm per axis and snapshot."""
    s = float(spec.s)
    norms_sq = hs_series(solution, s) ** 2
    dissipation = np.zeros(len(solution.times))
    for ax in range(spec.m0):
        alpha = tuple(int(j == ax) for j in range(solution.grid.n))
        dissipation = dissipation + np.array(
            [hs_norm(partial_derivative(f, alpha), s) ** 2 for f in solution.fields])
    integral = np.concatenate([[0.0], np.cumsum(
        0.5 * (dissipation[1:] + dissipation[:-1]) * np.diff(solution.times))])
    return norms_sq + integral / float(spec.Lambda)


@pytest.mark.parametrize("name", builtin_spec_names())
def test_one_pass_energy_equals_the_per_axis_derivative_form_on_both_routes(name):
    spec = load_builtin(name)
    grid = spec.default_grid(N=8)
    times = np.linspace(0.0, spec.T, 9)
    solutions = [solve_auto(spec, grid, times=times)]
    if solutions[0].method == "exact":
        solutions.append(solve_fd(spec, grid, times=times))
    for sol in solutions:
        want = _energy_reference(sol, spec)
        assert np.all(want > 0.0)
        np.testing.assert_allclose(energy_check(sol, spec).energy, want, rtol=1e-13, atol=0.0)


def test_fd_snapshots_are_real_grid_values_with_spectra_formed_on_read():
    spec = load_builtin("fokkerplanck")
    grid = spec.default_grid(N=8)
    times = np.linspace(0.0, spec.T, 9)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sol = solve_fd(spec, grid, times=times)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # one float64 array per snapshot (complex spectra would take twice that)
    # plus slack for the diagnostics and the container
    assert retained <= len(times) * grid.N**grid.n * 8 + 2**16
    values = sol.fields.values
    assert len(values) == len(sol) and all(v.dtype == np.float64 for v in values)
    for i, v in enumerate(values):
        want = SpectralField.from_grid_values(grid, v).coeffs
        assert np.array_equal(sol.fields[i].coeffs, want)  # same fftn: bit for bit
        assert sol.fields[i] is not sol.fields[i]  # formed on each read, not kept
    assert np.array_equal(sol.final.coeffs, sol.fields[len(sol) - 1].coeffs)
    # spectra() forms the same bits, every one in the first one's buffer
    first = None
    for i, field in enumerate(sol.fields.spectra()):
        first = field.coeffs if first is None else first
        assert np.shares_memory(field.coeffs, first)
        assert np.array_equal(field.coeffs, sol.fields[i].coeffs)
    assert i == len(sol) - 1


def test_exact_route_spectra_are_its_kept_fields():
    spec = load_builtin("kolmogorov2d")
    sol = solve_exact(spec, spec.default_grid(N=8), times=np.linspace(0.0, spec.T, 5))
    assert all(field is sol.fields[i] for i, field in enumerate(sol.fields.spectra()))


def test_fd_final_record_keeps_the_final_state_without_a_copy():
    spec = load_builtin("fokkerplanck")
    grid = spec.default_grid(N=8)
    array = 8 * grid.N**grid.n
    # with five or more snapshots the step loop, not the setup, sets the peak
    for times in (np.linspace(0.0, spec.T, 5), np.linspace(0.0, spec.T, 9)):
        solve_fd(spec, grid, times=times)  # warm the caches
        tracemalloc.start()
        try:
            sol = solve_fd(spec, grid, times=times)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained >= len(times) * array
        # the step loop holds u, the state and two buffers (the matrices
        # kernel needs no 4u), 4 arrays, on top of the earlier snapshots; u
        # becomes the last snapshot.  A copy of it would add a fifth, still
        # within this bound, so
        # test_fd_solve_holds_three_grid_arrays_beyond_its_snapshots pins
        # the tight figure
        assert peak - retained <= 4 * array + array // 4


def _traced_peak(fn):
    """Peak traced memory of fn(), in bytes, counted from the call's start."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fd_solve_holds_three_grid_arrays_beyond_its_snapshots():
    # kolmogorov-general at N = 20 (the matrices kernel, one Thomas sweep):
    # the step loop holds u, which becomes the last snapshot, the state and
    # two step buffers, so 3 arrays beyond the snapshots, plus the sweep's
    # slice and factors (0.2).  A buffer of its own for the face terms of
    # a L would make it 4.2.  With two snapshots the set-up holds as much:
    # the three work arrays, the evaluated Gaussian u0 and u, 3 arrays
    # beyond the snapshots while the Gaussian is formed in one array (4.1
    # with three temporaries)
    spec = load_builtin("kolmogorov-general")
    grid = spec.default_grid(N=20)
    array = 8 * grid.N**grid.n
    for times in (np.linspace(0.0, spec.T, 9), [0.0, spec.T]):
        solve_fd(spec, grid, times=times)  # warm the caches
        peak = _traced_peak(lambda: solve_fd(spec, grid, times=times))
        assert peak <= (len(times) + 3.3) * array, (len(times), peak / array - len(times))


def test_exact_route_forms_each_field_in_one_copy():
    # lp-block at N = 12: walking the spectra keeps every field, 2 float64
    # arrays each.  Forming one holds its ledger's coefficients (2) and the
    # copy that is resampled in place and kept, with one axis's phases and
    # the transforms' line buffers: 2.9 arrays above what the walk keeps;
    # a fresh output per transform would make it 6.0
    spec = load_builtin("lp-block")
    grid = spec.default_grid(N=12)
    array = 8 * grid.N**grid.n
    times = np.linspace(spec.T / 100, spec.T, 9)

    def walk():
        sol = solve_exact(spec, grid, times=times)
        for _ in sol.fields.spectra():
            pass
        return sol

    walk()  # warm the transform caches
    tracemalloc.start()
    try:
        sol = walk()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sol.method == "exact" and kept >= 2 * len(times) * array
    assert peak - kept <= 3.25 * array, (peak - kept) / array


def test_fd_upf_write_holds_one_complex_spectrum(tmp_path):
    spec = load_builtin("fokkerplanck")
    grid = spec.default_grid(N=8)
    sol = solve_fd(spec, grid, times=np.linspace(0.0, spec.T, 5))
    array = 8 * grid.N**grid.n
    path = tmp_path / "u.upf"
    field = sol.fields[2]  # the spectrum formed on read: 2 float64 arrays
    # written from the spectrum's own buffer; a copy (tobytes) would add 2 arrays
    assert _traced_peak(lambda: write_field(path, field)) <= 0.1 * array
    assert path.stat().st_size == 18 + 2 * array
    assert np.array_equal(read_field(path).coeffs, sol.fields[2].coeffs)


# snapshot_norms on fokkerplanck at N = 8 holds five arrays of one slab
# (8**5 values, 5/8 of a grid array): its three blocks, one slab each as a
# slab exceeds _norms._BLOCK, and |xi|^2 over the other axes and its
# diffused part
_NORMS_SLABS = 5 * 8 * 8**5


def test_fd_snapshot_read_norms_and_write_stay_within_one_spectrum_transform(tmp_path):
    # what the CLI's solve stage does per snapshot: one fftn, its norms, its .upf
    spec = load_builtin("fokkerplanck")
    grid = spec.default_grid(N=8)
    sol = solve_fd(spec, grid, times=np.linspace(0.0, spec.T, 5))
    array = 8 * grid.N**grid.n
    path = tmp_path / "u.upf"

    def read_norms_write():
        field = sol.fields[2]
        snapshot_norms(field, float(spec.s), spec.m0)
        write_field(path, field)

    read_norms_write()  # warm the transform caches
    # SpectralField.from_grid_values holds its complex result alone, 2 arrays,
    # transformed in place; the norms' slab-size arrays come on top of it
    assert _traced_peak(read_norms_write) <= 2 * array + _NORMS_SLABS + 2**16


def test_solve_stage_allocates_no_grid_array_per_snapshot_after_the_first(tmp_path, monkeypatch):
    # the CLI solve stage's write loop on the FD route, traced from its first
    # .upf write on: each later spectrum is formed in the first one's buffer
    array = 8 * 8**6
    first, peaks = [], []

    def traced_write(path, field):
        if not first:
            first.append(field.coeffs)  # kept: a fresh buffer could not take its place
            tracemalloc.start()
        else:
            peaks.append(tracemalloc.get_traced_memory()[1])
            assert np.shares_memory(field.coeffs, first[0])
        write_field(path, field)

    monkeypatch.setattr(cli, "write_field", traced_write)
    try:
        assert cli.main(["solve", "--spec", "fokkerplanck", "--grid", "8", "--tgrid", "9",
                         "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    finally:
        tracemalloc.stop()
    assert len(peaks) == 8
    # only the norms' slab-size arrays come and go
    assert max(peaks) <= _NORMS_SLABS + 2**16 < array


def test_fd_residual_series_transients_stay_within_the_memory_guard():
    spec = load_builtin("fokkerplanck")
    grid = spec.default_grid(N=8)
    sol = solve_fd(spec, grid, times=np.linspace(0.0, spec.T, 5))
    residual_series(sol, spec)  # warm the transform caches
    # solver._FD_STAGE_ARRAYS counts 5 float64 grid arrays for residual_series
    assert _traced_peak(lambda: residual_series(sol, spec)) <= 5 * 8 * grid.N**grid.n


def test_fd_memory_guard_refuses_before_allocating_and_names_an_n_that_fits(monkeypatch, tmp_path):
    spec = load_builtin("fokkerplanck")
    grid = spec.default_grid(N=8)
    times = np.linspace(0.0, spec.T, 9)
    # 9 snapshots + 12 work and transient arrays of 8**6 float64 = 44.0 MB; 6**6 ones take 7.8 MB
    monkeypatch.setattr(solver, "_physical_memory", lambda: 10e6)
    tracemalloc.start()
    try:
        with pytest.raises(SolverError, match=r"retry with N <= 6\b"):
            solve_fd(spec, grid, times=times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.N**grid.n  # refused before one grid array was allocated
    assert solve_fd(spec, spec.default_grid(N=6), times=times).diagnostics["steps"] > 0
    monkeypatch.setattr(solver, "_physical_memory", lambda: 1e3)
    with pytest.raises(SolverError, match="no grid fits"):
        solve_fd(spec, grid, times=times)
    out = tmp_path / "out"
    code = cli.main(["solve", "--spec", "fokkerplanck", "--grid", "8", "--tgrid", "9",
                     "--out", str(out)])
    assert code == cli.EXIT_NUMERICAL and not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--spec", "kolmogorov2d", "--grid", "100000"],
    ["smoothing", "--spec", "kolmogorov2d", "--grid", "100000"],
    ["solve", "--spec", "chain3", "--grid", "2000"],
], ids=["solve-kolmogorov2d", "smoothing-kolmogorov2d", "solve-chain3"])
def test_exact_memory_guard_refuses_an_oversized_grid_at_exit_3(argv, monkeypatch, tmp_path, capsys):
    # 74.5 GiB for one float64 array of 100000^2 points, 59.6 GiB for 2000^3;
    # physical memory is capped at 1 TiB, so no machine gets to allocate them
    physical = solver._physical_memory
    monkeypatch.setattr(solver, "_physical_memory", lambda: min(physical(), 2.0**40))
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = cli.main(argv + ["--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == cli.EXIT_NUMERICAL and not out.exists()
    assert re.search(r"the exact route needs about .* retry with N <= \d+$", err.strip()), err
    assert "Traceback" not in err and peak < 2**26  # refused before a grid array was formed


def test_exact_memory_guard_names_an_n_that_then_runs(monkeypatch, tmp_path, capsys):
    spec = load_builtin("kolmogorov2d")
    times = np.linspace(0.0, spec.T, 9)
    # 9 complex snapshots + 20 work and transient arrays of 64**2 float64 = 1.25 MB;
    # 56**2 ones take 0.95 MB
    monkeypatch.setattr(solver, "_physical_memory", lambda: 1e6)
    tracemalloc.start()
    try:
        with pytest.raises(SolverError, match=r"^the exact route .* retry with N <= 56$"):
            solve_exact(spec, TorusGrid(2, 64, 4.0), times=times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 64**2  # refused before one grid array was allocated
    argv = ["solve", "--spec", "kolmogorov2d", "--tgrid", "9", "--out", str(tmp_path / "out")]
    assert cli.main(argv + ["--grid", "64"]) == cli.EXIT_NUMERICAL
    assert "retry with N <= 56" in capsys.readouterr().err
    assert cli.main(argv + ["--grid", "56"]) == cli.EXIT_OK
    monkeypatch.setattr(solver, "_physical_memory", lambda: 1e3)
    with pytest.raises(SolverError, match="no grid fits"):
        solve_exact(spec, TorusGrid(2, 64, 4.0), times=times)


def test_fd_memory_guard_counts_the_transport_matrices(monkeypatch):
    counted = []
    guard = solver._require_memory

    def spy(snapshots, n, N, solver_axes=()):
        counted.append(sorted(solver_axes))
        return guard(snapshots, n, N, solver_axes)

    monkeypatch.setattr(solver, "_require_memory", spy)
    for name, axes in (("fokkerplanck", [0, 2, 2, 2, 3, 3, 3, 3, 3]),
                       ("brownian-inertia", [0, 1, 1])):
        spec = load_builtin(name)
        sol = solve_fd(spec, spec.default_grid(N=6), times=[0.0, spec.T / 64])
        # the sine route's pivots and diagonal of a L on the diffused axes, and
        # a / h^2, one value for a constant a; on fokkerplanck the matrices
        # too: one N x N along each diffused axis (b_j = -x_j) and a stack over
        # x_j along each x_{j+3}, whose speed is x_j
        assert counted.pop() == axes, name
        assert sol.diagnostics["transport"] == ("matrices" if name == "fokkerplanck" else "stencil")


def test_fd_memory_guard_counts_the_sine_adi_sweep_arrays(monkeypatch):
    base = load_builtin("fokkerplanck")
    spec = dataclasses.replace(base, a=_TwoAxisCoefficient())
    grid = spec.default_grid(N=8)
    times = np.linspace(0.0, spec.T, 9)
    # 9 snapshots + 12 work and transient arrays of 8**6 float64, the transport
    # matrices and the sine route's pivots and diagonal of a L (two 8**3
    # arrays) take 44.06 MB; the two sweeps' four 8**3 factors, the diagonal,
    # a / h^2 on 8**2 values and the sweeps' shared 8**5 slice take 44.34 MB
    monkeypatch.setattr(solver, "_physical_memory", lambda: 44.2e6)
    assert solve_fd(base, grid, times=times).diagnostics["slab_sweeps"] == []
    tracemalloc.start()
    try:
        with pytest.raises(SolverError, match=r"needs about 42\.28 MiB .* retry with N <= 6\b"):
            solve_fd(spec, grid, times=times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.N**grid.n  # refused before one grid array was allocated


def test_trajectory_container_invariants():
    spec = load_builtin("kolmogorov2d")
    grid = TorusGrid(2, 32, 4.0)
    times = np.linspace(0.0, 1.0, 4)
    sol = solve_exact(spec, grid, times=times)
    assert len(sol) == 4
    assert l2_norm(sol.snapshot(0)) == pytest.approx(hs_norm(sol.fields[0], 0.0))
    assert sol.final is sol.fields[-1]
    series = hs_series(sol, 1.0)
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
    err = l2_norm(fd.final - ex.final) / l2_norm(ex.final)
    assert err <= 0.05


# ---------------------------------------------------------------------------
# exact route on per-axis vectors against the full-grid reference


def _full_grid_row_combinations(M, arrays, rows):
    """Reference: every sum broadcast to the union of all the input shapes."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in arrays))
    for r in rows:
        out = np.zeros(shape)
        for j, c in enumerate(M[r]):
            if c != 0.0:
                out += c * arrays[j]
        yield out


def _full_grid_damping_exponent(grid, powers, m0, t, quad_order):
    """Reference: int_0^t |P e^{-tau B} xi|^2 dtau by Gauss-Legendre on full N**n views."""
    if t == 0.0:
        return np.zeros(grid.shape)
    nodes, weights = leggauss(quad_order)
    taus = 0.5 * t * (nodes + 1.0)
    ws = 0.5 * t * weights
    freqs = [np.broadcast_to(grid.frequency(ax), grid.shape) for ax in range(grid.n)]
    total = np.zeros(grid.shape)
    for tau, w in zip(taus, ws):
        for y in _full_grid_row_combinations(_matrix_exponential(powers, -tau), freqs, range(m0)):
            total += w * y**2
    return total


def _full_grid_quadratic_form(grid, powers, m0, t):
    """Reference: _damping_exponent's closed-form Gramian with every row on all N**n points."""
    Q = sum((-1.0) ** (p + q) * t ** (p + q + 1) / (math.factorial(p) * math.factorial(q)
                                                    * (p + q + 1))
            * (Bp[:m0].T @ Bq[:m0]) for p, Bp in enumerate(powers) for q, Bq in enumerate(powers))
    U = 2.0 * np.triu(Q, 1) + np.diag(np.diag(Q))
    rows = [i for i in range(grid.n) if np.any(U[i])]
    freqs = [np.broadcast_to(grid.frequency(ax), grid.shape) for ax in range(grid.n)]
    total = np.zeros(grid.shape)
    for i, y in zip(rows, _full_grid_row_combinations(U, freqs, rows)):
        total += freqs[i] * y
    return total


def _full_grid_transport(grid, coeffs, powers, order, t):
    """Reference: per-axis phase shifts with each phase formed on all N**n points."""
    if t == 0.0:
        return coeffs.copy()
    M = _matrix_exponential(powers, -t)
    np.fill_diagonal(M, 0.0)
    modes = [np.broadcast_to(grid.frequency(ax) * grid.L, grid.shape) for ax in range(grid.n)]
    out = coeffs
    for ax, shift in zip(order, _full_grid_row_combinations(M, modes, order)):
        if not np.any(shift):
            continue
        values = np.fft.ifft(out, axis=ax)
        values *= np.exp(1j * shift * grid.coordinate(ax) / grid.L)
        out = np.fft.fft(values, axis=ax)
    return np.asarray(out)


def _reversed_chain3():
    # edges 2 -> 1 -> 0: the transport visits the axes in the order 2, 1, 0
    spec = load_builtin("chain3")
    return dataclasses.replace(spec, name="reversed-chain3", B=_mat(3, {(2, 1): 1, (1, 0): 1}),
                               m0=1)


@pytest.mark.parametrize("spec, N", [
    (load_builtin("lp-block"), 12),
    (load_builtin("chain3"), 16),
    (_reversed_chain3(), 12),
], ids=["lp-block", "chain3", "reversed-chain3"])
def test_exact_route_equals_full_grid_reference(spec, N):
    grid = spec.default_grid(N=N)
    powers = _nilpotent_powers(spec.B, spec.n)
    order = _axis_order(spec.B)
    times = np.array([0.0, 0.37, spec.T])
    sol = solve_exact(spec, grid, times=times)
    base = spec.u0.spectral(grid).coeffs
    for i, t in enumerate(times):
        D = _damping_exponent(grid, powers, spec.m0, t)
        assert np.array_equal(D, _full_grid_quadratic_form(grid, powers, spec.m0, t))
        damped = base * np.exp(-float(spec.a.value) * D)
        ledger = sol.mode_ledgers[i]
        assert np.array_equal(ledger.coefficients, damped)
        freqs = [np.broadcast_to(grid.frequency(ax), grid.shape) for ax in range(grid.n)]
        reference = list(_full_grid_row_combinations(ledger.matrix, freqs, range(grid.n)))
        for got, want in zip(ledger.frequencies(), reference):
            assert np.array_equal(np.broadcast_to(got, grid.shape), want)
        want = _full_grid_transport(grid, damped, powers, order, t)
        assert np.array_equal(_transport(grid, damped, powers, order, t), want)
        assert np.array_equal(sol.fields[i].coeffs, want)


def test_exact_fields_are_formed_on_read_at_most_once(monkeypatch, tmp_path):
    calls = []

    def counting(grid, coeffs, powers, order, t):
        calls.append(float(t))
        return transport(grid, coeffs, powers, order, t)

    transport = solver._transport
    monkeypatch.setattr(solver, "_transport", counting)
    spec = load_builtin("kolmogorov2d")
    times = np.linspace(spec.T / 100, spec.T, 9)
    sol = solve_exact(spec, TorusGrid(2, 16, 4.0), times=times)
    smoothing_profile(sol, spec, d_max=4)
    assert calls == []
    assert sol.snapshot(3) is sol.fields[3]
    assert sol.final is sol.fields[-1]
    assert calls == [times[3], times[-1]]

    calls.clear()
    out = tmp_path / "solve"
    assert cli.main(["solve", "--spec", "kolmogorov2d", "--grid", "16", "--tgrid", "9",
                     "--out", str(out)]) == 0
    assert len(calls) <= 9
    assert max(Counter(calls).values()) == 1
    calls.clear()
    assert cli.main(["smoothing", "--spec", "kolmogorov2d", "--grid", "16", "--tgrid", "9",
                     "--out", str(tmp_path / "smoothing")]) == 0
    assert calls == []


def test_exact_ledgers_are_formed_on_read_and_not_kept():
    spec = load_builtin("lp-block")
    grid = spec.default_grid(N=8)
    array = 16 * grid.N**grid.n  # one complex grid array

    def solve_and_profile(count):
        times = np.linspace(spec.T / 100, spec.T, count)
        return smoothing_profile(solve_exact(spec, grid, times=times), spec, d_max=2)

    # each run under tracing leaves more of the interpreter's free-list
    # blocks traced, and the peaks settle after a few; each run is then traced
    # from the memory held at its start.  The candidates of each order still
    # grow by about 1 KiB per snapshot, so the orders are kept few
    tracemalloc.start()
    try:
        for _ in range(4):
            solve_and_profile(41)
        peaks = {}
        for count in (5, 41):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            solve_and_profile(count)
            peaks[count] = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    # 41 ledgers held at once would add 36 arrays
    assert abs(peaks[41] - peaks[5]) < array, peaks

    sol = solve_exact(spec, grid, times=[0.0, 0.37])
    first, again = sol.mode_ledgers[1], sol.mode_ledgers[1]
    assert first is not again
    assert np.array_equal(first.coefficients, again.coefficients)
    assert np.array_equal(first.matrix, again.matrix)


def test_snapshot_sequences_slice_into_tuples_of_their_items():
    spec = load_builtin("kolmogorov2d")
    grid = TorusGrid(2, 8, 4.0)
    times = [0.0, 0.1, 0.2]
    exact, fd = solve_exact(spec, grid, times=times), solve_fd(spec, grid, times=times)
    for sequence in (exact.mode_ledgers, exact.fields, fd.fields):
        parts = sequence[1:]
        assert isinstance(parts, tuple) and len(parts) == 2
        for got, i in zip(parts, (1, 2)):
            assert type(got) is type(sequence[i])
            for name in ("coeffs", "coefficients", "matrix"):
                if hasattr(got, name):
                    assert np.array_equal(getattr(got, name), getattr(sequence[i], name))
    assert exact.fields[:1] == (exact.fields[0],)  # formed once, then the kept field


def test_exact_ledger_forms_within_four_grid_arrays():
    # the kept coefficients are 2 float64 grid arrays, the damping exponent 1,
    # exponentiated in place, and one Gramian row's product with its frequency
    spec = load_builtin("lp-block")
    grid = spec.default_grid(N=12)
    sol = solve_exact(spec, grid, times=[0.0, 0.37, spec.T])
    sol.mode_ledgers[1]  # warm any first-call cache
    array = 8 * grid.N**grid.n
    for i in (1, 2):
        assert _traced_peak(lambda: sol.mode_ledgers[i]) <= 4.0 * array, i


def test_cli_stages_form_each_exact_ledger_at_most_once(monkeypatch, tmp_path):
    calls = []

    def counting(grid, powers, m0, t):
        calls.append(float(t))
        return damping(grid, powers, m0, t)

    damping = solver._damping_exponent
    monkeypatch.setattr(solver, "_damping_exponent", counting)
    for stage in ("solve", "smoothing"):
        calls.clear()
        assert cli.main([stage, "--spec", "lp-block", "--grid", "8", "--tgrid", "9",
                         "--out", str(tmp_path / stage)]) == 0
        assert calls and max(Counter(calls).values()) == 1, stage


@pytest.mark.parametrize("times, bad", [([float("nan")], "nan"), ([0.0, float("inf")], "inf")])
def test_exact_route_refuses_non_finite_times(times, bad):
    spec = load_builtin("kolmogorov2d")
    with pytest.raises(SolverError, match=rf"snapshot time {bad} \(entry {len(times) - 1}\)"):
        solve_exact(spec, TorusGrid(2, 8, 4.0), times=times)


@pytest.mark.parametrize("times", [[1.0, 0.5, 0.5, 0.004], [0.5, 0.5], [0.0, 1.0, 0.5]])
def test_both_routes_refuse_unsorted_or_repeated_times_before_any_work(times, monkeypatch):
    # a later snapshot listed first would set the smoothing profile's t_min
    # from the wrong end, below its documented T / 100
    spec = load_builtin("kolmogorov2d")

    def no_work(*args):
        raise AssertionError("the coefficients were sampled")

    monkeypatch.setattr(solver, "coercivity_check", no_work)
    for solve in (solve_exact, solve_fd):
        with pytest.raises(SolverError, match="strictly increasing"):
            solve(spec, TorusGrid(2, 8, 4.0), times=times)


def test_fd_route_refuses_non_finite_times_before_any_work(monkeypatch):
    spec = load_builtin("kolmogorov-general")

    def no_work(*args):
        raise AssertionError("the coefficients were sampled")

    monkeypatch.setattr(solver, "coercivity_check", no_work)
    with pytest.raises(SolverError, match=r"snapshot time nan \(entry 1\) is not finite"):
        solve_fd(spec, spec.default_grid(N=8), times=[0.0, float("nan")])


# ---------------------------------------------------------------------------
# step-count guard


def test_step_count_guard_refuses_up_front_and_names_a_dt_that_passes():
    spec = load_builtin("kolmogorov-general")
    grid = spec.default_grid(N=8)
    times = np.linspace(0.0, spec.T, 5)
    with pytest.raises(SolverError, match="limit") as err:
        solve_fd(spec, grid, dt=1e-9, times=times)
    suggested = float(re.search(r"dt >= (\S+)$", str(err.value)).group(1))
    _, segments = _snapshot_segments(times, suggested, spec.T, True)
    assert sum(steps for steps, _ in segments) <= _MAX_FD_STEPS
    # a subnormal, zero or nan step is refused the same way, not by an overflow
    for dt in (5e-324, 0.0, float("nan")):
        with pytest.raises(SolverError, match="limit"):
            _snapshot_segments(times, dt, spec.T, True)


def test_transport_speeds_never_hold_a_full_grid():
    # each speed spans one or two axes; building them must not pass through
    # one full N**n float array (12**6 * 8 B = 22.8 MiB on fokkerplanck)
    spec = load_builtin("fokkerplanck")
    grid = spec.default_grid(N=12)
    tracemalloc.start()
    try:
        speeds = _transport_speeds(spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(speeds) == list(range(spec.n))
    assert peak < 8 * grid.N**grid.n


def test_transport_plan_never_holds_a_full_grid():
    # the centre term and the factors c_j keep the per-axis form of the
    # speeds, and the sign boxes are slices: building the plan must stay
    # below one full bool grid (the masks it replaces were six of them,
    # 6 * 12**6 B = 17.9 MB on fokkerplanck)
    spec = load_builtin("fokkerplanck")
    grid = spec.default_grid(N=12)
    speeds = _transport_speeds(spec, grid)
    b0 = spec.b0.evaluate(grid)
    tracemalloc.start()
    try:
        centre, boxes = _upwind.stencil_plan(speeds, b0, grid.spacing, grid.shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert centre.size == grid.N**3  # the speeds vary along axes 0-2
    assert len(boxes) == 2 * spec.n  # every speed takes both signs
    assert peak < grid.N**grid.n


def _benchmark_fd_steps():
    """perfbench's own copy of the FD step rule, loaded from its script."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "traced_stage.py"
    module_spec = importlib.util.spec_from_file_location("traced_stage", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module.fd_steps


@pytest.mark.parametrize("name", ["brownian-inertia", "fokkerplanck", "kolmogorov-general"])
def test_benchmark_step_rule_matches_solver(name, monkeypatch):
    # the benchmark counts FD steps by re-deriving the solver's rule; keep the two in step
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends perfbench/
    fd_steps = _benchmark_fd_steps()
    spec = load_builtin(name)
    grid = spec.default_grid(N=6)
    for times in (None, [0.0, 0.1 * spec.T, 0.55 * spec.T, spec.T]):
        sol = solve_fd(spec, grid, times=times)
        assert fd_steps(sol.times, sol.diagnostics["dt"]) == sol.diagnostics["steps"], times
