"""
Energy balance across the shipped problem catalogue
===================================================

For each trajectory we track

    E(t) = ||u(t)||_{H^s}^2 + (1/Lambda) sum_{k<m0} int_0^t ||d_k u||_{H^s}^2

against the budget  ||u(0)||_{H^s}^2 + (int ||g||)^2.  The interesting
output is the ratio E(t)/budget: dissipation plus pure transport keeps it
at 1 or below, while an amplifying zero-order term pushes it above 1 by a
bounded, grid-stable factor.
"""

import numpy as np

from ultraparabolic import builtin_spec_names, energy_check, hs_norm, load_builtin, solve_auto

# ----------------------------------------------------------------------
# one row per shipped spec: solve on the spec's own default grid and
# report the worst ratio along the trajectory
print(f"{'spec':24s} {'n':>2s} {'method':>7s} {'max E/budget':>13s}")
for name in builtin_spec_names():
    spec = load_builtin(name)
    grid = spec.default_grid()
    dt = spec.T / 16 if spec.n >= 6 else None  # keep the 6-D solve affordable
    times = np.linspace(0.0, spec.T, 3 if spec.n >= 6 else 5)
    sol = solve_auto(spec, grid=grid, dt=dt, times=times)
    rep = energy_check(sol, spec)
    print(f"{name:24s} {spec.n:2d} {sol.method:>7s} {rep.max_ratio:13.6f}")

# ----------------------------------------------------------------------
# the ratio is a statement about the *equation*, so it must not move when
# the grid is refined; demonstrate on the two-dimensional chain
spec = load_builtin("kolmogorov2d")
for N in (32, 64, 128):
    sol = solve_auto(spec, grid=spec.default_grid(N=N),
                     times=np.linspace(0.0, spec.T, 5))
    rep = energy_check(sol, spec)
    print(f"kolmogorov2d at N = {N:3d}: max ratio = {rep.max_ratio:.9f}")

# ----------------------------------------------------------------------
# monotone decay profile along one trajectory: the H^s norm drops, the
# cumulative dissipation makes up (almost all of) the difference
sol = solve_auto(spec, times=np.linspace(0.0, spec.T, 9))
rep = energy_check(sol, spec)
print("t, ||u||^2 share, dissipation share of the budget:")
norm_sq = np.array([hs_norm(f, spec.s) for f in sol.fields]) ** 2
for t, e, nsq in zip(rep.times, rep.energy, norm_sq):
    print(f"  {t:4.2f}  {nsq / rep.budget:8.5f}  {(e - nsq) / rep.budget:8.5f}")
