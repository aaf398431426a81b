"""
Measuring instantaneous smoothing from rough data
=================================================

The degenerate evolution regularizes: even data far below L2 becomes
smooth for t > 0, with derivative growth controlled by a factorial power.
We measure this directly on a trajectory.  For each order d,

    S_d = sup_t  t^(kappa d) max_j ||d_j^d u(t)|| / d!
    L_d = S_d^(1/(d+1))

where kappa reflects the anisotropy of the drift (time weights must pay
for the slow directions).  Bounded, slowly varying L_d is the signature
of an analytic-in-space solution; a Gevrey fit of log S_d recovers the
expected square-root factorial for the pure heat flow.
"""

import numpy as np

from ultraparabolic import load_builtin, smoothing_profile, solve_exact

# ----------------------------------------------------------------------
# rough data: unit-norm random-phase field with <xi>^(-1/4) decay, nominal
# regularity s = -1, pushed through the degenerate chain
spec = load_builtin("kolmogorov2d-lowreg")
grid = spec.default_grid(N=128)
times = np.linspace(spec.T / 100.0, spec.T, 41)
sol = solve_exact(spec, grid, times=times)
report = smoothing_profile(sol, spec, d_max=8)

print(f"{spec.name}: kappa = {report.kappa}, axes = {report.axes}")
print(f"{'d':>2s} {'S_d':>12s} {'L_d':>8s} {'argmax t':>9s} {'alpha':>8s}")
for rec in report.orders:
    print(f"{rec.d:2d} {rec.supremum:12.4e} {rec.scale:8.4f} "
          f"{rec.argmax_time:9.4f} {str(rec.argmax_alpha):>8s}")

scales = np.array([rec.scale for rec in report.orders])
print(f"scale spread max/min = {scales.max() / scales.min():.3f} "
      f"(bounded: the solution is analytic in space)")
print(f"empirical L = {report.empirical_L():.4f}")

# ----------------------------------------------------------------------
# calibration: the pure heat flow must come out Gevrey-1/2 (sigma = 1/2
# up to measurement error), since e^(t Delta) gains two derivatives per
# power of t
heat = load_builtin("heat")
heat_sol = solve_exact(heat, times=np.linspace(heat.T / 100.0, heat.T, 41))
heat_report = smoothing_profile(heat_sol, heat, d_max=8)
fit = heat_report.fit
print(f"heat flow fit: sigma = {fit.sigma:.4f} (expected 0.5), "
      f"max residual = {fit.max_residual:.3f}")

# ----------------------------------------------------------------------
# the time weight matters: the raw (unweighted) suprema blow up as t -> 0
# for high orders, the weighted ones do not
rec4 = report.orders[4]
print(f"order 4 raw supremum {rec4.raw_supremum:.4e} at t = "
      f"{rec4.raw_argmax_time:.4f} vs weighted {rec4.supremum:.4e} at "
      f"t = {rec4.argmax_time:.4f}")
