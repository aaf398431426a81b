"""The FD route's slab solver when the diffusion coefficient varies along two or
more diffused axes, which no builtin spec does: solve_fd imports it only then."""

import math

import numpy as np

from ._errors import SolverError
from .solver import _THETA, _slab_laplacian, _slab_sine_basis, _sine_transform

# a solve stops once r . M^{-1} r has fallen to _TOLERANCE^2 times its start
_TOLERANCE = 1e-15


def _iteration_cap(ratio: float) -> int:
    """Twice the CG bound's iterations to _TOLERANCE at condition number `ratio`.

    k iterations leave at most 2 sqrt(ratio) q^k of the preconditioned residual,
    q = (sqrt(ratio) - 1)/(sqrt(ratio) + 1), and ln(1/q) >= 2/sqrt(ratio).
    """
    return math.ceil(math.sqrt(ratio) * math.log(2.0 * math.sqrt(ratio) / _TOLERANCE))


def cg_slab_solver(a_vals, m0: int, h: float, spare, u4):
    """implicit_solver(step_dt) -> solve(rhs) by preconditioned conjugate gradients.

    solve(rhs) solves (I - theta dt a lap) x = rhs in rhs's buffer by CG
    (Hestenes and Stiefel, 1952) from x = 0 on the symmetric form
    (1/a - theta dt lap) x = rhs / a, lap as in _slab_laplacian.  The
    preconditioner M, the sine solve of c - theta dt lap (c the mid-range of
    1/a over the diffused axes, per column), bounds the condition number by
    max a / min a <= Lambda^2 whatever dt and h.  A solve that has not
    converged within _iteration_cap(max a / min a) iterations raises
    SolverError.  `spare` and `u4`, free while the step loop solves, and three
    grid arrays allocated here are the work arrays.
    """
    axes = list(range(m0))
    S, lam = _slab_sine_basis(spare.shape[0], axes, spare.ndim, h)
    inverse = 1.0 / a_vals
    c = 0.5 * (inverse.max(axis=tuple(axes), keepdims=True)
               + inverse.min(axis=tuple(axes), keepdims=True))
    ratio = float(a_vals.max() / a_vals.min())
    cap = _iteration_cap(ratio)
    residual, direction, product = (np.empty(spare.shape) for _ in range(3))

    def implicit_solver(step_dt):
        weight = _THETA * step_dt
        reciprocal = 1.0 / (c - weight * lam)
        scaled = h / math.sqrt(weight)  # the spacing whose slab Laplacian is weight * lap

        def precondition(out):  # out = M^{-1} residual; returns residual . out
            hat = _sine_transform(S, residual, spare, axes, out=u4)[0]
            np.multiply(hat, reciprocal, out=hat)
            return float(np.vdot(residual, _sine_transform(S, hat, spare, axes, out=out)[0]))

        def solve(x):
            np.multiply(x, inverse, out=residual)  # the residual of x = 0
            x.fill(0.0)
            start = rz = precondition(direction)
            iterations = 0
            while not rz <= _TOLERANCE**2 * start:  # `not <=`: a nan never converges
                if iterations == cap:
                    raise SolverError(
                        f"the sine-cg slab solve reached a relative residual of "
                        f"{math.sqrt(rz / start):.3g}, not {_TOLERANCE:g}, within its cap of "
                        f"{cap} iterations (max a / min a = {ratio:.6g})")
                iterations += 1
                _slab_laplacian(direction, m0, scaled, product, spare, u4)
                np.subtract(np.multiply(direction, inverse, out=spare), product, out=product)
                alpha = rz / float(np.vdot(direction, product))
                x += np.multiply(direction, alpha, out=spare)
                np.subtract(residual, np.multiply(product, alpha, out=product), out=residual)
                rz, previous = precondition(product), rz
                np.add(np.multiply(direction, rz / previous, out=direction), product, out=direction)
            return x

        return solve

    return implicit_solver
