"""The FD route's sparse-LU slab solvers.

solve_fd takes them only when the diffusion coefficient varies along two or
more diffused axes, which no builtin spec does, so it imports this module,
and with it SciPy, only when such a run starts; every other run neither
loads nor compiles it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .solver import _THETA


def _dirichlet_d2(N: int, h: float):
    main = np.full(N, -2.0)
    off = np.ones(N - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / (h * h)


def _subgrid_laplacian(N: int, m0: int, h: float):
    """Sparse CSR Laplacian of the leading m0 axes (3-point Dirichlet stencil)."""
    D2 = _dirichlet_d2(N, h)
    total = None
    for ax in range(m0):
        term = sp.identity(N**ax, format="csr")
        term = sp.kron(term, D2, format="csr")
        term = sp.kron(term, sp.identity(N ** (m0 - 1 - ax), format="csr"), format="csr")
        total = term if total is None else total + term
    return total


def lu_slab_solver(a_vals, m0: int, h: float, grid, shared: bool):
    """implicit_solver(step_dt) -> solve(rhs) by sparse LU of the slab system.

    One factorization of I - theta dt a lap is shared by all columns when a
    varies only along diffused axes (`shared`), else there is one per
    column.  implicit_solver(step_dt) factors each time it is called, and
    solve_fd calls it once per distinct step size.  solve(rhs) returns the
    result in rhs's C-ordered buffer, as the sine solvers do (SuperLU
    returns Fortran order).
    """
    N, n = grid.N, grid.n
    M, R = N**m0, N ** (n - m0)
    lap = _subgrid_laplacian(N, m0, h)
    eye = sp.identity(M, format="csr")
    a2d = np.broadcast_to(a_vals, grid.shape).reshape(M, R)

    def implicit_solver(step_dt):
        lus = [splu((eye - _THETA * step_dt * sp.diags(a2d[:, j]) @ lap).tocsc())
               for j in range(1 if shared else R)]

        def solve(rhs):
            rhs2d = rhs.reshape(M, R)
            if shared:
                rhs2d[...] = lus[0].solve(rhs2d)
            else:
                for j in range(R):
                    rhs2d[:, j] = lus[j].solve(rhs2d[:, j])
            return rhs

        return solve

    return implicit_solver
