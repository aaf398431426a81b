"""The FD route's explicit transport -sum_j w_j D_j u - b0 u: solve_fd imports it only then.

D_j is the second-order one-sided difference biased against the sign of the
speed w_j: (3u_i - 4u_{i-1} + u_{i-2}) / (2h) where w_j > 0, else
(-3u_i + 4u_{i+1} - u_{i+2}) / (2h), with zeros outside the box (Dirichlet
ghosts).  So -w_j D_j u = c_j (-3 u_i + 4 u[i + sigma] - u[i + 2 sigma]),
c_j = |w_j| / (2h), sigma = -1 where w_j > 0 and +1 elsewhere.  Two kernels
form it:

* "matrices" (matrix_plan) -- axis j's term is one N x N matrix along axis
  j, or a stack of them over the one earlier axis k < j that w_j varies
  along, each applied by one np.matmul; a constant b0 sits on one diagonal;
* "stencil" (stencil_plan) -- one centre term for all axes plus each
  axis's neighbour terms as shifted slices on at most two sign boxes.

transport_plan takes the matrices on grids of four or more axes when every
speed varies along at most one axis besides its own, that axis comes before
its own, and the matrices together hold no more values than one grid array
(matrix_axes).  Otherwise it takes the stencil: the only kernel for a speed
that spans two or more other axes or a later one, and on 2-D and 3-D grids,
where which kernel is faster depends on the speeds and on N (timings in
CHANGES.md).
"""

import numpy as np

from .solver import _apply_along


def _stacks(speeds: dict):
    """{axis j: the one earlier axis that w_j varies along, or None}, or None.

    None when there is no speed (the stencil is then the one pass centre * u)
    or some speed varies along two or more axes besides its own, or along a
    later one.
    """
    if not speeds:
        return None
    stacks = {}
    for j, w in speeds.items():
        other = [ax for ax, size in enumerate(np.shape(w)) if size > 1 and ax != j]
        if len(other) > 1 or (other and other[0] > j):
            return None
        stacks[j] = other[0] if other else None
    return stacks


def matrix_axes(speeds: dict, shape: tuple):
    """The number of axes of each matrix the matrix kernel holds, or None for the stencil.

    An N x N matrix counts 2 and a stack of them 3, as _require_memory's
    `solver_axes` counts arrays.  None on a grid of fewer than four axes,
    when there is no speed, when a speed spans two or more other axes or a
    later one, or when the matrices would hold more values than one grid
    array.
    """
    stacks = _stacks(speeds) if len(shape) >= 4 else None
    if stacks is None:
        return None
    values = sum(shape[j] ** 2 * (1 if k is None else shape[k]) for j, k in stacks.items())
    if values > np.prod(shape, dtype=float):
        return None
    return tuple(2 if k is None else 3 for k in stacks.values())


def transport_plan(speeds: dict, b0_vals, h: float, shape: tuple):
    """(kernel, plan): "matrices" or "stencil", by the rule in the module docstring."""
    if matrix_axes(speeds, shape) is None:
        return "stencil", stencil_plan(speeds, b0_vals, h, shape)
    return "matrices", matrix_plan(speeds, b0_vals, h, shape)


def apply_transport(plan, u, u4, spare, out) -> np.ndarray:
    """The transport of u by transport_plan's kernel, written into `out`.

    u is C-contiguous; u4, `spare` and `out` are C-contiguous arrays of u's
    shape that overlap neither u nor each other (the matrices leave u4 alone).
    """
    kernel, plan = plan
    if kernel == "matrices":
        return apply_matrices(plan, u, spare, out)
    return apply_stencil(plan, u, u4, spare, out)


# ---------------------------------------------------------------------------
# matrices


def _upwind_matrices(w, j: int, k, h: float, shape: tuple) -> np.ndarray:
    """-w D_j as N x N matrices along axis j, one per index of axis k < j (None: one).

    Row i holds -3c, 4c and -c at columns i, i + sigma and i + 2 sigma, those
    outside [0, N) cut (the Dirichlet ghosts); a zero speed gives a zero row.
    """
    N = shape[j]
    K = 1 if k is None else shape[k]
    w = np.broadcast_to(w, tuple(shape[ax] if ax in (j, k) else 1 for ax in range(len(shape))))
    w = w.reshape(K, N)
    c = np.abs(w) / (2.0 * h)
    sigma = np.where(w > 0, -1, 1)
    rows = np.arange(N)
    A = np.zeros((K, N, N))
    A[:, rows, rows] = -3.0 * c
    for step, coefficient in ((1, 4.0), (2, -1.0)):
        cols = rows + step * sigma
        inside = (cols >= 0) & (cols < N)
        stack, row = np.nonzero(inside)
        A[stack, row, cols[inside]] = coefficient * c[inside]
    return A


def matrix_plan(speeds: dict, b0_vals, h: float, shape: tuple):
    """(products, rest) for apply_matrices, for speeds that _stacks accepts.

    Each product is (A, axis, view): one np.matmul along `axis`.

    * no stack: A is N x N, and _apply_along applies it (view is None);
    * a stack over k when `axis` is the last one: u is seen as `view` =
      (before k, K, between, N), and A, transposed to (K, N, N), multiplies
      from the right, so a product is a (between, N) block times N x N, not
      a row of matrix-vector ones;
    * a stack over k otherwise: u is seen as `view` = (before k, K, between,
      N, after) and A as (K, 1, N, N), which multiplies from the left.

    A constant b0 is taken off the diagonal of the first matrix; `rest` is
    -b0 when b0 varies, else None.
    """
    stacks = _stacks(speeds)
    if stacks is None:
        raise ValueError("the matrix kernel needs a speed, and none may vary along a later "
                         "axis or along two or more axes besides its own")
    constant = b0_vals is not None and np.size(b0_vals) == 1
    products = []
    for j, w in speeds.items():
        k = stacks[j]
        A = _upwind_matrices(w, j, k, h, shape)
        if constant and not products:
            rows = np.arange(shape[j])
            A[:, rows, rows] -= float(np.ravel(b0_vals)[0])
        if k is None:
            products.append((A[0], j, None))
            continue
        view = (int(np.prod(shape[:k])), shape[k], int(np.prod(shape[k + 1:j])), shape[j],
                int(np.prod(shape[j + 1:])))
        if j == len(shape) - 1:
            products.append((np.ascontiguousarray(A.transpose(0, 2, 1)), j, view[:-1]))
        else:
            products.append((A[:, None], j, view))
    rest = None if b0_vals is None or constant else -np.asarray(b0_vals, dtype=float)
    return products, rest


def apply_matrices(plan, u, spare, out) -> np.ndarray:
    """rest * u plus every product of matrix_plan, written into `out`.

    The first term is written into `out`, each further one into `spare` and
    added; u, `spare` and `out` are C-contiguous arrays of one shape that do
    not overlap.
    """
    products, rest = plan
    target = out
    if rest is not None:
        np.multiply(rest, u, out=out)
        target = spare
    for A, axis, view in products:
        if view is None:
            _apply_along(A, u, axis, target)
        elif len(view) == 4:
            np.matmul(u.reshape(view), A, out=target.reshape(view))
        else:
            np.matmul(A, u.reshape(view), out=target.reshape(view))
        if target is spare:
            np.add(out, spare, out=out)
        target = spare
    return out


# ---------------------------------------------------------------------------
# stencil


def sign_box(mask):
    """The smallest box of slices that holds every True cell of `mask`, or None.

    An axis the box spans whole is slice(None), as is every axis of length
    1, so the box of a compact mask also indexes the full grid it
    broadcasts over.
    """
    if not mask.any():
        return None
    box = []
    for ax, size in enumerate(mask.shape):
        hits = np.flatnonzero(mask.any(axis=tuple(a for a in range(mask.ndim) if a != ax)))
        lo, hi = int(hits[0]), int(hits[-1]) + 1
        box.append(slice(None) if (lo, hi) == (0, size) else slice(lo, hi))
    return tuple(box)


def stencil_plan(speeds: dict, b0_vals, h: float, shape: tuple):
    """-sum_j w_j D_j u - b0 u as one centre term plus upwind neighbour terms.

    The sum equals

        centre * u + sum_j c_j (4 u[i + sigma] - u[i + 2 sigma]),

    centre = -(3/(2h)) sum_j |w_j| - b0.  Returns (centre, boxes): centre in
    the per-axis form of the speeds, and at most two tuples
    (box, c, view, dest, near, far, faces) per axis j, one for each sigma
    that occurs:

    * `box` (from sign_box) is the smallest box that holds every cell where
      sigma w_j < 0; it indexes the full grid.  `c` is c_j there and 0 on
      the cells of the box where sigma w_j >= 0, so the two boxes of an axis
      may overlap, and the cost of an axis never exceeds two full-grid terms
      whatever the shape of its sign pattern;
    * `view` is the grid shape with the axes after the box's last cut merged
      into one run; `dest`, `near` and `far` index that view at the cells
      and at their shifts by sigma and 2 sigma.  When the box is cut along
      axis j or a later one, the shift runs along axis j and stops short of
      the two cells nearest the face.  Otherwise it is a flat shift by axis
      j's stride along the merged run, so the inner loops stay long; it
      then also reaches the two cells nearest the face, which read across
      rows;
    * `faces` re-forms those cells: (cells, None) where both neighbours are
      ghosts, (cells, source) where 4 u[source] is the only term.
    """
    n = len(shape)
    total = np.zeros((1,) * n)
    for w in speeds.values():
        total = total + np.abs(w)
    centre = (-3.0 / (2.0 * h)) * total
    if b0_vals is not None:
        centre = centre - b0_vals
    boxes = []
    for j, w in speeds.items():
        N = shape[j]
        for sigma in (-1, 1):
            upwind = -sigma * w  # > 0 where this sigma applies
            box = sign_box(upwind > 0)
            if box is None:
                continue
            c = np.maximum(upwind, 0.0) / (2.0 * h)
            cut = max((ax + 1 for ax, s in enumerate(box) if s != slice(None)), default=0)
            view = shape[:cut] + (int(np.prod(shape[cut:], dtype=int)),)
            if j < cut:
                ax, step = j, 1
                lo, hi, _ = box[j].indices(N)
            else:
                ax, step = cut, int(np.prod(shape[j + 1:], dtype=int))
                lo, hi = 0, view[cut]
            if sigma < 0:
                lo = max(lo, 2 * step)
            else:
                hi = min(hi, view[ax] - 2 * step)
            hi = max(hi, lo)

            def shifted(offset):
                index = list(box[:cut]) + [slice(None)]
                index[ax] = slice(lo + offset, hi + offset)
                return tuple(index)

            def at_j(i):
                return box[:j] + (slice(i, i + 1),) + box[j + 1:]

            rows = range(*box[j].indices(N))
            edge = 0 if sigma < 0 else N - 1  # both neighbours of the edge cell are ghosts
            faces = [(at_j(i), source) for i, source in ((edge, None), (edge - sigma, at_j(edge)))
                     if i in rows]
            boxes.append((box, c[box], view, shifted(0), shifted(sigma * step),
                          shifted(2 * sigma * step), faces))
    return centre, boxes


def apply_stencil(plan, u, u4, spare, out) -> np.ndarray:
    """centre * u + sum_j c_j (4 u[i + sigma] - u[i + 2 sigma]), written into `out`.

    `plan` comes from stencil_plan for u's shape.  u is C-contiguous; u4
    (overwritten with 4u when the plan has boxes), `spare` (the neighbour
    terms of one box at a time) and `out` are C-contiguous arrays of u's
    shape that overlap neither u nor each other.  Per box: one pass for the
    shifted difference, one for the factor c_j and one to add it in.
    """
    centre, boxes = plan
    np.multiply(centre, u, out=out)
    if boxes:
        np.multiply(u, 4.0, out=u4)
    for box, c, view, dest, near, far, faces in boxes:
        np.subtract(u4.reshape(view)[near], u.reshape(view)[far], out=spare.reshape(view)[dest])
        for cells, source in faces:
            spare[cells] = 0.0 if source is None else u4[source]
        term = spare[box]
        term *= c
        np.add(out[box], term, out=out[box])
    return out
