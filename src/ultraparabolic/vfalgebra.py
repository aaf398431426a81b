"""Exact rational algebra of polynomial-coefficient vector fields.

A vector field here is the first-order operator ``sum_j c_j(x) d/dx_j + c_0(x)``
with multivariate polynomial coefficients over exact rationals.  On top of the
commutator algebra the module builds the iterated-bracket tower of a linear
drift field, decides the spanning (Hörmander) condition by exact elimination,
expresses the missing coordinate directions in the bracket family together
with the size constant ``K``, and validates block upper-shift drift structures
with their exact left inverses.

Key entry points
----------------
``commutator(V, W)``            operator commutator, again first order
``bracket_tower(B, m0)``        X_{p,0} = d_p, X_{p,q} = [X_{p,q-1}, X]
``hormander_check(tower)``      exact rank of the family, witness basis
``span_decompose(tower)``       d_j as combinations of tower fields, constant K
``lp_check(blocks)``            ranks and left inverses of E^(q) = E_1···E_q
``lp_bracket_consistency(st)``  tower rows against the block products

Nothing in this module touches floating point: coefficients are
``fractions.Fraction`` throughout and all decisions (ranks, zero tests,
witnesses) are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "RationalPoly",
    "RationalPolyVectorField",
    "BracketTower",
    "H1Certificate",
    "SpanDecomposition",
    "LPStructure",
    "LPBracketReport",
    "BracketTowerError",
    "SpanError",
    "LPConditionError",
    "commutator",
    "bracket_tower",
    "hormander_check",
    "span_decompose",
    "lp_check",
    "lp_full_matrix",
    "lp_bracket_consistency",
]


class BracketTowerError(RuntimeError):
    """Raised when the bracket tower fails to terminate (finiteness fails)."""


class SpanError(RuntimeError):
    """Raised when the tower does not span and a decomposition is requested."""


class LPConditionError(ValueError):
    """Raised when a block structure violates the rank/shape requirements."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


def as_fraction(x) -> Fraction:
    """Coerce ``x`` to an exact Fraction; floats are rejected to keep exactness."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected int, str or Fraction, got {type(x).__name__}: {x!r}")


def _as_matrix(B):
    rows = [tuple(as_fraction(x) for x in row) for row in B]
    if not rows:
        raise ValueError("empty matrix")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("ragged matrix")
    return tuple(rows)


# ---------------------------------------------------------------------------
# sparse exact terms


def _accumulate(terms: dict, items) -> dict:
    """Add each nonzero (key, coefficient) of ``items`` into ``terms`` in place.

    A key whose sum cancels is dropped, so ``terms`` never holds a zero.  A new
    key stores its coefficient as given: adding it to ``Fraction(0)`` first
    makes ``verify`` about 10 % slower.
    """
    for key, c in items:
        s = terms.get(key)
        if s is None:
            terms[key] = c
        else:
            s += c
            if s:
                terms[key] = s
            else:
                del terms[key]
    return terms


class _ExactTerms:
    """Sparse map from a key to a nonzero Fraction, over ``n`` variables.

    The common base of RationalPoly, GradedPolynomial and AuxiliaryField.
    Zero coefficients are pruned on construction so equality is plain dict
    equality.  A subclass validates and normalises each key in ``_key``;
    results are built by ``_like``, which trusts its terms to be clean.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = int(n)
        clean = {}
        for key, c in (terms or {}).items():
            c = as_fraction(c)
            if c:
                clean[self._key(key)] = c
        self.terms = clean

    def _key(self, key):
        raise NotImplementedError

    def _like(self, terms: dict):
        """Same class and ``n`` as ``self``, holding ``terms`` (no zeros) unchecked."""
        out = object.__new__(type(self))
        out.n = self.n
        out.terms = terms
        return out

    def _check_n(self, other) -> None:
        if other.n != self.n:
            raise ValueError(f"variable-count mismatch: {self.n} and {other.n}")

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_n(other)
        return self._like(_accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self, c):
        c = as_fraction(c)
        return self._like({k: c * v for k, v in self.terms.items()} if c else {})

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.n == other.n and self.terms == other.terms

    __hash__ = None


def _lower(alpha: tuple, i: int) -> tuple:
    """The multi-index ``alpha`` with entry ``i`` lowered by one."""
    return alpha[:i] + (alpha[i] - 1,) + alpha[i + 1:]


# ---------------------------------------------------------------------------
# polynomials


class RationalPoly(_ExactTerms):
    """Sparse multivariate polynomial with exact rational coefficients.

    Terms map an exponent multi-index (tuple of ints, one per variable) to a
    nonzero Fraction; zero coefficients are pruned on construction so equality
    is plain dict equality.
    """

    __slots__ = ()

    def _key(self, alpha):
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.n or any(a < 0 for a in alpha):
            raise ValueError(f"bad exponent multi-index {alpha} for {self.n} variables")
        return alpha

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, n, c):
        return cls(n, {(0,) * n: as_fraction(c)})

    @classmethod
    def variable(cls, n, i):
        alpha = [0] * n
        alpha[i] = 1
        return cls(n, {tuple(alpha): Fraction(1)})

    # -- queries -------------------------------------------------------------

    def is_constant(self) -> bool:
        return all(not any(alpha) for alpha in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((0,) * self.n, Fraction(0))

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, RationalPoly):
            return self.scale(other)
        self._check_n(other)
        return self._like(_accumulate({}, (
            (tuple(x + y for x, y in zip(a, b)), ca * cb)
            for a, ca in self.terms.items()
            for b, cb in other.terms.items()
        )))

    __rmul__ = __mul__

    def diff(self, i: int):
        """Exact partial derivative with respect to variable ``i``."""
        return self._like({_lower(a, i): c * a[i] for a, c in self.terms.items() if a[i]})

    # -- display ---------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for alpha in sorted(self.terms):
            c = self.terms[alpha]
            mono = "*".join(
                f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
                for i, e in enumerate(alpha)
                if e
            )
            bits.append(f"{c}*{mono}" if mono else f"{c}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# vector fields


class RationalPolyVectorField:
    """First-order operator ``sum_j c_j(x) d_j + c_0(x)`` with polynomial coefficients."""

    __slots__ = ("n", "components", "zeroth")

    def __init__(self, n, components, zeroth=None):
        self.n = int(n)
        components = tuple(components)
        if len(components) != self.n:
            raise ValueError("need one component per coordinate")
        for c in components:
            if c.n != self.n:
                raise ValueError("component variable count mismatch")
        self.components = components
        self.zeroth = zeroth if zeroth is not None else RationalPoly.zero(self.n)
        if self.zeroth.n != self.n:
            raise ValueError("zeroth-order part variable count mismatch")

    # -- constructors ----------------------------------------------------------

    @classmethod
    def coordinate(cls, n, p):
        """The derivation d/dx_p."""
        comps = [RationalPoly.zero(n) for _ in range(n)]
        comps[p] = RationalPoly.constant(n, 1)
        return cls(n, comps)

    @classmethod
    def drift(cls, B):
        """Linear drift ``sum_{k,j} B[k][j] x_k d_j`` for a square rational matrix."""
        B = _as_matrix(B)
        n = len(B)
        if any(len(row) != n for row in B):
            raise ValueError("drift matrix must be square")
        comps = []
        for j in range(n):
            comps.append(
                RationalPoly(n, {
                    tuple(1 if i == k else 0 for i in range(n)): B[k][j]
                    for k in range(n)
                    if B[k][j]
                })
            )
        return cls(n, comps)

    # -- actions ----------------------------------------------------------------

    def directional(self, f: RationalPoly) -> RationalPoly:
        """Pure derivation part applied to ``f``: sum_j c_j d_j f."""
        out = RationalPoly.zero(self.n)
        for j, c in enumerate(self.components):
            if c.terms:
                out = out + c * f.diff(j)
        return out

    def apply(self, f: RationalPoly) -> RationalPoly:
        """Full operator applied to ``f`` (derivation plus zeroth-order part)."""
        out = self.directional(f)
        if self.zeroth.terms:
            out = out + self.zeroth * f
        return out

    # -- structure ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.zeroth.is_zero() and all(c.is_zero() for c in self.components)

    def constant_row(self):
        """Return the coefficient row if the field is constant with no zeroth part."""
        if not self.zeroth.is_zero():
            return None
        if not all(c.is_constant() for c in self.components):
            return None
        return tuple(c.constant_value() for c in self.components)

    def __add__(self, other):
        if not isinstance(other, RationalPolyVectorField) or other.n != self.n:
            return NotImplemented
        return RationalPolyVectorField(
            self.n,
            tuple(a + b for a, b in zip(self.components, other.components)),
            self.zeroth + other.zeroth,
        )

    def __sub__(self, other):
        if not isinstance(other, RationalPolyVectorField) or other.n != self.n:
            return NotImplemented
        return RationalPolyVectorField(
            self.n,
            tuple(a - b for a, b in zip(self.components, other.components)),
            self.zeroth - other.zeroth,
        )

    def scale(self, c):
        c = as_fraction(c)
        return RationalPolyVectorField(
            self.n,
            tuple(comp.scale(c) for comp in self.components),
            self.zeroth.scale(c),
        )

    def __eq__(self, other):
        return (
            isinstance(other, RationalPolyVectorField)
            and self.n == other.n
            and self.components == other.components
            and self.zeroth == other.zeroth
        )

    __hash__ = None

    def __repr__(self):
        bits = [f"({c!r})*d{j + 1}" for j, c in enumerate(self.components) if not c.is_zero()]
        if not self.zeroth.is_zero():
            bits.append(f"({self.zeroth!r})")
        return " + ".join(bits) if bits else "0"


def commutator(V: RationalPolyVectorField, W: RationalPolyVectorField) -> RationalPolyVectorField:
    """Operator commutator ``[V, W] = VW - WV``.

    For first-order operators the result is again first order: the direction-j
    coefficient is the derivation part of V applied to w_j minus the derivation
    part of W applied to v_j, and the zeroth-order parts transform the same way
    (the products of zeroth parts cancel).
    """
    if V.n != W.n:
        raise ValueError("dimension mismatch in commutator")
    comps = tuple(
        V.directional(W.components[j]) - W.directional(V.components[j])
        for j in range(V.n)
    )
    zeroth = V.directional(W.zeroth) - W.directional(V.zeroth)
    return RationalPolyVectorField(V.n, comps, zeroth)


# ---------------------------------------------------------------------------
# bracket tower and the spanning condition


@dataclass(frozen=True)
class BracketTower:
    """Commutator tower of the coordinate derivations with a linear drift.

    ``rows[p][q]`` is the exact coefficient row of X_{p,q}, where
    X_{p,0} = d/dx_p (p = 0..m0-1) and X_{p,q} = [X_{p,q-1}, X].  ``r`` is the
    largest level carrying a nonzero field; every level above ``r`` vanishes.
    """

    n: int
    m0: int
    r: int
    rows: tuple  # rows[p][q] -> tuple[Fraction, ...]
    drift_matrix: tuple  # the matrix defining X, kept for downstream use

    def drift_field(self) -> RationalPolyVectorField:
        return RationalPolyVectorField.drift(self.drift_matrix)


def bracket_tower(B, m0: int) -> BracketTower:
    """Build the tower X_{p,0} = d_p, X_{p,q} = [X_{p,q-1}, X] for X from ``B``.

    Levels are computed by genuine symbolic commutators and must come out
    constant-coefficient (guaranteed for a linear drift).  The first level at
    which all fields vanish fixes r; if no level vanishes up to q = 2n the
    finiteness requirement fails and BracketTowerError is raised (for a
    nilpotent-compatible drift, vanishing must occur by then).
    """
    B = _as_matrix(B)
    n = len(B)
    if any(len(row) != n for row in B):
        raise ValueError("drift matrix must be square")
    m0 = int(m0)
    if not 1 <= m0 <= n:
        raise ValueError(f"m0 must satisfy 1 <= m0 <= n, got m0={m0}, n={n}")

    X = RationalPolyVectorField.drift(B)
    levels: list[list[RationalPolyVectorField]] = [
        [RationalPolyVectorField.coordinate(n, p) for p in range(m0)]
    ]
    r = None
    for q in range(1, 2 * n + 1):
        nxt = [commutator(F, X) for F in levels[-1]]
        if all(F.is_zero() for F in nxt):
            r = q - 1
            break
        levels.append(nxt)
    if r is None:
        raise BracketTowerError(
            f"bracket tower did not terminate within q = {2 * n}; finiteness fails"
        )

    rows = []
    for p in range(m0):
        prow = []
        for q in range(r + 1):
            row = levels[q][p].constant_row()
            if row is None:  # cannot happen for a linear drift
                raise BracketTowerError("non-constant bracket encountered")
            prow.append(row)
        rows.append(tuple(prow))
    return BracketTower(n=n, m0=m0, r=r, rows=tuple(rows), drift_matrix=B)


@dataclass(frozen=True)
class H1Certificate:
    """Result of the spanning check: exact rank and the witness pivot rows."""

    satisfied: bool
    rank: int
    n: int
    witness: tuple  # ((p, q), ...) in lexicographic (q, p) order


def _echelon_insert(basis, v):
    """Reduce ``v`` against the echelon ``basis`` (list of (pivot, row)); insert if independent."""
    v = list(v)
    for pivot, row in basis:
        if v[pivot]:
            c = v[pivot]
            v = [a - c * b for a, b in zip(v, row)]
    for j, a in enumerate(v):
        if a:
            inv = Fraction(1) / a
            basis.append((j, [x * inv for x in v]))
            return True
    return False


def hormander_check(tower: BracketTower) -> H1Certificate:
    """Exact rank of {X_{p,q}} with witness rows chosen in lexicographic (q, p) order."""
    basis: list = []
    witness = []
    for q in range(tower.r + 1):
        for p in range(tower.m0):
            if _echelon_insert(basis, tower.rows[p][q]):
                witness.append((p, q))
    rank = len(witness)
    return H1Certificate(satisfied=rank == tower.n, rank=rank, n=tower.n, witness=tuple(witness))


@dataclass(frozen=True)
class SpanDecomposition:
    """Coordinates d_j (j >= m0) written in the tower basis.

    ``coefficients[j]`` maps (p, q) to the exact coefficient of X_{p,q}; entries
    outside the witness basis are zero and omitted.  The selection is the
    deterministic reduced-row-echelon one with (q, p)-ordered pivots, so the
    coefficients — and hence ``K = 1 + max |c|`` — are reproducible but not
    canonical (a different pivot order would give another valid K).
    """

    n: int
    m0: int
    r: int
    coefficients: dict
    K: Fraction


def _solve_square(A, rhs_columns):
    """Exact Gauss-Jordan solve of A x = b for several right-hand sides."""
    n = len(A)
    width = len(rhs_columns)
    aug = [list(A[i]) + [rhs_columns[j][i] for j in range(width)] for i in range(n)]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise SpanError("witness matrix unexpectedly singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                c = aug[i][col]
                aug[i] = [a - c * b for a, b in zip(aug[i], aug[col])]
    return [[aug[i][n + j] for i in range(n)] for j in range(width)]


def span_decompose(tower: BracketTower) -> SpanDecomposition:
    """Express d_j for j in m0..n-1 in the bracket family; compute K = 1 + max |c|.

    Requires the spanning condition; the solution puts nonzero weight only on
    the witness rows (free coefficients pinned to zero), which is exactly the
    reduced-row-echelon solution under the lexicographic (q, p) column order.
    """
    cert = hormander_check(tower)
    if not cert.satisfied:
        raise SpanError(
            f"bracket family spans only a rank-{cert.rank} subspace of R^{tower.n}"
        )
    wit_rows = [tower.rows[p][q] for (p, q) in cert.witness]
    # solve (rows as columns) c = e_j  for each missing direction j
    A = [[wit_rows[i][k] for i in range(tower.n)] for k in range(tower.n)]
    targets = []
    for j in range(tower.m0, tower.n):
        e = [Fraction(0)] * tower.n
        e[j] = Fraction(1)
        targets.append(e)
    coefficients: dict[int, dict[tuple[int, int], Fraction]] = {}
    maxc = Fraction(0)
    if targets:
        sols = _solve_square(A, targets)
        for j, sol in zip(range(tower.m0, tower.n), sols):
            entry = {}
            for (p, q), c in zip(cert.witness, sol):
                if c:
                    entry[(p, q)] = c
                    if abs(c) > maxc:
                        maxc = abs(c)
            coefficients[j] = entry
            # exactness guard: the combination must reproduce e_j on the nose
            recon = [Fraction(0)] * tower.n
            for (p, q), c in entry.items():
                recon = [a + c * b for a, b in zip(recon, tower.rows[p][q])]
            expected = [Fraction(1) if k == j else Fraction(0) for k in range(tower.n)]
            if recon != expected:
                raise SpanError("span reconstruction failed exactness check")
    return SpanDecomposition(
        n=tower.n, m0=tower.m0, r=tower.r, coefficients=coefficients, K=Fraction(1) + maxc
    )


# ---------------------------------------------------------------------------
# block upper-shift structures


def _matmul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0])
    assert len(A[0]) == inner
    return tuple(
        tuple(sum((A[i][k] * B[k][j] for k in range(inner)), Fraction(0)) for j in range(cols))
        for i in range(rows)
    )


def _rank(M) -> int:
    basis: list = []
    count = 0
    for row in M:
        if _echelon_insert(basis, row):
            count += 1
    return count


def _transpose(M):
    return tuple(tuple(M[i][j] for i in range(len(M))) for j in range(len(M[0])))


@dataclass(frozen=True)
class LPStructure:
    """Validated block family E_1..E_l with products E^(q) and left inverses A_q.

    ``sizes`` is (m_0, ..., m_l); E_j has shape (m_{j-1}, m_j) and full column
    rank; A_q = ((E^(q))^T E^(q))^{-1} (E^(q))^T satisfies A_q E^(q) = I exactly.
    """

    sizes: tuple
    blocks: tuple
    products: tuple
    left_inverses: tuple

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def depth(self) -> int:
        return len(self.blocks)


def lp_check(blocks) -> LPStructure:
    """Validate a block upper-shift structure and build exact left inverses.

    Raises LPConditionError naming the first offending block index when a
    shape is inconsistent, a size increases, or a rank is deficient.
    """
    blocks = tuple(_as_matrix(E) for E in blocks)
    if not blocks:
        return LPStructure(sizes=(), blocks=(), products=(), left_inverses=())
    sizes = [len(blocks[0])]
    for j, E in enumerate(blocks, start=1):
        m_prev, m_cur = len(E), len(E[0])
        if m_prev != sizes[-1]:
            raise LPConditionError(
                f"block {j} has {m_prev} rows, expected {sizes[-1]}", index=j
            )
        if m_cur > m_prev:
            raise LPConditionError(
                f"block {j} widens from {m_prev} to {m_cur} columns", index=j
            )
        if m_cur < 1:
            raise LPConditionError(f"block {j} is empty", index=j)
        if _rank(_transpose(E)) != m_cur:
            raise LPConditionError(f"block {j} is column-rank deficient", index=j)
        sizes.append(m_cur)

    products = []
    left_inverses = []
    acc = blocks[0]
    for q, E in enumerate(blocks, start=1):
        if q > 1:
            acc = _matmul(acc, E)
        if _rank(_transpose(acc)) != sizes[q]:
            raise LPConditionError(f"product through block {q} is rank deficient", index=q)
        gram = _matmul(_transpose(acc), acc)
        # the rows of acc are the columns of acc^T, so this solves gram A_q = acc^T
        A_q = _transpose(_solve_square(gram, acc))
        check = _matmul(A_q, acc)
        eye = tuple(
            tuple(Fraction(1) if i == j else Fraction(0) for j in range(sizes[q]))
            for i in range(sizes[q])
        )
        if check != eye:
            raise LPConditionError(f"left inverse failed A_q E^(q) = I at q = {q}", index=q)
        products.append(acc)
        left_inverses.append(A_q)
    return LPStructure(
        sizes=tuple(sizes),
        blocks=blocks,
        products=tuple(products),
        left_inverses=tuple(left_inverses),
    )


def lp_full_matrix(structure: LPStructure):
    """Assemble the full n x n drift matrix with E_j on the j-th superdiagonal block."""
    n = structure.n
    sizes = structure.sizes
    offsets = [0]
    for m in sizes:
        offsets.append(offsets[-1] + m)
    M = [[Fraction(0)] * n for _ in range(n)]
    for j, E in enumerate(structure.blocks):
        r0, c0 = offsets[j], offsets[j + 1]
        for i in range(len(E)):
            for k in range(len(E[0])):
                M[r0 + i][c0 + k] = E[i][k]
    return tuple(tuple(row) for row in M)


@dataclass(frozen=True)
class LPBracketReport:
    """Comparison of commutator-built tower rows against the block products."""

    consistent: bool
    failing: tuple | None  # first failing (p, q) or None
    depth: int


def lp_bracket_consistency(structure: LPStructure) -> LPBracketReport:
    """Check that level q of the tower of the assembled drift equals E^(q) rows.

    Row p of X_{.,q} must vanish outside column block q and match row p of
    E^(q) inside it.  An empty structure is vacuously consistent.
    """
    if not structure.blocks:
        return LPBracketReport(consistent=True, failing=None, depth=0)
    B = lp_full_matrix(structure)
    m0 = structure.sizes[0]
    tower = bracket_tower(B, m0)
    if tower.r != structure.depth:
        return LPBracketReport(consistent=False, failing=(0, tower.r), depth=structure.depth)
    offsets = [0]
    for m in structure.sizes:
        offsets.append(offsets[-1] + m)
    for q in range(1, structure.depth + 1):
        prod = structure.products[q - 1]
        c0, c1 = offsets[q], offsets[q + 1]
        for p in range(m0):
            row = tower.rows[p][q]
            expected = [Fraction(0)] * structure.n
            for k in range(c1 - c0):
                expected[c0 + k] = prod[p][k]
            if list(row) != expected:
                return LPBracketReport(consistent=False, failing=(p, q), depth=structure.depth)
    return LPBracketReport(consistent=True, failing=None, depth=structure.depth)
