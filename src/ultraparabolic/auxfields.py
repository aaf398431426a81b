"""Time-weighted auxiliary vector fields and their exact operator identities.

Combines the bracket tower of a linear drift with fractional powers of t into
the auxiliary fields

    H = sum_{q=0..r} I^q(t^delta) X_{p,q},

where I is the antiderivative vanishing at t = 0, together with the graded
family H^(k) obtained from H by an exact recursion, its closed form, and the
inversion expressing t-weighted tower fields back in terms of the H^(k).

Everything is verified symbolically: operators act on polynomial test
functions in (t, x) with exact rational coefficients and rational t-exponents,
and every identity is required to cancel to the literal zero polynomial.
The grading parameter delta is a concrete rational > 1 (not a symbolic
indeterminate), so t-exponents like delta + q are ordinary fractions.

GradedPolynomial and AuxiliaryField take their sparse term algebra (pruning
of zero coefficients, +, -, scale, ==) from ``vfalgebra._ExactTerms``, the
base RationalPoly uses too; each class here adds only its key validation and
its own operations (d/dt, d/dx_i, multiplication by t^w, application).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .vfalgebra import (
    BracketTower,
    RationalPolyVectorField,
    _accumulate,
    _ExactTerms,
    _lower,
    as_fraction,
)

__all__ = [
    "DeltaExponent",
    "GradedPolynomial",
    "AuxiliaryField",
    "InversionCertificate",
    "gamma_ratio",
    "gamma_quotient",
    "antiderivative",
    "build_H",
    "verify_commutator_identity",
    "build_Hk_recursive",
    "build_Hk_closed",
    "invert_to_X",
    "random_graded_polynomial",
]


def _check_delta(delta) -> Fraction:
    delta = as_fraction(delta)
    if delta <= 1:
        raise ValueError(f"grading exponent must be a rational > 1, got {delta}")
    return delta


@dataclass(frozen=True)
class DeltaExponent:
    """Exponent of t of the form base + offset (base rational > 1) or plain offset."""

    base: Fraction | None
    offset: int

    def __post_init__(self):
        if self.base is not None:
            object.__setattr__(self, "base", _check_delta(self.base))
        if self.offset < 0:
            raise ValueError("negative offsets are not used by the auxiliary calculus")

    @property
    def value(self) -> Fraction:
        return Fraction(self.offset) if self.base is None else self.base + self.offset

    def __repr__(self):
        if self.base is None:
            return f"t^{self.offset}"
        return f"t^({self.base}+{self.offset})" if self.offset else f"t^({self.base})"


# ---------------------------------------------------------------------------
# graded polynomials in (t, x)


class GradedPolynomial(_ExactTerms):
    """Polynomial in t and x_1..x_n whose t-exponents are exact rationals >= 0.

    Terms map (t_exponent, x multi-index) to a nonzero Fraction.  Repeated
    application of the auxiliary fields accumulates rational t-exponents
    (multiples of delta plus integers); they merge by exact value.
    """

    __slots__ = ()

    def _key(self, key):
        texp, alpha = key
        texp = as_fraction(texp)
        if texp < 0:
            raise ValueError("negative t-exponent")
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.n or any(a < 0 for a in alpha):
            raise ValueError(f"bad x multi-index {alpha}")
        return texp, alpha

    @classmethod
    def monomial(cls, n, texp, alpha, coeff=1):
        return cls(n, {(as_fraction(texp), tuple(alpha)): coeff})

    def mul_t(self, texp):
        """Multiply by the monomial t^texp (texp rational, result exponents must stay >= 0)."""
        texp = as_fraction(texp)
        return GradedPolynomial(
            self.n, {(t + texp, a): c for (t, a), c in self.terms.items()}
        )

    def dt(self):
        """Exact d/dt; a term t^w contributes w t^(w-1) (w = 0 terms vanish)."""
        # note: exponents here stay >= 0 because fractional powers have base > 1
        return self._like({(t - 1, a): c * t for (t, a), c in self.terms.items() if t})

    def dx(self, i: int):
        return self._like(
            {(t, _lower(a, i)): c * a[i] for (t, a), c in self.terms.items() if a[i]}
        )

    def mul_xpoly(self, p):
        """Multiply by a RationalPoly in the x variables."""
        self._check_n(p)
        return self._like(_accumulate({}, (
            ((t, tuple(x + y for x, y in zip(a, beta))), c * cb)
            for (t, a), c in self.terms.items()
            for beta, cb in p.terms.items()
        )))

    def leading_term(self):
        """Canonically first term (sorted by t-exponent then x multi-index), or None."""
        if not self.terms:
            return None
        key = min(self.terms)
        return key, self.terms[key]

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (t, a) in sorted(self.terms):
            c = self.terms[(t, a)]
            mono = [f"t^{t}"] if t else []
            mono += [f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}" for i, e in enumerate(a) if e]
            bits.append(f"{c}" + ("*" + "*".join(mono) if mono else ""))
        return " + ".join(bits)


def random_graded_polynomial(n, rng, degree=4, coeff_bound=3, max_terms=6):
    """Seeded random test polynomial in (t, x): total degree <= degree, small integer coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        total = rng.randint(0, degree)
        texp = rng.randint(0, total)
        rest = total - texp
        alpha = [0] * n
        for _ in range(rest):
            alpha[rng.randrange(n)] += 1
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            terms[(Fraction(texp), tuple(alpha))] = Fraction(c)
    if not terms:
        terms[(Fraction(0), (0,) * n)] = Fraction(1)
    return GradedPolynomial(n, terms)


# ---------------------------------------------------------------------------
# gamma ratios and antiderivatives


def gamma_ratio(delta, q: int) -> Fraction:
    """Exact Gamma(delta+1)/Gamma(delta+1+q) = 1 / prod_{i=1..q} (delta + i)."""
    delta = _check_delta(delta)
    q = int(q)
    if q < 0:
        raise ValueError("q must be >= 0")
    denom = Fraction(1)
    for i in range(1, q + 1):
        denom *= delta + i
    return 1 / denom


def gamma_quotient(delta, a: int, b: int) -> Fraction:
    """Exact Gamma(delta+a)/Gamma(delta+b) for integer shifts a, b >= 0."""
    delta = as_fraction(delta)
    a, b = int(a), int(b)
    if a >= b:
        out = Fraction(1)
        for i in range(b, a):
            out *= delta + i
        return out
    return 1 / gamma_quotient(delta, b, a)


def antiderivative(f: GradedPolynomial, k: int = 1) -> GradedPolynomial:
    """Iterated t-antiderivative I^k vanishing at t = 0, exact per term."""
    if k < 0:
        raise ValueError("k must be >= 0")
    for _ in range(k):
        terms = {}
        for (t, a), c in f.terms.items():
            if t <= -1:
                raise ValueError("antiderivative undefined for exponent <= -1")
            terms[(t + 1, a)] = c / (t + 1)
        f = GradedPolynomial(f.n, terms)
    return f


# ---------------------------------------------------------------------------
# auxiliary fields


class AuxiliaryField(_ExactTerms):
    """Linear combination of terms c * t^w * d/dx_j with exact rational data.

    ``terms`` maps (t-exponent, direction) to the coefficient.  ``delta`` and
    ``direction`` record which grading/coordinate the field was built for (used
    by the identity checks); structural equality compares terms only.
    """

    __slots__ = ("delta", "direction")

    def __init__(self, n: int, terms=None, delta=None, direction=None):
        super().__init__(n, terms)
        self.delta = None if delta is None else as_fraction(delta)
        self.direction = direction

    def _key(self, key):
        texp, j = key
        texp = as_fraction(texp)
        j = int(j)
        if not 0 <= j < self.n:
            raise ValueError(f"direction {j} out of range")
        return texp, j

    def _like(self, terms):
        """Results keep the grading and direction metadata of ``self``."""
        out = super()._like(terms)
        out.delta = self.delta
        out.direction = self.direction
        return out

    @classmethod
    def from_rows(cls, n, contributions, delta=None, direction=None):
        """Build from (coefficient, DeltaExponent, row) triples, expanding the rows."""
        terms: dict = {}
        for coeff, exponent, row in contributions:
            coeff = as_fraction(coeff)
            w = exponent.value if isinstance(exponent, DeltaExponent) else as_fraction(exponent)
            _accumulate(terms, (
                ((w, j), coeff * rj)
                for j, rj in enumerate(map(as_fraction, row))
                if coeff and rj
            ))
        return cls(n, terms, delta=delta, direction=direction)

    def apply(self, f: GradedPolynomial) -> GradedPolynomial:
        """H f = sum of c t^w d_j f over H's terms, each product added as it is formed.

        No intermediate polynomial is built.  A product with a negative
        t-exponent raises ValueError, as a GradedPolynomial holding it would.
        """
        if f.n != self.n:
            raise ValueError("dimension mismatch")

        def products():
            for (w, j), c in self.terms.items():
                for (t, a), b in f.terms.items():
                    if a[j]:
                        if t + w < 0:
                            raise ValueError("negative t-exponent")
                        yield (t + w, _lower(a, j)), c * (b * a[j])

        return f._like(_accumulate({}, products()))

    def apply_power(self, d: int, f: GradedPolynomial) -> GradedPolynomial:
        if d < 0:
            raise ValueError("power must be >= 0")
        for _ in range(d):
            f = self.apply(f)
        return f

    def mul_t(self, shift=1):
        """Multiply the operator by t^shift on the left (commutes with the rows)."""
        shift = as_fraction(shift)
        return self._like({(w + shift, j): c for (w, j), c in self.terms.items()})

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({c})*t^({w})*d{j + 1}" for (w, j), c in sorted(self.terms.items())
        )


# ---------------------------------------------------------------------------
# constructions


def build_H(tower: BracketTower, delta, p: int) -> AuxiliaryField:
    """H = sum_{q=0..r} I^q(t^delta) X_{p,q} with exact gamma-ratio weights."""
    delta = _check_delta(delta)
    if not 0 <= p < tower.m0:
        raise ValueError(f"p must index a diffused coordinate (0..{tower.m0 - 1})")
    contributions = [
        (gamma_ratio(delta, q), DeltaExponent(delta, q), tower.rows[p][q])
        for q in range(tower.r + 1)
    ]
    return AuxiliaryField.from_rows(tower.n, contributions, delta=delta, direction=p)


def _drift_apply(X: RationalPolyVectorField, g: GradedPolynomial) -> GradedPolynomial:
    """Apply a time-independent polynomial vector field to a graded polynomial."""
    out = GradedPolynomial.zero(g.n)
    for j, c in enumerate(X.components):
        if c.terms:
            out = out + g.dx(j).mul_xpoly(c)
    if X.zeroth.terms:
        out = out + g.mul_xpoly(X.zeroth)
    return out


def verify_commutator_identity(
    H: AuxiliaryField,
    X: RationalPolyVectorField,
    d: int,
    f: GradedPolynomial,
) -> GradedPolynomial:
    """Residual of ([d/dt + X, H^d] - d*delta*t^(delta-1) d_p H^(d-1)) applied to f.

    The commutator is evaluated literally: both operator orders are applied to
    the test polynomial and subtracted, so a zero residual certifies the
    identity on f with no rounding anywhere.  H must carry its delta/direction
    metadata (as produced by build_H).
    """
    if H.delta is None or H.direction is None:
        raise ValueError("H must carry delta/direction metadata; build it with build_H")
    if d < 1:
        raise ValueError("power d must be >= 1")
    if X.n != H.n or f.n != H.n:
        raise ValueError("dimension mismatch")
    delta, p = H.delta, H.direction

    Hd1_f = H.apply_power(d - 1, f)
    Hd_f = H.apply(Hd1_f)
    lhs = Hd_f.dt() + _drift_apply(X, Hd_f)
    f_evolved = f.dt() + _drift_apply(X, f)
    lhs = lhs - H.apply_power(d, f_evolved)

    rhs = Hd1_f.dx(p).mul_t(delta - 1).scale(Fraction(d) * delta)
    return lhs - rhs


def build_Hk_recursive(tower: BracketTower, delta, p: int, k: int) -> AuxiliaryField:
    """Graded field H^(k) by the exact recursion.

    H^(0) = prod_{i=1..r}(delta+i) * H, and
    H^(k) = (delta+r+k) t H^(k-1)[delta] - (delta+2k-1) H^(k-1)[delta+1],
    where [.] marks the grading the lower field is built at.  k is restricted
    to 0..r (the family is not defined beyond the tower depth).
    """
    delta = _check_delta(delta)
    k = int(k)
    if not 0 <= k <= tower.r:
        raise ValueError(f"k must lie in 0..r = 0..{tower.r}, got {k}")
    if k == 0:
        scale = gamma_quotient(delta, tower.r + 1, 1)  # Gamma(delta+1+r)/Gamma(delta+1)
        return build_H(tower, delta, p).scale(scale)
    lower_same = build_Hk_recursive(tower, delta, p, k - 1)
    lower_up = build_Hk_recursive(tower, delta + 1, p, k - 1)
    out = lower_same.mul_t().scale(delta + tower.r + k) - lower_up.scale(delta + 2 * k - 1)
    return AuxiliaryField(out.n, out.terms, delta=delta, direction=p)


def build_Hk_closed(tower: BracketTower, delta, p: int, k: int) -> AuxiliaryField:
    """Closed form H^(k) = sum_{q=k..r} q!/(q-k)! * G(d+r+1+k)/G(d+q+1+k) * t^(d+k+q) X_{p,q}."""
    delta = _check_delta(delta)
    k = int(k)
    if not 0 <= k <= tower.r:
        raise ValueError(f"k must lie in 0..r = 0..{tower.r}, got {k}")
    if not 0 <= p < tower.m0:
        raise ValueError("p out of range")
    contributions = []
    for q in range(k, tower.r + 1):
        coeff = math.perm(q, k) * gamma_quotient(delta, tower.r + 1 + k, q + 1 + k)
        contributions.append((coeff, DeltaExponent(delta, k + q), tower.rows[p][q]))
    return AuxiliaryField.from_rows(tower.n, contributions, delta=delta, direction=p)


@dataclass
class InversionCertificate:
    """t^(delta+r+l) X_{p,l} reconstructed from the graded fields.

    ``combination`` lists the H^(k) building blocks as {(base_delta, k): coeff};
    ``expansion`` is their exact sum, ``target`` the weighted tower field, and
    ``exact`` whether the residual vanished identically.
    """

    level: int
    target: AuxiliaryField
    expansion: AuxiliaryField
    combination: dict
    residual: AuxiliaryField
    exact: bool


def invert_to_X(tower: BracketTower, delta, p: int, level: int) -> InversionCertificate:
    """Expand t^(delta+r+level) X_{p,level} in the graded fields H^(k).

    Top level: t^(delta+2r) X_{p,r} = H^(r)/r!.  Lower levels iterate downward,
    substituting the already-expanded higher levels into

        t^(d+r+l) X_{p,l} = G(d+r+1+l)/(l! G(d+2r+1)) *
            { H^(l) at grading d+r-l  -  sum_{q>l} q!/(q-l)! G(d+2r+1)/G(d+r+1+q) t^(d+r+q) X_{p,q} }.

    The certificate carries the flattened block combination and the exact
    residual against the target field.
    """
    delta = _check_delta(delta)
    r = tower.r
    if not 0 <= level <= r:
        raise ValueError(f"level must lie in 0..r = 0..{r}")
    if not 0 <= p < tower.m0:
        raise ValueError("p out of range")

    def expand(l: int):
        if l == r:
            coeff = Fraction(1, math.factorial(r))
            combo = {(delta, r): coeff}
            field = build_Hk_closed(tower, delta, p, r).scale(coeff)
            return field, combo
        outer = gamma_quotient(delta, r + 1 + l, 2 * r + 1) / math.factorial(l)
        base_shift = delta + r - l
        field = build_Hk_closed(tower, base_shift, p, l)
        combo = {(base_shift, l): Fraction(1)}
        for q in range(l + 1, r + 1):
            sub_field, sub_combo = expand(q)
            c = math.perm(q, l) * gamma_quotient(delta, 2 * r + 1, r + 1 + q)
            field = field - sub_field.scale(c)
            for key, val in sub_combo.items():
                combo[key] = combo.get(key, Fraction(0)) - c * val
        field = field.scale(outer)
        combo = {key: outer * val for key, val in combo.items() if val}
        return field, combo

    expansion, combination = expand(level)
    target = AuxiliaryField.from_rows(
        tower.n,
        [(Fraction(1), DeltaExponent(delta, r + level), tower.rows[p][level])],
        delta=delta,
        direction=p,
    )
    residual = expansion - target
    return InversionCertificate(
        level=level,
        target=target,
        expansion=expansion,
        combination=combination,
        residual=residual,
        exact=residual.is_zero(),
    )
