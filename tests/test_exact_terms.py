"""The sparse exact-term algebra shared by RationalPoly, GradedPolynomial and AuxiliaryField.

Each class is driven through the same checks: cancellation leaves no key
behind, equality does not depend on the order terms were built in, and
mixing variable counts is refused.  AuxiliaryField must also carry its
grading metadata through every operation that returns a field.
"""

import random
from fractions import Fraction

import pytest

from ultraparabolic.auxfields import AuxiliaryField, GradedPolynomial
from ultraparabolic.vfalgebra import RationalPoly

F = Fraction


def _poly_key(n, k):
    return tuple([k % 3] + [0] * (n - 1))


def _graded_key(n, k):
    return (F(k, 2), tuple([k % 2] + [0] * (n - 1)))


def _field_key(n, k):
    return (F(k, 3), k % n)


def _poly_product():
    # (x1 + x2)(x1 - x2) = x1^2 - x2^2: the x1*x2 terms cancel
    x1, x2 = RationalPoly.variable(2, 0), RationalPoly.variable(2, 1)
    return (x1 + x2) * (x1 - x2), (1, 1)


def _graded_product():
    # t (x1 + x2) * (x1 - x2) = t x1^2 - t x2^2
    g = GradedPolynomial(2, {(F(1), (1, 0)): 1, (F(1), (0, 1)): 1})
    p = RationalPoly(2, {(1, 0): 1, (0, 1): -1})
    return g.mul_xpoly(p), (F(1), (1, 1))


def _field_product():
    # 2 t^2 (d1 + d2) - 2 t^2 d1 = 2 t^2 d2: the d1 rows cancel inside from_rows
    rows = [(2, F(2), (1, 1)), (-2, F(2), (1, 0))]
    return AuxiliaryField.from_rows(2, rows), (F(2), 0)


CLASSES = {
    "RationalPoly": (RationalPoly, _poly_key, _poly_product),
    "GradedPolynomial": (GradedPolynomial, _graded_key, _graded_product),
    "AuxiliaryField": (AuxiliaryField, _field_key, _field_product),
}


def _random_items(key, n, rng, count=6):
    items = {}
    for _ in range(count):
        items[key(n, rng.randrange(8))] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return list(items.items())


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_shared_exact_term_algebra(name):
    cls, key, product = CLASSES[name]
    rng = random.Random(2024)
    for _ in range(20):
        items = _random_items(key, 2, rng)
        x = cls(2, dict(items))
        assert 0 not in x.terms.values()

        # x + (-x), x - x and x.scale(0) are the zero of the class
        for zero in (x + (-x), x - x, x.scale(0)):
            assert type(zero) is cls and zero.terms == {} and zero.is_zero()
            assert zero == cls.zero(2)

        # terms that cancel in a sum leave no key
        y = cls(2, {k: -c for k, c in items[:3]})
        kept = {k for k, c in items[3:] if c}
        assert set((x + y).terms) == kept

        # equality ignores the order in which terms were built
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert cls(2, dict(shuffled)) == x
        parts = [cls(2, {k: c}) for k, c in items]
        forward, backward = cls.zero(2), cls.zero(2)
        for part in parts:
            forward = forward + part
        for part in reversed(parts):
            backward = backward + part
        assert forward == backward == x

    # terms that cancel in a product leave no key
    result, cancelled = product()
    assert cancelled not in result.terms
    assert 0 not in result.terms.values() and result.terms


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_mixed_variable_counts_are_refused(name):
    cls, key, _ = CLASSES[name]
    two, three = cls(2, {key(2, 1): 1}), cls(3, {key(3, 1): 1})
    with pytest.raises(ValueError, match="variable-count mismatch"):
        two + three
    with pytest.raises(ValueError, match="variable-count mismatch"):
        two - three
    assert two != three


def test_mixed_variable_counts_are_refused_in_products():
    with pytest.raises(ValueError, match="variable-count mismatch"):
        RationalPoly.variable(2, 0) * RationalPoly.variable(3, 0)
    with pytest.raises(ValueError, match="variable-count mismatch"):
        GradedPolynomial.monomial(2, 1, (1, 0)).mul_xpoly(RationalPoly.variable(3, 0))


def test_auxiliary_field_keeps_its_metadata():
    H = AuxiliaryField(2, {(F(3, 2), 0): 1, (F(5, 2), 1): F(-2, 3)}, delta=F(3, 2), direction=0)
    other = AuxiliaryField(2, {(F(3, 2), 0): 4})
    for result in (H + other, H - other, -H, H.scale(F(7, 5)), H.scale(0), H.mul_t(),
                   H.mul_t(F(1, 2))):
        assert (result.delta, result.direction) == (F(3, 2), 0)
    assert H.mul_t(F(1, 2)).terms == {(F(2), 0): 1, (F(3), 1): F(-2, 3)}
    assert H == AuxiliaryField(2, dict(H.terms))  # equality ignores the metadata
