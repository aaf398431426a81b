"""Auxiliary-field tests: gamma ratios, graded fields, exact operator identities.

The antiderivative operator doubles as the oracle for the gamma-ratio weights,
and the commutator identity is exercised on seeded random test polynomials
with a perturbation check proving the residual actually detects corruption.
"""

import random
from fractions import Fraction

import pytest

from ultraparabolic.auxfields import (
    AuxiliaryField,
    DeltaExponent,
    GradedPolynomial,
    antiderivative,
    build_H,
    build_Hk_closed,
    build_Hk_recursive,
    gamma_quotient,
    gamma_ratio,
    invert_to_X,
    random_graded_polynomial,
    verify_commutator_identity,
)
from ultraparabolic.vfalgebra import BracketTower, bracket_tower

F = Fraction

DELTAS = (F(3, 2), F(2), F(7, 3))


def kolmogorov_tower():
    return bracket_tower([["0", "1"], ["0", "0"]], 1)


def chain_tower(n):
    B = [[F(0)] * n for _ in range(n)]
    for i in range(n - 1):
        B[i][i + 1] = F(1)
    return bracket_tower(B, 1)


def fokker_planck_tower():
    B = [[F(0)] * 6 for _ in range(6)]
    for j in range(3):
        B[j][3 + j] = F(1)
    return bracket_tower(B, 3)


ALL_TOWERS = [kolmogorov_tower(), chain_tower(3), chain_tower(4), fokker_planck_tower()]


# ---------------------------------------------------------------------------
# gamma ratios and antiderivatives


def test_gamma_ratio_frozen_values():
    assert gamma_ratio(F(2), 2) == F(1, 12)
    assert gamma_ratio(F(3, 2), 1) == F(2, 5)
    assert gamma_ratio(F(7, 3), 0) == 1


def test_gamma_ratio_telescopes():
    for delta in DELTAS:
        acc = F(1)
        for q in range(6):
            assert gamma_ratio(delta, q) * acc == 1
            acc *= delta + q + 1


def test_gamma_ratio_matches_antiderivative():
    # I^q(t^delta) must equal gamma_ratio(delta, q) t^(delta+q), e.g. I^2 t^2 = t^4/12
    for delta in DELTAS:
        h = GradedPolynomial.monomial(1, delta, (0,))
        for q in range(5):
            expected = GradedPolynomial.monomial(1, delta + q, (0,), gamma_ratio(delta, q))
            assert antiderivative(h, q) == expected
    assert antiderivative(GradedPolynomial.monomial(1, 2, (0,)), 2) == GradedPolynomial.monomial(
        1, 4, (0,), F(1, 12)
    )


def test_antiderivative_inverts_under_dt():
    rng = random.Random(2)
    for _ in range(10):
        f = random_graded_polynomial(2, rng)
        k = rng.randint(1, 3)
        assert antiderivative(f, k).dt() == antiderivative(f, k - 1)


def test_gamma_quotient_consistency():
    for delta in DELTAS:
        for a in range(5):
            for b in range(5):
                q = gamma_quotient(delta, a, b)
                assert q * gamma_quotient(delta, b, a) == 1


def test_delta_exponent_validation():
    with pytest.raises(ValueError):
        DeltaExponent(F(1), 0)  # base must exceed 1
    with pytest.raises(ValueError):
        gamma_ratio(F(1, 2), 1)
    assert DeltaExponent(F(3, 2), 2).value == F(7, 2)
    assert DeltaExponent(None, 3).value == 3


# ---------------------------------------------------------------------------
# H and the graded family


def test_build_H_kolmogorov_frozen():
    H = build_H(kolmogorov_tower(), F(3, 2), 0)
    assert H.terms == {(F(3, 2), 0): F(1), (F(5, 2), 1): F(2, 5)}
    for delta in DELTAS:
        H = build_H(kolmogorov_tower(), delta, 0)
        assert H.terms == {(delta, 0): F(1), (delta + 1, 1): 1 / (delta + 1)}


def test_graded_family_frozen_kolmogorov():
    t = kolmogorov_tower()
    for delta in DELTAS:
        H0 = build_Hk_recursive(t, delta, 0, 0)
        assert H0.terms == {(delta, 0): delta + 1, (delta + 1, 1): F(1)}
        H1 = build_Hk_recursive(t, delta, 0, 1)
        assert H1.terms == {(delta + 2, 1): F(1)}


def test_closed_equals_recursive_all_towers():
    for tower in ALL_TOWERS:
        for delta in DELTAS:
            for p in range(tower.m0):
                for k in range(tower.r + 1):
                    assert build_Hk_closed(tower, delta, p, k) == build_Hk_recursive(
                        tower, delta, p, k
                    ), (tower.n, delta, p, k)


def test_closed_form_depth2_coefficients():
    # chain with r = 2, k = 1: terms (delta+3) t^(delta+2) X_1 and 2 t^(delta+3) X_2
    t3 = chain_tower(3)
    for delta in DELTAS:
        H1 = build_Hk_closed(t3, delta, 0, 1)
        assert H1.terms == {(delta + 2, 1): delta + 3, (delta + 3, 2): F(2)}


def test_top_graded_field_single_term():
    # H^(r) = r! t^(delta+2r) X_{p,r}
    for tower in ALL_TOWERS:
        r = tower.r
        fact = 1
        for i in range(2, r + 1):
            fact *= i
        for delta in DELTAS:
            H = build_Hk_closed(tower, delta, 0, r)
            row = tower.rows[0][r]
            expected = {
                (delta + 2 * r, j): fact * c for j, c in enumerate(row) if c
            }
            assert H.terms == expected


def test_k_beyond_depth_rejected():
    t = kolmogorov_tower()
    with pytest.raises(ValueError):
        build_Hk_recursive(t, F(2), 0, t.r + 1)
    with pytest.raises(ValueError):
        build_Hk_closed(t, F(2), 0, t.r + 1)


# ---------------------------------------------------------------------------
# the commutator identity


def test_identity_frozen_example():
    # Kolmogorov, d = 1, f = t x2: exact zero residual
    t = kolmogorov_tower()
    H = build_H(t, F(3, 2), 0)
    f = GradedPolynomial.monomial(2, 1, (0, 1))
    assert verify_commutator_identity(H, t.drift_field(), 1, f).is_zero()


def test_identity_random_sweep():
    rng = random.Random(97)
    for tower in ALL_TOWERS:
        X = tower.drift_field()
        for delta in DELTAS:
            for p in range(tower.m0):
                H = build_H(tower, delta, p)
                for d in range(1, 5):
                    for _ in range(3):
                        f = random_graded_polynomial(tower.n, rng)
                        res = verify_commutator_identity(H, X, d, f)
                        assert res.is_zero(), (tower.n, delta, p, d, res.leading_term())


def test_identity_detects_tampered_tower():
    # corrupt one tower row entry: the residual must become nonzero
    t = kolmogorov_tower()
    rows = ((t.rows[0][0], (F(0), F(6, 5))),)  # perturbed X_{0,1}
    bad = BracketTower(n=2, m0=1, r=1, rows=rows, drift_matrix=t.drift_matrix)
    H = build_H(bad, F(3, 2), 0)
    f = GradedPolynomial.monomial(2, 1, (0, 1))
    res = verify_commutator_identity(H, bad.drift_field(), 1, f)
    # the corrupted level leaks (6/5 - 1) t^delta d2 into the commutator
    assert not res.is_zero()
    (texp, alpha), coeff = res.leading_term()
    assert texp == F(5, 2) and alpha == (0, 0) and coeff == F(1, 5)


def test_identity_requires_metadata():
    t = kolmogorov_tower()
    H = build_H(t, F(2), 0)
    anonymous = AuxiliaryField(H.n, H.terms)
    f = GradedPolynomial.monomial(2, 0, (1, 0))
    with pytest.raises(ValueError):
        verify_commutator_identity(anonymous, t.drift_field(), 1, f)


# ---------------------------------------------------------------------------
# inversion


def test_inversion_kolmogorov_level0_frozen():
    # (1/(delta+2)) { H^(0) at delta+1  -  t^(delta+2) X_{0,1} } = t^(delta+1) X_{0,0}
    t = kolmogorov_tower()
    for delta in DELTAS:
        cert = invert_to_X(t, delta, 0, 0)
        assert cert.exact
        assert cert.target.terms == {(delta + 1, 0): F(1)}
        # block combination: H^(0) at grading delta+1 and H^(1) at delta with weights
        assert cert.combination[(delta + 1, 0)] == 1 / (delta + 2)


def test_inversion_exact_all_levels():
    for tower in ALL_TOWERS:
        for delta in DELTAS:
            for p in range(tower.m0):
                for level in range(tower.r + 1):
                    cert = invert_to_X(tower, delta, p, level)
                    assert cert.exact, (tower.n, delta, p, level, cert.residual)
                    # expansion must be expressible purely in the graded blocks
                    recon = AuxiliaryField(tower.n, {})
                    for (base, k), c in cert.combination.items():
                        recon = recon + build_Hk_closed(tower, base, p, k).scale(c)
                    assert recon == cert.expansion


def test_inversion_top_level_is_scaled_graded_field():
    t3 = chain_tower(3)
    cert = invert_to_X(t3, F(2), 0, 2)
    assert cert.combination == {(F(2), 2): F(1, 2)}  # H^(2)/2!


# ---------------------------------------------------------------------------
# graded polynomial mechanics


def test_graded_polynomial_dt_dx():
    f = GradedPolynomial(2, {(F(5, 2), (1, 2)): F(4)})
    assert f.dt() == GradedPolynomial(2, {(F(3, 2), (1, 2)): F(10)})
    assert f.dx(1) == GradedPolynomial(2, {(F(5, 2), (1, 1)): F(8)})
    assert f.dx(0).dx(0).is_zero()


def test_auxiliary_field_application():
    # (t^2 d1) applied to x1^2 x2 gives 2 t^2 x1 x2
    A = AuxiliaryField(2, {(F(2), 0): F(1)})
    f = GradedPolynomial.monomial(2, 0, (2, 1))
    assert A.apply(f) == GradedPolynomial.monomial(2, 2, (1, 1), 2)
    assert A.apply_power(2, f) == GradedPolynomial.monomial(2, 4, (0, 1), 2)
    assert A.apply_power(3, f).is_zero()


def test_auxiliary_field_application_is_the_sum_of_its_terms():
    # the literal definition: sum over H's terms of c t^w d_j f, term by term
    rng = random.Random(5)
    for tower in ALL_TOWERS:
        for delta in DELTAS:
            H = build_H(tower, delta, 0)
            f = random_graded_polynomial(tower.n, rng)
            for _ in range(3):
                want = GradedPolynomial.zero(tower.n)
                for (w, j), c in H.terms.items():
                    want = want + f.dx(j).mul_t(w).scale(c)
                got = H.apply(f)
                assert got == want and list(got.terms) == list(want.terms)
                f = got


def test_auxiliary_field_application_refuses_a_negative_t_exponent():
    A = AuxiliaryField(2, {(F(-3, 2), 0): F(1), (F(1), 1): F(2)})
    assert A.apply(GradedPolynomial.monomial(2, F(3, 2), (1, 1))) == GradedPolynomial(
        2, {(F(0), (0, 1)): F(1), (F(5, 2), (1, 0)): F(2)})
    with pytest.raises(ValueError, match="negative t-exponent"):
        A.apply(GradedPolynomial.monomial(2, 1, (1, 0)))
    # a term that d_j annihilates is not formed, so its exponent is never checked
    assert A.apply(GradedPolynomial.monomial(2, 1, (0, 0))).is_zero()
