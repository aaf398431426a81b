"""Exact-algebra tests: commutators, bracket towers, spans, block structures.

Oracles are kept independent of the implementation: tower rows are checked
against exact matrix powers computed here, ranks against a fraction-free
minor-determinant scan, and span output against direct reconstruction.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultraparabolic.vfalgebra import (
    BracketTowerError,
    LPConditionError,
    RationalPoly,
    RationalPolyVectorField,
    SpanError,
    bracket_tower,
    commutator,
    hormander_check,
    lp_bracket_consistency,
    lp_check,
    lp_full_matrix,
    span_decompose,
)

F = Fraction


# ---------------------------------------------------------------------------
# oracles


def det_exact(M):
    """Fraction-free cofactor determinant (small matrices only)."""
    n = len(M)
    if n == 1:
        return M[0][0]
    total = F(0)
    sign = F(1)
    for j in range(n):
        if M[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in M[1:]]
            total += sign * M[0][j] * det_exact(minor)
        sign = -sign
    return total


def rank_by_minors(M):
    """Rank as the largest k with some nonvanishing k x k minor."""
    from itertools import combinations

    rows, cols = len(M), len(M[0])
    for k in range(min(rows, cols), 0, -1):
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                sub = [[M[i][j] for j in ci] for i in ri]
                if det_exact(sub):
                    return k
    return 0


def matpow_rows(B, p, q):
    """Row e_p B^q by exact matrix-vector products (independent of the tower code)."""
    n = len(B)
    v = [F(1) if i == p else F(0) for i in range(n)]
    for _ in range(q):
        v = [sum(v[k] * B[k][j] for k in range(n)) for j in range(n)]
    return tuple(v)


def random_poly(rng, n, degree=2):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        alpha = tuple(rng.randint(0, degree) for _ in range(n))
        if sum(alpha) <= degree:
            terms[alpha] = F(rng.randint(-3, 3))
    return RationalPoly(n, terms)


def random_field(rng, n, degree=2):
    return RationalPolyVectorField(
        n,
        tuple(random_poly(rng, n, degree) for _ in range(n)),
        random_poly(rng, n, degree),
    )


# ---------------------------------------------------------------------------
# polynomials and commutators


def test_poly_arithmetic_exact():
    p = RationalPoly(2, {(1, 1): 1}) + RationalPoly.constant(2, F(1, 3))  # x1 x2 + 1/3
    assert p.terms == {(1, 1): 1, (0, 0): F(1, 3)}
    q = p.scale(3) - RationalPoly(2, {(1, 1): 3, (0, 2): F(-1, 2)})
    assert q.terms == {(0, 0): 1, (0, 2): F(1, 2)}
    assert (p - p).is_zero()
    # d_1 (x1 x2 + 1/3) = x2, through the vector field d_1
    assert RationalPolyVectorField.coordinate(2, 0).apply(p) == RationalPoly(2, {(0, 1): 1})


def test_commutator_basic_example():
    # [d_1, x1 d_2] = d_2
    n = 2
    d1 = RationalPolyVectorField.coordinate(n, 0)
    x1d2 = RationalPolyVectorField(n, (RationalPoly.zero(n), RationalPoly(n, {(1, 0): 1})))
    c = commutator(d1, x1d2)
    assert c == RationalPolyVectorField.coordinate(n, 1)


def test_commutator_fokker_planck_pairs():
    # with coordinates (v1..v3, x1..x3) and X = v . grad_x:  [d_{v_p}, X] = d_{x_p}
    n = 6
    B = [[F(0)] * n for _ in range(n)]
    for j in range(3):
        B[j][3 + j] = F(1)
    X = RationalPolyVectorField.drift(B)
    for p in range(3):
        c = commutator(RationalPolyVectorField.coordinate(n, p), X)
        assert c == RationalPolyVectorField.coordinate(n, 3 + p)


def test_commutator_antisymmetry_random():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 3)
        V, W = random_field(rng, n), random_field(rng, n)
        lhs = commutator(V, W)
        rhs = commutator(W, V)
        assert (lhs + rhs).is_zero()


def test_commutator_jacobi_random():
    rng = random.Random(11)
    for _ in range(15):
        n = rng.randint(2, 4)
        U, V, W = (random_field(rng, n) for _ in range(3))
        total = (
            commutator(U, commutator(V, W))
            + commutator(V, commutator(W, U))
            + commutator(W, commutator(U, V))
        )
        assert total.is_zero()


@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
@settings(max_examples=30, deadline=None)
def test_commutator_bilinearity(a, b, c, d):
    n = 2
    rng = random.Random(a * 8 + b * 4 + c * 2 + d)
    U, V, W = (random_field(rng, n, degree=1) for _ in range(3))
    left = commutator(U.scale(a) + V.scale(b), W)
    right = commutator(U, W).scale(a) + commutator(V, W).scale(b)
    assert left == right


def test_operator_commutator_matches_double_application():
    # [V, W] f == V(W f) - W(V f) for full operators including zeroth parts
    rng = random.Random(3)
    for _ in range(10):
        n = rng.randint(1, 3)
        V, W = random_field(rng, n), random_field(rng, n)
        f = random_poly(rng, n, degree=3)
        direct = V.apply(W.apply(f)) - W.apply(V.apply(f))
        assert commutator(V, W).apply(f) == direct


# ---------------------------------------------------------------------------
# bracket towers


def test_tower_matrix_identity_random_B():
    # commutator-built rows must equal e_p B^q for arbitrary drift matrices
    rng = random.Random(21)
    for _ in range(20):
        n = rng.randint(2, 4)
        B = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        X = RationalPolyVectorField.drift(B)
        for p in range(n):
            field = RationalPolyVectorField.coordinate(n, p)
            for q in range(1, 5):
                field = commutator(field, X)
                row = field.constant_row()
                assert row == matpow_rows(B, p, q)


def test_kolmogorov_tower():
    t = bracket_tower([["0", "1"], ["0", "0"]], 1)
    assert t.r == 1
    assert t.rows[0][0] == (F(1), F(0))
    assert t.rows[0][1] == (F(0), F(1))
    cert = hormander_check(t)
    assert cert.satisfied and cert.rank == 2
    assert cert.witness == ((0, 0), (0, 1))


def test_chain3_tower_rank():
    B = [["0", "1", "0"], ["0", "0", "1"], ["0", "0", "0"]]
    t = bracket_tower(B, 1)
    assert t.r == 2
    assert t.rows[0][2] == (F(0), F(0), F(1))
    cert = hormander_check(t)
    assert cert.satisfied and cert.rank == 3


def test_fokker_planck_tower():
    n = 6
    B = [[0] * n for _ in range(n)]
    for j in range(3):
        B[j][3 + j] = 1
    t = bracket_tower(B, 3)
    assert t.r == 1
    cert = hormander_check(t)
    assert cert.satisfied and cert.rank == 6


def test_heat_control_full_diffusion():
    # B = 0 with diffusion on every coordinate: depth-zero tower, spans
    B = [[0, 0], [0, 0]]
    t = bracket_tower(B, 2)
    assert t.r == 0
    assert hormander_check(t).satisfied


def test_heat_partial_diffusion_fails():
    # B = 0 with m0 < n: rank m0, not satisfied
    t = bracket_tower([[0, 0], [0, 0]], 1)
    assert t.r == 0
    cert = hormander_check(t)
    assert not cert.satisfied and cert.rank == 1


def test_tower_nontermination_rejected():
    with pytest.raises(BracketTowerError):
        bracket_tower([[1, 0], [0, 1]], 1)


def test_rank_against_minor_oracle():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 4)
        m0 = rng.randint(1, n)
        # strictly upper-triangular B so the tower terminates
        B = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                B[i][j] = F(rng.randint(-2, 2))
        t = bracket_tower(B, m0)
        allrows = [t.rows[p][q] for q in range(t.r + 1) for p in range(m0)]
        assert hormander_check(t).rank == rank_by_minors(allrows)


# ---------------------------------------------------------------------------
# span decomposition


def test_span_kolmogorov_K2():
    t = bracket_tower([["0", "1"], ["0", "0"]], 1)
    dec = span_decompose(t)
    assert dec.coefficients == {1: {(0, 1): F(1)}}
    assert dec.K == 2


def test_span_fokker_planck_K2():
    n = 6
    B = [[0] * n for _ in range(n)]
    for j in range(3):
        B[j][3 + j] = 1
    dec = span_decompose(bracket_tower(B, 3))
    assert dec.K == 2
    for j in range(3, 6):
        assert dec.coefficients[j] == {(j - 3, 1): F(1)}


def test_span_reconstructs_random_nilpotent():
    rng = random.Random(13)
    built = 0
    while built < 15:
        n = rng.randint(2, 4)
        m0 = rng.randint(1, n - 1)
        B = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                B[i][j] = F(rng.randint(-2, 2), rng.randint(1, 2))
        t = bracket_tower(B, m0)
        if not hormander_check(t).satisfied:
            continue
        built += 1
        dec = span_decompose(t)
        for j in range(m0, n):
            recon = [F(0)] * n
            for (p, q), c in dec.coefficients[j].items():
                recon = [a + c * b for a, b in zip(recon, t.rows[p][q])]
            assert recon == [F(1) if k == j else F(0) for k in range(n)]
        assert dec.K >= 1


def test_span_requires_spanning():
    t = bracket_tower([[0, 0], [0, 0]], 1)
    with pytest.raises(SpanError):
        span_decompose(t)


# ---------------------------------------------------------------------------
# block structures


def test_lp_two_level_example():
    st_ = lp_check([[["1"], ["0"]], [["1"]]])
    assert st_.sizes == (2, 1, 1)
    assert st_.products[1] == ((F(1),), (F(0),))
    assert st_.left_inverses[1] == ((F(1), F(0)),)


def test_lp_left_inverse_exact_random():
    rng = random.Random(31)
    for _ in range(10):
        m = sorted([rng.randint(1, 3) for _ in range(3)], reverse=True)
        blocks = []
        prev = m[0]
        ok = True
        for cur in m[1:]:
            # full-column-rank block: identity on top, random fill below
            E = [[F(1) if i == j else F(0) for j in range(cur)] for i in range(cur)]
            for _ in range(prev - cur):
                E.append([F(rng.randint(-2, 2)) for _ in range(cur)])
            rng.shuffle(E)
            blocks.append(E)
            prev = cur
        struct = lp_check(blocks)
        for q, (A, G) in enumerate(zip(struct.left_inverses, struct.products), start=1):
            prod = [
                [sum(A[i][k] * G[k][j] for k in range(len(G))) for j in range(len(G[0]))]
                for i in range(len(A))
            ]
            eye = [[F(1) if i == j else F(0) for j in range(len(A))] for i in range(len(A))]
            assert prod == eye, f"A_q E^(q) != I at q={q}"
        assert ok


def test_lp_rank_deficient_block_flagged():
    with pytest.raises(LPConditionError) as err:
        lp_check([[["1", "0"], ["0", "0"], ["0", "0"]], [["1"], ["0"]]])
    assert err.value.index == 1


def test_lp_widening_block_flagged():
    with pytest.raises(LPConditionError) as err:
        lp_check([[["1", "0", "0"], ["0", "1", "0"]]])
    assert err.value.index == 1


def test_lp_bracket_consistency_examples():
    # kolmogorov block form: single 1x1 block
    rep = lp_bracket_consistency(lp_check([[["1"]]]))
    assert rep.consistent
    # deeper structure with nontrivial entries
    struct = lp_check([[["1"], ["2"]], [["3"]]])
    rep = lp_bracket_consistency(struct)
    assert rep.consistent and rep.failing is None
    # full matrix has the blocks on superdiagonal slots
    M = lp_full_matrix(struct)
    assert M[0][2] == 1 and M[1][2] == 2 and M[2][3] == 3


def test_lp_bracket_consistency_detects_mismatch():
    struct = lp_check([[["1"], ["2"]], [["3"]]])
    # tamper with a product entry: report must locate a failing (p, q)
    bad = struct.__class__(
        sizes=struct.sizes,
        blocks=struct.blocks,
        products=(struct.products[0], ((F(3),), (F(7),))),
        left_inverses=struct.left_inverses,
    )
    rep = lp_bracket_consistency(bad)
    assert not rep.consistent
    assert rep.failing == (1, 2)


def test_lp_empty_vacuous():
    rep = lp_bracket_consistency(lp_check([]))
    assert rep.consistent and rep.depth == 0


def test_float_inputs_rejected():
    with pytest.raises(TypeError):
        RationalPoly(1, {(1,): 0.5})
    with pytest.raises(TypeError):
        bracket_tower([[0.0, 1.0], [0.0, 0.0]], 1)
