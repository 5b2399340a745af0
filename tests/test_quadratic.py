import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mnhd.errors import InvalidParameterError, MixedRadicandsError
from mnhd.quadratic import (QuadMatrix, QuadValue, int_combination,
                            poly_mul_mod, quad_combination, square_free_split)

F = Fraction


def test_square_free_split():
    assert square_free_split(0) == (1, 0)
    assert square_free_split(1) == (1, 1)
    assert square_free_split(8) == (2, 2)
    assert square_free_split(45) == (3, 5)
    assert square_free_split(7) == (1, 7)
    with pytest.raises(InvalidParameterError):
        square_free_split(-1)


def test_canonicalization():
    assert QuadValue(0, 1, 8) == QuadValue(0, 2, 2)
    assert QuadValue(3, 5, 1) == QuadValue(8)
    assert QuadValue(3, 0, 7).m == 0
    assert QuadValue(1, F(1, 2), 12) == QuadValue(1, 1, 3)


def test_basic_arithmetic():
    x = QuadValue(4, -1, 2)  # 4 - sqrt(2)
    y = QuadValue(4, 1, 2)
    assert x + y == QuadValue(8)
    assert x * y == QuadValue(14)  # 16 - 2
    assert y - x == QuadValue(0, 2, 2)
    assert -x == QuadValue(-4, 1, 2)
    assert 2 * x == QuadValue(8, -2, 2)
    assert x - 4 == QuadValue(0, -1, 2)
    assert 1 / y == y.inverse()
    assert x / y * y == x


def test_conjugate_product_is_rational():
    x = QuadValue(F(3, 7), F(-2, 5), 11)
    prod = x * x.conjugate()
    assert prod.b == 0
    assert prod.as_fraction() == F(3, 7) ** 2 - 11 * F(2, 5) ** 2


def test_inverse_and_zero_division():
    x = QuadValue(1, 1, 5)
    assert x * x.inverse() == QuadValue(1)
    with pytest.raises(ZeroDivisionError):
        QuadValue(0).inverse()


def test_mixed_radicands_rejected():
    with pytest.raises(MixedRadicandsError):
        QuadValue(0, 1, 2) + QuadValue(0, 1, 3)
    # rationals combine with anything
    assert QuadValue(2) + QuadValue(0, 1, 3) == QuadValue(2, 1, 3)


def test_sign_analysis_exact():
    assert QuadValue(0, 1, 2).sign() == 1
    assert QuadValue(-1, 1, 2).sign() == 1  # sqrt(2) > 1
    assert QuadValue(-2, 1, 2).sign() == -1  # sqrt(2) < 2
    assert QuadValue(3, -2, 2).sign() == 1  # 9 > 8
    assert QuadValue(F(7, 5), -1, 2).sign() == -1  # 49/25 < 2
    assert QuadValue(0).sign() == 0


def test_ordering():
    vals = [QuadValue(4, 1, 2), QuadValue(0), QuadValue(4, -1, 2), QuadValue(8)]
    assert sorted(vals) == [QuadValue(0), QuadValue(4, -1, 2),
                            QuadValue(4, 1, 2), QuadValue(8)]
    assert QuadValue(4, -1, 2) < 3
    assert QuadValue(4, 1, 2) > 5


def test_float_and_str():
    x = QuadValue(4, -1, 2)
    assert abs(float(x) - (4 - 2 ** 0.5)) < 1e-15
    assert str(x) == "4-sqrt(2)"
    assert str(QuadValue(F(1, 2), F(1, 10), 5)) == "1/2+1/10*sqrt(5)"
    assert str(QuadValue(F(-1, 3))) == "-1/3"
    assert QuadValue(7).json_dict() == {"a": "7", "b": "0", "m": 0}


rationals = st.fractions(min_value=-50, max_value=50,
                         max_denominator=40)
radicands = st.sampled_from([2, 3, 5, 6, 7, 10, 13])


@given(a=rationals, b=rationals, m=radicands)
def test_sign_matches_high_precision_float(a, b, m):
    x = QuadValue(a, b, m)
    with mpmath.workdps(50):
        val = mpmath.mpf(a.numerator) / a.denominator \
            + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(m)
        expected = 0 if val == 0 else (1 if val > 0 else -1)
    assert x.sign() == expected


@given(a1=rationals, b1=rationals, a2=rationals, b2=rationals, m=radicands)
def test_comparison_matches_high_precision_float(a1, b1, a2, b2, m):
    x, y = QuadValue(a1, b1, m), QuadValue(a2, b2, m)
    with mpmath.workdps(50):
        root = mpmath.sqrt(m)
        fx = mpmath.mpf(a1.numerator) / a1.denominator \
            + mpmath.mpf(b1.numerator) / b1.denominator * root
        fy = mpmath.mpf(a2.numerator) / a2.denominator \
            + mpmath.mpf(b2.numerator) / b2.denominator * root
    assert (x < y) == (fx < fy)
    assert (x == y) == (a1 == a2 and b1 == b2)


@given(a1=rationals, b1=rationals, a2=rationals, b2=rationals, m=radicands)
def test_field_identities(a1, b1, a2, b2, m):
    x, y = QuadValue(a1, b1, m), QuadValue(a2, b2, m)
    assert (x + y) - y == x
    assert x * y == y * x
    if y != 0:
        assert (x / y) * y == x


# -- QuadMatrix --------------------------------------------------------------


def _rand_quad_matrix(rng, n, m, den):
    a = np.array(rng.integers(-9, 10, (n, n)), dtype=object)
    b = np.array(rng.integers(-9, 10, (n, n)), dtype=object)
    return QuadMatrix(a, b, den, m)


def _entries(A):
    return [[A.entry(i, j) for j in range(A.n)] for i in range(A.n)]


def _entrywise_matmul(A, B):
    n = A.n
    return [[sum((A.entry(i, k) * B.entry(k, j) for k in range(n)),
                 QuadValue(0)) for j in range(n)] for i in range(n)]


def test_quadmatrix_matmul_against_entrywise_oracle():
    rng = np.random.default_rng(7)
    A = _rand_quad_matrix(rng, 4, 3, 2)
    B = _rand_quad_matrix(rng, 4, 3, 5)
    C = A @ B
    oracle = _entrywise_matmul(A, B)
    for i in range(4):
        for j in range(4):
            assert C.entry(i, j) == oracle[i][j]


def test_quadmatrix_scale_eq():
    rng = np.random.default_rng(11)
    A = _rand_quad_matrix(rng, 3, 5, 4)
    c = QuadValue(F(2, 3), F(-1, 6), 5)
    S = A.scale(c)
    for i in range(3):
        for j in range(3):
            assert S.entry(i, j) == c * A.entry(i, j)
    assert A == A.scale(QuadValue(2)).scale(QuadValue(F(1, 2)))
    assert (A - A).is_zero()


def test_quadmatrix_constant_over_a_radicand():
    value = QuadValue(F(1, 3), F(1, 2), 2)
    A = QuadMatrix.constant(3, value)
    assert A.m == 2
    assert _entries(A) == [[value] * 3] * 3


def test_quadmatrix_identity_and_constant():
    eye = QuadMatrix.identity(3, 2)
    assert eye.entry(0, 0) == QuadValue(1)
    assert eye.entry(0, 1) == QuadValue(0)
    J = QuadMatrix.constant(4, QuadValue(F(1, 4)))
    assert (J @ J) == J  # (J/n)^2 = J/n


# -- the checked int64 kernel ------------------------------------------------


def _python_matmul(A, B, m):
    """(a, b) integer parts of A @ B in plain Python ints."""
    n = A.n
    ia, ib = A.a.tolist(), A.b.tolist()
    ja, jb = B.a.tolist(), B.b.tolist()
    a = [[sum(ia[i][k] * ja[k][j] + m * ib[i][k] * jb[k][j] for k in range(n))
          for j in range(n)] for i in range(n)]
    b = [[sum(ia[i][k] * jb[k][j] + ib[i][k] * ja[k][j] for k in range(n))
          for j in range(n)] for i in range(n)]
    return a, b


def _python_reduce(Q):
    g = Q.den
    for x in Q.a.ravel().tolist() + Q.b.ravel().tolist():
        g = math.gcd(g, x)
    return ([[x // g for x in row] for row in Q.a.tolist()],
            [[x // g for x in row] for row in Q.b.tolist()], Q.den // g)


def _near(rng, top, n):
    """n-by-n object matrix of positive entries just below top."""
    return np.array(rng.integers(top - 1000, top, (n, n)).tolist(), dtype=object)


@pytest.mark.parametrize("bits", [31, 40])
@pytest.mark.parametrize("m", [0, 5])
@pytest.mark.parametrize("side", ["below", "above"])
def test_quadmatrix_kernel_matches_python_ints_at_int64_bound(bits, m, side):
    rng = np.random.default_rng(bits + m)
    n = 3
    x = 2 ** bits
    # largest right-hand entry that keeps n * max|x| * max|y| * (1 + m), the
    # bound on A's int64 part (the sqrt(m) products times m added in), below
    # 2^62; "above" goes far enough past it that the true sums overflow int64
    limit = (2 ** 62 - 1) // (n * x * (m + 1))
    y = limit if side == "below" else 4 * limit
    A = QuadMatrix(_near(rng, x, n), _near(rng, x, n) if m else
                   np.zeros((n, n), dtype=object), 6, m)
    B = QuadMatrix(_near(rng, y, n), _near(rng, y, n), 10, m)
    C = A @ B
    assert (C.a.tolist(), C.b.tolist()) == _python_matmul(A, B, m)
    assert C.den == 60
    dtype = np.int64 if side == "below" else object
    assert C.a.dtype == C.b.dtype == dtype
    if side == "above":
        assert max(abs(v) for v in C.a.ravel().tolist()) >= 2 ** 63
    for Q in (C, QuadMatrix(A.a * 12, A.b * 12, 18, m)):
        R = Q.reduce()
        assert (R.a.tolist(), R.b.tolist(), R.den) == _python_reduce(Q)


@pytest.mark.parametrize("m", [0, 5])
@pytest.mark.parametrize("top", [2 ** 20, 2 ** 61, 2 ** 70])
def test_quadmatrix_operations_match_python_ints(m, top):
    # every QuadMatrix operation on int64 and object-dtype operands against
    # QuadValue entries in Python ints; n = 5 entries near 2^61 make int64
    # sums and cross-multiplications wrap if any skips the kernels
    rng = random.Random(top + m)
    n = 5
    int64 = np.int64 if top < 2 ** 63 else object

    def rows(positive=False):
        lo = top - top // 8 if positive else -top
        return [[rng.randint(lo, top) for _ in range(n)] for _ in range(n)]

    def quad(dtype, den, positive=False):
        b = rows() if m else [[0] * n for _ in range(n)]
        return QuadMatrix(np.array(rows(positive), dtype=dtype),
                          np.array(b, dtype=dtype), den, m)

    def each(f, *Qs):
        return [[f(*(Q.entry(i, j) for Q in Qs)) for j in range(n)]
                for i in range(n)]

    A = quad(int64, 6, positive=True)
    C = quad(int64, 10)
    B = quad(object, 15)
    c = QuadValue(F(-7, 3), F(5, 2), m)
    results = []
    for X, Y in ((A, C), (A, B), (B, A)):
        results += [X + Y, X - Y, X @ Y]
        assert _entries(X + Y) == each(lambda x, y: x + y, X, Y)
        assert _entries(X - Y) == each(lambda x, y: x - y, X, Y)
        assert _entries(X @ Y) == _entrywise_matmul(X, Y)
        assert X != Y
    for X in (A, B, C):
        results += [-X, X.scale(c)]
        assert _entries(-X) == each(lambda x: -x, X)
        assert _entries(X.scale(c)) == each(lambda x: c * x, X)
        # the same values over a larger denominator, and one entry off by 1/den
        same = QuadMatrix(*(np.array([[7 * v for v in row] for row in P.tolist()],
                                     dtype=object) for P in (X.a, X.b)),
                          7 * X.den, m)
        assert X == same and same == X
        off = X.a.tolist()
        off[n - 1][0] += 1
        assert X != QuadMatrix(np.array(off, dtype=object), X.b, X.den, m)
        R = X.scale(QuadValue(12)).reduce()
        assert _entries(R) == each(lambda x: 12 * x, X)
        assert math.gcd(R.den, *R.a.ravel().tolist(),
                        *R.b.ravel().tolist()) == 1
    if top == 2 ** 20:  # every entry fits, so every result stays int64
        assert {Q.a.dtype for Q in results} == {Q.b.dtype for Q in results} \
            == {np.dtype(np.int64)}
    # a zero matrix over a denominator past int64 reduces to den 1
    Z = QuadMatrix(A.a, A.b, 2 ** 70, m) - QuadMatrix(A.a, A.b, 2 ** 70, m)
    assert Z.is_zero() and Z.reduce().den == 1


def test_int_combination_memory_is_two_matrices():
    # eight int64 terms summed into one accumulator as they are formed: a
    # list of every term c * M first holds nine n x n matrices at once
    n = 100
    mats = [np.full((n, n), k, dtype=np.int64) for k in range(1, 9)]
    coeffs = list(range(2, 10))
    expected = sum(c * k for c, k in zip(coeffs, range(1, 9)))
    int_combination(coeffs, mats)
    tracemalloc.start()
    try:
        out = int_combination(coeffs, mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dtype == np.int64 and (out == expected).all()
    assert peak < 3 * n * n * 8


@pytest.mark.parametrize("m", [0, 5])
@pytest.mark.parametrize("top", [2 ** 20, 2 ** 61, 2 ** 70])
def test_quad_combination_matches_python_int_sums(m, top):
    # 2^20 entries sum on int64; 2^61 entries fit int64 but their sums
    # pass the 2^62 bound, and 2^70 entries do not fit, so both of those
    # take the object-dtype fallback
    rng = random.Random(top + m)
    n = 3
    mats = [np.array([[rng.randint(-top, top) for _ in range(n)]
                      for _ in range(n)],
                     dtype=np.int64 if top < 2 ** 63 else object)
            for _ in range(4)]
    mats.append(np.eye(n, dtype=np.int64))
    coeffs = [QuadValue(F(rng.randint(-9, 9), rng.randint(1, 12)),
                        F(rng.randint(-9, 9), rng.randint(1, 12)), m)
              for _ in mats]
    P = quad_combination(coeffs, mats, m)
    for i in range(n):
        for j in range(n):
            assert P.entry(i, j) == sum(
                (c * int(M[i, j]) for c, M in zip(coeffs, mats)),
                QuadValue(0)), (i, j)
    assert math.gcd(P.den, *P.a.ravel().tolist(), *P.b.ravel().tolist()) == 1
    # int64 while the sums fit; the a part of 2^61 entries passes the bound
    # and the b part is zero when m = 0
    dtype = np.int64 if top == 2 ** 20 else object
    assert P.m == m and P.a.dtype == dtype
    assert P.b.dtype == (dtype if m else np.int64)
    with pytest.raises(MixedRadicandsError):
        quad_combination([QuadValue(0, 1, 2)], mats[:1], 3)
    with pytest.raises(ValueError):  # a coefficient without a matrix
        quad_combination(coeffs, mats[:-1], m)


# -- polynomials modulo a monic integer polynomial ---------------------------


def test_poly_mul_mod_reduces_by_the_monic_modulus():
    r2 = QuadValue.sqrt_int(2)
    one, x = QuadValue(1), [QuadValue(0), QuadValue(1)]
    mu = [-2, 0, 1]  # x^2 - 2, whose roots are +-sqrt(2)
    assert poly_mul_mod(x, x, mu) == [QuadValue(2), QuadValue(0)]
    assert poly_mul_mod([r2, one], [-r2, one], mu) == [0, 0]  # x^2 - 2
    # (x + 1/2)(x^2 + x/3) = x^3 + 5/6 x^2 + 1/6 x, modulo x^3 - 2x + 5
    got = poly_mul_mod([QuadValue(F(1, 2)), one],
                       [QuadValue(0), QuadValue(F(1, 3)), one], [5, -2, 0, 1])
    assert got == [QuadValue(-5), QuadValue(F(13, 6)), QuadValue(F(5, 6))]
    # a product of lower degree than mu is padded, not reduced
    assert poly_mul_mod([r2], [r2], [0, 0, 0, 1]) == [2, 0, 0]
    with pytest.raises(MixedRadicandsError):
        poly_mul_mod([r2], [QuadValue.sqrt_int(3)], mu)
