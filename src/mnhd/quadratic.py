"""Exact arithmetic in quadratic fields Q(sqrt(m)).

QuadValue is the scalar a + b*sqrt(m) with rational a, b and a fixed square-free
radicand m >= 0.  Values with b = 0 are plain rationals and combine freely with
values over any radicand; two genuinely irrational values only combine when
their radicands agree.  Comparisons are decided exactly by sign analysis, never
through floating point.

QuadMatrix holds a square matrix of such values as a pair of integer matrices
plus one common denominator, so matrix products reduce to a few integer
matmuls.  Every QuadMatrix operation runs on the checked integer kernels
`int_matmul` and `int_combination` (`int_inner` sits beside them), which use
int64 only when a bound computed from the largest operand magnitudes proves
that no entry and no partial sum reaches 2^62, and object-dtype Python ints
past it; the integer matrices are stored as the kernels return them.  No
float takes part in either path.  `quad_combination`, which builds an exact
projector as a polynomial in L, is two `int_combination`s.  `poly_mul_mod`
multiplies polynomials over Q(sqrt(m)) modulo a monic integer polynomial in
Python ints; the bipartite certificate checks its projector algebra with it,
so `analyze` builds no QuadMatrix.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import InvalidParameterError, MixedRadicandsError

RationalLike = Union[int, Fraction]
_ZERO = Fraction(0)


def square_free_split(k: int) -> tuple[int, int]:
    """Return (s, m) with k = s*s*m and m square-free.  Requires k >= 0."""
    if k < 0:
        raise InvalidParameterError("radicand must be nonnegative")
    if k in (0, 1):
        return 1, k
    s, m, p = 1, k, 2
    while p * p <= m:
        while m % (p * p) == 0:
            m //= p * p
            s *= p
        p += 1 if p == 2 else 2
    return s, m


@total_ordering
class QuadValue:
    """Exact number a + b*sqrt(m), m square-free and nonnegative."""

    __slots__ = ("a", "b", "m")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0, m: int = 0):
        if not isinstance(a, Fraction):
            a = Fraction(a)
        if not isinstance(b, Fraction):
            b = Fraction(b)
        if b == 0:
            m = 0
        elif m == 0:
            b = _ZERO
        elif m == 1:
            a, b, m = a + b, _ZERO, 0
        else:
            s, m = square_free_split(m)
            if s != 1:
                b *= s
            if m == 1:
                a, b, m = a + b, _ZERO, 0
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError("QuadValue is immutable")

    @classmethod
    def sqrt_int(cls, k: int) -> "QuadValue":
        """Exact square root of a nonnegative integer."""
        return cls(0, 1, k)

    # -- predicates ------------------------------------------------------

    @property
    def is_integer(self) -> bool:
        return self.b == 0 and self.a.denominator == 1

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with m b^2
        diff = a * a - self.m * b * b
        if a > 0:  # b < 0
            return (diff > 0) - (diff < 0)
        return (diff < 0) - (diff > 0)

    def conjugate(self) -> "QuadValue":
        return QuadValue(self.a, -self.b, self.m)

    # -- arithmetic ------------------------------------------------------

    def _join(self, other) -> tuple["QuadValue", "QuadValue", int]:
        if not isinstance(other, QuadValue):
            if isinstance(other, (int, Fraction)):
                other = QuadValue(other)
            else:
                return NotImplemented, NotImplemented, -1
        if self.b != 0 and other.b != 0 and self.m != other.m:
            raise MixedRadicandsError(f"sqrt({self.m}) vs sqrt({other.m})")
        m = self.m if self.b != 0 else other.m
        return self, other, m

    def __add__(self, other):
        if isinstance(other, QuadValue) and self.m == other.m:
            return QuadValue(self.a + other.a, self.b + other.b, self.m)
        x, y, m = self._join(other)
        if x is NotImplemented:
            return NotImplemented
        return QuadValue(x.a + y.a, x.b + y.b, m)

    __radd__ = __add__

    def __neg__(self):
        return QuadValue(-self.a, -self.b, self.m)

    def __sub__(self, other):
        if isinstance(other, QuadValue) and self.m == other.m:
            return QuadValue(self.a - other.a, self.b - other.b, self.m)
        x, y, m = self._join(other)
        if x is NotImplemented:
            return NotImplemented
        return QuadValue(x.a - y.a, x.b - y.b, m)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QuadValue) and self.m == other.m:
            if self.b == 0 and other.b == 0:
                return QuadValue(self.a * other.a)
            m = self.m
            return QuadValue(self.a * other.a + m * self.b * other.b,
                             self.a * other.b + self.b * other.a, m)
        x, y, m = self._join(other)
        if x is NotImplemented:
            return NotImplemented
        return QuadValue(x.a * y.a + m * x.b * y.b, x.a * y.b + x.b * y.a, m)

    __rmul__ = __mul__

    def inverse(self) -> "QuadValue":
        if self.b == 0:
            if self.a == 0:
                raise ZeroDivisionError("QuadValue division by zero")
            return QuadValue(1 / self.a)
        norm = self.a * self.a - self.m * self.b * self.b  # never 0: sqrt(m) irrational
        return QuadValue(self.a / norm, -self.b / norm, self.m)

    def __truediv__(self, other):
        x, y, _ = self._join(other)
        if x is NotImplemented:
            return NotImplemented
        return x * y.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QuadValue(other)
        if not isinstance(other, QuadValue):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.m == other.m

    def __lt__(self, other):
        x, y, _ = self._join(other)
        if x is NotImplemented:
            return NotImplemented
        return (x - y).sign() < 0

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.m))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    # -- conversions -----------------------------------------------------

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.m)

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def __repr__(self):
        return f"QuadValue({self.a!r}, {self.b!r}, {self.m})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.m})"
        bpart = root if self.b == 1 else f"-{root}" if self.b == -1 else f"{self.b}*{root}"
        if self.a == 0:
            return bpart
        return f"{self.a}+{bpart}" if self.b > 0 else f"{self.a}{bpart}"

    def json_dict(self) -> dict:
        """Serialized form {"a": "p/q", "b": "r/s", "m": k}."""
        return {"a": str(self.a), "b": str(self.b), "m": self.m}


# ---------------------------------------------------------------------------
# checked integer kernels

# An int64 kernel runs only when the operands' largest magnitudes bound every
# entry and partial sum it forms below this, so no int64 operation can wrap.
INT64_BOUND = 1 << 62


def _int64(x: np.ndarray) -> tuple[np.ndarray, int] | None:
    """(x as int64, max |x| as a Python int), or None when an entry does not
    fit in int64."""
    try:
        y = np.asarray(x, dtype=np.int64)
    except OverflowError:
        return None
    return y, max(int(y.max()), -int(y.min())) if y.size else 0


def int_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact product of two integer matrices: int64 zeros, without
    multiplying, when a factor is all zero; int64 when
    n * max|x| * max|y| < 2^62; else object dtype (Python ints)."""
    if not (x.any() and y.any()):
        return np.zeros((x.shape[0], y.shape[1]), dtype=np.int64)
    xs, ys = _int64(x), _int64(y)
    if xs and ys and x.shape[1] * xs[1] * ys[1] < INT64_BOUND:
        return xs[0] @ ys[0]
    return np.asarray(x, dtype=object) @ np.asarray(y, dtype=object)


def int_inner(x: np.ndarray, y: np.ndarray) -> int:
    """Exact Frobenius inner product sum(x * y) of two integer matrices."""
    xs, ys = _int64(x), _int64(y)
    if xs and ys and x.size * xs[1] * ys[1] < INT64_BOUND:
        return int((xs[0] * ys[0]).sum())
    return int((np.asarray(x, dtype=object) * np.asarray(y, dtype=object)).sum())


def int_combination(coeffs: Sequence[int], mats: Sequence[np.ndarray]
                    ) -> np.ndarray:
    """Exact sum(c * M) of integer matrices with integer coefficients, one
    per matrix: int64 when sum |c| * max|M| < 2^62 over the nonzero c, else
    object dtype.  The terms are added into one accumulator as they are
    formed, so working memory is two matrices whatever their number."""
    pairs = [(c, M) for c, M in zip(coeffs, mats, strict=True) if c]
    checked = [_int64(M) for _, M in pairs]
    if None not in checked and sum(
            abs(c) * mx for (c, _), (_, mx) in zip(pairs, checked)) < INT64_BOUND:
        out = np.zeros(mats[0].shape, dtype=np.int64)
        terms = [(c, M) for (c, _), (M, mx) in zip(pairs, checked) if mx]
    else:
        out = np.zeros(mats[0].shape, dtype=object)
        terms = pairs
    for c, M in terms:
        out += c * np.asarray(M, dtype=out.dtype)
    return out


def _integer_parts(coeffs: Sequence[QuadValue], m: int
                   ) -> tuple[list[int], list[int], int]:
    """(A, B, den) with coeffs[k] = (A[k] + B[k] sqrt(m)) / den: integer
    parts over the common denominator of values in Q(sqrt(m))."""
    if any(c.b and c.m != m for c in coeffs):
        raise MixedRadicandsError(f"coefficients {coeffs} not in Q(sqrt({m}))")
    den = math.lcm(*(x.denominator for c in coeffs for x in (c.a, c.b)))
    return ([int(c.a * den) for c in coeffs], [int(c.b * den) for c in coeffs],
            den)


def quad_combination(coeffs: Sequence[QuadValue], mats: Sequence[np.ndarray],
                     m: int) -> "QuadMatrix":
    """Exact sum(c * M) over integer matrices M, coefficients c in Q(sqrt(m)):
    two `int_combination`s over a common denominator, then reduced."""
    a, b, den = _integer_parts(coeffs, m)
    return QuadMatrix(int_combination(a, mats), int_combination(b, mats),
                      den, m).reduce()


def poly_mul_mod(p: Sequence[QuadValue], q: Sequence[QuadValue],
                 mu: Sequence[int]) -> list[QuadValue]:
    """Ascending coefficients of p * q modulo mu, for polynomials p and q
    with ascending QuadValue coefficients in one Q(sqrt(m)) and mu a monic
    integer polynomial (ascending, mu[-1] = 1); len(mu) - 1 of them.

    The product is an integer convolution of p's and q's integer parts over
    their common denominators, and dividing by the monic mu keeps it
    integral; zero coefficients of p are skipped."""
    m = next((c.m for c in (*p, *q) if c.b), 0)
    (pa, pb, pden), (qa, qb, qden) = (_integer_parts(x, m) for x in (p, q))
    k = len(mu) - 1
    a = [0] * max(len(p) + len(q) - 1, k)
    b = a.copy()
    for i, (x, y) in enumerate(zip(pa, pb)):
        if x or y:
            for j, (z, w) in enumerate(zip(qa, qb)):
                a[i + j] += x * z + m * y * w
                b[i + j] += x * w + y * z
    for top in range(len(a) - 1, k - 1, -1):  # x^top = x^(top-k) (x^k - mu)
        ca, cb = a.pop(), b.pop()
        for j, c in enumerate(mu[:-1]):
            a[top - k + j] -= c * ca
            b[top - k + j] -= c * cb
    den = pden * qden
    return [QuadValue(Fraction(x, den), Fraction(y, den), m)
            for x, y in zip(a, b)]


class QuadMatrix:
    """Square matrix over Q(sqrt(m)), stored as (A + B*sqrt(m)) / den.

    A and B are integer ndarrays as `int_matmul` and `int_combination`
    return them (int64 while their bound holds, else object dtype), and every
    operation forms its entries through those kernels, so none can wrap; den
    is a positive integer.  Entries come back out as QuadValue.
    """

    __slots__ = ("a", "b", "den", "m", "n")

    def __init__(self, a: np.ndarray, b: np.ndarray, den: int, m: int):
        self.a = a
        self.b = b
        self.den = den
        self.m = m
        self.n = a.shape[0]

    @classmethod
    def from_int(cls, mat: np.ndarray | Iterable, m: int = 0) -> "QuadMatrix":
        a = int_combination([1], [np.asarray(mat)])
        return cls(a, np.zeros_like(a), 1, m)

    @classmethod
    def identity(cls, n: int, m: int = 0) -> "QuadMatrix":
        return cls.from_int(np.eye(n, dtype=np.int64), m)

    @classmethod
    def constant(cls, n: int, value: QuadValue, m: int | None = None) -> "QuadMatrix":
        """Matrix with every entry equal to value."""
        return quad_combination([value], [np.ones((n, n), dtype=np.int64)],
                                value.m if m is None else m)

    def _coerce(self, other: "QuadMatrix") -> int:
        if self.m != 0 and other.m != 0 and self.m != other.m:
            raise MixedRadicandsError(f"sqrt({self.m}) vs sqrt({other.m})")
        return self.m or other.m

    def _plus(self, other: "QuadMatrix", sign: int) -> "QuadMatrix":
        """self + sign * other over the common denominator."""
        m = self._coerce(other)
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        return QuadMatrix(int_combination([s, t], [self.a, other.a]),
                          int_combination([s, t], [self.b, other.b]), den, m)

    def __add__(self, other: "QuadMatrix") -> "QuadMatrix":
        return self._plus(other, 1)

    def __sub__(self, other: "QuadMatrix") -> "QuadMatrix":
        return self._plus(other, -1)

    def __neg__(self) -> "QuadMatrix":
        return self.scale(QuadValue(-1))

    def __matmul__(self, other: "QuadMatrix") -> "QuadMatrix":
        m = self._coerce(other)
        aa, bb, ab, ba = (int_matmul(x, y) for x, y in (
            (self.a, other.a), (self.b, other.b),
            (self.a, other.b), (self.b, other.a)))
        return QuadMatrix(int_combination([1, m], [aa, bb]),
                          int_combination([1, 1], [ab, ba]),
                          self.den * other.den, m)

    def scale(self, c: QuadValue) -> "QuadMatrix":
        if c.b != 0 and self.m != 0 and c.m != self.m:
            raise MixedRadicandsError(f"sqrt({c.m}) vs sqrt({self.m})")
        m = self.m or c.m
        q = math.lcm(c.a.denominator, c.b.denominator)
        ca, cb = int(c.a * q), int(c.b * q)
        return QuadMatrix(int_combination([ca, m * cb], [self.a, self.b]),
                          int_combination([cb, ca], [self.a, self.b]),
                          self.den * q, m)

    def reduce(self) -> "QuadMatrix":
        """Divide out the gcd of all entries and the denominator."""
        h = int(np.gcd.reduce(np.concatenate([self.a.ravel(), self.b.ravel()])))
        g = math.gcd(self.den, h)
        if g <= 1:
            return self
        if h == 0:  # the zero matrix; den may not fit the int64 entries
            return QuadMatrix(self.a, self.b, 1, self.m)
        return QuadMatrix(self.a // g, self.b // g, self.den // g, self.m)

    def entry(self, i: int, j: int) -> QuadValue:
        return QuadValue(Fraction(int(self.a[i, j]), self.den),
                         Fraction(int(self.b[i, j]), self.den), self.m)

    def __eq__(self, other):
        if not isinstance(other, QuadMatrix):
            return NotImplemented
        if self.n != other.n:
            return False
        # compare cross-multiplied integer parts; radicands must be compatible
        if self.m != other.m and (self.b.any() or other.b.any()):
            return False
        s, t = other.den, -self.den
        return not (int_combination([s, t], [self.a, other.a]).any()
                    or int_combination([s, t], [self.b, other.b]).any())

    def is_zero(self) -> bool:
        return not self.a.any() and not self.b.any()

    def __repr__(self):
        return f"QuadMatrix(n={self.n}, m={self.m}, den={self.den})"
