"""Eigendecomposition of symmetric integer matrices: numerically (a
pure-Python cyclic Jacobi, no LAPACK, on one n x 2n working array [A | V^T],
so each pair is one 2 x 2n rotation of rows p and q of A and of V^T,
written into a buffer allocated once per call; the numeric `Eigensystem`
carries one n x n eigenvector matrix, its columns in group order),
exactly (minimal polynomial; multiplicities from Lagrange coefficients and
traces of powers of L), spectrum grouping, Lagrange and closed-form
projectors, and the three-case classification of regular four-eigenvalue
spectra.  `analyze` builds no projector matrix: the exact
routes read projector entries off Lagrange coefficients and check the
projector algebra modulo the minimal polynomial.  `lagrange_projector` and
`closed_form_projectors` remain as the matrix oracle that tests compare
those routes against.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (AmbiguousGapError, DegenerateParamsError,
                     InvalidParameterError, InvariantViolationError,
                     NoCaseMatchesError, NoConvergenceError,
                     NonQuadraticEigenvaluesError, NonSymmetricError,
                     NotFourEigenvaluesError, RepeatedEigenvalueError)
from .quadratic import (QuadMatrix, QuadValue, int_combination, int_inner,
                        int_matmul, quad_combination)

DEFAULT_TOL = 1e-9
JACOBI_SWEEP_CAP = 100


# ---------------------------------------------------------------------------
# numeric path


def group_spectrum(raw: Sequence[float]) -> list[tuple[float, int]]:
    """Greedily cluster a sorted eigenvalue list into distinct values with
    multiplicities.  Consecutive values within DEFAULT_TOL*max(1, |value|)
    merge; the representative is the cluster mean.  A gap falling strictly
    between that threshold and 10x of it raises AmbiguousGapError; an
    unsorted list raises InvalidParameterError.
    """
    values = list(raw)
    if values != sorted(values):
        raise InvalidParameterError("eigenvalue list must be sorted")
    groups: list[tuple[float, int]] = []
    cluster: list[float] = []
    for x in values:
        if not cluster:
            cluster = [x]
            continue
        gap = x - cluster[-1]
        scale = DEFAULT_TOL * max(1.0, abs(x))
        if gap <= scale:
            cluster.append(x)
        elif gap < 10.0 * scale:
            raise AmbiguousGapError(
                f"gap {gap:.3e} near threshold {scale:.3e}; tighten tolerance")
        else:
            groups.append((sum(cluster) / len(cluster), len(cluster)))
            cluster = [x]
    if cluster:
        groups.append((sum(cluster) / len(cluster), len(cluster)))
    return groups


@dataclass(frozen=True)
class EigenGroup:
    """An eigenvalue and its multiplicity: exact (a QuadValue, the trace of
    its projector) or numeric (a float, a `group_spectrum` cluster mean)."""

    value: QuadValue | float
    multiplicity: int


@dataclass(frozen=True)
class Eigensystem:
    """The distinct eigenvalues of an n x n symmetric matrix, ascending, as
    `groups`.  Both modes fill n, groups and mode ("numeric" or "exact").
    Exact mode also fills `powers` (I, L, ..., L^(k-1) for k groups), `mu`
    (the minimal polynomial of L, ascending) and `lagrange` (each group's
    Lagrange coefficients).  Numeric mode fills only `vectors`: the n x n
    orthonormal eigenvector matrix V, its columns in group order (the first
    multiplicity columns span the first group's eigenspace, and so on)."""

    n: int
    groups: tuple[EigenGroup, ...]
    mode: str
    powers: tuple[np.ndarray, ...] = ()
    mu: tuple[int, ...] = ()
    lagrange: tuple[tuple[QuadValue, ...], ...] = ()
    vectors: np.ndarray | None = None

    def values(self) -> list[float | QuadValue]:
        return [g.value for g in self.groups]

    def smallest_positive(self) -> float:
        """The smallest eigenvalue above 1e-12; inf when there is none."""
        return min((float(g.value) for g in self.groups if float(g.value) > 1e-12),
                   default=float("inf"))


def jacobi_eigendecompose(M: np.ndarray) -> Eigensystem:
    """Cyclic Jacobi diagonalization of a symmetric matrix.

    The rotations work on one n x 2n array W = [A | V^T], V^T starting as I.
    Each sweep visits the pairs p < q in row order.  A rotation is one
    2 x 2n product R @ W[p:q+1:q-p] (a strided view, so adjacent and far
    pairs alike take no copy), R = [[c, -s], [s, c]], which rotates rows p
    and q of A and eigenvector columns p and q (rows of V^T) together.  The
    2 x 2 block is set exactly (Rutishauser): a_pp - t a_pq and a_qq + t a_pq
    on the diagonal, 0 at (p, q) and (q, p).  The A half is mirrored into
    columns p and q, so A stays exactly symmetric and no second (column)
    rotation runs.  Scalars are Python floats: a_pq, a_pp and a_qq are read
    with `ndarray.item`, and t, c and s are computed from them.  R, the
    2 x 2n product buffer and the transposed view of its A half are
    allocated once per call: each rotation writes c and s into R and the
    product into the buffer (`np.matmul` with `out=`), so a rotation
    allocates no array data (W[p:q+1:q-p] is a view).  The buffer never
    aliases M, which is left unchanged.

    Sweeps run until every off-diagonal magnitude is below machine level
    (which in particular satisfies the contract off < DEFAULT_TOL*||M||_F);
    if JACOBI_SWEEP_CAP sweeps run first and the contract is unmet,
    NoConvergenceError is raised.  Eigenvalues are grouped with
    group_spectrum.  The system's `vectors` is the sorted eigenvector matrix,
    an n x n copy taken out of W, so it holds n^2 floats of eigenvectors
    whatever the number of groups and does not keep W alive.  A matrix that
    is not square or not symmetric raises NonSymmetricError; an empty one, or
    one with a NaN or infinite entry, raises InvalidParameterError before any
    sweep.
    """
    M = np.asarray(M, dtype=np.float64)
    n = M.shape[0]
    if M.shape != (n, n):
        raise NonSymmetricError("matrix is not square")
    if n == 0:
        raise InvalidParameterError("matrix is empty")
    if not np.isfinite(M).all():
        raise InvalidParameterError("matrix has an entry that is not finite")
    norm = float(np.linalg.norm(M, "fro")) or 1.0
    if np.max(np.abs(M - M.T)) > DEFAULT_TOL * norm:
        raise NonSymmetricError("matrix is not symmetric within tolerance")
    W = np.hstack([M, np.eye(n)])  # [A | V^T]
    A = W[:, :n]
    R = np.empty((2, 2))
    buf = np.empty((2, 2 * n))  # R @ W[pq], rows p and q after the rotation
    buf_a_t = buf[:, :n].T  # its A half, as the columns p and q
    target = max(1e-15 * norm, 1e-300)
    skip = target / (n * n)
    converged = False
    for _ in range(JACOBI_SWEEP_CAP):
        if np.max(np.abs(np.triu(A, 1))) < target:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = W.item(p, q)
                if abs(apq) < skip:
                    continue
                app, aqq = W.item(p, p), W.item(q, q)
                theta = (aqq - app) / (2.0 * apq)
                if theta == 0.0:
                    t = 1.0
                else:
                    t = math.copysign(1.0, theta) / (abs(theta)
                                                     + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                R[0, 0] = R[1, 1] = c
                R[0, 1], R[1, 0] = -s, s
                pq = slice(p, q + 1, q - p)  # rows p and q, a view
                np.matmul(R, W[pq], out=buf)
                buf[0, p], buf[1, q] = app - t * apq, aqq + t * apq
                buf[0, q] = buf[1, p] = 0.0
                W[pq] = buf
                A[:, pq] = buf_a_t
    if not converged and np.max(np.abs(np.triu(A, 1))) >= DEFAULT_TOL * norm:
        raise NoConvergenceError(f"off-diagonal still >= {DEFAULT_TOL:g}*||M|| "
                                 f"after {JACOBI_SWEEP_CAP} sweeps")
    order = np.argsort(np.diag(A))
    groups = tuple(EigenGroup(value, mult)
                   for value, mult in group_spectrum(list(np.diag(A)[order])))
    return Eigensystem(n, groups, "numeric",
                       vectors=W[:, n:].T[:, order])  # a copy, not a view of W


# ---------------------------------------------------------------------------
# exact path


def minimal_polynomial(L: np.ndarray, max_degree: int | None = None
                       ) -> tuple[list[int], list[np.ndarray]]:
    """Monic integer minimal polynomial of an integer matrix, as ascending
    coefficients [c0, ..., c_{k-1}, 1], with the powers [I, L, ..., L^k]; the
    degree is the number of distinct eigenvalues of a symmetric L.

    The first power L^k that depends on I, L, ..., L^{k-1} is found from the
    exact Frobenius Gram matrix G_ij = sum(L^i * L^j) of the powers: the
    coefficients solve G c = (<L^i, L^k>)_i in Fractions, and L^k depends on
    the lower powers exactly when the Schur complement <L^k, L^k> - c.g,
    the squared distance of L^k from their span, is zero.  The result is
    verified by evaluating p(L) = 0 in integers.

    Raises NotFourEigenvaluesError once the degree provably exceeds
    max_degree (the powers I, L, ..., L^max_degree are independent), and
    InvalidParameterError, before the first product, for a matrix whose
    dtype is neither an integer dtype nor object holding Python ints (the
    int64 kernels would truncate a float entry).
    """
    if not (np.issubdtype(L.dtype, np.integer) or (
            L.dtype == object and all(type(x) is int for x in L.flat))):
        raise InvalidParameterError(
            f"minimal polynomial needs an integer matrix, got dtype {L.dtype}")
    n = L.shape[0]
    cap = n if max_degree is None else min(max_degree, n)
    powers = [np.eye(n, dtype=np.int64), L]
    gram: list[list[int]] = []  # gram[i][j] = <L^i, L^j> for the independent powers
    for k in range(cap + 1):
        if k > 1:
            powers.append(int_matmul(powers[-1], L))
        g = [int_inner(P, powers[k]) for P in powers[:k]]
        norm = int_inner(powers[k], powers[k])
        coords = _solve_fractions(gram, g)
        if norm == sum(c * x for c, x in zip(coords, g)):
            coeffs = [-c for c in coords] + [Fraction(1)]
            if any(c.denominator != 1 for c in coeffs):
                raise InvariantViolationError(
                    f"minimal polynomial {coeffs} is not monic and integral")
            coeffs = [int(c) for c in coeffs]
            if int_combination(coeffs, powers).any():
                raise InvariantViolationError(
                    f"p(L) != 0 for the minimal polynomial {coeffs}")
            return coeffs, powers[:k + 1]
        for row, x in zip(gram, g):
            row.append(x)
        gram.append(g + [norm])
    raise NotFourEigenvaluesError(f"minimal polynomial degree exceeds {cap}")


def _solve_fractions(a: list[list[int]], b: list[int]) -> list[Fraction]:
    """Solve a x = b exactly for a nonsingular integer matrix a (Gaussian
    elimination over Fractions with row pivoting)."""
    k = len(b)
    rows = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    for col in range(k):
        piv = next(r for r in range(col, k) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        for r in range(k):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [rows[i][k] / rows[i][i] for i in range(k)]


def _integer_roots(coeffs: list[int]) -> list[int]:
    """Integer roots of a monic integer polynomial (ascending coefficients),
    tried among +- the divisors of c0, found in pairs up to sqrt(|c0|)."""
    c0 = coeffs[0]
    if c0 == 0:
        return [0] + _integer_roots(coeffs[1:]) if len(coeffs) > 1 else [0]
    roots = []
    limit = abs(c0)
    small = [k for k in range(1, math.isqrt(limit) + 1) if limit % k == 0]
    divisors = sorted(set(small) | {limit // k for k in small})
    for cand in [-k for k in reversed(divisors)] + divisors:
        acc = 0
        for c in reversed(coeffs):
            acc = acc * cand + c
        if acc == 0:
            roots.append(cand)
    return roots


def _deflate(coeffs: list[int], root: int) -> list[int]:
    """Divide a monic polynomial by (x - root); exact synthetic division."""
    out = []
    acc = 0
    for c in reversed(coeffs):
        acc = acc * root + c if out else c
        out.append(acc)
    out.pop()  # remainder, zero by assumption
    return list(reversed(out))


def exact_eigenvalues(mu: Sequence[int]) -> list[QuadValue]:
    """Distinct eigenvalues of an integer Laplacian with exactly four of them,
    from its minimal polynomial mu (ascending coefficients), as exact
    QuadValues over a single radicand.

    Raises NotFourEigenvaluesError when the count differs from four and
    NonQuadraticEigenvaluesError when the nonzero eigenvalues are cubic
    irrationalities (classification case III).
    """
    if len(mu) != 5:
        raise NotFourEigenvaluesError(
            f"{len(mu) - 1} distinct eigenvalues, need 4")
    if mu[0] != 0:
        raise NotFourEigenvaluesError("0 is not an eigenvalue (graph input?)")
    cubic = mu[1:]  # monic cubic with the three nonzero eigenvalues
    roots = _integer_roots(cubic)
    if len(roots) == 3:
        values = [QuadValue(0)] + [QuadValue(r) for r in sorted(roots)]
        return sorted(values)
    if len(roots) == 1:
        quad = _deflate(cubic, roots[0])  # monic x^2 + s x + p
        p, s = quad[0], quad[1]
        disc = s * s - 4 * p
        if disc <= 0:
            raise NonQuadraticEigenvaluesError("conjugate pair is not real")
        half = QuadValue(Fraction(-s, 2))
        root = QuadValue(0, Fraction(1, 2), disc)
        values = [QuadValue(0), QuadValue(roots[0]), half - root, half + root]
        return sorted(values)
    raise NonQuadraticEigenvaluesError(
        "nonzero eigenvalues are roots of an irreducible cubic")


def lagrange_coefficients(sigma: Sequence, i: int) -> list:
    """Ascending coefficients of the Lagrange polynomial prod_{j != i}
    (x - sigma[j]) / (sigma[i] - sigma[j]): QuadValues or floats, as sigma."""
    if len(set(sigma)) != len(sigma):
        raise RepeatedEigenvalueError("sigma contains repeated eigenvalues")
    one = sigma[i] - sigma[i] + 1  # 1 in sigma's number type
    coeffs, denominator = [one], one  # ascending in x
    for j, lam in enumerate(sigma):
        if j != i:
            coeffs = [lo - lam * hi for lo, hi in zip([0, *coeffs], [*coeffs, 0])]
            denominator = denominator * (sigma[i] - lam)
    return [c / denominator for c in coeffs]


def lagrange_projector(powers: Sequence[np.ndarray], sigma: Sequence[QuadValue],
                       i: int) -> QuadMatrix:
    """Projector onto the sigma[i]-eigenspace: its Lagrange polynomial summed
    over the powers I, L, ..., L^{k-1}, sigma the exact k-value spectrum."""
    return quad_combination(lagrange_coefficients(sigma, i),
                            powers[:len(sigma)], max(lam.m for lam in sigma))


def exact_eigensystem(L: np.ndarray) -> Eigensystem:
    """Exact eigensystem of a four-eigenvalue integer Laplacian: QuadValue
    eigenvalues, multiplicities tr(P) = sum_j a_j tr(L^j) over Lagrange
    coefficients a_j.  It keeps the powers I, L, L^2, L^3 that projectors are
    summed over, the minimal polynomial mu that the projector algebra is
    reduced by, and each eigenvalue's Lagrange coefficients (`lagrange`),
    so that P_i = sum_j lagrange[i][j] L^j; L^4 is needed only for the
    minimal polynomial's check.  A NonQuadraticEigenvaluesError it raises
    carries those powers, so that the float delta table does not form L^2
    again."""
    mu, powers = minimal_polynomial(L, max_degree=4)
    try:
        sigma = exact_eigenvalues(mu)
    except NonQuadraticEigenvaluesError as exc:
        exc.powers = tuple(powers[:-1])
        raise
    traces = [sum(P.diagonal().tolist()) for P in powers[:-1]]  # Python ints
    lagrange = tuple(tuple(lagrange_coefficients(sigma, i))
                     for i in range(len(sigma)))
    groups = []
    for lam, coeffs in zip(sigma, lagrange):
        mult = sum((a * t for a, t in zip(coeffs, traces)), QuadValue(0))
        if not mult.is_integer:
            raise InvariantViolationError(
                f"projector trace {mult} of eigenvalue {lam} is not an integer")
        groups.append(EigenGroup(lam, int(mult.as_fraction())))
    total = sum(g.multiplicity for g in groups)
    if total != L.shape[0]:
        raise InvariantViolationError(
            f"multiplicities sum to {total}, not n = {L.shape[0]}")
    return Eigensystem(L.shape[0], tuple(groups), "exact", tuple(powers[:-1]),
                       tuple(mu), lagrange)


# ---------------------------------------------------------------------------
# the four-eigenvalue closed form


@dataclass(frozen=True)
class FourSpectrum:
    """Nonzero eigenvalues lam1 < lam2 < lam3 plus the projector constants
    c_i = 1 / prod_{j != i} (lam_i - lam_j) of the quadratic closed form."""

    lam0: QuadValue
    lam1: QuadValue
    lam2: QuadValue
    lam3: QuadValue
    c1: QuadValue
    c2: QuadValue
    c3: QuadValue

    @classmethod
    def from_eigenvalues(cls, lam1: QuadValue, lam2: QuadValue,
                         lam3: QuadValue) -> "FourSpectrum":
        c1 = ((lam1 - lam2) * (lam1 - lam3)).inverse()
        c2 = ((lam2 - lam1) * (lam2 - lam3)).inverse()
        c3 = ((lam3 - lam1) * (lam3 - lam2)).inverse()
        return cls(QuadValue(0), lam1, lam2, lam3, c1, c2, c3)

    @classmethod
    def from_design(cls, n: int, d: int, lam: int) -> "FourSpectrum":
        """Constants in incidence-graph form: c1 = 1/(2*lam2*sqrt(d-lam)),
        c2 = -1/(2*lam1*sqrt(d-lam)), c3 = 1/(lam1*lam2)."""
        if d <= lam:
            raise DegenerateParamsError(f"d={d} <= lambda={lam}")
        s = QuadValue.sqrt_int(d - lam)
        lam1, lam2, lam3 = QuadValue(d) - s, QuadValue(d) + s, QuadValue(2 * d)
        c1 = (2 * lam2 * s).inverse()
        c2 = -((2 * lam1 * s).inverse())
        c3 = (lam1 * lam2).inverse()
        return cls(QuadValue(0), lam1, lam2, lam3, c1, c2, c3)

    def nonzero(self) -> tuple[QuadValue, QuadValue, QuadValue]:
        return (self.lam1, self.lam2, self.lam3)

    def constants(self) -> tuple[QuadValue, QuadValue, QuadValue]:
        return (self.c1, self.c2, self.c3)


def closed_form_projectors(powers: Sequence[np.ndarray], fs: FourSpectrum
                           ) -> list[QuadMatrix]:
    """Exact projectors P1, P2, P3 of a connected Laplacian L with the four
    distinct eigenvalues of `fs`, summed over [I, L, L^2, J] from its powers:

        P_i = c_i * (L^2 - (lam_j + lam_k) L + lam_j lam_k (I - J/n))

    Cross-checked against lagrange_projector by the tests.
    """
    n = powers[0].shape[0]
    mats = [*powers[:3], np.ones((n, n), dtype=np.int64)]
    lam1, lam2, lam3 = fs.nonzero()
    others = [(lam2, lam3), (lam1, lam3), (lam1, lam2)]
    return [quad_combination([c * x * y, -c * (x + y), c, -c * x * y / n],
                             mats, max(lam1.m, lam2.m, lam3.m))
            for c, (x, y) in zip(fs.constants(), others)]


# ---------------------------------------------------------------------------
# spectrum classification (regular graphs, four distinct eigenvalues)


class VanDamCase(enum.Enum):
    CASE_I = "I"
    CASE_II = "II"
    CASE_III = "III"


def _is_integral(value: float | QuadValue) -> bool:
    if isinstance(value, QuadValue):
        return value.is_integer
    return abs(value - round(value)) <= DEFAULT_TOL


def classify_spectrum(spectrum: Sequence[tuple[float | QuadValue, int]],
                      n: int, d: int) -> VanDamCase:
    """Classify a regular four-eigenvalue Laplacian spectrum:

    I   all four eigenvalues integral;
    II  exactly two integral plus a conjugate surd pair of equal multiplicity;
    III only 0 integral, the rest sharing multiplicity (n-1)/3 = m with
        d = m or d = 2m.
    """
    if len(spectrum) != 4:
        raise NoCaseMatchesError(f"need 4 distinct eigenvalues, got {len(spectrum)}")
    integral = [(v, mult) for v, mult in spectrum if _is_integral(v)]
    others = [(v, mult) for v, mult in spectrum if not _is_integral(v)]
    if len(integral) == 4:
        return VanDamCase.CASE_I
    if len(integral) == 2 and len(others) == 2:
        (v1, m1), (v2, m2) = others
        if m1 == m2:
            if isinstance(v1, QuadValue) and isinstance(v2, QuadValue):
                conjugate = v1.conjugate() == v2
            else:
                total = float(v1) + float(v2)
                conjugate = abs(total - round(total)) <= 2 * DEFAULT_TOL
            if conjugate:
                return VanDamCase.CASE_II
    if len(integral) == 1:
        v0, m0 = integral[0]
        mults = {mult for _, mult in others}
        if abs(float(v0)) <= DEFAULT_TOL and m0 == 1 and len(mults) == 1:
            mult = mults.pop()
            if 3 * mult == n - 1 and d in (mult, 2 * mult):
                return VanDamCase.CASE_III
    raise NoCaseMatchesError("spectrum fits none of the three cases")
