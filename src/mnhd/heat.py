"""Heat kernels H_t = exp(-tL) = V diag(exp(-t*lambda)) V^T, evaluated by
`heat_slices` from the eigenvector matrix of the numeric eigensystem one n x n
slice per time step (`heat_stack` stacks them), the normalized ratio r_t(u,v) =
H_t(u,v)/H_t(u,u) (`ratio_curve`), the derivative-sign function

    h_{u,v}(t) = H_t'(u,v) H_t(u,u) - H_t(u,v) H_t'(u,u),

and its expansion into an exponential sum (`ExpSum`: exact rates, ascending
and distinct, each with a nonzero coefficient) with Delta coefficients

    Delta_i(u,v)  = P_i(u,u) - P_i(u,v)
    Delta_ij(u,v) = P_i(u,v) P_j(u,u) - P_j(u,v) P_i(u,u).

r_t is nondecreasing in t for every pair u != v exactly when h_{u,v} >= 0 on
[0, inf); the exact routes in `certify` decide the sign of the ExpSum that
`h_terms_exact` builds from the Delta set of each pair class.
`h_terms_from_eigensystem` (an ExpSum from the projector entries) and
`h_rate` (floats) compute h independently so the tests can compare.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import groupby
from typing import Iterator, Sequence

import numpy as np

from .errors import (ExactEigensystemRequiredError, GraphInputError,
                     InvalidParameterError, InvariantViolationError,
                     NegativeTimeError, NumericEigensystemRequiredError,
                     SameVertexError)
from .quadratic import QuadValue
from .spectral import Eigensystem, projector_entries


def heat_slices(es: Eigensystem, grid: Sequence[float]) -> Iterator[np.ndarray]:
    """H_t = V diag(exp(-t*w)) V^T for each t in grid, yielded one n x n slice
    at a time, from the eigenvector matrix V of a numeric eigensystem (its
    `vectors`, read in place) and each column's group value w; at t = 0 the
    slice is the identity exactly.  Working memory is a few n x n matrices
    whatever the number of distinct eigenvalues.  The eigensystem and the
    grid (finite, nonnegative times) are checked when this is called, before
    the first slice is asked for; an exact eigensystem raises
    NumericEigensystemRequiredError."""
    if es.mode != "numeric":
        raise NumericEigensystemRequiredError(
            "heat_slices needs a numeric eigensystem")
    grid = np.asarray(grid, dtype=float)
    if (grid < 0).any():
        raise NegativeTimeError("grid contains negative times")
    if not np.isfinite(grid).all():
        raise InvalidParameterError("grid contains times that are not finite")
    V, w = es.vectors, es.column_values()

    def slices() -> Iterator[np.ndarray]:
        for t in grid:
            yield np.eye(es.n) if t == 0 else (V * np.exp(-t * w)) @ V.T

    return slices()


def heat_stack(es: Eigensystem, grid: Sequence[float]) -> np.ndarray:
    """The slices of `heat_slices` stacked along axis 0, shape (T, n, n)."""
    return np.stack(list(heat_slices(es, grid)))


def ratio_curve(es: Eigensystem, u: int, v: int,
                grid: Sequence[float]) -> list[tuple[float, float]]:
    """(t, r_t(u,v)) for every t in grid; r is zero at t = 0 and tends to 1."""
    if not (0 <= u < es.n and 0 <= v < es.n):
        raise GraphInputError(
            f"vertices must lie in 0..{es.n - 1}, got u={u}, v={v}")
    if u == v:
        raise SameVertexError(f"u = v = {u}")
    huu, huv = [], []
    for H in heat_slices(es, grid):
        huu.append(H[u, u])
        huv.append(H[u, v])
    huu = np.array(huu)
    if (huu < 1.0 / es.n - 1e-9).any():  # P0 diagonal plus nonnegative decays
        raise InvariantViolationError(f"H_t(u,u) = {huu.min()} is below 1/n")
    return [(float(t), float(huv[i] / huu[i]))
            for i, t in enumerate(grid)]


def default_time_grid(es: Eigensystem, points: int = 60) -> np.ndarray:
    """t = 0 followed by `points` log-spaced times from 1e-3 up to
    max(50, 30/lambda_min), far enough that exp(-lambda_min*t_max) < 1e-12.
    With no positive eigenvalue (an edgeless graph) H_t = I and t_max = 50.
    `points` must be at least 1."""
    if points < 1:
        raise InvalidParameterError(f"need at least one point, got {points}")
    t_max = max(50.0, 30.0 / es.smallest_positive())
    return np.concatenate([[0.0], np.geomspace(1e-3, t_max, points)])


def write_curve_csv(fp, curve: Sequence[tuple[float, float]]) -> None:
    fp.write("t,r\n")
    for t, r in curve:
        fp.write(f"{t:.17g},{r:.17g}\n")


# ---------------------------------------------------------------------------
# Delta quantities


@dataclass(frozen=True)
class DeltaSet:
    """The six Delta quantities of one ordered pair (u, v), exact or float;
    `items` gives each field's name and value, in the order declared."""

    d1: QuadValue | float
    d2: QuadValue | float
    d3: QuadValue | float
    d12: QuadValue | float
    d13: QuadValue | float
    d23: QuadValue | float

    def items(self) -> list[tuple[str, QuadValue | float]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def as_tuple(self):
        return tuple(value for _, value in self.items())


def delta_set(uu: Sequence, uv: Sequence) -> DeltaSet:
    """Deltas of a pair (u, v) from uu[i] = P_i(u,u) and uv[i] = P_i(u,v) of
    the three nonzero-eigenvalue projectors; exact when they are exact."""
    d = [puu - puv for puu, puv in zip(uu, uv)]
    cross = [uv[i] * uu[j] - uv[j] * uu[i]
             for i, j in ((0, 1), (0, 2), (1, 2))]
    return DeltaSet(d[0], d[1], d[2], cross[0], cross[1], cross[2])


@dataclass(frozen=True)
class ExpSum:
    """h(t) = sum coeff exp(-rate t) as (rate, coeff) `terms`, built from
    pairs in any order: exact rates ascending and distinct (coinciding ones
    summed, as lam1 + lam2 = lam3 in the bipartite case), no zero coeff."""

    terms: tuple[tuple[QuadValue, QuadValue], ...]

    def __post_init__(self):
        by_rate = groupby(sorted(self.terms), key=lambda term: term[0])
        sums = ((rate, sum((c for _, c in grp), QuadValue(0)))
                for rate, grp in by_rate)
        object.__setattr__(self, "terms", tuple(t for t in sums if t[1] != 0))

    def at_zero(self) -> QuadValue:
        return sum((c for _, c in self.terms), QuadValue(0))


def h_terms_exact(lams: Sequence[QuadValue], ds: DeltaSet, n: int) -> ExpSum:
    """h_{u,v} from the three nonzero eigenvalues lams = (lam1, lam2, lam3)
    and the pair's exact Deltas."""
    inv_n = QuadValue(Fraction(1, n))
    return ExpSum((
        (lams[0], lams[0] * inv_n * ds.d1),
        (lams[1], lams[1] * inv_n * ds.d2),
        (lams[2], lams[2] * inv_n * ds.d3),
        (lams[0] + lams[1], (lams[1] - lams[0]) * ds.d12),
        (lams[0] + lams[2], (lams[2] - lams[0]) * ds.d13),
        (lams[1] + lams[2], (lams[2] - lams[1]) * ds.d23),
    ))


def h_terms_from_eigensystem(es: Eigensystem, u: int, v: int) -> ExpSum:
    """The same sum computed from the derivative product H'(u,v)H(u,u) -
    H(u,v)H'(u,u) with H' = -sum lam exp(-t*lam) P, each P(u,x) from the full
    Lagrange polynomial that `es` keeps, summed over its powers of L;
    independent of the Delta expansion and of the signature formula."""
    if es.mode != "exact":
        raise ExactEigensystemRequiredError(
            "h_terms_from_eigensystem needs an exact eigensystem")
    lams, k = es.values(), len(es.groups)
    uu, uv = (projector_entries(es.lagrange, es.powers, u, x) for x in (u, v))
    return ExpSum(tuple(
        (lams[i] + lams[j], lams[i] * (uu[i] * uv[j] - uv[i] * uu[j]))
        for i in range(k) for j in range(k)))


def h_rate(es: Eigensystem, L: np.ndarray, u: int, v: int, t: float) -> float:
    """h_{u,v}(t) directly from the derivative product, using H' = -L H."""
    H = heat_stack(es, [t])[0]
    Hp = -(np.asarray(L, dtype=float) @ H)
    return Hp[u, v] * H[u, u] - H[u, v] * Hp[u, u]
