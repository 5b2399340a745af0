"""Heat kernels H_t = exp(-tL) = V diag(exp(-t*lambda)) V^T, evaluated by
`heat_slices` from the eigenvector matrix of the numeric eigensystem one n x n
slice per time step (`heat_stack` stacks them), the normalized ratio r_t(u,v) =
H_t(u,v)/H_t(u,u) (`ratio_curve`), the derivative-sign function

    h_{u,v}(t) = H_t'(u,v) H_t(u,u) - H_t(u,v) H_t'(u,u),

and its one expansion into an exponential sum (`ExpSum`: exact rates,
ascending and distinct, each with a nonzero coefficient).
`h_terms_exact(values, uu, uv)` builds it for any number k of distinct
eigenvalues lam_0 = 0 < ... < lam_{k-1} from the pair's projector entries
uu[i] = P_i(u,u) and uv[i] = P_i(u,v):

    h = sum_{i<j} (lam_j - lam_i) (P_i(u,v) P_j(u,u) - P_j(u,v) P_i(u,u))
                  exp(-(lam_i + lam_j) t).

r_t is nondecreasing in t for every pair u != v exactly when h_{u,v} >= 0 on
[0, inf); the exact routes in `certify` decide the sign of that ExpSum for
each pair class.  `delta_set` gives a pair's Delta quantities

    Delta_i(u,v)  = P_i(u,u) - P_i(u,v)
    Delta_ij(u,v) = P_i(u,v) P_j(u,u) - P_j(u,v) P_i(u,u)

over the three nonzero eigenvalues of a four-eigenvalue graph, which the
reports print; `h_rate` computes h in floats from H_t, as the tests'
independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import combinations, groupby
from typing import Iterator, Sequence

import numpy as np

from .errors import (GraphInputError, InvalidParameterError,
                     InvariantViolationError, NegativeTimeError,
                     NumericEigensystemRequiredError, SameVertexError)
from .quadratic import QuadValue
from .spectral import Eigensystem


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


def h_terms_exact(values: Sequence[QuadValue], uu: Sequence[QuadValue],
                  uv: Sequence[QuadValue]) -> ExpSum:
    """h_{u,v} from the exact distinct eigenvalues `values`, 0 first, and the
    pair's exact projector entries uu[i] = P_i(u,u) and uv[i] = P_i(u,v):
    the sum over i < j in the module docstring.  With P_0 = J/n the i = 0
    terms are lam_j Delta_j / n."""
    return ExpSum(tuple(
        (values[i] + values[j],
         (values[j] - values[i]) * (uv[i] * uu[j] - uv[j] * uu[i]))
        for i, j in combinations(range(len(values)), 2)))


def h_rate(es: Eigensystem, L: np.ndarray, u: int, v: int, t: float) -> float:
    """h_{u,v}(t) directly from the derivative product, using H' = -L H."""
    H = heat_stack(es, [t])[0]
    Hp = -(np.asarray(L, dtype=float) @ H)
    return Hp[u, v] * H[u, u] - H[u, v] * Hp[u, u]
