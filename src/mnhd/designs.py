"""Balanced incomplete block designs (2-designs), symmetric-design predicates,
predicted incidence spectra, and the reference catalog: one row per
symmetric-design parameter set, 10 <= n <= 30.

Points are 0-based indices.  A (v, b, d, r, lambda)-design has b blocks of
size d over v points, every point in r blocks and every pair in lambda blocks;
bd = vr and lambda*(v-1) = r*(d-1) always hold.  Symmetric means v = b (then
r = d), written (v, d, lambda).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import IO, Iterable, NamedTuple

from .errors import (DegenerateDesignError, DesignError, FileFormatError,
                     InvariantViolationError, NotBalancedError,
                     NotUniformError, ReplicationVariesError)
from .quadratic import QuadValue
from .spectral import FourSpectrum


@dataclass(frozen=True)
class Design:
    v: int
    blocks: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class DesignParams:
    v: int
    b: int
    d: int
    r: int
    lam: int

    @property
    def symmetric(self) -> bool:
        return self.v == self.b


def build_design(v: int, blocks: Iterable[Iterable[int]]) -> Design:
    if v < 2:
        raise DesignError(f"ground set needs at least two points, got v={v}")
    out = []
    for blk in blocks:
        s = frozenset(blk)
        if not s:
            raise DesignError("empty block")
        if not all(0 <= x < v for x in s):
            raise DesignError(f"block {sorted(s)} not within 0..{v - 1}")
        out.append(s)
    if not out:
        raise DesignError("design has no blocks")
    return Design(v, tuple(out))


def validate_design(design: Design) -> DesignParams:
    """Check the three 2-design conditions by direct counting and return the
    parameters.  Degenerate families (lambda = 0, or blocks equal to the whole
    ground set) are rejected: they have no four-eigenvalue incidence graph."""
    sizes = {len(b) for b in design.blocks}
    if len(sizes) != 1:
        raise NotUniformError(f"block sizes {sorted(sizes)} differ")
    d = sizes.pop()
    reps = {x: 0 for x in range(design.v)}
    for blk in design.blocks:
        for x in blk:
            reps[x] += 1
    if len(set(reps.values())) != 1:
        raise ReplicationVariesError(f"replication counts {sorted(set(reps.values()))} differ")
    r = reps[0]
    pair_counts = set()
    for x, y in combinations(range(design.v), 2):
        pair_counts.add(sum(1 for blk in design.blocks if x in blk and y in blk))
    if len(pair_counts) != 1:
        raise NotBalancedError(f"pair coverage counts {sorted(pair_counts)} differ")
    lam = pair_counts.pop()
    if lam == 0:
        raise DegenerateDesignError("no pair is covered (lambda = 0)")
    if d == design.v:
        raise DegenerateDesignError("blocks equal to the whole ground set (d = v)")
    b = len(design.blocks)
    params = DesignParams(design.v, b, d, r, lam)
    if b * d != design.v * r or lam * (design.v - 1) != r * (d - 1):
        raise InvariantViolationError(
            f"design identities bd = vr and lambda(v-1) = r(d-1) fail for "
            f"{params}")
    return params


def complement_design(design: Design) -> Design:
    """Replace every block with its complement; for a symmetric (v, d, lam)
    design this gives a (v, v-d, v-2d+lam) design."""
    ground = frozenset(range(design.v))
    return build_design(design.v, [ground - blk for blk in design.blocks])


def predicted_spectrum(v: int, d: int, lam: int) -> FourSpectrum:
    """Laplacian spectrum {0, d - sqrt(d-lam), d + sqrt(d-lam), 2d} and
    projector constants of a symmetric (v, d, lam)-design's incidence graph."""
    if lam * (v - 1) != d * (d - 1):
        raise DesignError(f"({v}, {d}, {lam}) violates lam*(v-1) = d*(d-1)")
    return FourSpectrum.from_design(2 * v, d, lam)


class LambdaFromOrder(NamedTuple):
    value: Fraction
    feasible: bool


def lambda_from_n_d(n: int, d: int) -> LambdaFromOrder:
    """Pair count 2d(d-1)/(n-2) forced on a d-regular bipartite four-eigenvalue
    graph with n vertices; flagged infeasible when not a positive integer."""
    if n <= 2 or n % 2:
        raise DesignError(f"order must be even and > 2, got n={n}")
    value = Fraction(2 * d * (d - 1), n - 2)
    return LambdaFromOrder(value, value.denominator == 1 and value >= 1)


# ---------------------------------------------------------------------------
# built-in designs


def fano_design() -> Design:
    """The (7, 3, 1) projective plane."""
    return build_design(7, [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6),
                            (4, 5, 0), (5, 6, 1), (6, 0, 2)])


def design_742() -> Design:
    """A (7, 4, 2) symmetric design (biplane)."""
    return build_design(7, [(0, 1, 2, 3), (0, 1, 4, 5), (0, 3, 5, 6),
                            (0, 2, 4, 6), (1, 2, 5, 6), (1, 3, 4, 6),
                            (2, 3, 4, 5)])


def crown_design(v: int) -> Design:
    """The (v, v-1, v-2) design whose blocks are the point complements; its
    incidence graph is the crown graph."""
    ground = frozenset(range(v))
    return build_design(v, [ground - {i} for i in range(v)])


def pair_design(v: int) -> Design:
    """All 2-subsets of a v-set: a (v, C(v,2), 2, v-1, 1) design, symmetric
    only for v = 3 (where the incidence graph is the 6-cycle)."""
    return build_design(v, combinations(range(v), 2))


# ---------------------------------------------------------------------------
# catalog: one row per symmetric-design parameter set (v, d, lambda), with
# lambda (v - 1) = d (d - 1) and 1 <= lambda < d < v, 10 <= n = 2v <= 30


@dataclass(frozen=True)
class CatalogRow:
    n: int
    spectrum: tuple[QuadValue, QuadValue, QuadValue, QuadValue]
    params: tuple[int, int, int]  # (v, d, lambda); d is the block size

    @property
    def builder(self) -> str | None:
        """Name of the built-in constructor realizing this row, if any."""
        v, d, lam = self.params
        if (d, lam) == (v - 1, v - 2):
            return f"crown-{v}"
        if self.params == (7, 3, 1):
            return "fano"
        if self.params == (7, 4, 2):
            return "design-742"
        return None


def _row(n: int, a1: int, b1: int, m: int, params: tuple[int, int, int]) -> CatalogRow:
    lam1 = QuadValue(a1, -b1, m)
    lam2 = QuadValue(a1, b1, m)
    return CatalogRow(n, (QuadValue(0), lam1, lam2, QuadValue(2 * params[1])), params)


_CATALOG = (
    _row(10, 4, 1, 1, (5, 4, 3)),
    _row(12, 5, 1, 1, (6, 5, 4)),
    _row(14, 6, 1, 1, (7, 6, 5)),
    _row(14, 3, 1, 2, (7, 3, 1)),
    _row(14, 4, 1, 2, (7, 4, 2)),
    _row(16, 7, 1, 1, (8, 7, 6)),
    _row(18, 8, 1, 1, (9, 8, 7)),
    _row(20, 9, 1, 1, (10, 9, 8)),
    _row(22, 10, 1, 1, (11, 10, 9)),
    _row(22, 5, 1, 3, (11, 5, 2)),
    _row(22, 6, 1, 3, (11, 6, 3)),
    _row(24, 11, 1, 1, (12, 11, 10)),
    _row(26, 12, 1, 1, (13, 12, 11)),
    _row(26, 4, 1, 3, (13, 4, 1)),
    _row(26, 9, 1, 3, (13, 9, 6)),
    _row(28, 13, 1, 1, (14, 13, 12)),
    _row(30, 7, 2, 1, (15, 7, 3)),
    _row(30, 8, 2, 1, (15, 8, 4)),
    _row(30, 14, 1, 1, (15, 14, 13)),
)


def catalog() -> tuple[CatalogRow, ...]:
    return _CATALOG


# ---------------------------------------------------------------------------
# design files: line 1 "v b [base=0|1]", then b whitespace-separated blocks


def write_design(design: Design, fp: IO[str]) -> None:
    fp.write(f"{design.v} {len(design.blocks)}\n")
    for blk in design.blocks:
        fp.write(" ".join(str(x) for x in sorted(blk)) + "\n")


def read_design(fp: IO[str]) -> Design:
    lines = [ln.strip() for ln in fp
             if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise FileFormatError("empty design file")
    head = lines[0].split()
    if len(head) not in (2, 3):
        raise FileFormatError(f"expected 'v b [base=0|1]' header, got {lines[0]!r}")
    base = 0
    if len(head) == 3:
        if head[2] not in ("base=0", "base=1"):
            raise FileFormatError(f"bad base flag {head[2]!r}")
        base = int(head[2][-1])
    try:
        v, b = int(head[0]), int(head[1])
        blocks = [[int(tok) - base for tok in ln.split()] for ln in lines[1:]]
    except ValueError as exc:
        raise FileFormatError(f"non-integer token: {exc}") from exc
    if len(blocks) != b:
        raise FileFormatError(f"header promises {b} blocks, file has {len(blocks)}")
    return build_design(v, blocks)
