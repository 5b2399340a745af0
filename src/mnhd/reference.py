"""Reference Delta tables for the two non-bipartite showcase graphs (the S3
Cayley graph and the 6-wheel) and the spectrum comparison against the catalog.

The tables are keyed by pair signature (L(u,u), L(v,v), L(u,v), L^2(u,v)).
One 6-wheel reference entry, d23 of the adjacent-rim class, reads
-(5+sqrt5)/10 while the projector-derived value is -(5+sqrt5)/300; the
compare helpers surface the discrepancy instead of hiding either value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .designs import catalog
from .graphs import builtin_graph, laplacian
from .heat import DeltaSet
from .quadratic import QuadValue
from .spectral import exact_eigensystem

_F = Fraction


def _q(a, b=0, m=0) -> QuadValue:
    return QuadValue(_F(a) if not isinstance(a, tuple) else _F(*a),
                     _F(b) if not isinstance(b, tuple) else _F(*b), m)


DELTA_FIELDS = ("d1", "d2", "d3", "d12", "d13", "d23")

# S3 Cayley graph (3-regular, eigenvalues 0, 2, 3, 5); classes: non-adjacent,
# adjacent within a triangle, adjacent without one.
CAYLEY_S3_REFERENCE: dict[tuple, DeltaSet] = {
    (3, 3, 0, 2): DeltaSet(_q((1, 3)), _q((1, 2)), _q((1, 6)),
                           _q((-1, 36)), _q((-1, 12)), _q((-1, 9))),
    (3, 3, -1, -5): DeltaSet(_q(0), _q((1, 2)), _q((1, 2)),
                             _q((1, 12)), _q((1, 12)), _q(0)),
    (3, 3, -1, -6): DeltaSet(_q((1, 3)), _q(0), _q((2, 3)),
                             _q((-1, 9)), _q(0), _q((2, 9))),
}

CAYLEY_S3_CLASS_NAMES = {
    (3, 3, 0, 2): "non-adjacent",
    (3, 3, -1, -5): "adjacent, in a triangle",
    (3, 3, -1, -6): "adjacent, no triangle",
}

# 6-wheel (eigenvalues 0, (7-sqrt5)/2, (7+sqrt5)/2, 6); classes: rim pairs at
# distance two, adjacent rim pairs, rim-to-hub, hub-to-rim.
WHEEL6_REFERENCE: dict[tuple, DeltaSet] = {
    (3, 3, 0, 2): DeltaSet(_q((1, 2), (1, 10), 5), _q((1, 2), (-1, 10), 5),
                           _q(0), _q(0, (-2, 25), 5),
                           _q((-1, 60), (-1, 300), 5),
                           _q((-1, 60), (1, 300), 5)),
    (3, 3, -1, -5): DeltaSet(_q((1, 2), (-1, 10), 5), _q((1, 2), (1, 10), 5),
                             _q(0), _q(0, (2, 25), 5),
                             _q((-1, 60), (1, 300), 5),
                             # transcribed value; derived is -(5+sqrt5)/300
                             _q((-1, 2), (-1, 10), 5)),
    (3, 5, -1, -6): DeltaSet(_q((2, 5)), _q((2, 5)), _q((1, 5)),
                             _q(0), _q((1, 15)), _q((1, 15))),
    (5, 3, -1, -6): DeltaSet(_q(0), _q(0), _q(1), _q(0), _q(0), _q(0)),
}

WHEEL6_CLASS_NAMES = {
    (3, 3, 0, 2): "rim pair, not adjacent",
    (3, 3, -1, -5): "rim pair, adjacent",
    (3, 5, -1, -6): "rim to hub",
    (5, 3, -1, -6): "hub to rim",
}

# the entries singled out for recomputation by the asymmetry between the
# distance-two and adjacent rim rows
WHEEL6_SUSPECT_ENTRIES = (((3, 3, 0, 2), "d13"), ((3, 3, -1, -5), "d23"))


@dataclass(frozen=True)
class DeltaComparison:
    signature: tuple
    field: str
    computed: QuadValue
    reference: QuadValue

    @property
    def match(self) -> bool:
        return self.computed == self.reference


def compare_delta_rows(rows, reference: dict[tuple, DeltaSet]
                       ) -> list[DeltaComparison]:
    """Entrywise comparison of computed class rows against a reference table,
    matching classes by signature."""
    out = []
    for row in rows:
        ref = reference.get(row.signature)
        if ref is None:
            continue
        for name, computed, expected in zip(DELTA_FIELDS, row.deltas.as_tuple(),
                                            ref.as_tuple()):
            out.append(DeltaComparison(row.signature, name, computed, expected))
    return out


@dataclass(frozen=True)
class CatalogComparison:
    n: int
    params: tuple[int, int, int]
    builder: str | None
    match: bool | None  # None when no builder exists

    @property
    def status(self) -> str:
        if self.builder is None:
            return "needs design file"
        return "match" if self.match else "MISMATCH"


def catalog_spectrum_comparison() -> list[CatalogComparison]:
    """Rebuild every catalog row with a built-in constructor and compare its
    exact distinct spectrum, from `exact_eigensystem`, with the catalog's
    exact values."""
    out = []
    for row in catalog():
        match = None
        if row.builder is not None:
            L = laplacian(builtin_graph(row.builder))
            match = exact_eigensystem(L).values() == list(row.spectrum)
        out.append(CatalogComparison(row.n, row.params, row.builder, match))
    return out
