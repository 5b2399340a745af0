"""The benchmark's three workloads: which graphs each one analyzes, how they
are built from the public `mnhd` API, and the seeded vertex relabeling that
makes every pass analyze fresh inputs.

Importing this module imports `mnhd`; the set-up probe times exactly that
import plus `build_workload`.

Why each workload exists:

* bipartite-ladder -- every graph goes through `certificate_bipartite`, the
  exact matrix core (minimal polynomial, Lagrange projectors, object-dtype
  `QuadMatrix` products).  Crowns up to n = 100 show how that core scales.
* template-nonbipartite -- every graph goes through `delta_sign_analysis`:
  the same exact layers, used per vertex pair in scalar arithmetic
  (`delta_set` runs for all n(n-1) ordered pairs).  cycle-7 takes the
  template's cubic fallback to the float delta table.
* numeric-route -- the control for exact-core work: no graph here has four
  distinct Laplacian eigenvalues, so `analyze` runs only the numeric
  eigensystem and the numeric check, and no exact layer.

`mnhd.reference` and `mnhd.cli` run in no workload: they serve
`catalog --reproduce` and text output only.  `mnhd.designs` runs only inside
set-up, where the designs are built and `incidence_graph` validates them.
"""

from __future__ import annotations

import random

from mnhd import designs, graphs

# Cyclic difference sets realizing the six catalog rows the CLI cannot build:
# the Paley set mod 11 and the Singer sets mod 13 and mod 15.
DIFFERENCE_SETS = {
    "paley-11": (11, (1, 3, 4, 5, 9)),
    "singer-13": (13, (0, 1, 3, 9)),
    "singer-15": (15, (0, 1, 2, 4, 5, 8, 10)),
}

# G(n, 0.2) graphs come from these fixed generator seeds, not from the
# workload seed, so every run analyzes the same graphs (relabeled) and each
# has n distinct Laplacian eigenvalues, as the outcome pins record.
GNP_SIZES = (20, 40, 60, 80, 100)
GNP_P = 0.2


def difference_set_design(v: int, base: tuple[int, ...]) -> designs.Design:
    return designs.build_design(v, [[(x + s) % v for x in base] for s in range(v)])


def rook(a: int, b: int) -> graphs.Graph:
    """Cartesian product K_a x K_b: cells of an a-by-b board, adjacent when
    they share exactly one of row and column."""
    n = a * b
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if (i // b == j // b) != (i % b == j % b)]
    return graphs.build_graph(n, edges)


def paley_cone(q: int) -> graphs.Graph:
    """The Paley graph on Z_q (q prime, q = 1 mod 4) plus an apex vertex q
    joined to every other vertex."""
    squares = {x * x % q for x in range(1, q)}
    edges = [(i, j) for i in range(q) for j in range(i + 1, q)
             if (j - i) % q in squares]
    return graphs.build_graph(q + 1, edges + [(i, q) for i in range(q)])


def gnp(n: int) -> graphs.Graph:
    """A connected Erdos-Renyi G(n, 0.2) graph, the first connected draw of
    the generator seeded with n."""
    rng = random.Random(n)
    while True:
        g = graphs.build_graph(n, [(i, j) for i in range(n)
                                   for j in range(i + 1, n) if rng.random() < GNP_P])
        if graphs.facts(g).connected:
            return g


def _bipartite_ladder() -> dict[str, graphs.Graph]:
    out = {f"crown-{v}": graphs.crown(v) for v in (*range(5, 16), 20, 30, 50)}
    out["fano"] = graphs.fano_incidence()
    out["fano-complement"] = graphs.incidence_graph(
        designs.complement_design(designs.fano_design()))
    out["design-742"] = graphs.design_742_incidence()
    out["cycle-6"] = graphs.cycle(6)
    for name, (v, base) in DIFFERENCE_SETS.items():
        design = difference_set_design(v, base)
        out[name] = graphs.incidence_graph(design)
        out[f"{name}-complement"] = graphs.incidence_graph(
            designs.complement_design(design))
    return out


def _template_nonbipartite() -> dict[str, graphs.Graph]:
    out = {f"rook-{a}x{b}": rook(a, b)
           for a, b in ((2, 3), (3, 4), (4, 6), (5, 8), (7, 10))}
    out.update({f"paley-cone-{q}": paley_cone(q) for q in (5, 13, 29, 41, 61)})
    out["cayley-s3"] = graphs.cayley_s3()
    out["wheel-6"] = graphs.wheel6()
    out["cycle-7"] = graphs.cycle(7)
    return out


def _numeric_route() -> dict[str, graphs.Graph]:
    out = {f"gnp-{n}": gnp(n) for n in GNP_SIZES}
    out["cycle-25"] = graphs.cycle(25)
    out["cycle-49"] = graphs.cycle(49)
    return out


WORKLOADS = {
    "bipartite-ladder": _bipartite_ladder,
    "template-nonbipartite": _template_nonbipartite,
    "numeric-route": _numeric_route,
}


def build_workload(name: str) -> dict[str, graphs.Graph]:
    """The workload's graphs by name, in canonical labeling."""
    return WORKLOADS[name]()


class Relabeler:
    """Seeded vertex relabelings that never repeat a labeled graph within one
    run, so a cache keyed by graph value (such as the lru_cache on
    `graphs.facts`) cannot turn a repeat pass into a lookup."""

    def __init__(self, seed: int, canonical: dict[str, graphs.Graph]):
        self._rng = random.Random(seed)
        self._seen = {name: {g.edges} for name, g in canonical.items()}

    def fresh(self, name: str, g: graphs.Graph) -> graphs.Graph:
        seen = self._seen[name]
        for _ in range(1000):
            perm = list(range(g.n))
            self._rng.shuffle(perm)
            edges = sorted((perm[u], perm[v]) for u, v in sorted(g.edges))
            out = graphs.build_graph(g.n, edges)
            if out.edges not in seen:
                seen.add(out.edges)
                return out
        raise RuntimeError(f"{name}: no unseen relabeling after 1000 draws")
