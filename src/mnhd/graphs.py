"""Finite simple graphs: validation, structural facts, Laplacians, the
built-in constructors (cycles, crowns, design incidence graphs, the S3 Cayley
graph, the 6-wheel), and the registry that resolves builtin graph names.

Vertices are indices 0..n-1.  Edges are unordered pairs stored as (min, max)
tuples.  All matrices are exact integer ndarrays.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .designs import (complement_design, design_742, fano_design,
                      validate_design)
from .errors import FileFormatError, GraphInputError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[Edge]

    def degree(self, u: int) -> int:
        return sum(1 for e in self.edges if u in e)

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class GraphFacts:
    connected: bool
    regular_degree: int | None
    bipartition: tuple[frozenset[int], frozenset[int]] | None


def build_graph(n: int, edges: Iterable[Edge]) -> Graph:
    """Validate and normalize an edge list into a Graph.

    Raises GraphInputError on n < 2, out-of-range indices, self-loops, or
    duplicate edges (after orientation normalization).
    """
    if n < 2:
        raise GraphInputError(f"need at least two vertices, got n={n}")
    seen: set[Edge] = set()
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge {e} out of range for n={n}")
        if u == v:
            raise GraphInputError(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphInputError(f"duplicate edge {key}")
        seen.add(key)
    return Graph(n, frozenset(seen))


def facts(g: Graph) -> GraphFacts:
    """Connectivity (BFS), regular degree if all degrees agree, and a
    bipartition from 2-coloring when no odd cycle exists."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * g.n
    bipartite = True
    components = 0
    for root in range(g.n):
        if color[root] != -1:
            continue
        components += 1
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    bipartite = False
    degrees = [len(a) for a in adj]
    regular = degrees[0] if len(set(degrees)) == 1 else None
    parts = None
    if bipartite:
        parts = (frozenset(i for i in range(g.n) if color[i] == 0),
                 frozenset(i for i in range(g.n) if color[i] == 1))
    return GraphFacts(connected=(components == 1), regular_degree=regular,
                      bipartition=parts)


def adjacency(g: Graph) -> np.ndarray:
    A = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        A[u, v] = A[v, u] = 1
    return A


def laplacian(g: Graph) -> np.ndarray:
    """L = D - A: symmetric, zero row sums, off-diagonals in {0, -1}."""
    A = adjacency(g)
    return np.diag(A.sum(axis=1)) - A


# ---------------------------------------------------------------------------
# builders


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphInputError("cycle needs n >= 3")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def crown(v: int) -> Graph:
    """K_{v,v} minus a perfect matching: the incidence graph of the
    (v, v-1, v-2) symmetric design."""
    if v < 3:
        raise GraphInputError("crown needs v >= 3")
    return build_graph(2 * v, [(i, v + j) for i in range(v) for j in range(v) if i != j])


def wheel6() -> Graph:
    """Hub vertex 5 joined to every vertex of the 5-cycle 0..4."""
    rim = [(i, (i + 1) % 5) for i in range(5)]
    return build_graph(6, rim + [(i, 5) for i in range(5)])


# The 3-regular Cayley graph of S3 with generators {(12), (123), (132)},
# hard-coded from its known Laplacian; eigenvalues 0, 2, 3, 5.
_CAYLEY_S3_EDGES = [(0, 1), (0, 2), (0, 5), (1, 3), (1, 4), (2, 3), (2, 5),
                    (3, 4), (4, 5)]


def cayley_s3() -> Graph:
    return build_graph(6, _CAYLEY_S3_EDGES)


def incidence_graph(design) -> Graph:
    """Bipartite graph on points 0..v-1 and blocks v..v+b-1, with point x
    adjacent to block B iff x is a member of B.  Validates the design first."""
    validate_design(design)
    v = design.v
    edges = [(x, v + bi) for bi, blk in enumerate(design.blocks) for x in sorted(blk)]
    return build_graph(v + len(design.blocks), edges)


def fano_incidence() -> Graph:
    """Incidence graph of the Fano plane (the Heawood graph)."""
    return incidence_graph(fano_design())


def design_742_incidence() -> Graph:
    """Incidence graph of the built-in (7, 4, 2) symmetric design."""
    return incidence_graph(design_742())


# ---------------------------------------------------------------------------
# builtin registry

BUILTIN_DOC = ("fano, fano-complement, design-742, cayley-s3, wheel-6, "
               "crown-<v>, cycle-<n>")


def builtin_graph(name: str) -> Graph:
    """Resolve a builtin graph name (see BUILTIN_DOC)."""
    fixed = {
        "fano": fano_incidence,
        "design-742": design_742_incidence,
        "cayley-s3": cayley_s3,
        "wheel-6": wheel6,
    }
    if name in fixed:
        return fixed[name]()
    if name == "fano-complement":
        return incidence_graph(complement_design(fano_design()))
    for prefix, builder in (("crown-", crown), ("cycle-", cycle)):
        if name.startswith(prefix):
            try:
                size = int(name[len(prefix):])
            except ValueError:
                break
            return builder(size)  # its GraphInputError names the bound
    raise GraphInputError(f"unknown builtin {name!r}; available: {BUILTIN_DOC}")


def all_builtin_names() -> list[str]:
    """The canonical builtin family exercised by the acceptance suite."""
    return ([f"crown-{v}" for v in range(5, 16)]
            + [f"cycle-{k}" for k in range(4, 8)]
            + ["fano", "fano-complement", "design-742", "cayley-s3", "wheel-6"])


# ---------------------------------------------------------------------------
# edge-list files: line 1 "n m", then m lines "u v"; '#' starts a comment


def write_edge_list(g: Graph, fp: IO[str]) -> None:
    fp.write(f"{g.n} {g.m}\n")
    for u, v in sorted(g.edges):
        fp.write(f"{u} {v}\n")


def read_edge_list(fp: IO[str]) -> Graph:
    try:
        lines = [ln.split("#", 1)[0].strip() for ln in fp]
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"not a UTF-8 text file: {exc}") from exc
    lines = [ln for ln in lines if ln]
    if not lines:
        raise FileFormatError("empty edge-list file")
    head = lines[0].split()
    if len(head) != 2:
        raise FileFormatError(f"expected 'n m' header, got {lines[0]!r}")
    for ln in lines[1:]:
        if len(ln.split()) != 2:
            raise FileFormatError(f"expected 'u v' line, got {ln!r}")
    try:
        n, m = int(head[0]), int(head[1])
        edges = [(int(u), int(v)) for u, v in map(str.split, lines[1:])]
    except ValueError as exc:
        raise FileFormatError(f"non-integer token: {exc}") from exc
    if len(edges) != m:
        raise FileFormatError(f"header promises {m} edges, file has {len(edges)}")
    return build_graph(n, edges)
