import random
from fractions import Fraction

import numpy as np
import pytest

from mnhd.certify import analyze
from mnhd.graphs import all_builtin_names, build_graph, builtin_graph, crown
from mnhd.errors import (NonQuadraticEigenvaluesError,
                         NotFourEigenvaluesError)
from mnhd.graphs import laplacian
from mnhd.heat import ExpSum
from mnhd.quadratic import QuadValue
from mnhd.spectral import exact_eigensystem, jacobi_eigendecompose


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\n{'PASS' if report.passed else 'FAIL'} {name}", flush=True)


@pytest.fixture(scope="session")
def builtins():
    return {name: builtin_graph(name) for name in all_builtin_names()}


@pytest.fixture(scope="session")
def incidence_builtins(builtins):
    """The constructible bipartite four-eigenvalue family."""
    names = ([f"crown-{v}" for v in range(5, 16)]
             + ["cycle-6", "fano", "fano-complement", "design-742"])
    return {name: builtins[name] for name in names}


@pytest.fixture(scope="session")
def numeric_systems(builtins):
    return {name: jacobi_eigendecompose(laplacian(g))
            for name, g in builtins.items()}


@pytest.fixture(scope="session")
def exact_systems(builtins):
    out = {}
    for name, g in builtins.items():
        try:
            out[name] = exact_eigensystem(laplacian(g))
        except (NotFourEigenvaluesError, NonQuadraticEigenvaluesError):
            out[name] = None
    return out


@pytest.fixture(scope="session")
def extra_exact_graphs():
    """Connected four-eigenvalue graphs with an exact eigensystem beyond the
    builtins: K3 x K4 (Cartesian; spectrum {0, 3, 4, 7}) and Paley(13) plus a
    vertex joined to all 13 (spectrum {0, (15 - sqrt13)/2, (15 + sqrt13)/2,
    14}, not regular)."""
    k3_box_k4 = build_graph(12, [(u, v) for u in range(12)
                                 for v in range(u + 1, 12)
                                 if (u // 4 == v // 4) != (u % 4 == v % 4)])
    squares = {x * x % 13 for x in range(1, 13)}
    paley13_cone = build_graph(14, [(u, v) for u in range(13)
                                    for v in range(u + 1, 13)
                                    if (v - u) % 13 in squares]
                               + [(u, 13) for u in range(13)])
    return {"k3-box-k4": k3_box_k4, "paley13-cone": paley13_cone}


@pytest.fixture(scope="session")
def reports(builtins):
    """One full analyze() per builtin, shared by every sweep-style test."""
    return {name: analyze(g) for name, g in builtins.items()}


@pytest.fixture(scope="session")
def crown50_system():
    g = crown(50)
    return g, jacobi_eigendecompose(laplacian(g))


@pytest.fixture(scope="session")
def group_projectors():
    """A function giving the float projectors X X^T of a numeric
    eigensystem, one per group, X the group's block of columns of
    es.vectors (split by cumulative multiplicity)."""
    def project(es):
        ends = np.cumsum([grp.multiplicity for grp in es.groups])
        return [X @ X.T for X in np.split(es.vectors, ends[:-1], axis=1)]
    return project


@pytest.fixture(scope="session")
def h_from_deltas():
    """The k = 4 Delta expansion of h, the oracle for heat.h_terms_exact: an
    ExpSum from the nonzero eigenvalues lams = (lam1, lam2, lam3), a pair's
    exact DeltaSet ds and n, P0 = J/n giving the terms lam_i D_i / n."""
    def expand(lams, ds, n):
        inv_n = QuadValue(Fraction(1, n))
        return ExpSum((
            (lams[0], lams[0] * inv_n * ds.d1),
            (lams[1], lams[1] * inv_n * ds.d2),
            (lams[2], lams[2] * inv_n * ds.d3),
            (lams[0] + lams[1], (lams[1] - lams[0]) * ds.d12),
            (lams[0] + lams[2], (lams[2] - lams[0]) * ds.d13),
            (lams[1] + lams[2], (lams[2] - lams[1]) * ds.d23),
        ))
    return expand


@pytest.fixture(scope="session")
def random_gnp():
    """A builder of seeded G(n, p) graphs: each pair (i, j), i < j, in
    row-major order is an edge when a `random.Random(seed)` draw is below p."""
    def build(n, seed, p=0.2):
        rng = random.Random(seed)
        return build_graph(n, [(i, j) for i in range(n)
                               for j in range(i + 1, n) if rng.random() < p])
    return build
