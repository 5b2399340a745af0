"""analyze() builds the graph's facts, its Laplacian and each eigensystem
once per graph and hands them to the route that runs, and computes one exact
DeltaSet and one h per pair class: counts of these layers per call, with
every binding of a counted function wrapped in every `mnhd` module namespace
(or in the ones named)."""

import sys
from collections import Counter

import pytest

import mnhd.certify
import mnhd.graphs
import mnhd.heat
import mnhd.quadratic
import mnhd.spectral
from mnhd.certify import analyze
from mnhd.graphs import builtin_graph
from mnhd.quadratic import QuadMatrix

COUNTED = ("minimal_polynomial", "exact_eigensystem", "lagrange_projector",
           "lagrange_coefficients", "jacobi_eigendecompose")


def _count_calls(monkeypatch, owner, names, modules=None):
    counts = Counter()
    if modules is None:
        modules = [module for mod_name, module in list(sys.modules.items())
                   if mod_name == "mnhd" or mod_name.startswith("mnhd.")]

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        original = getattr(owner, name)
        wrapper = counting(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    return counts


@pytest.fixture
def calls(monkeypatch):
    return _count_calls(monkeypatch, mnhd.spectral, COUNTED)


@pytest.mark.parametrize("name, minimal, exact, lagrange, jacobi", [
    ("crown-7", 1, 1, 0, 1),     # bipartite certificate: polynomials mod mu
    ("cayley-s3", 1, 1, 0, 1),   # delta-sign template: no projector matrix
    ("cycle-7", 1, 1, 0, 1),     # cubic eigenvalues: float delta table
    ("cycle-6", 1, 1, 0, 1),
    ("wheel-6", 1, 1, 0, 1),
    ("cycle-5", 0, 0, 0, 1),     # three eigenvalues: numeric check only
])
def test_analyze_builds_each_eigensystem_once(calls, name, minimal, exact,
                                              lagrange, jacobi):
    g = builtin_graph(name)
    analyze(g)
    assert {key: count for key, count in calls.items()
            if key != "lagrange_coefficients"} == {
        key: count for key, count in (
            ("minimal_polynomial", minimal), ("exact_eigensystem", exact),
            ("lagrange_projector", lagrange),
            ("jacobi_eigendecompose", jacobi)) if count}


@pytest.mark.parametrize("name", ["crown-7", "cayley-s3", "cycle-7", "cycle-6",
                                  "wheel-6", "cycle-5"])
def test_analyze_builds_facts_and_laplacian_once(monkeypatch, name):
    # the routes and the numeric check read the Laplacian off the eigensystem
    # they are given
    calls = _count_calls(monkeypatch, mnhd.graphs, ("laplacian", "facts"))
    analyze(builtin_graph(name))
    assert calls == {"laplacian": 1, "facts": 1}


# the exact routes read the four Lagrange polynomials that exact_eigensystem
# keeps; the float table forms the four of the cluster means
@pytest.mark.parametrize("name, basis", [
    ("crown-7", 4),
    ("cayley-s3", 4),
    ("cycle-7", 4),
    ("cycle-6", 4),
    ("wheel-6", 4),
    ("cycle-5", 0),
])
def test_analyze_builds_lagrange_basis_once(calls, name, basis):
    analyze(builtin_graph(name))
    assert calls["lagrange_coefficients"] == basis


# h_terms_exact runs once per class on the exact routes and never for the
# float table; the case ids name the graph and its class count
PER_CLASS_CASES = [
    ("crown-7", 3, 3),     # W1, W2, W3
    ("cayley-s3", 3, 3),
    ("cycle-7", 3, 0),     # float delta table: one DeltaSet per class, no h
    ("cycle-6", 3, 3),
    ("wheel-6", 4, 4),
    ("cycle-5", 0, 0),
]


@pytest.mark.parametrize("name, classes, h_terms", PER_CLASS_CASES,
                         ids=[f"{name}-{classes}"
                              for name, classes, _ in PER_CLASS_CASES])
def test_analyze_runs_delta_set_once_per_subclass(monkeypatch, name, classes,
                                                  h_terms):
    calls = _count_calls(monkeypatch, mnhd.heat,
                         ("delta_set", "h_terms_exact"))
    report = analyze(builtin_graph(name))
    assert calls["delta_set"] == classes == len(report.certificate.classes)
    assert calls["h_terms_exact"] == h_terms


@pytest.mark.parametrize("name, products, int_products", [
    ("crown-7", 0, 3),    # projector checks run mod mu; L^2..L^4
    ("cayley-s3", 0, 3),  # every projector is a combination of powers of L
    ("cycle-7", 0, 3),    # L^2..L^4; the float table reuses that L^2
    ("cycle-5", 0, 0),
])
def test_analyze_matrix_product_counts(monkeypatch, name, products,
                                       int_products):
    # int_matmul counted where the powers of L are formed, not inside
    # QuadMatrix, whose own products also run on it
    calls = _count_calls(monkeypatch, mnhd.quadratic, ("int_matmul",),
                         [mnhd.spectral, mnhd.certify])
    matmul = QuadMatrix.__matmul__

    def counting(self, other):
        calls["QuadMatrix.__matmul__"] += 1
        return matmul(self, other)

    monkeypatch.setattr(QuadMatrix, "__matmul__", counting)
    analyze(builtin_graph(name))
    assert (calls["QuadMatrix.__matmul__"], calls["int_matmul"]) == (
        products, int_products)
