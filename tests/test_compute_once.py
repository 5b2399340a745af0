"""analyze() builds each eigensystem once per graph and hands it to the route
that runs, and computes one exact DeltaSet per pair class: counts of these
layers per call, with every binding of a counted function wrapped in every
`mnhd` module namespace."""

import sys
from collections import Counter

import pytest

import mnhd.heat
import mnhd.spectral
from mnhd.certify import analyze
from mnhd.graphs import builtin_graph

COUNTED = ("minimal_polynomial", "exact_eigensystem", "lagrange_projector",
           "jacobi_eigendecompose")


def _count_calls(monkeypatch, owner, names):
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        original = getattr(owner, name)
        wrapper = counting(name, original)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "mnhd" or mod_name.startswith("mnhd."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, wrapper)
    return counts


@pytest.fixture
def calls(monkeypatch):
    return _count_calls(monkeypatch, mnhd.spectral, COUNTED)


@pytest.mark.parametrize("name, minimal, exact, lagrange, jacobi", [
    ("crown-7", 1, 1, 4, 1),     # bipartite certificate
    ("cayley-s3", 1, 1, 4, 1),   # delta-sign template
    ("cycle-7", 1, 1, 0, 1),     # cubic eigenvalues: float delta table
    ("cycle-6", 1, 1, 4, 1),
    ("wheel-6", 1, 1, 4, 1),
    ("cycle-5", 0, 0, 0, 1),     # three eigenvalues: numeric check only
])
def test_analyze_builds_each_eigensystem_once(calls, name, minimal, exact,
                                              lagrange, jacobi):
    g = builtin_graph(name)
    analyze(g)
    assert dict(calls) == {key: count for key, count in (
        ("minimal_polynomial", minimal), ("exact_eigensystem", exact),
        ("lagrange_projector", lagrange), ("jacobi_eigendecompose", jacobi))
        if count}


@pytest.mark.parametrize("name, classes", [
    ("crown-7", 3),     # W1, W2, W3
    ("cayley-s3", 3),
    ("cycle-7", 3),     # float delta table: one DeltaSet per signature class
    ("cycle-6", 3),
    ("wheel-6", 4),
    ("cycle-5", 0),
])
def test_analyze_runs_delta_set_once_per_subclass(monkeypatch, name, classes):
    calls = _count_calls(monkeypatch, mnhd.heat, ("delta_set",))
    report = analyze(builtin_graph(name))
    assert calls["delta_set"] == classes == len(report.certificate.classes)
