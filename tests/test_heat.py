import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mnhd.errors import (GraphInputError, InvalidParameterError,
                         InvariantViolationError, NegativeTimeError,
                         SameVertexError)
from mnhd.graphs import (build_graph, cayley_s3, crown, cycle,
                         design_742_incidence, laplacian, wheel6)
from mnhd.heat import (DeltaSet, ExpSum, default_time_grid, delta_set, h_rate,
                       h_terms_exact, heat_slices, heat_stack, ratio_curve,
                       write_curve_csv)
from mnhd.quadratic import QuadValue
from mnhd.spectral import (EigenGroup, Eigensystem, exact_eigensystem,
                           jacobi_eigendecompose, lagrange_coefficients,
                           lagrange_projector, projector_entries)

F = Fraction


def _es(g):
    return jacobi_eigendecompose(laplacian(g))


def _exact_parts(g):
    """(eigensystem, Lagrange projectors P0..P3) for the exact path."""
    es = exact_eigensystem(laplacian(g))
    return es, [lagrange_projector(es.powers, es.values(), i)
                for i in range(4)]


def _entries(projs, u, v):
    """(P_i(u,u), P_i(u,v)) for each projector P_i of `projs`."""
    return [P.entry(u, u) for P in projs], [P.entry(u, v) for P in projs]


def _deltas(projs, u, v):
    """delta_set on the entries of the nonzero-eigenvalue projectors
    P1..P3 of `projs`."""
    uu, uv = _entries(projs, u, v)
    return delta_set(uu[1:], uv[1:])


def test_heat_stack_at_zero_is_identity():
    es = _es(crown(5))
    assert np.array_equal(heat_stack(es, [0.0])[0], np.eye(10))


def test_heat_long_time_limit():
    H = heat_stack(_es(crown(5)), [100.0])[0]
    assert np.max(np.abs(H - 1 / 10)) < 1e-12


def _projector_sum_stack(es, grid, projs):
    """H_t = sum_lambda exp(-t*lambda) P_lambda with one stored n x n
    projector per distinct eigenvalue: the formula `heat_slices` used before
    it kept the eigenvectors, kept as its reference."""
    values = np.array([float(grp.value) for grp in es.groups])
    projs = np.stack(projs)  # (k, n, n)
    return np.stack([np.eye(es.n) if t == 0
                     else np.einsum("k,kij->ij", np.exp(-t * values), projs)
                     for t in grid])


def test_heat_slices_match_projector_sum(builtins, numeric_systems,
                                        crown50_system, random_gnp,
                                        group_projectors):
    cases = [(name, numeric_systems[name]) for name in builtins]
    cases += [(f"crown-{k}", _es(crown(k))) for k in (20, 30)]
    cases.append(("crown-50", crown50_system[1]))
    cases += [(f"gnp-{n}", _es(random_gnp(n, n))) for n in (8, 12, 20, 40, 100)]
    for name, es in cases:
        grid = default_time_grid(es)
        H = heat_stack(es, grid)
        assert np.array_equal(H[0], np.eye(es.n)), name
        ref = _projector_sum_stack(es, grid, group_projectors(es))
        assert np.max(np.abs(H - ref)) < 1e-12, name


def test_heat_rejects_negative_time():
    with pytest.raises(NegativeTimeError):
        heat_stack(_es(crown(5)), [-0.1])
    with pytest.raises(NegativeTimeError):
        heat_stack(_es(crown(5)), [-1.0, 0.0])


def test_heat_slices_check_grid_before_iterating():
    es = _es(crown(5))
    with pytest.raises(NegativeTimeError):
        heat_slices(es, [-1.0])  # raises on the call, no slice requested
    slices = heat_slices(es, [0.0, 1.0])
    assert np.array_equal(next(slices), np.eye(10))
    assert next(slices).shape == (10, 10)
    assert next(slices, None) is None
    for t in (np.nan, np.inf):
        with pytest.raises(InvalidParameterError):
            heat_slices(es, [0.0, t])


def test_heat_semigroup_742():
    es = _es(design_742_incidence())
    H1, H2, H3 = heat_stack(es, [1.0, 2.0, 3.0])
    assert np.max(np.abs(H1 @ H2 - H3)) < 1e-9


@pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 10.0])
def test_heat_kernel_properties(builtins, numeric_systems, t):
    for name, g in builtins.items():
        H = heat_stack(numeric_systems[name], [t])[0]
        assert np.max(np.abs(H - H.T)) < 1e-12, name
        assert np.max(np.abs(H.sum(axis=1) - 1.0)) < 1e-12, name
        assert H.min() > -1e-12, name


def test_ratio_endpoints():
    es = _es(design_742_incidence())
    (_, r0), (_, r_end) = ratio_curve(es, 0, 1, [0.0, 100.0])
    assert r0 == 0.0
    assert abs(r_end - 1.0) < 1e-10
    with pytest.raises(SameVertexError):
        ratio_curve(es, 3, 3, [1.0])


def test_ratio_curve_rejects_vertices_out_of_range():
    es = _es(build_graph(3, [(0, 1), (1, 2)]))
    for u, v in ((0, 5), (-1, 0), (0, 3), (3, 3)):
        with pytest.raises(GraphInputError):
            ratio_curve(es, u, v, [0.0, 1.0])


def test_ratio_curve_rejects_diagonal_below_one_over_n():
    # one eigenvector x with x_0^2 = 0.1 gives H_t(0,0) = 0.1 e^{-t} < 1/2
    # for t > 0: no Laplacian has this eigensystem
    x = np.array([[np.sqrt(0.1)], [np.sqrt(0.9)]])
    es = Eigensystem(2, (EigenGroup(1.0, 1),), "numeric", vectors=x)
    assert ratio_curve(es, 0, 1, [0.0]) == [(0.0, 0.0)]
    with pytest.raises(InvariantViolationError):
        ratio_curve(es, 0, 1, [0.0, 1.0])


def test_ratio_bounded_on_vertex_transitive(builtins, numeric_systems):
    transitive = [k for k in builtins
                  if k.startswith(("cycle-", "crown-")) or k == "cayley-s3"]
    grid = np.concatenate([[0.0], np.geomspace(1e-3, 50.0, 40)])
    for name in transitive:
        es = numeric_systems[name]
        H = heat_stack(es, grid)
        R = H / np.einsum("tii->ti", H)[:, :, None]
        assert R.max() <= 1 + 1e-12, name


def test_ratio_curve_trivial_grid():
    es = _es(crown(5))
    assert ratio_curve(es, 0, 1, [0.0]) == [(0.0, 0.0)]


def test_ratio_curve_monotone_742():
    es = _es(design_742_incidence())
    curve = ratio_curve(es, 0, 7, default_time_grid(es))
    values = [r for _, r in curve]
    assert values[0] == 0.0
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_ratio_curve_tail_crown5():
    es = _es(crown(5))
    curve = ratio_curve(es, 0, 1, [0.0, 50.0])
    # spectral gap 3: remainder is O(e^-150)
    assert abs(curve[-1][1] - 1.0) < 1e-8


def test_default_time_grid_shape():
    es = _es(crown(5))
    grid = default_time_grid(es)
    assert len(grid) == 61 and grid[0] == 0.0 and grid[1] == 1e-3
    assert grid[-1] == max(50.0, 30.0 / 3.0)
    assert np.exp(-3.0 * grid[-1]) < 1e-12


def test_default_time_grid_edgeless():
    es = _es(build_graph(4, []))
    assert es.smallest_positive() == float("inf")
    grid = default_time_grid(es)
    assert len(grid) == 61 and grid[-1] == 50.0
    assert np.array_equal(heat_stack(es, grid),
                          np.broadcast_to(np.eye(4), (61, 4, 4)))


def test_default_time_grid_needs_a_point():
    es = _es(crown(5))
    assert list(default_time_grid(es, 1)) == [0.0, 1e-3]
    for points in (0, -1):
        with pytest.raises(InvalidParameterError):
            default_time_grid(es, points)


def test_write_curve_csv_format():
    buf = io.StringIO()
    write_curve_csv(buf, [(0.0, 0.0), (1.0, 1 / 3)])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,r"
    assert lines[2] == f"{1.0:.17g},{1 / 3:.17g}"
    assert "0.33333333333333331" in lines[2]


# -- Delta quantities --------------------------------------------------------


def test_delta_set_cayley_non_adjacent_pair():
    _, projs = _exact_parts(cayley_s3())
    # (0, 3) is a non-adjacent pair
    ds = _deltas(projs, 0, 3)
    assert ds == DeltaSet(QuadValue(F(1, 3)), QuadValue(F(1, 2)),
                          QuadValue(F(1, 6)), QuadValue(F(-1, 36)),
                          QuadValue(F(-1, 12)), QuadValue(F(-1, 9)))


def test_delta_set_wheel_hub_classes():
    _, projs = _exact_parts(wheel6())
    rim_to_hub = _deltas(projs, 0, 5)
    assert rim_to_hub == DeltaSet(QuadValue(F(2, 5)), QuadValue(F(2, 5)),
                                  QuadValue(F(1, 5)), QuadValue(0),
                                  QuadValue(F(1, 15)), QuadValue(F(1, 15)))
    hub_to_rim = _deltas(projs, 5, 0)
    assert hub_to_rim == DeltaSet(QuadValue(0), QuadValue(0), QuadValue(1),
                                  QuadValue(0), QuadValue(0), QuadValue(0))


def test_delta_antisymmetry_by_definition():
    _, projs = _exact_parts(design_742_incidence())
    u, v = 0, 1
    ds = _deltas(projs, u, v)
    for (i, j), dij in zip(((1, 2), (1, 3), (2, 3)),
                           (ds.d12, ds.d13, ds.d23)):
        Pi, Pj = projs[i], projs[j]
        swapped = Pj.entry(u, v) * Pi.entry(u, u) - Pi.entry(u, v) * Pj.entry(u, u)
        assert swapped == -dij


@pytest.mark.parametrize("make", [cayley_s3, wheel6, design_742_incidence,
                                  lambda: crown(5), lambda: cycle(6)],
                         ids=["cayley", "wheel", "742", "crown5", "cycle6"])
def test_delta_sum_is_one(make):
    g = make()
    _, projs = _exact_parts(g)
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                ds = _deltas(projs, u, v)
                assert ds.d1 + ds.d2 + ds.d3 == QuadValue(1)


# -- the h function ----------------------------------------------------------


def test_h_at_zero_equals_minus_laplacian_entry():
    g = design_742_incidence()
    L = laplacian(g)
    es, projs = _exact_parts(g)
    adjacent = (0, 7) if L[0, 7] == -1 else (0, 8)
    for pair, h0 in ((adjacent, QuadValue(1)), ((0, 1), QuadValue(0))):
        h = h_terms_exact(es.values(), *_entries(projs, *pair))
        assert h.at_zero() == h0


def _h_unfolded(values, uu, uv):
    """h from the derivative product H'(u,v)H(u,u) - H(u,v)H'(u,u) with
    H' = -sum lam exp(-t*lam) P, summed over i and j both ways: the sum that
    h_terms_exact folds into i < j."""
    k = len(values)
    return ExpSum(tuple(
        (values[i] + values[j], values[i] * (uu[i] * uv[j] - uv[i] * uu[j]))
        for i in range(k) for j in range(k)))


def test_h_terms_exact_match_derivative_product_route(exact_systems,
                                                      h_from_deltas):
    # the first pair of every (L(u,u), L(v,v), L(u,v), L^2(u,v)) class of
    # every builtin with an exact eigensystem: the one formula, on entries of
    # the full Lagrange projector matrices, against the unfolded derivative
    # product and the Delta expansion
    for name, es in exact_systems.items():
        if es is None:
            continue
        _, L, L2, _ = es.powers
        firsts = {}
        for u in range(es.n):
            for v in range(es.n):
                if u != v:
                    sig = (L[u, u], L[v, v], L[u, v], L2[u, v])
                    firsts.setdefault(sig, (u, v))
        projs = [lagrange_projector(es.powers, es.values(), i)
                 for i in range(4)]
        for u, v in firsts.values():
            uu, uv = _entries(projs, u, v)
            h = h_terms_exact(es.values(), uu, uv)
            assert h == _h_unfolded(es.values(), uu, uv), (name, u, v)
            assert h == h_from_deltas(es.values()[1:], _deltas(projs, u, v),
                                      es.n), (name, u, v)


def test_reported_deltas_give_the_h_the_routes_decide(exact_systems, reports,
                                                      h_from_deltas):
    # every class row of both exact routes: the Delta expansion of the
    # reported deltas is the h built from the row's projector entries
    for name, es in exact_systems.items():
        if es is None:
            continue
        cert = reports[name].certificate
        assert cert.method in ("bipartite-certificate", "delta-sign-template")
        for row in cert.classes:
            h = h_terms_exact(es.values(), *row.entries)
            assert h == h_from_deltas(es.values()[1:], row.deltas, es.n), \
                (name, row.tag)


@pytest.mark.parametrize("g, spectrum", [
    (build_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]),
     [QuadValue(0), QuadValue(4)]),
    (build_graph(4, [(0, 1), (0, 2), (0, 3)]),
     [QuadValue(0), QuadValue(1), QuadValue(4)]),
    (cycle(5), [QuadValue(0), QuadValue(F(5, 2), F(-1, 2), 5),
                QuadValue(F(5, 2), F(1, 2), 5)]),
    (cycle(8), [QuadValue(0), QuadValue(2, -1, 2), QuadValue(2),
                QuadValue(2, 1, 2), QuadValue(4)]),
], ids=["K4", "star-K1,3", "cycle-5", "cycle-8"])
def test_h_terms_exact_any_number_of_eigenvalues(g, spectrum):
    # k = 2, 3, 3 and 5 distinct eigenvalues: projector entries from the
    # exact Lagrange basis over the spectrum and the powers I..L^(k-1)
    L = laplacian(g)
    powers = [np.linalg.matrix_power(L, j) for j in range(len(spectrum))]
    basis = [lagrange_coefficients(spectrum, i) for i in range(len(spectrum))]
    es = _es(g)
    for u in range(g.n):
        for v in range(g.n):
            if u == v:
                continue
            uu, uv = (projector_entries(basis, powers, u, x) for x in (u, v))
            h = h_terms_exact(spectrum, uu, uv)
            assert h.at_zero() == QuadValue(-int(L[u, v])), (u, v)
            for t in (0.1, 0.7, 2.0):
                expansion = sum(float(c) * np.exp(-float(rate) * t)
                                for rate, c in h.terms)
                direct = h_rate(es, L, u, v, t)
                assert abs(expansion - direct) < 1e-12, (u, v, t)


def test_exact_requirement_survives_optimized_mode():
    # python -O strips assert statements; the typed check must still raise
    code = ("from mnhd.certify import delta_sign_analysis\n"
            "from mnhd.errors import ExactEigensystemRequiredError\n"
            "from mnhd.graphs import cayley_s3, laplacian\n"
            "from mnhd.spectral import jacobi_eigendecompose\n"
            "es = jacobi_eigendecompose(laplacian(cayley_s3()))\n"
            "try:\n"
            "    delta_sign_analysis(es)\n"
            "except ExactEigensystemRequiredError:\n"
            "    print('raised')\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "raised"


def test_h_expansion_agrees_with_rate_formula_numerically():
    for g in (design_742_incidence(), cayley_s3(), wheel6()):
        L = laplacian(g)
        es = _es(g)
        exact, projs = _exact_parts(g)
        grid = default_time_grid(es)
        for (u, v) in ((0, 1), (1, g.n - 1)):
            h = h_terms_exact(exact.values(), *_entries(projs, u, v))
            for t in grid[::6]:
                expansion = sum(float(c) * np.exp(-float(rate) * t)
                                for rate, c in h.terms)
                direct = h_rate(es, L, u, v, float(t))
                assert abs(expansion - direct) < 1e-10


def test_h_rate_at_zero_all_pairs(builtins, numeric_systems):
    for name, g in builtins.items():
        L = laplacian(g)
        es = numeric_systems[name]
        for u in range(g.n):
            for v in range(g.n):
                if u != v:
                    assert abs(h_rate(es, L, u, v, 0.0) - (-L[u, v])) < 1e-12, name

