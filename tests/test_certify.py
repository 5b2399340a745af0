import dataclasses
import json
import random
import tracemalloc
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
import scipy.linalg

from mnhd.certify import (FAILED, NOT_APPLICABLE, NUMERIC_ONLY, PROVEN,
                          REPORT_SCHEMA, ClassRow, _decide, _pair_classes,
                          analyze, certificate_bipartite, delta_sign_analysis,
                          numeric_check)
from mnhd.errors import (ExactEigensystemRequiredError, InvalidParameterError,
                         NonQuadraticEigenvaluesError, NotFourEigenvaluesError,
                         ShortGridError, SignatureKeyOverflowError,
                         UnknownSignatureError)
from mnhd.graphs import (build_graph, builtin_graph, cayley_s3, crown, cycle,
                         design_742_incidence, facts, fano_incidence,
                         laplacian, wheel6)
from mnhd.heat import ExpSum, default_time_grid, delta_set, heat_stack
from mnhd.quadratic import QuadValue
from mnhd.reference import (CAYLEY_S3_REFERENCE, WHEEL6_REFERENCE,
                            WHEEL6_SUSPECT_ENTRIES, compare_delta_rows)
from mnhd.spectral import (FourSpectrum, exact_eigensystem,
                           jacobi_eigendecompose, lagrange_projector)

F = Fraction


def _numeric(g):
    return jacobi_eigendecompose(laplacian(g))


def _design_context(g):
    d = facts(g).regular_degree
    lam = (2 * d * (d - 1)) // (g.n - 2)
    return g.n, d, lam


# -- pair classification -----------------------------------------------------


def _named_rows(g):
    """(tag, signature, count) of the bipartite certificate's class rows."""
    cert = certificate_bipartite(exact_eigensystem(laplacian(g)))
    return [(row.tag, row.signature, row.count) for row in cert.classes]


def test_bipartite_rows_name_742_classes():
    # (L(u,v), L^2(u,v)): W1 adjacent (-1, -2d), W2 two points or two blocks
    # (0, lambda), W3 a point and a block it misses (0, 0)
    g = design_742_incidence()
    assert _named_rows(g) == [("W1", (-1, -8), 2 * g.m),
                              ("W2", (0, 2), 2 * 7 * 6),
                              ("W3", (0, 0), 14 * 13 - 2 * g.m - 2 * 7 * 6)]


def test_bipartite_rows_unknown_signature():
    # the graph's own L, so the route accepts the eigensystem, with L^2
    # raised by 1 off the diagonal: no (L, L^2) signature has a name
    g = design_742_incidence()
    es = exact_eigensystem(laplacian(g))
    I, L, L2, L3 = es.powers
    altered = dataclasses.replace(es, powers=(I, L, L2 + 1 - I, L3))
    with pytest.raises(UnknownSignatureError, match=r"\(-1, -7\)"):
        certificate_bipartite(altered)


def test_classification_exhaustive_and_exclusive(incidence_builtins):
    # every ordered pair's (L(u,v), L^2(u,v)) falls in exactly one of the
    # three named classes, and the rows count them
    for name, g in incidence_builtins.items():
        L = laplacian(g)
        L2 = L @ L
        n, d, lam = _design_context(g)
        names = {(-1, -2 * d): "W1", (0, lam): "W2", (0, 0): "W3"}
        counts = {"W1": 0, "W2": 0, "W3": 0}
        for u in range(n):
            for v in range(n):
                if u != v:
                    counts[names[int(L[u, v]), int(L2[u, v])]] += 1
        assert _named_rows(g) == sorted(
            (tag, sig, counts[tag]) for sig, tag in names.items()), name
        assert sum(counts.values()) == n * (n - 1), name
        assert counts["W1"] == 2 * g.m, name
        v_half = n // 2
        assert counts["W2"] == 2 * v_half * (v_half - 1), name


def _pair_classes_by_entries(L, L2, es):
    """Reference for _pair_classes on an exact eigensystem: the signature
    groups split by the exact projector entries (P_i(u,u), P_i(u,v)) of every
    pair, read off the full Lagrange projector matrices, tagged the same way,
    each with its count, DeltaSet and entries."""
    groups = {}
    for u in range(es.n):
        for v in range(es.n):
            if u != v:
                sig = (int(L[u, u]), int(L[v, v]), int(L[u, v]), int(L2[u, v]))
                groups.setdefault(sig, []).append((u, v))
    projectors = [lagrange_projector(es.powers, es.values(), i)
                  for i in range(4)]
    out = []
    for idx, sig in enumerate(sorted(groups), start=1):
        by_entries = {}
        for u, v in groups[sig]:
            entries = (tuple(P.entry(u, u) for P in projectors),
                       tuple(P.entry(u, v) for P in projectors))
            by_entries.setdefault(entries, []).append((u, v))
        for sub, ((uu, uv), pairs) in enumerate(by_entries.items(), start=1):
            tag = f"S{idx}" if len(by_entries) == 1 else f"S{idx}.{sub}"
            row = ClassRow(tag, sig, len(pairs), delta_set(uu[1:], uv[1:]),
                           (list(uu), list(uv)))
            out.append(row)
    return out


def _circulant(n, connection):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if (v - u) % n in connection])


def test_pair_classes_match_every_pair_delta_sets(builtins, exact_systems,
                                                  extra_exact_graphs):
    # two formulas: each class's projector entries and DeltaSet from its
    # signature against every pair's from the full Lagrange matrices.  The
    # oracle splits a signature group whenever two of its pairs have
    # different entries, so this fails if the signature ever stops fixing
    # them (the proof in `_pair_classes`) or the signature formula gets an
    # entry wrong
    rng = random.Random(4)
    graphs = {name: g for name, g in builtins.items()
              if exact_systems[name] is not None}
    graphs.update(extra_exact_graphs)
    cases = []
    for name, g in graphs.items():
        L = laplacian(g)
        cases.append((name, L, exact_systems.get(name) or exact_eigensystem(L)))
        perm = list(range(g.n))
        rng.shuffle(perm)
        L = laplacian(build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
        cases.append((f"{name} relabeled {perm}", L, exact_eigensystem(L)))
    for name, L, es in cases:
        assert _pair_classes(es.powers, es.lagrange) == \
            _pair_classes_by_entries(L, L @ L, es), name


@pytest.mark.parametrize("g", [cycle(7), _circulant(13, {1, 5, 8, 12}),
                               _circulant(13, {2, 3, 4, 6, 7, 9, 10, 11})],
                         ids=["cycle-7", "circulant-13", "circulant-13-bar"])
def test_numeric_delta_table_rows_hold_for_every_pair(g, group_projectors):
    # cubic eigenvalues: there is no exact eigensystem, and analyze's float
    # table, computed from each class's signature and the cluster means,
    # gives every pair the DeltaSet of its eigenvector projectors V V^T
    with pytest.raises(NonQuadraticEigenvaluesError):
        exact_eigensystem(laplacian(g))
    cert = analyze(g).certificate
    assert cert.method == "numeric-delta-table"
    assert [row.tag for row in cert.classes] == [
        f"S{i}" for i in range(1, len(cert.classes) + 1)]
    assert sum(row.count for row in cert.classes) == g.n * (g.n - 1)
    L = laplacian(g)
    L2 = L @ L
    es = jacobi_eigendecompose(L)
    rows = {row.signature: row for row in cert.classes}
    projectors = group_projectors(es)[1:]
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                row = rows[(L[u, u], L[v, v], L[u, v], L2[u, v])]
                ds = delta_set([P[u, u] for P in projectors],
                               [P[u, v] for P in projectors])
                assert np.allclose([float(x) for x in ds.as_tuple()],
                                   [float(x) for x in row.deltas.as_tuple()],
                                   rtol=0, atol=1e-9), (u, v, row.tag)


# -- the bipartite certificate -----------------------------------------------


def test_certificate_proves_all_incidence_builtins(incidence_builtins,
                                                   exact_systems, reports):
    cert = certificate_bipartite(exact_systems["design-742"])
    assert cert.verdict == PROVEN
    for name in incidence_builtins:
        cert = reports[name].certificate
        assert cert.method == "bipartite-certificate", name
        assert cert.verdict == PROVEN, (name, cert.reason)
        assert all(c.passed for c in cert.checks), name
        assert {r.tag for r in cert.classes} == {"W1", "W2", "W3"}, name


def _k2_k3_k4():
    """K2 + K3 + K4, disconnected, with the four Laplacian eigenvalues
    0, 2, 3, 4 and so an exact eigensystem."""
    edges = [(u, v) for lo, hi in ((0, 2), (2, 5), (5, 9))
             for u in range(lo, hi) for v in range(u + 1, hi)]
    return build_graph(9, edges)


def test_certificate_not_applicable_cases():
    for g, reason in ((cayley_s3(), "graph is not bipartite"),
                      (wheel6(), "graph is not regular"),
                      (_k2_k3_k4(), "graph is not connected")):
        cert = certificate_bipartite(exact_eigensystem(laplacian(g)))
        assert (cert.verdict, cert.reason) == (NOT_APPLICABLE, reason)
    g = _k2_k3_k4()
    cert = delta_sign_analysis(exact_eigensystem(laplacian(g)))
    assert (cert.verdict, cert.reason) == (NOT_APPLICABLE,
                                           "graph is not connected")
    # a graph without four distinct eigenvalues has no exact eigensystem to
    # give a route; analyze names the count
    k33 = build_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    for g, count in ((k33, 3), (cycle(8), 5)):
        with pytest.raises(NotFourEigenvaluesError):
            exact_eigensystem(laplacian(g))
        cert = analyze(g).certificate
        assert cert.verdict == NOT_APPLICABLE
        assert f"{count} distinct" in cert.reason
    disconnected = build_graph(4, [(0, 1), (2, 3)])
    assert analyze(disconnected).certificate.reason == "graph is not connected"


def test_exact_routes_reject_a_numeric_eigensystem(monkeypatch):
    g = fano_incidence()
    L = laplacian(g)
    numeric, exact = jacobi_eigendecompose(L), exact_eigensystem(L)
    for route in (certificate_bipartite, delta_sign_analysis):
        with pytest.raises(ExactEigensystemRequiredError):
            route(numeric)
    # given the exact eigensystem, neither route builds one of its own
    for name in ("exact_eigensystem", "jacobi_eigendecompose"):
        monkeypatch.setattr(f"mnhd.certify.{name}", None)
    for route in (certificate_bipartite, delta_sign_analysis):
        assert route(exact).verdict == PROVEN


def test_exact_routes_reject_a_matrix_that_is_not_a_laplacian():
    p6 = build_graph(6, [(i, i + 1) for i in range(5)])
    assert numeric_check(_numeric(p6)).verdict == "ViolatedAt"
    # D L D, D = diag(1, -1, 1, ...), has the spectrum of the Heawood graph's
    # L, which both routes prove, but is no Laplacian (off-diagonal entries
    # +1, nonzero row sums): no route may read a proof off its eigensystem
    L = laplacian(fano_incidence())
    D = np.diag([(-1) ** i for i in range(len(L))])
    signed = exact_eigensystem(D @ L @ D)
    assert signed.values() == exact_eigensystem(L).values()
    for route in (certificate_bipartite, delta_sign_analysis):
        with pytest.raises(InvalidParameterError, match="not a graph Laplacian"):
            route(signed)
    assert issubclass(InvalidParameterError, ValueError)


def test_numeric_check_accepts_every_builtins_own_eigensystem(
        builtins, numeric_systems):
    for name, g in builtins.items():
        assert numeric_check(numeric_systems[name]).passed, name


def test_certificate_check_names_include_required_identities():
    g = design_742_incidence()
    cert = certificate_bipartite(exact_eigensystem(laplacian(g)))
    names = {c.name for c in cert.checks}
    assert {"w3_cancellation_1", "w3_cancellation_2",
            "constants_product_identity", "order_identity",
            "closed_form_equals_lagrange", "projector_resolution",
            "projector_orthogonality", "projector_idempotent",
            "laplacian_reconstruction"} <= names


def test_class_constancy_fails_without_the_projector_checks():
    # swapping the Lagrange polynomials of lam1 and lam2 that the eigensystem
    # keeps and the certificate reads as P1 and P2 breaks L = sum sigma_i P_i,
    # on which the proof that the signature fixes the Delta set rests; the
    # pair classes' own three-value Lagrange polynomials are left as they are
    g = fano_incidence()
    es = exact_eigensystem(laplacian(g))
    a0, a1, a2, a3 = es.lagrange
    for holds, lagrange in ((True, es.lagrange), (False, (a0, a2, a1, a3))):
        cert = certificate_bipartite(dataclasses.replace(es,
                                                         lagrange=lagrange))
        passed = {c.name: c.passed for c in cert.checks}
        assert passed["laplacian_reconstruction"] is holds
        assert passed["class_constancy_spot_check"] is holds
        assert (cert.verdict == PROVEN) is holds


def test_projector_checks_fail_modulo_a_wrong_minimal_polynomial():
    # the Fano plane and its complement both have n = 14; reduced modulo the
    # complement's minimal polynomial, the Fano plane's Lagrange polynomials
    # are no longer orthogonal idempotents
    g = fano_incidence()
    es = exact_eigensystem(laplacian(g))
    other = exact_eigensystem(laplacian(builtin_graph("fano-complement")))
    assert other.n == es.n and other.mu != es.mu
    cert = certificate_bipartite(dataclasses.replace(es, mu=other.mu))
    passed = {c.name: c.passed for c in cert.checks}
    assert not passed["projector_orthogonality"]
    assert not passed["projector_idempotent"]
    assert not passed["class_constancy_spot_check"]
    assert cert.verdict != PROVEN


def _closed_form_class_deltas(n, d, lam):
    """Per-class Delta values as written in the sign-lemma proofs."""
    fs = FourSpectrum.from_design(n, d, lam)
    s = QuadValue.sqrt_int(d - lam)
    c1, c2, c3 = fs.constants()
    l1, l2, l3 = fs.nonzero()
    inv_n = QuadValue(F(1, n))
    w1 = {
        "d1": c1 * (d - 1) * s,
        "d2": c2 * (1 - d) * s,
        "d3": c3 * lam,
        "d12": -(d * (d - 1)) * c1 * c2 * (l2 - l1) * (1 - QuadValue(F(2 * d, n))),
        "d13": inv_n * c1 * c3 * (l3 - l1) * (d - 1) * s * (QuadValue(d) + s),
        "d23": -(inv_n * c2 * c3 * (l3 - l2) * (d - 1) * s * (QuadValue(d) - s)),
    }
    w2 = {
        "d1": c1 * s * (s + d),
        "d2": c2 * s * (s - d),
        "d3": QuadValue(0),
        "d12": QuadValue(0),
        "d13": -(QuadValue(F(lam, 2)) * c1 * c3 * (l3 - l1) * s),
        "d23": QuadValue(F(lam, 2)) * c2 * c3 * (l3 - l2) * s,
    }
    w3 = {
        "d1": c1 * d * (1 + s),
        "d2": c2 * d * (1 - s),
        "d3": c3 * lam,
        "d12": QuadValue(F(2, n)) * c1 * c2 * (l2 - l1) * d * d * (d - 1),
        "d13": inv_n * c1 * c3 * d * (l3 - l1) * (QuadValue(d) + s) * (s - 1),
        "d23": -(inv_n * c2 * c3 * d * (l3 - l2) * (QuadValue(d) - s) * (s + 1)),
    }
    return {"W1": w1, "W2": w2, "W3": w3}


def test_class_deltas_match_sign_lemma_closed_forms(incidence_builtins, reports):
    for name, g in incidence_builtins.items():
        n, d, lam = _design_context(g)
        expected = _closed_form_class_deltas(n, d, lam)
        cert = reports[name].certificate
        for row in cert.classes:
            want = expected[row.tag]
            got = dict(zip(("d1", "d2", "d3", "d12", "d13", "d23"),
                           row.deltas.as_tuple()))
            assert got == want, (name, row.tag)


def test_w3_cancellations_exact(incidence_builtins, reports):
    for name, g in incidence_builtins.items():
        n, d, lam = _design_context(g)
        cert = reports[name].certificate
        w3 = next(r.deltas for r in cert.classes if r.tag == "W3")
        inv_n = QuadValue(F(1, n))
        assert inv_n * w3.d2 - w3.d13 == QuadValue(0), name
        assert inv_n * w3.d1 - w3.d23 == QuadValue(0), name


def test_order_identity_for_all_catalog_params():
    from mnhd.designs import catalog
    for row in catalog():
        v, d, lam = row.params
        assert d * d - d + lam == row.n * lam // 2
        assert (row.n * lam) % 2 == 0


# -- generalized template ----------------------------------------------------


def test_delta_sign_analysis_cayley_exact_table(exact_systems):
    analysis = delta_sign_analysis(exact_systems["cayley-s3"])
    assert analysis.verdict == PROVEN
    assert analysis.method == "delta-sign-template"
    assert len(analysis.classes) == 3
    comparisons = compare_delta_rows(analysis.classes, CAYLEY_S3_REFERENCE)
    assert len(comparisons) == 18
    assert all(c.match for c in comparisons)


def test_delta_sign_analysis_wheel_rows(exact_systems):
    analysis = delta_sign_analysis(exact_systems["wheel-6"])
    assert analysis.verdict == PROVEN
    assert analysis.method == "delta-sign-template"
    assert len(analysis.classes) == 4
    assert all(x.m in (0, 5) for row in analysis.classes
               for x in row.deltas.as_tuple())
    comparisons = {(c.signature, c.field): c
                   for c in compare_delta_rows(analysis.classes,
                                               WHEEL6_REFERENCE)}
    mismatched = {key for key, c in comparisons.items() if not c.match}
    # of the two suspect entries, the distance-two one agrees with the
    # reference and the adjacent-rim d23 does not: derived -(5+sqrt5)/300
    assert mismatched == {WHEEL6_SUSPECT_ENTRIES[1]}
    bad = comparisons[WHEEL6_SUSPECT_ENTRIES[1]]
    assert bad.computed == QuadValue(F(-1, 60), F(-1, 300), 5)
    assert bad.reference == QuadValue(F(-1, 2), F(-1, 10), 5)
    ok = comparisons[WHEEL6_SUSPECT_ENTRIES[0]]
    assert ok.match and ok.computed == QuadValue(F(-1, 60), F(-1, 300), 5)


def test_delta_sign_analysis_routes(exact_systems):
    analysis = delta_sign_analysis(exact_systems["cayley-s3"])
    routes = {r.signature: r.route for r in analysis.classes}
    assert routes[(3, 3, 0, 2)] == "transform-budget"
    assert routes[(3, 3, -1, -5)] == "nonnegative-coefficients"
    assert routes[(3, 3, -1, -6)] == "nonnegative-coefficients"


def test_delta_sign_analysis_c7_numeric_fallback():
    # cubic eigenvalues: no exact eigensystem for the template, so analyze
    # gives the float table
    with pytest.raises(NonQuadraticEigenvaluesError):
        exact_eigensystem(laplacian(cycle(7)))
    analysis = analyze(cycle(7)).certificate
    assert analysis.verdict == NUMERIC_ONLY
    assert analysis.method == "numeric-delta-table"
    assert len(analysis.classes) == 3  # distance classes 1, 2, 3
    assert all(isinstance(r.deltas.d1, float) for r in analysis.classes)
    assert "evidence" in analysis.reason


def test_delta_sign_analysis_wrong_eigenvalue_count():
    # three distinct eigenvalues: no exact eigensystem for the template
    with pytest.raises(NotFourEigenvaluesError):
        exact_eigensystem(laplacian(cycle(5)))
    cert = analyze(cycle(5)).certificate
    assert cert.verdict == NOT_APPLICABLE and "3 distinct" in cert.reason


def test_delta_sign_analysis_on_certificate_graphs(exact_systems):
    # the generalized template must also certify the bipartite family
    for name in ("design-742", "cycle-6", "crown-5"):
        analysis = delta_sign_analysis(exact_systems[name])
        assert analysis.verdict == PROVEN, name


def test_delta_sign_analysis_refuses_path_p4():
    # P4 has four distinct eigenvalues 0, 2 - sqrt2, 2, 2 + sqrt2 and violates
    # the MNHD; besides its delta_nonneg checks, the template refuses four
    # classes for a growing term with a negative coefficient
    report = analyze(build_graph(4, [(0, 1), (1, 2), (2, 3)]))
    cert = report.certificate
    assert cert.method == "delta-sign-template"
    assert cert.verdict == FAILED
    assert report.numeric.verdict == "ViolatedAt"
    failed = {c.name: c.witness for c in cert.checks if not c.passed}
    assert sorted(failed) == [
        "S1_monotone_template", "S3_delta_nonneg", "S4_delta_nonneg",
        "S4_monotone_template", "S5_monotone_template",
        "S6_monotone_template"]
    assert failed["S1_monotone_template"].startswith(
        "growing term with negative coefficient")


def _exp_sum(*terms):
    return ExpSum(tuple((QuadValue(rate), QuadValue(c)) for rate, c in terms))


def test_decide_refuses_budget_below_cost():
    # lam3 = 3: rate 1 grows (budget 1 * 2), rate 5 decays with a positive
    # coefficient (cost 2 * 2), rate 7 decays with a negative one (free);
    # h(0) = 2
    h = _exp_sum((7, -1), (1, 1), (5, 2))
    decision = _decide(h, QuadValue(3), (1, 1, 0, 0))
    assert decision.rule is None
    assert decision.witness.startswith("budget 2 < cost 4")


def test_decide_refuses_negative_h_at_zero():
    decision = _decide(_exp_sum((4, -1)), QuadValue(3), (1, 1, 0, 0))
    assert decision == (None, "h(0) = -1 < 0")


def test_decide_names_the_slowest_offending_growing_term():
    # lam3 = 10: rates 2 and 3 both grow with a negative coefficient; the
    # witness names the slower one whatever order the terms came in
    h = _exp_sum((3, -2), (12, 5), (2, -1))
    decision = _decide(h, QuadValue(10), (1, 1, 0, 0))
    assert decision == (None, "growing term with negative coefficient -1 "
                              "at rate 2")


# -- the two-exponential monotonicity rule -----------------------------------


def test_two_exponential_monotonicity_oracle():
    # F(t) = a1 e^(at) + a2 e^(-at) is nondecreasing under either condition:
    # (1) a1 >= 0 >= a2, or (2) 0 <= a2 <= a1.  1000 randomized instances.
    rng = np.random.default_rng(20240817)
    t = np.linspace(0.0, 10.0, 257)
    for trial in range(1000):
        alpha = float(rng.uniform(0.05, 4.0))
        if trial % 2:
            a1 = float(rng.uniform(0.0, 5.0))
            a2 = float(rng.uniform(-5.0, 0.0))
        else:
            a2 = float(rng.uniform(0.0, 5.0))
            a1 = float(rng.uniform(a2, a2 + 5.0))
        f = a1 * np.exp(alpha * t) + a2 * np.exp(-alpha * t)
        assert (np.diff(f) >= -1e-9 * np.maximum(1.0, np.abs(f[:-1]))).all()


# -- numeric check -----------------------------------------------------------


def test_numeric_check_crown5():
    verdict = numeric_check(_numeric(crown(5)))
    assert verdict.passed and verdict.min_diff >= -1e-9


def test_numeric_check_k4_three_eigenvalues():
    k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert numeric_check(_numeric(k4)).passed


def test_numeric_check_p3_against_expm_oracle():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    verdict = numeric_check(_numeric(p3))
    # independent oracle: dense matrix exponential on a fine grid
    L = laplacian(p3).astype(float)
    ts = np.linspace(0.0, 30.0, 1200)
    ratios = []
    for t in ts:
        H = scipy.linalg.expm(-t * L)
        ratios.append(H[0, 2] / H[0, 0])
    oracle_monotone = (np.diff(ratios) >= -1e-9).all()
    assert verdict.passed == oracle_monotone
    assert verdict.verdict == "PassesAtTolerance"


def _full_table_numeric_check(g, es, tol=1e-9):
    """The numeric check as a full (T, n, n) table: H, R and their forward
    differences for every time at once, minimum by `np.argmin` over (step,
    off-diagonal pair in row-major order).  Returns the verdict fields, the
    difference table and the grid."""
    grid = default_time_grid(es)
    H = heat_stack(es, grid)
    R = H / np.einsum("tii->ti", H)[:, :, None]
    diffs = np.diff(R, axis=0)
    mask = ~np.eye(g.n, dtype=bool)
    off = diffs[:, mask]
    step, pair_idx = divmod(int(np.argmin(off)), off.shape[1])
    us, vs = np.where(mask)
    min_diff = float(off[step, pair_idx])
    fields = (min_diff, (int(us[pair_idx]), int(vs[pair_idx])),
              float(grid[step + 1]),
              "PassesAtTolerance" if min_diff >= -tol else "ViolatedAt")
    return fields, diffs, grid


def test_streamed_numeric_check_matches_full_table(builtins, numeric_systems,
                                                   crown50_system, random_gnp):
    cases = [(name, g, numeric_systems[name]) for name, g in builtins.items()]
    cases.append(("crown-50", *crown50_system))
    for k in (20, 30):
        cases.append((f"crown-{k}", crown(k), None))
    for n in (8, 12, 20, 40, 100):
        cases.append((f"gnp-{n}", random_gnp(n, n), None))
    for name, g, es in cases:
        if es is None:
            es = jacobi_eigendecompose(laplacian(g))
        (min_diff, pair, t, verdict), diffs, grid = _full_table_numeric_check(g, es)
        got = numeric_check(es)
        assert got.verdict == verdict, name
        assert abs(got.min_diff - min_diff) <= 1e-12, name
        u, v = got.worst_pair
        assert u != v, name
        step = int(np.flatnonzero(grid == got.worst_t)[0]) - 1
        assert abs(diffs[step, u, v] - got.min_diff) <= 1e-12, name
        if got.min_diff == min_diff:  # ties: earliest step, then first pair
            assert (got.worst_pair, got.worst_t) == (pair, t), name


def test_numeric_check_memory_below_one_stack(crown50_system):
    g, es = crown50_system
    numeric_check(es)
    tracemalloc.start()
    try:
        numeric_check(es)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (61, 100, 100) float64 stack of H_t is about 4.7 MiB
    assert peak < 61 * g.n * g.n * 8


def test_pair_classes_memory_is_a_few_int64_matrices():
    # crown-50 has n(n-1) = 9900 ordered pairs: one Python tuple and one
    # signature list per pair take about 2.2 MiB, far above the bound; the
    # packed int64 keys and np.unique's sort are a few n x n int64 arrays
    L = laplacian(crown(50))
    es = exact_eigensystem(L)
    args = (es.powers, es.lagrange)
    _pair_classes(*args)
    tracemalloc.start()
    try:
        _pair_classes(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * L.size * 8


def test_certificate_memory_is_a_few_int64_matrices():
    # the projector checks run on degree-3 polynomials modulo the minimal
    # polynomial: four Lagrange and three closed-form n x n projectors and
    # their 16 products take about 1.5 MiB on crown-50, far above the bound;
    # what is left is the pair grouping and one sum over the powers of L
    g = crown(50)
    es = exact_eigensystem(laplacian(g))
    certificate_bipartite(es)
    tracemalloc.start()
    try:
        certificate_bipartite(es)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * g.n * g.n * 8


def test_pair_classes_reject_signatures_past_the_int64_key():
    # the four field ranges multiply to more than 2^62 keys: a typed error,
    # not a wrapped key
    L = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=np.int64)
    L2 = np.array([[0, 1 << 61, 0], [-(1 << 61), 0, 0], [0, 0, 0]],
                  dtype=np.int64)
    with pytest.raises(SignatureKeyOverflowError):
        _pair_classes((np.eye(3, dtype=np.int64), L, L2), [[1.0]] * 4)


def test_eigensystem_and_numeric_check_memory_is_quadratic(random_gnp):
    # G(100, 0.2) has a simple spectrum: one stored n x n projector per
    # distinct eigenvalue, or a stack of them, is n^3 floats (about 15.9 MiB
    # for both), where the eigenvectors and a few slices are O(n^2)
    g = random_gnp(100, 100)
    L = laplacian(g)
    tracemalloc.start()
    try:
        es = jacobi_eigendecompose(L)
        numeric_check(es)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(es.groups) == g.n
    assert peak < 16 * g.n * g.n * 8


def test_numeric_check_counts_rounding_noise_as_a_tie(numeric_systems,
                                                      random_gnp):
    # once r_t has converged its raw forward differences are rounding noise,
    # down to -2.2e-16 on crown-5 and -1.3e-15 on cycle-49; they are ties at
    # 0, so graphs that pass do so at tolerance 0, and violations stay
    cases = dict(numeric_systems)
    cases.update((f"cycle-{k}", _numeric(cycle(k))) for k in (25, 49))
    for name, es in cases.items():
        got = numeric_check(es, tol=0)
        assert got.verdict == "PassesAtTolerance", name
        assert got.min_diff >= 0.0, name
    assert numeric_check(numeric_systems["crown-5"], tol=0).min_diff == 0.0
    p4 = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    violators = [("P4", p4)] + [(f"gnp-{n}", random_gnp(n, n))
                                for n in (8, 12, 20, 40)]
    for name, g in violators:
        got = numeric_check(_numeric(g), tol=0)
        assert got.verdict == "ViolatedAt" and got.min_diff < -1e-3, name


def test_numeric_check_needs_two_times():
    with pytest.raises(ShortGridError):
        numeric_check(_numeric(crown(5)), grid=[0.0])


@pytest.mark.parametrize("kwargs", [
    {"grid": [0.0, np.nan]}, {"grid": [0.0, np.inf]}, {"grid": [1.0, 0.5]},
    {"grid": [0.0, 1.0, 1.0]}, {"tol": -1.0}, {"tol": np.nan},
    {"tol": np.inf}], ids=["nan-time", "inf-time", "decreasing", "repeated",
                           "negative-tol", "nan-tol", "inf-tol"])
def test_numeric_check_rejects_bad_grid_and_tolerance(kwargs):
    with pytest.raises(InvalidParameterError) as info:
        numeric_check(_numeric(crown(5)), **kwargs)
    assert isinstance(info.value, ValueError)


def test_numeric_verdict_consistency(builtins, reports):
    for name, g in builtins.items():
        verdict = reports[name].numeric
        assert verdict.passed == (verdict.min_diff >= -verdict.tolerance), name
        u, v = verdict.worst_pair
        assert u != v and 0 <= u < g.n and 0 <= v < g.n, name


def test_certificate_numeric_agreement(builtins, reports):
    for name in builtins:
        report = reports[name]
        if report.certificate.verdict == PROVEN:
            assert report.numeric.passed, name
            assert report.numeric.min_diff >= -1e-9, name


# -- orchestration -----------------------------------------------------------


def test_analyze_742_report():
    report = analyze(design_742_incidence())
    assert report.van_dam_case is not None and report.van_dam_case.value == "II"
    assert report.certificate.verdict == PROVEN
    assert report.certificate.method == "bipartite-certificate"
    assert report.numeric.passed


def test_analyze_wheel_report():
    report = analyze(wheel6())
    assert report.regular_degree is None
    assert report.van_dam_case is None
    assert report.certificate.method == "delta-sign-template"
    assert report.certificate.verdict == PROVEN
    assert len(report.certificate.classes) == 4
    assert report.numeric.passed


def test_analyze_classifies_only_connected_spectra():
    # two disjoint 6-cycles: the four integral eigenvalues 0, 1, 3, 4 of one,
    # 0 twice; van Dam's cases cover connected graphs only
    two_c6 = build_graph(12, [(b + i, b + (i + 1) % 6)
                              for b in (0, 6) for i in range(6)])
    report = analyze(two_c6)
    assert [e.multiplicity for e in report.spectrum] == [2, 4, 4, 2]
    assert report.van_dam_case is None
    assert report.certificate.reason == "graph is not connected"


def test_analyze_k2_report():
    report = analyze(build_graph(2, [(0, 1)]))
    assert len(report.spectrum) == 2
    assert report.certificate.verdict == NOT_APPLICABLE
    assert report.numeric.passed


def test_analyze_edgeless_graph():
    # no positive eigenvalue: H_t = I at every t, so every ratio stays 0
    report = analyze(build_graph(5, []))
    assert report.certificate.verdict == NOT_APPLICABLE
    assert report.certificate.reason == "graph is not connected"
    assert report.numeric.passed and report.numeric.min_diff == 0.0
    jsonschema.validate(report.to_dict(), REPORT_SCHEMA)


def test_analyze_c7_report():
    report = analyze(cycle(7))
    assert report.van_dam_case.value == "III"
    assert report.certificate.method == "numeric-delta-table"
    assert report.certificate.verdict == NUMERIC_ONLY


def test_reports_validate_against_schema(builtins, reports):
    for name in builtins:
        payload = reports[name].to_dict()
        jsonschema.validate(payload, REPORT_SCHEMA)
        json.dumps(payload)  # must be serializable as-is


def test_report_exact_values_serialized():
    payload = analyze(fano_incidence()).to_dict()
    exact = payload["spectrum"][1]["exact"]
    assert exact == {"a": "3", "b": "-1", "m": 2}
    deltas = payload["classes"][0]["deltas"]
    assert set(deltas) == {"d1", "d2", "d3", "d12", "d13", "d23"}
    assert set(deltas["d1"]) == {"a", "b", "m"}
