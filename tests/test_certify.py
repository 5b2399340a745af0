import dataclasses
import json
import random
import tracemalloc
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
import scipy.linalg

from mnhd.certify import (NOT_APPLICABLE, NUMERIC_ONLY, PROVEN,
                          REPORT_SCHEMA, _pair_classes, analyze,
                          certificate_bipartite, classify_pair,
                          delta_sign_analysis, numeric_check)
from mnhd.errors import (InvalidParameterError, NotFourEigenvaluesError,
                         ShortGridError, UnknownSignatureError)
from mnhd.graphs import (build_graph, cayley_s3, crown, cycle,
                         design_742_incidence, facts, fano_incidence,
                         laplacian, wheel6)
from mnhd.heat import default_time_grid, delta_set, heat_stack
from mnhd.quadratic import QuadValue
from mnhd.reference import (CAYLEY_S3_REFERENCE, WHEEL6_REFERENCE,
                            WHEEL6_SUSPECT_ENTRIES, compare_delta_rows)
from mnhd.spectral import (FourSpectrum, exact_eigensystem,
                           jacobi_eigendecompose)

F = Fraction


def _design_context(g):
    d = facts(g).regular_degree
    lam = (2 * d * (d - 1)) // (g.n - 2)
    return g.n, d, lam


# -- pair classification -----------------------------------------------------


def test_classify_pair_742():
    g = design_742_incidence()
    L = laplacian(g)
    L2 = L @ L
    n, d, lam = _design_context(g)
    adjacent = next((u, v) for u in range(n) for v in range(n) if L[u, v] == -1)
    pc = classify_pair(L, L2, *adjacent, n, d, lam)
    assert (pc.tag, pc.signature) == ("W1", (-1, -8))
    pc = classify_pair(L, L2, 0, 1, n, d, lam)  # two points of the design
    assert (pc.tag, pc.signature) == ("W2", (0, 2))
    nonincident = next((u, v) for u in range(7) for v in range(7, 14)
                       if L[u, v] == 0)
    pc = classify_pair(L, L2, *nonincident, n, d, lam)
    assert (pc.tag, pc.signature) == ("W3", (0, 0))
    assert classify_pair(L, L2, 3, 3, n, d, lam).tag == "W0"


def test_classify_pair_unknown_signature():
    g = cayley_s3()  # not an incidence graph: (0,3) has L^2 = 2 != lambda
    L = laplacian(g)
    L2 = L @ L
    with pytest.raises(UnknownSignatureError):
        classify_pair(L, L2, 0, 3, 6, 3, 3)


def test_classification_exhaustive_and_exclusive(incidence_builtins):
    for name, g in incidence_builtins.items():
        L = laplacian(g)
        L2 = L @ L
        n, d, lam = _design_context(g)
        counts = {"W1": 0, "W2": 0, "W3": 0}
        for u in range(n):
            for v in range(n):
                if u != v:
                    counts[classify_pair(L, L2, u, v, n, d, lam).tag] += 1
        assert sum(counts.values()) == n * (n - 1), name
        assert counts["W1"] == 2 * g.m, name
        v_half = n // 2
        assert counts["W2"] == 2 * v_half * (v_half - 1), name


def _pair_classes_by_delta_set(L, L2, es):
    """Reference for _pair_classes on an exact eigensystem: the signature
    groups split by the exact DeltaSet of every pair, tagged the same way."""
    groups = {}
    for u in range(es.n):
        for v in range(es.n):
            if u != v:
                sig = (int(L[u, u]), int(L[v, v]), int(L[u, v]), int(L2[u, v]))
                groups.setdefault(sig, []).append((u, v))
    projectors = [grp.projector for grp in es.groups[1:]]
    out = []
    for idx, sig in enumerate(sorted(groups), start=1):
        by_delta = {}
        for u, v in groups[sig]:
            by_delta.setdefault(delta_set(projectors, u, v), []).append((u, v))
        for sub, (ds, pairs) in enumerate(by_delta.items(), start=1):
            tag = f"S{idx}" if len(by_delta) == 1 else f"S{idx}.{sub}"
            out.append((tag, sig, ds, pairs))
    return out


def _circulant(n, connection):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if (v - u) % n in connection])


def _k3_box_k4():
    """K3 x K4 (Cartesian): Laplacian spectrum {0, 3, 4, 7}."""
    return build_graph(12, [(u, v) for u in range(12) for v in range(u + 1, 12)
                            if (u // 4 == v // 4) != (u % 4 == v % 4)])


def _paley13_cone():
    """Paley(13) plus a vertex joined to all 13: spectrum
    {0, (15 - sqrt13)/2, (15 + sqrt13)/2, 14}, not regular."""
    squares = {x * x % 13 for x in range(1, 13)}
    paley = _circulant(13, squares)
    return build_graph(14, list(paley.edges) + [(u, 13) for u in range(13)])


def test_pair_classes_match_every_pair_delta_sets(builtins, exact_systems):
    # the oracle splits a signature group whenever two of its pairs have
    # different DeltaSets, so this fails if the signature ever stops fixing
    # the DeltaSet (the proof in `_pair_classes`)
    rng = random.Random(4)
    graphs = {name: g for name, g in builtins.items()
              if exact_systems[name] is not None}
    graphs.update({"k3-box-k4": _k3_box_k4(), "paley13-cone": _paley13_cone()})
    cases = []
    for name, g in graphs.items():
        L = laplacian(g)
        cases.append((name, L, exact_systems.get(name) or exact_eigensystem(L)))
        perm = list(range(g.n))
        rng.shuffle(perm)
        L = laplacian(build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges]))
        cases.append((f"{name} relabeled {perm}", L, exact_eigensystem(L)))
    for name, L, es in cases:
        L2 = L @ L
        assert _pair_classes(L, L2, es) == _pair_classes_by_delta_set(
            L, L2, es), name


@pytest.mark.parametrize("g", [cycle(7), _circulant(13, {1, 5, 8, 12}),
                               _circulant(13, {2, 3, 4, 6, 7, 9, 10, 11})],
                         ids=["cycle-7", "circulant-13", "circulant-13-bar"])
def test_numeric_delta_table_rows_hold_for_every_pair(g):
    # cubic eigenvalues: the float table gives every pair its signature
    # class's DeltaSet
    cert = delta_sign_analysis(g)
    assert cert.method == "numeric-delta-table"
    assert [row.tag for row in cert.classes] == [
        f"S{i}" for i in range(1, len(cert.classes) + 1)]
    assert sum(row.count for row in cert.classes) == g.n * (g.n - 1)
    L = laplacian(g)
    L2 = L @ L
    es = jacobi_eigendecompose(L)
    rows = {row.signature: row for row in cert.classes}
    projectors = [grp.projector for grp in es.groups[1:]]
    for u in range(g.n):
        for v in range(g.n):
            if u != v:
                row = rows[(L[u, u], L[v, v], L[u, v], L2[u, v])]
                got = delta_set(projectors, u, v).as_floats()
                assert np.allclose(got, row.deltas.as_floats(), rtol=0,
                                   atol=1e-9), (u, v, row.tag)


# -- the bipartite certificate -----------------------------------------------


def test_certificate_proves_all_incidence_builtins(incidence_builtins, reports):
    cert = certificate_bipartite(incidence_builtins["design-742"])
    assert cert.verdict == PROVEN
    for name in incidence_builtins:
        cert = reports[name].certificate
        assert cert.method == "bipartite-certificate", name
        assert cert.verdict == PROVEN, (name, cert.reason)
        assert all(c.passed for c in cert.checks), name
        assert {r.tag for r in cert.classes} == {"W1", "W2", "W3"}, name


def test_certificate_not_applicable_cases():
    assert certificate_bipartite(cayley_s3()).reason == "graph is not bipartite"
    assert certificate_bipartite(wheel6()).reason == "graph is not regular"
    k33 = build_graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    assert "3 distinct" in certificate_bipartite(k33).reason
    cert = certificate_bipartite(cycle(8))  # five distinct eigenvalues
    assert cert.verdict == NOT_APPLICABLE
    disconnected = build_graph(4, [(0, 1), (2, 3)])
    assert certificate_bipartite(disconnected).reason == "graph is not connected"


def test_certificate_check_names_include_required_identities():
    cert = certificate_bipartite(design_742_incidence())
    names = {c.name for c in cert.checks}
    assert {"w3_cancellation_1", "w3_cancellation_2",
            "constants_product_identity", "order_identity",
            "closed_form_equals_lagrange", "projector_resolution",
            "projector_orthogonality", "projector_idempotent",
            "laplacian_reconstruction"} <= names


def test_class_constancy_fails_without_the_projector_checks():
    # swapping the projectors of lam1 and lam2 breaks L = sum sigma_i P_i,
    # on which the proof that the signature fixes the Delta set rests
    g = fano_incidence()
    es = exact_eigensystem(laplacian(g))
    zero, one, two, three = es.groups
    doctored = dataclasses.replace(es, groups=(
        zero, dataclasses.replace(one, projector=two.projector),
        dataclasses.replace(two, projector=one.projector), three))
    for system, holds in ((es, True), (doctored, False)):
        cert = certificate_bipartite(g, system)
        passed = {c.name: c.passed for c in cert.checks}
        assert passed["laplacian_reconstruction"] is holds
        assert passed["class_constancy_spot_check"] is holds
        assert (cert.verdict == PROVEN) is holds


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


def test_delta_sign_analysis_cayley_exact_table():
    analysis = delta_sign_analysis(cayley_s3())
    assert analysis.verdict == PROVEN
    assert analysis.method == "delta-sign-template"
    assert len(analysis.classes) == 3
    comparisons = compare_delta_rows(analysis.classes, CAYLEY_S3_REFERENCE)
    assert len(comparisons) == 18
    assert all(c.match for c in comparisons)


def test_delta_sign_analysis_wheel_rows():
    analysis = delta_sign_analysis(wheel6())
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


def test_delta_sign_analysis_routes():
    routes = {r.signature: r.route
              for r in delta_sign_analysis(cayley_s3()).classes}
    assert routes[(3, 3, 0, 2)] == "transform-budget"
    assert routes[(3, 3, -1, -5)] == "nonnegative-coefficients"
    assert routes[(3, 3, -1, -6)] == "nonnegative-coefficients"


def test_delta_sign_analysis_c7_numeric_fallback():
    analysis = delta_sign_analysis(cycle(7))
    assert analysis.verdict == NUMERIC_ONLY
    assert analysis.method == "numeric-delta-table"
    assert len(analysis.classes) == 3  # distance classes 1, 2, 3
    assert all(isinstance(r.deltas.d1, float) for r in analysis.classes)
    assert "evidence" in analysis.reason


def test_delta_sign_analysis_wrong_eigenvalue_count():
    with pytest.raises(NotFourEigenvaluesError):
        delta_sign_analysis(cycle(5))


def test_delta_sign_analysis_on_certificate_graphs(incidence_builtins):
    # the generalized template must also certify the bipartite family
    for name in ("design-742", "cycle-6", "crown-5"):
        analysis = delta_sign_analysis(incidence_builtins[name])
        assert analysis.verdict == PROVEN, name


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
    verdict = numeric_check(crown(5))
    assert verdict.passed and verdict.min_diff >= -1e-9


def test_numeric_check_k4_three_eigenvalues():
    k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert numeric_check(k4).passed


def test_numeric_check_p3_against_expm_oracle():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    verdict = numeric_check(p3)
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


def _gnp(n, seed, p=0.2):
    rng = np.random.default_rng(seed)
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                           if rng.random() < p])


@pytest.fixture(scope="module")
def crown50_system():
    g = crown(50)
    return g, jacobi_eigendecompose(laplacian(g))


def test_streamed_numeric_check_matches_full_table(builtins, numeric_systems,
                                                   crown50_system):
    cases = [(name, g, numeric_systems[name]) for name, g in builtins.items()]
    cases.append(("crown-50", *crown50_system))
    for k in (20, 30):
        cases.append((f"crown-{k}", crown(k), None))
    for n, seed in ((8, 1), (12, 2), (20, 3), (40, 4), (100, 5)):
        cases.append((f"gnp-{n}", _gnp(n, seed), None))
    for name, g, es in cases:
        if es is None:
            es = jacobi_eigendecompose(laplacian(g))
        (min_diff, pair, t, verdict), diffs, grid = _full_table_numeric_check(g, es)
        got = numeric_check(g, es=es)
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
    numeric_check(g, es=es)
    tracemalloc.start()
    try:
        numeric_check(g, es=es)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (61, 100, 100) float64 stack of H_t is about 4.7 MiB
    assert peak < 61 * g.n * g.n * 8


def test_numeric_check_needs_two_times():
    with pytest.raises(ShortGridError):
        numeric_check(crown(5), grid=[0.0])


@pytest.mark.parametrize("kwargs", [
    {"grid": [0.0, np.nan]}, {"grid": [0.0, np.inf]}, {"grid": [1.0, 0.5]},
    {"grid": [0.0, 1.0, 1.0]}, {"tol": -1.0}, {"tol": np.nan},
    {"tol": np.inf}], ids=["nan-time", "inf-time", "decreasing", "repeated",
                           "negative-tol", "nan-tol", "inf-tol"])
def test_numeric_check_rejects_bad_grid_and_tolerance(kwargs):
    with pytest.raises(InvalidParameterError) as info:
        numeric_check(crown(5), **kwargs)
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
