"""Acceptance suite: one test per criterion, run at the stated tolerances.

All graphs have at most 30 vertices.  Expensive shared artifacts (reports,
eigensystems) come from session fixtures; a pass/fail line per criterion is
printed by the conftest hook.
"""

from fractions import Fraction

import numpy as np

from mnhd.certify import (PROVEN, certificate_bipartite,
                          delta_sign_analysis, numeric_check)
from mnhd.designs import catalog
from mnhd.graphs import facts, laplacian
from mnhd.heat import default_time_grid, delta_set, h_rate, heat_stack
from mnhd.quadratic import QuadMatrix, QuadValue
from mnhd.reference import (CAYLEY_S3_REFERENCE, WHEEL6_REFERENCE,
                            WHEEL6_SUSPECT_ENTRIES, compare_delta_rows)
from mnhd.spectral import (FourSpectrum, VanDamCase, classify_spectrum,
                           lagrange_projector)

F = Fraction

CONSTRUCTIBLE = ([f"crown-{v}" for v in range(5, 16)]
                 + ["fano", "fano-complement", "design-742"])
BIPARTITE_BUILTINS = CONSTRUCTIBLE + ["cycle-6"]


def _projectors(es):
    """The exact Lagrange projectors P0..P3 of an exact eigensystem."""
    return [lagrange_projector(es.powers, es.values(), i) for i in range(4)]


def _four_spectrum(es):
    fs = FourSpectrum.from_eigenvalues(*es.values()[1:])
    return fs, _projectors(es)[1:]


def _deltas(projs, u, v):
    """delta_set on the (u, u) and (u, v) entries of the projectors."""
    return delta_set([P.entry(u, u) for P in projs],
                     [P.entry(u, v) for P in projs])


def _h0_exact(fs, ds, n):
    """Sum of all exponential coefficients of h, i.e. h(0), exactly."""
    inv_n = QuadValue(F(1, n))
    l1, l2, l3 = fs.nonzero()
    return (l1 * inv_n * ds.d1 + l2 * inv_n * ds.d2 + l3 * inv_n * ds.d3
            + (l2 - l1) * ds.d12 + (l3 - l1) * ds.d13 + (l3 - l2) * ds.d23)


def test_criterion_01_catalog_spectrum_reproduction(numeric_systems):
    by_builder = {row.builder: row for row in catalog() if row.builder}
    by_builder["fano-complement"] = by_builder["design-742"]
    for name in CONSTRUCTIBLE:
        row = by_builder[name]
        es = numeric_systems[name]
        assert len(es.groups) == 4, name
        computed = [float(g.value) for g in es.groups]
        expected = [float(x) for x in row.spectrum]
        assert np.allclose(computed, expected, atol=1e-9), name
        v = row.params[0]
        assert [g.multiplicity for g in es.groups] == [1, v - 1, v - 1, 1], name


def test_criterion_02_cayley_s3_delta_table_exact(exact_systems):
    analysis = delta_sign_analysis(exact_systems["cayley-s3"])
    comparisons = compare_delta_rows(analysis.classes, CAYLEY_S3_REFERENCE)
    assert len(comparisons) == 18
    for c in comparisons:  # zero tolerance: exact rationals
        assert c.computed == c.reference, (c.signature, c.field)
    non_adjacent = next(r for r in analysis.classes if r.signature == (3, 3, 0, 2))
    assert non_adjacent.deltas.as_tuple() == (
        QuadValue(F(1, 3)), QuadValue(F(1, 2)), QuadValue(F(1, 6)),
        QuadValue(F(-1, 36)), QuadValue(F(-1, 12)), QuadValue(F(-1, 9)))


def test_criterion_03_wheel6_delta_table_exact(builtins, exact_systems):
    analysis = delta_sign_analysis(exact_systems["wheel-6"])
    rows = {r.signature: r for r in analysis.classes}
    # rim-to-hub and hub-to-rim rows reproduce exactly
    assert rows[(3, 5, -1, -6)].deltas.as_tuple() == (
        QuadValue(F(2, 5)), QuadValue(F(2, 5)), QuadValue(F(1, 5)),
        QuadValue(0), QuadValue(F(1, 15)), QuadValue(F(1, 15)))
    assert rows[(5, 3, -1, -6)].deltas.as_tuple() == (
        QuadValue(0), QuadValue(0), QuadValue(1), QuadValue(0), QuadValue(0),
        QuadValue(0))
    # every entry of the two rim rows recomputed exactly; report the outcome
    # for the two suspect entries instead of asserting the reference blindly
    comparisons = {(c.signature, c.field): c
                   for c in compare_delta_rows(analysis.classes, WHEEL6_REFERENCE)}
    for key, c in comparisons.items():
        if key in WHEEL6_SUSPECT_ENTRIES:
            continue
        assert c.match, key
    suspect_a = comparisons[WHEEL6_SUSPECT_ENTRIES[0]]
    assert suspect_a.match  # distance-two d13 agrees with the reference
    suspect_b = comparisons[WHEEL6_SUSPECT_ENTRIES[1]]
    assert not suspect_b.match  # adjacent-rim d23 does not: misprint
    assert suspect_b.computed == QuadValue(F(-1, 60), F(-1, 300), 5)
    # internal consistency of rows derived from the Lagrange projectors
    es = exact_systems["wheel-6"]
    fs, projs = _four_spectrum(es)
    from mnhd.heat import h_terms_exact, h_terms_from_eigensystem
    L = laplacian(builtins["wheel-6"])
    for u in range(6):
        for v in range(6):
            if u == v:
                continue
            ds = _deltas(projs, u, v)
            assert ds.d1 + ds.d2 + ds.d3 == QuadValue(1)
            assert _h0_exact(fs, ds, 6) == QuadValue(-int(L[u, v]))
            assert (h_terms_exact(fs.nonzero(), ds, 6)
                    == h_terms_from_eigensystem(es, u, v))
    assert analysis.verdict == PROVEN


def test_criterion_04_certificate_soundness(exact_systems, reports):
    direct = certificate_bipartite(exact_systems["cycle-6"])
    assert direct.verdict == PROVEN
    for name in BIPARTITE_BUILTINS:
        cert = reports[name].certificate
        assert cert.method == "bipartite-certificate", name
        assert cert.verdict == PROVEN, (name, cert.reason)
        assert cert.checks and all(c.passed for c in cert.checks), name
        names = {c.name for c in cert.checks}
        assert {"w3_cancellation_1", "w3_cancellation_2",
                "constants_product_identity"} <= names, name


def test_criterion_05_numeric_mnhd_all_builtins(builtins, numeric_systems,
                                                reports):
    grid = default_time_grid(numeric_systems["design-742"])
    assert len(grid) == 61
    direct = numeric_check(numeric_systems["design-742"], grid=grid)
    assert direct.min_diff >= -1e-9
    for name in builtins:
        verdict = reports[name].numeric
        assert verdict.min_diff >= -1e-9, (name, verdict)
    for name in ("cayley-s3", "wheel-6"):
        assert reports[name].numeric.passed, name


def test_criterion_06_derivative_at_zero(builtins, numeric_systems,
                                         exact_systems):
    for name, g in builtins.items():
        L = laplacian(g)
        es = exact_systems[name]
        if es is not None:  # exact path: zero tolerance
            fs, projs = _four_spectrum(es)
            for u in range(g.n):
                for v in range(g.n):
                    if u != v:
                        h0 = _h0_exact(fs, _deltas(projs, u, v), g.n)
                        assert h0 == QuadValue(-int(L[u, v])), name
        num_es = numeric_systems[name]  # numeric path within 1e-12
        for u in range(g.n):
            for v in range(g.n):
                if u != v:
                    assert abs(h_rate(num_es, L, u, v, 0.0)
                               - (-L[u, v])) <= 1e-12, name


def test_criterion_07_heat_kernel_properties(builtins, numeric_systems):
    for name, g in builtins.items():
        es = numeric_systems[name]
        assert np.array_equal(heat_stack(es, [0.0])[0], np.eye(g.n)), name
        for t in (0.1, 1.0, 10.0):
            H = heat_stack(es, [t])[0]
            assert np.max(np.abs(H.sum(axis=1) - 1.0)) <= 1e-12, name
    for name in ("design-742", "crown-5", "fano"):
        es = numeric_systems[name]
        for s, t in ((0.3, 0.7), (1.0, 2.0)):
            Hs, Ht, Hst = heat_stack(es, [s, t, s + t])
            assert np.max(np.abs(Hs @ Ht - Hst)) <= 1e-9, name
    transitive = ([f"cycle-{k}" for k in range(4, 8)]
                  + [f"crown-{v}" for v in range(5, 16)] + ["cayley-s3"])
    for name in transitive:
        es = numeric_systems[name]
        H = heat_stack(es, default_time_grid(es))
        R = H / np.einsum("tii->ti", H)[:, :, None]
        assert R.max() <= 1 + 1e-12, name


def test_criterion_08_projector_resolution(builtins, exact_systems, reports):
    for name in BIPARTITE_BUILTINS:
        g = builtins[name]
        L = laplacian(g)
        es = exact_systems[name]
        m = next((grp.value.m for grp in es.groups if grp.value.m), 0)
        projs = _projectors(es)
        total = projs[0]
        for P in projs[1:]:
            total = total + P
        assert (total - QuadMatrix.identity(g.n, m)).is_zero(), name
        for i, Pi in enumerate(projs):
            assert ((Pi @ Pi) - Pi).is_zero(), name
            for j in range(i + 1, 4):
                assert (Pi @ projs[j]).is_zero(), name
        recon = projs[1].scale(es.groups[1].value)
        recon = recon + projs[2].scale(es.groups[2].value)
        recon = recon + projs[3].scale(es.groups[3].value)
        assert (recon - QuadMatrix.from_int(L, m)).is_zero(), name
        # Lagrange equals the quadratic closed form, exactly
        cert = reports[name].certificate
        assert any(c.name == "closed_form_equals_lagrange" and c.passed
                   for c in cert.checks), name


def test_criterion_09_van_dam_classification(numeric_systems):
    case_i = classify_spectrum([(QuadValue(0), 1), (QuadValue(2), 1),
                                (QuadValue(3), 2), (QuadValue(5), 2)], 6, 3)
    assert case_i is VanDamCase.CASE_I
    case_ii = classify_spectrum([(QuadValue(0), 1), (QuadValue(4, -1, 2), 6),
                                 (QuadValue(4, 1, 2), 6), (QuadValue(8), 1)],
                                14, 4)
    assert case_ii is VanDamCase.CASE_II
    es = numeric_systems["cycle-7"]
    spectrum = [(g.value, g.multiplicity) for g in es.groups]
    assert [m for _, m in spectrum] == [1, 2, 2, 2]
    assert classify_spectrum(spectrum, 7, 2) is VanDamCase.CASE_III  # m = 2 = d


def test_criterion_10_design_layer(builtins, reports):
    from mnhd.designs import (complement_design, design_742, fano_design,
                              lambda_from_n_d, validate_design)
    params = validate_design(design_742())
    assert (params.v, params.b, params.d, params.r, params.lam) == (7, 7, 4, 4, 2)
    fano = validate_design(fano_design())
    assert (fano.v, fano.b, fano.d, fano.r, fano.lam) == (7, 7, 3, 3, 1)
    comp = validate_design(complement_design(fano_design()))
    assert (comp.v, comp.d, comp.lam) == (7, 4, 2)
    for design in (design_742(), fano_design(), complement_design(fano_design())):
        p = validate_design(design)
        assert p.b * p.d == p.v * p.r
        assert p.lam * (p.v - 1) == p.r * (p.d - 1)
    # lambda = 2d(d-1)/(n-2) reproduces lambda for every incidence builtin
    for name in BIPARTITE_BUILTINS:
        g = builtins[name]
        d = facts(g).regular_degree
        value, feasible = lambda_from_n_d(g.n, d)
        assert feasible, name
        cert = reports[name].certificate
        assert cert.verdict == PROVEN, name
        w2 = next(r for r in cert.classes if r.tag == "W2")
        assert w2.signature == (0, int(value)), name
