import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import mnhd.spectral
from mnhd.errors import (AmbiguousGapError, DegenerateParamsError,
                         InvalidParameterError, NoCaseMatchesError,
                         NoConvergenceError,
                         NonQuadraticEigenvaluesError, NonSymmetricError,
                         NotFourEigenvaluesError,
                         NumericEigensystemRequiredError,
                         RepeatedEigenvalueError)
from mnhd.designs import catalog
from mnhd.graphs import (adjacency, build_graph, builtin_graph, cayley_s3,
                         crown, cycle, design_742_incidence, facts,
                         fano_incidence, laplacian, wheel6)
from mnhd.quadratic import QuadMatrix, QuadValue, poly_mul_mod, quad_combination
from mnhd.spectral import (FourSpectrum, VanDamCase, _integer_roots,
                           classify_spectrum,
                           closed_form_projectors, exact_eigensystem,
                           exact_eigenvalues, group_spectrum,
                           jacobi_eigendecompose, lagrange_coefficients,
                           lagrange_projector, minimal_polynomial)

F = Fraction


# -- group_spectrum ----------------------------------------------------------


def test_group_all_equal():
    assert group_spectrum([2.0, 2.0, 2.0]) == [(2.0, 3)]


def test_group_below_tolerance():
    assert group_spectrum([0.0, 1e-12]) == [(5e-13, 2)]


def test_group_ambiguous_gap():
    with pytest.raises(AmbiguousGapError):
        group_spectrum([0.0, 5e-9])


def test_group_requires_sorted():
    with pytest.raises(InvalidParameterError):
        group_spectrum([1.0, 0.0])


def test_group_heawood_multiplicities():
    w = sorted(np.linalg.eigvalsh(laplacian(fano_incidence()).astype(float)))
    groups = group_spectrum(w)
    assert [mult for _, mult in groups] == [1, 6, 6, 1]
    expected = [0.0, 3 - math.sqrt(2), 3 + math.sqrt(2), 6.0]
    assert np.allclose([v for v, _ in groups], expected)


# -- jacobi ------------------------------------------------------------------


def test_jacobi_crown5_spectrum():
    es = jacobi_eigendecompose(laplacian(crown(5)))
    values = [v for v, _ in ((g.value, g.multiplicity) for g in es.groups)]
    assert np.allclose(values, [0, 3, 5, 8], atol=1e-9)
    assert [g.multiplicity for g in es.groups] == [1, 4, 4, 1]


def test_jacobi_c7_multiplicities_vs_circulant_formula():
    es = jacobi_eigendecompose(laplacian(cycle(7)))
    assert [g.multiplicity for g in es.groups] == [1, 2, 2, 2]
    expected = sorted({round(2 - 2 * math.cos(2 * math.pi * k / 7), 12)
                       for k in range(7)})
    assert np.allclose([float(g.value) for g in es.groups], expected, atol=1e-9)


def test_jacobi_identity_matrix():
    es = jacobi_eigendecompose(np.eye(5))
    assert len(es.groups) == 1
    g = es.groups[0]
    assert g.value == pytest.approx(1.0) and g.multiplicity == 5
    assert np.allclose(es.vectors @ es.vectors.T, np.eye(5))


def test_jacobi_rejects_nonsymmetric():
    with pytest.raises(NonSymmetricError):
        jacobi_eigendecompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(NonSymmetricError):
        jacobi_eigendecompose(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_jacobi_rejects_non_finite_entries(bad):
    # unchecked, a NaN fails in the rotation with a bare ZeroDivisionError,
    # and an infinite diagonal comes back as the eigenvalue inf, twice
    for M in ([[bad, 1.0], [1.0, 1.0]], [[1.0, bad], [bad, 1.0]]):
        with pytest.raises(InvalidParameterError):
            jacobi_eigendecompose(np.array(M))


def test_jacobi_rejects_empty_matrix():
    # unchecked, the convergence test's max over the empty triangle raises
    # numpy's bare ValueError
    with pytest.raises(InvalidParameterError):
        jacobi_eigendecompose(np.zeros((0, 0)))


def test_jacobi_leaves_input_unchanged_and_repeats_exactly():
    # np.asarray passes a float64 matrix through uncopied, so a rotation
    # buffer that aliased it would rewrite the caller's matrix silently
    perm = np.random.default_rng(10).permutation(20)
    M = laplacian(crown(10))[np.ix_(perm, perm)].astype(np.float64)
    before = M.copy()
    first, second = jacobi_eigendecompose(M), jacobi_eigendecompose(M)
    assert np.array_equal(M, before)
    assert ([(grp.value, grp.multiplicity) for grp in first.groups]
            == [(grp.value, grp.multiplicity) for grp in second.groups])
    assert np.array_equal(first.vectors, second.vectors)


def test_jacobi_agrees_with_library_solver(builtins, numeric_systems):
    for name, g in builtins.items():
        es = numeric_systems[name]
        mine = np.concatenate([[float(grp.value)] * grp.multiplicity
                               for grp in es.groups])
        ref = np.linalg.eigvalsh(laplacian(g).astype(float))
        assert np.allclose(np.sort(mine), ref, atol=1e-9), name


def _root(a):
    """The array that owns a's memory."""
    while a.base is not None:
        a = a.base
    return a


def _check_eigensolver_contract(M, multiplicities=None):
    """jacobi_eigendecompose against eigvalsh: grouped values expanded by
    multiplicity, multiplicities (given, or eigvalsh's own grouping), an
    orthonormal V with V diag(w) V^T = M, and V an n x n array that is not
    a view of the n x 2n array the rotations work on."""
    es = jacobi_eigendecompose(M)
    assert es.vectors.shape == _root(es.vectors).shape == M.shape
    ref = np.linalg.eigvalsh(M)
    w = np.concatenate([[grp.value] * grp.multiplicity for grp in es.groups])
    assert np.all(np.abs(w - ref) <= 1e-9 * np.maximum(1.0, np.abs(ref)))
    if multiplicities is None:
        multiplicities = [mult for _, mult in group_spectrum(ref)]
    assert [grp.multiplicity for grp in es.groups] == list(multiplicities)
    V = es.vectors
    assert np.linalg.norm(V.T @ V - np.eye(len(M)), np.inf) < 1e-12
    assert (np.linalg.norm(V * w @ V.T - M, np.inf)
            < 1e-10 * np.linalg.norm(M, "fro"))


@pytest.mark.parametrize("n, spectrum", [
    (2, {-1.5: 1, 4.0: 1}),
    (2, {3.0: 2}),
    (3, {0.0: 1, 2.0: 2}),
    (12, {-3.0: 2, 0.0: 1, 1.0: 5, 7.5: 4}),
    (40, {-2.0: 7, 0.5: 1, 3.0: 20, 11.0: 12}),
])
def test_jacobi_contract_on_random_orthogonal_conjugates(n, spectrum):
    # Q diag(w) Q^T with a seeded random orthogonal Q and repeated values in w
    rng = np.random.default_rng(n + len(spectrum))
    w = np.repeat(list(spectrum), list(spectrum.values()))
    assert len(w) == n
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    M = Q * w @ Q.T
    _check_eigensolver_contract((M + M.T) / 2, spectrum.values())


def test_jacobi_contract_on_arrowhead_matrices():
    # nonzero off-diagonals only in row and column 0, so the first sweep
    # rotates the far pairs (0, q), stride q, up to (0, n - 1); repeated
    # diagonal entries d leave d an eigenvalue of multiplicity count - 1
    rng = np.random.default_rng(7)
    for d in ([0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 5.0], list(range(30))):
        n = len(d)
        M = np.diag(np.asarray(d, dtype=float))
        M[0, 1:] = M[1:, 0] = rng.uniform(0.5, 2.0, n - 1)
        _check_eigensolver_contract(M)


def test_jacobi_contract_on_relabeled_laplacians(random_gnp):
    rng = np.random.default_rng(3)
    for L, multiplicities in ((laplacian(crown(50)), [1, 49, 49, 1]),
                              (laplacian(random_gnp(100, 5)), None)):
        perm = rng.permutation(len(L))
        _check_eigensolver_contract(L[np.ix_(perm, perm)].astype(float),
                                    multiplicities)


def test_numeric_projector_identities(builtins, numeric_systems,
                                      group_projectors):
    for name, g in builtins.items():
        L = laplacian(g)
        es = numeric_systems[name]
        projs = group_projectors(es)
        total = sum(projs)
        assert np.max(np.abs(total - np.eye(g.n))) < 1e-9, name
        recon = sum(grp.value * P for grp, P in zip(es.groups, projs))
        assert np.max(np.abs(recon - L)) < 1e-9, name
        for i, Pi in enumerate(projs):
            assert np.max(np.abs(Pi @ Pi - Pi)) < 1e-9, name
            for j, Pj in enumerate(projs):
                if i != j:
                    assert np.max(np.abs(Pi @ Pj)) < 1e-9, name


def test_laplacian_adjacency_spectra_compatible(builtins, numeric_systems):
    for name, g in builtins.items():
        d = facts(g).regular_degree
        if d is None:
            continue
        sl = sorted(float(grp.value) for grp in numeric_systems[name].groups)
        sa = sorted(float(grp.value)
                    for grp in jacobi_eigendecompose(adjacency(g)).groups)
        assert np.allclose(sl, sorted(d - x for x in sa), atol=1e-8), name


# -- minimal polynomial and exact eigenvalues --------------------------------


def test_minimal_polynomial_k2():
    L = np.array([[1, -1], [-1, 1]])
    mu, powers = minimal_polynomial(L)
    assert mu == [0, -2, 1]  # x(x - 2)
    assert [P.tolist() for P in powers] == [[[1, 0], [0, 1]], L.tolist(),
                                            (2 * L).tolist()]


def test_minimal_polynomial_c7():
    assert minimal_polynomial(laplacian(cycle(7)))[0] == [0, -7, 14, -7, 1]


def test_minimal_polynomial_crown5():
    # x(x-3)(x-5)(x-8) = x^4 - 16x^3 + 79x^2 - 120x
    assert minimal_polynomial(laplacian(crown(5)))[0] == [0, -120, 79, -16, 1]


def test_minimal_polynomial_rejects_non_integer_matrices():
    # int64 conversion would truncate 0.5 to 0: diag(0.5, 1.5) read as
    # [0, -1, 1] and L + 0.5 as [-3, 1] before the check
    L = laplacian(cayley_s3())
    for M in (np.diag([0.5, 1.5]), L + 0.5):
        with pytest.raises(InvalidParameterError, match="float64"):
            minimal_polynomial(M)
    with pytest.raises(InvalidParameterError):
        exact_eigensystem(L.astype(float))
    assert minimal_polynomial(L.astype(object))[0] == minimal_polynomial(L)[0]


def test_minimal_polynomial_degree_cap():
    path5 = build_graph(5, [(i, i + 1) for i in range(4)])  # 5 distinct values
    with pytest.raises(NotFourEigenvaluesError):
        minimal_polynomial(laplacian(path5), max_degree=4)


def _minimal_polynomial_by_elimination(L, max_degree=None):
    """Reference: Fraction Gaussian elimination over the vectorized powers
    I, L, L^2, ... until the first one reduces to zero."""
    n = L.shape[0]
    cap = n if max_degree is None else min(max_degree, n)
    power = np.eye(n, dtype=object)
    Lobj = np.asarray(L, dtype=object)
    basis = []
    for k in range(cap + 1):
        frac = np.array([Fraction(int(x)) for x in power.reshape(-1)],
                        dtype=object)
        coords = [Fraction(0)] * (cap + 1)
        coords[k] = Fraction(1)
        for bvec, bcoords, piv in basis:
            if frac[piv]:
                factor = frac[piv] / bvec[piv]
                frac = frac - factor * bvec
                for i in range(k):
                    if bcoords[i]:
                        coords[i] -= factor * bcoords[i]
        pivot = next((i for i, x in enumerate(frac) if x), None)
        if pivot is None:
            return coords[:k + 1]
        basis.append((frac, coords, pivot))
        if k < cap:
            power = power @ Lobj
    raise NotFourEigenvaluesError(f"minimal polynomial degree exceeds {cap}")


def _minimal_polynomial_checking_powers(L, max_degree=None):
    """minimal_polynomial's coefficients, once the powers it returns with
    them are checked to be I, L, ..., L^k in Python ints."""
    coeffs, powers = minimal_polynomial(L, max_degree)
    assert len(powers) == len(coeffs)
    expected = np.eye(L.shape[0], dtype=object)
    for P in powers:
        assert np.array_equal(np.asarray(P, dtype=object), expected)
        expected = expected @ np.asarray(L, dtype=object)
    return coeffs


def _minimal_polynomial_outcome(fn, L, max_degree):
    try:
        return fn(L, max_degree)
    except NotFourEigenvaluesError:
        return NotFourEigenvaluesError


def _random_integer_matrices():
    rng = np.random.default_rng(20211)
    out = []
    for n in range(1, 7):
        for _ in range(6):
            M = rng.integers(-3, 4, (n, n))
            out.append(M)             # non-symmetric
            out.append(M + M.T)       # symmetric
        D = np.diag(rng.integers(-2, 3, n))  # repeated eigenvalues
        out.append(D)
        out.append(np.eye(n, k=1, dtype=np.int64))  # nilpotent Jordan block
    # entries whose powers leave int64, so the object-dtype kernel runs
    out.append(rng.integers(-2 ** 40, 2 ** 40, (4, 4)))
    big = rng.integers(-2 ** 20, 2 ** 20, (5, 5))
    out.append(big + big.T)
    return out


@pytest.mark.parametrize("max_degree", [None, 4])
def test_minimal_polynomial_matches_elimination_on_builtins(builtins,
                                                            max_degree):
    for name, g in builtins.items():
        L = laplacian(g)
        assert (_minimal_polynomial_outcome(
                    _minimal_polynomial_checking_powers, L, max_degree)
                == _minimal_polynomial_outcome(
                    _minimal_polynomial_by_elimination, L, max_degree)), name


@pytest.mark.parametrize("max_degree", [None, 4])
def test_minimal_polynomial_matches_elimination_on_random_matrices(max_degree):
    outcomes = []
    for M in _random_integer_matrices():
        mine = _minimal_polynomial_outcome(
            _minimal_polynomial_checking_powers, M, max_degree)
        assert mine == _minimal_polynomial_outcome(
            _minimal_polynomial_by_elimination, M, max_degree), M
        outcomes.append(mine)
    if max_degree is None:
        assert [0] * 6 + [1] in outcomes  # the 6x6 nilpotent Jordan block
    else:
        assert NotFourEigenvaluesError in outcomes


def _sigma(L):
    return exact_eigenvalues(minimal_polynomial(L, max_degree=4)[0])


def test_exact_eigenvalues_design_742():
    sigma = _sigma(laplacian(design_742_incidence()))
    assert sigma == [QuadValue(0), QuadValue(4, -1, 2), QuadValue(4, 1, 2),
                     QuadValue(8)]


def test_exact_eigenvalues_wheel():
    sigma = _sigma(laplacian(wheel6()))
    assert sigma == [QuadValue(0), QuadValue(F(7, 2), F(-1, 2), 5),
                     QuadValue(F(7, 2), F(1, 2), 5), QuadValue(6)]


def test_exact_eigenvalues_cayley():
    sigma = _sigma(laplacian(cayley_s3()))
    assert sigma == [QuadValue(0), QuadValue(2), QuadValue(3), QuadValue(5)]


def test_exact_eigenvalues_c7_not_quadratic():
    with pytest.raises(NonQuadraticEigenvaluesError):
        _sigma(laplacian(cycle(7)))


def test_exact_eigenvalues_wrong_count():
    with pytest.raises(NotFourEigenvaluesError):
        _sigma(np.array([[1, -1], [-1, 1]]))


def test_exact_eigensystem_multiplicities():
    es = exact_eigensystem(laplacian(fano_incidence()))
    assert [g.multiplicity for g in es.groups] == [1, 6, 6, 1]
    assert es.mode == "exact"


def test_exact_eigensystem_keeps_one_power_per_eigenvalue(builtins,
                                                          exact_systems):
    # I, L, L^2, L^3: the projectors read all four, L^4 only the minimal
    # polynomial's own check
    systems = {name: es for name, es in exact_systems.items() if es is not None}
    assert systems
    for name, es in systems.items():
        assert len(es.powers) == len(es.groups) == 4, name
        L = laplacian(builtins[name])
        expected = np.eye(L.shape[0], dtype=object)
        for P in es.powers:
            assert np.array_equal(np.asarray(P, dtype=object), expected), name
            expected = expected @ np.asarray(L, dtype=object)


def test_exact_eigensystem_keeps_the_lagrange_coefficients(exact_systems):
    # the four coefficient lists the multiplicities were summed from, one per
    # eigenvalue in group order, for the bipartite certificate to read
    systems = {name: es for name, es in exact_systems.items() if es is not None}
    for name, es in systems.items():
        sigma = es.values()
        assert es.lagrange == tuple(tuple(lagrange_coefficients(sigma, i))
                                    for i in range(len(sigma))), name
    assert jacobi_eigendecompose(np.eye(2)).lagrange == ()


# -- projectors --------------------------------------------------------------


def _lagrange_by_products(L, sigma, i):
    """Reference: the Lagrange projector as the chain of QuadMatrix products
    prod_{j != i} (L - sigma[j] I) / (sigma[i] - sigma[j]), reduced after
    each step."""
    n = L.shape[0]
    m = next((lam.m for lam in sigma if lam.b), 0)
    P = QuadMatrix.identity(n, m)
    base = QuadMatrix.from_int(L, m)
    denominator = QuadValue(1)
    for j, lam in enumerate(sigma):
        if j != i:
            P = (P @ (base - QuadMatrix.identity(n, m).scale(lam))).reduce()
            denominator = denominator * (sigma[i] - lam)
    return P.scale(denominator.inverse()).reduce()


def _trace(P):
    return sum((P.entry(i, i) for i in range(P.n)), QuadValue(0))


def test_projectors_match_product_chain(exact_systems, extra_exact_graphs):
    # the Lagrange and closed-form combinations over the powers of L against
    # the product chain, over radicands 2 (design-742), 5 (wheel-6) and 13;
    # each multiplicity, which exact_eigensystem takes from the Lagrange
    # coefficients and the traces of the powers, is the chain's trace
    systems = {name: es for name, es in exact_systems.items() if es is not None}
    systems.update({name: exact_eigensystem(laplacian(g))
                    for name, g in extra_exact_graphs.items()})
    radicands = set()
    for name, es in systems.items():
        sigma = es.values()
        closed = closed_form_projectors(
            es.powers, FourSpectrum.from_eigenvalues(*sigma[1:]))
        for i, grp in enumerate(es.groups):
            expected = _lagrange_by_products(es.powers[1], sigma, i)
            P = lagrange_projector(es.powers, sigma, i)
            assert P == expected, (name, i)
            assert P.a.dtype == P.b.dtype == np.int64
            assert _trace(expected) == QuadValue(grp.multiplicity), (name, i)
            if i:
                assert closed[i - 1] == expected, (name, i)
        radicands |= {lam.m for lam in sigma}
    assert {0, 2, 5, 13} <= radicands


def test_projector_ring_matches_the_matrix_products(incidence_builtins):
    # every exact bipartite builtin and every catalog design mnhd.designs
    # builds: mu = prod (x - sigma_i), and each product of Lagrange
    # polynomials modulo mu, summed over I, L, L^2, L^3, is the product of
    # the Lagrange projector matrices
    names = set(incidence_builtins) | {row.builder for row in catalog()
                                       if row.builder}
    radicands = set()
    for name in sorted(names):
        es = exact_eigensystem(laplacian(builtin_graph(name)))
        sigma = es.values()
        expanded = [QuadValue(1)]  # ascending in x
        for lam in sigma:
            expanded = [lo - lam * hi for lo, hi in
                        zip([0, *expanded], [*expanded, 0])]
        assert expanded == list(es.mu), name
        m = max(lam.m for lam in sigma)
        coeffs = [lagrange_coefficients(sigma, i) for i in range(4)]
        projs = [lagrange_projector(es.powers, sigma, i) for i in range(4)]
        for i in range(4):
            for j in range(i, 4):
                ring = poly_mul_mod(coeffs[i], coeffs[j], es.mu)
                assert (quad_combination(ring, es.powers, m)
                        == projs[i] @ projs[j]), (name, i, j)
        radicands.add(m)
    assert radicands == {0, 2}


def test_lagrange_projector_k2():
    L = np.array([[1, -1], [-1, 1]])
    sigma = [QuadValue(0), QuadValue(2)]
    P = lagrange_projector(minimal_polynomial(L)[1], sigma, 1)
    assert [[P.entry(i, j) for j in range(2)] for i in range(2)] == [
        [QuadValue(F(1, 2)), QuadValue(F(-1, 2))],
        [QuadValue(F(-1, 2)), QuadValue(F(1, 2))]]


def test_lagrange_projector_zero_eigenspace_is_constants():
    g = crown(5)
    mu, powers = minimal_polynomial(laplacian(g), max_degree=4)
    P0 = lagrange_projector(powers, exact_eigenvalues(mu), 0)
    assert all(P0.entry(i, j) == QuadValue(F(1, g.n))
               for i in range(g.n) for j in range(g.n))


def test_lagrange_projector_repeated_eigenvalue():
    eye = np.eye(2, dtype=int)
    with pytest.raises(RepeatedEigenvalueError):
        lagrange_projector([eye, eye], [QuadValue(1), QuadValue(1)], 0)
    with pytest.raises(RepeatedEigenvalueError):
        lagrange_coefficients([1.0, 2.0, 1.0], 1)


def test_lagrange_coefficients_exact_and_float():
    # the same polynomial in each number type: exact QuadValues for exact
    # sigma, floats for float sigma, and 1 at sigma[i], 0 at the others
    sigma = _sigma(laplacian(wheel6()))
    for i in range(4):
        exact = lagrange_coefficients(sigma, i)
        assert all(isinstance(a, QuadValue) for a in exact)
        for j, lam in enumerate(sigma):
            value = QuadValue(0)
            for a in reversed(exact):  # Horner
                value = value * lam + a
            assert value == QuadValue(int(i == j))
        approx = lagrange_coefficients([float(x) for x in sigma], i)
        assert all(isinstance(a, float) for a in approx)
        assert np.allclose(approx, [float(a) for a in exact], rtol=1e-12)


def test_closed_form_projectors_742():
    L = laplacian(design_742_incidence())
    fs = FourSpectrum.from_design(14, 4, 2)
    P1, P2, P3 = closed_form_projectors(minimal_polynomial(L)[1], fs)
    assert (_trace(P1), _trace(P2), _trace(P3)) == (QuadValue(6), QuadValue(6),
                                                    QuadValue(1))
    # resolution including P0
    P0 = QuadMatrix.constant(14, QuadValue(F(1, 14)), fs.lam1.m)
    total = P0 + P1 + P2 + P3
    assert (total - QuadMatrix.identity(14, fs.lam1.m)).is_zero()


def test_closed_form_constants_742():
    fs = FourSpectrum.from_design(14, 4, 2)
    root2 = QuadValue.sqrt_int(2)
    assert fs.lam1 == QuadValue(4, -1, 2) and fs.lam3 == QuadValue(8)
    assert fs.c1 == (2 * QuadValue(4, 1, 2) * root2).inverse()
    assert fs.c2 == -((2 * QuadValue(4, -1, 2) * root2).inverse())
    assert fs.c3 == QuadValue(F(1, 14))
    assert fs.c2 == -(fs.lam2 * fs.lam2 * fs.c1 * fs.c3)
    # generic Lagrange-denominator form gives the same constants
    generic = FourSpectrum.from_eigenvalues(fs.lam1, fs.lam2, fs.lam3)
    assert (generic.c1, generic.c2, generic.c3) == (fs.c1, fs.c2, fs.c3)


def test_closed_form_rejects_degenerate():
    with pytest.raises(DegenerateParamsError):
        FourSpectrum.from_design(6, 2, 2)


def test_closed_form_equals_lagrange_sample(incidence_builtins):
    for name in ("design-742", "crown-5", "cycle-6"):
        g = incidence_builtins[name]
        L = laplacian(g)
        d = facts(g).regular_degree
        lam = (2 * d * (d - 1)) // (g.n - 2)
        powers = minimal_polynomial(L)[1]
        fs = FourSpectrum.from_design(g.n, d, lam)
        closed = closed_form_projectors(powers, fs)
        for i, P in enumerate(closed, start=1):
            sigma = (fs.lam0, fs.lam1, fs.lam2, fs.lam3)
            assert P == lagrange_projector(powers, sigma, i), name


# -- classification ----------------------------------------------------------


def test_classify_case_i_integral():
    spectrum = [(QuadValue(0), 1), (QuadValue(2), 1), (QuadValue(3), 2),
                (QuadValue(5), 2)]
    assert classify_spectrum(spectrum, 6, 3) is VanDamCase.CASE_I


def test_classify_case_ii_surd_pair():
    spectrum = [(QuadValue(0), 1), (QuadValue(4, -1, 2), 6),
                (QuadValue(4, 1, 2), 6), (QuadValue(8), 1)]
    assert classify_spectrum(spectrum, 14, 4) is VanDamCase.CASE_II


def test_classify_case_iii_c7():
    es = jacobi_eigendecompose(laplacian(cycle(7)))
    spectrum = [(g.value, g.multiplicity) for g in es.groups]
    assert classify_spectrum(spectrum, 7, 2) is VanDamCase.CASE_III


def test_classify_float_inputs():
    r2 = math.sqrt(2)
    spectrum = [(0.0, 1), (4 - r2, 6), (4 + r2, 6), (8.0, 1)]
    assert classify_spectrum(spectrum, 14, 4) is VanDamCase.CASE_II


def test_classify_no_case():
    # three integral values plus one surd: matches no case
    with pytest.raises(NoCaseMatchesError):
        classify_spectrum([(QuadValue(0), 1), (QuadValue(1), 2),
                           (QuadValue(2), 2), (QuadValue(2, 1, 2), 2)], 8, 2)
    # surd pair with unequal multiplicities
    with pytest.raises(NoCaseMatchesError):
        classify_spectrum([(QuadValue(0), 1), (QuadValue(4, -1, 2), 5),
                           (QuadValue(4, 1, 2), 7), (QuadValue(8), 1)], 14, 4)
    with pytest.raises(NoCaseMatchesError):
        classify_spectrum([(0.0, 1), (2.0, 2)], 3, 2)


def test_jacobi_no_convergence_with_zero_sweep_cap(monkeypatch):
    monkeypatch.setattr(mnhd.spectral, "JACOBI_SWEEP_CAP", 0)
    with pytest.raises(NoConvergenceError):
        jacobi_eigendecompose(laplacian(crown(5)))


def test_heat_from_exact_eigensystem(group_projectors):
    # heat kernels come from the numeric eigensystem alone; the projectors
    # of its eigenvectors match the exact Lagrange projectors
    from mnhd.heat import heat_slices
    es = exact_eigensystem(laplacian(cycle(6)))
    ref = jacobi_eigendecompose(laplacian(cycle(6)))
    assert [g.multiplicity for g in es.groups] == [
        g.multiplicity for g in ref.groups]
    for i, P in enumerate(group_projectors(ref)):
        exact = lagrange_projector(es.powers, es.values(), i)
        floats = np.array([[float(exact.entry(u, v)) for v in range(es.n)]
                           for u in range(es.n)])
        assert np.max(np.abs(floats - P)) < 1e-12
    with pytest.raises(NumericEigensystemRequiredError):
        heat_slices(es, [1.0])


def test_integer_roots_match_full_scan():
    # reference: every integer in [-|c0|, |c0|], the search this one replaced
    def scan(coeffs):
        c0 = abs(coeffs[0])
        return [x for x in range(-c0, c0 + 1)
                if x and sum(c * x ** k for k, c in enumerate(coeffs)) == 0]

    for c0 in range(-24, 25):
        if c0 == 0:
            continue
        for c1 in range(-6, 7):
            for c2 in range(-6, 7):
                coeffs = [c0, c1, c2, 1]
                assert _integer_roots(coeffs) == scan(coeffs), coeffs
    assert _integer_roots([30, -1, -6, 1]) == [-2, 3, 5]


def test_integer_roots_large_constant_term():
    # |c0| = 9949 * 9967 * 9973 ~ 1e12: a scan of every integer up to |c0|
    # would run for days, so the search runs in a child the test times out
    code = ("from mnhd.spectral import _integer_roots\n"
            "a, b, c = 9949, 9967, 9973\n"
            "print(_integer_roots([-a * b * c, a * b + a * c + b * c,\n"
            "                     -(a + b + c), 1]))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=30)
    assert out.stdout.strip() == "[9949, 9967, 9973]"
