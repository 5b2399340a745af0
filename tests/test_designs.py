import io
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mnhd.designs import (CatalogRow, build_design, catalog,
                          complement_design, crown_design, design_742,
                          fano_design, lambda_from_n_d,
                          pair_design, predicted_spectrum, read_design,
                          validate_design, write_design)
from mnhd.errors import (DegenerateDesignError, DegenerateParamsError,
                         DesignError, FileFormatError, NotBalancedError,
                         NotUniformError, ReplicationVariesError)
from mnhd.quadratic import QuadValue
from mnhd.spectral import FourSpectrum


def brute_force_params(design):
    """Independent validation oracle: direct counting, no shared code path."""
    sizes = {len(b) for b in design.blocks}
    if len(sizes) != 1:
        return None
    reps = {sum(1 for b in design.blocks if x in b) for x in range(design.v)}
    if len(reps) != 1:
        return None
    pairs = {sum(1 for b in design.blocks if x in b and y in b)
             for x, y in combinations(range(design.v), 2)}
    if len(pairs) != 1:
        return None
    return (design.v, len(design.blocks), sizes.pop(), reps.pop(), pairs.pop())


def test_design_742_params():
    params = validate_design(design_742())
    assert (params.v, params.b, params.d, params.r, params.lam) == (7, 7, 4, 4, 2)
    assert params.symmetric


def test_fano_params():
    params = validate_design(fano_design())
    assert (params.v, params.b, params.d, params.r, params.lam) == (7, 7, 3, 3, 1)


def test_not_uniform():
    with pytest.raises(NotUniformError):
        validate_design(build_design(3, [(0, 1), (0, 1, 2)]))


def test_replication_varies():
    with pytest.raises(ReplicationVariesError):
        validate_design(build_design(4, [(0, 1), (0, 2), (0, 3)]))


def test_not_balanced():
    # uniform, constant replication, pair counts differ
    with pytest.raises(NotBalancedError):
        validate_design(build_design(4, [(0, 1), (2, 3)]))


def test_degenerate_designs_rejected():
    with pytest.raises(DegenerateDesignError):  # lambda = 0
        validate_design(build_design(3, [(0,), (1,), (2,)]))
    with pytest.raises(DegenerateDesignError):  # d = v
        validate_design(build_design(4, [(0, 1, 2, 3)]))


def test_build_design_structure():
    with pytest.raises(DesignError):
        build_design(3, [(0, 5)])
    with pytest.raises(DesignError):
        build_design(3, [()])
    with pytest.raises(DesignError):
        build_design(3, [])


def test_triangle_pair_design_symmetric():
    params = validate_design(pair_design(3))
    assert (params.v, params.b, params.d, params.r, params.lam) == (3, 3, 2, 2, 1)
    assert params.symmetric


def test_pair_design_4_not_symmetric():
    params = validate_design(pair_design(4))
    assert (params.v, params.b) == (4, 6)
    assert not params.symmetric


def test_crown_design_params():
    for v in (3, 5, 9):
        params = validate_design(crown_design(v))
        assert (params.v, params.d, params.lam) == (v, v - 1, v - 2)
        assert params.symmetric


def test_complement_of_fano_is_742_family():
    comp = complement_design(fano_design())
    params = validate_design(comp)
    assert (params.v, params.b, params.d, params.r, params.lam) == (7, 7, 4, 4, 2)


def test_double_complement_is_identity():
    d = design_742()
    assert complement_design(complement_design(d)) == d


def test_complement_of_triangle_design_rejected():
    comp = complement_design(pair_design(3))  # singleton blocks, lambda = 0
    with pytest.raises(DegenerateDesignError):
        validate_design(comp)


def test_brute_force_oracle_agrees():
    for design in (fano_design(), design_742(), pair_design(3), pair_design(4),
                   crown_design(5), crown_design(8),
                   complement_design(fano_design())):
        params = validate_design(design)
        assert brute_force_params(design) == (params.v, params.b, params.d,
                                              params.r, params.lam)


def test_predicted_spectrum_742():
    s = predicted_spectrum(7, 4, 2)
    assert (s.lam0, s.lam1, s.lam2, s.lam3) == (
        QuadValue(0), QuadValue(4, -1, 2), QuadValue(4, 1, 2), QuadValue(8))


def test_predicted_spectrum_fano():
    s = predicted_spectrum(7, 3, 1)
    assert (s.lam0, s.lam1, s.lam2, s.lam3) == (
        QuadValue(0), QuadValue(3, -1, 2), QuadValue(3, 1, 2), QuadValue(6))


def test_predicted_spectrum_543_integral():
    s = predicted_spectrum(5, 4, 3)
    assert (s.lam0, s.lam1, s.lam2, s.lam3) == (
        QuadValue(0), QuadValue(3), QuadValue(5), QuadValue(8))


def test_predicted_spectrum_degenerate():
    with pytest.raises(DegenerateParamsError):
        predicted_spectrum(2, 2, 2)
    with pytest.raises(DesignError):
        predicted_spectrum(7, 4, 3)  # identity violated


def test_lambda_from_n_d():
    assert lambda_from_n_d(14, 4) == (Fraction(2), True)
    assert lambda_from_n_d(6, 2) == (Fraction(1), True)
    value, feasible = lambda_from_n_d(10, 3)
    assert value == Fraction(3, 2) and not feasible
    with pytest.raises(DesignError):
        lambda_from_n_d(7, 2)
    with pytest.raises(DesignError):
        lambda_from_n_d(2, 1)


def test_catalog_shape():
    rows = catalog()
    assert len(rows) == 19
    assert rows[0] == CatalogRow(10, (QuadValue(0), QuadValue(3), QuadValue(5),
                                      QuadValue(8)), (5, 4, 3))
    by_params = {r.params: r for r in rows}
    r1341 = by_params[(13, 4, 1)]
    assert r1341.n == 26
    assert r1341.spectrum == (QuadValue(0), QuadValue(4, -1, 3),
                              QuadValue(4, 1, 3), QuadValue(8))


def test_catalog_is_every_symmetric_parameter_set_from_n_10_to_30():
    # one row per (v, d, lambda) with lambda (v - 1) = d (d - 1) and
    # 1 <= lambda < d < v, n = 2v in 10..30; crown-3 (n = 6) and crown-4
    # (n = 8) are proven by `analyze` but lie below the catalog's range
    feasible = [(v, d, lam) for v in range(5, 16) for d in range(1, v)
                for lam in range(1, d) if lam * (v - 1) == d * (d - 1)]
    assert sorted(r.params for r in catalog()) == feasible


def test_catalog_consistent_with_predicted_spectrum():
    for row in catalog():
        v, d, lam = row.params
        assert row.n == 2 * v
        s = predicted_spectrum(v, d, lam)
        assert (s.lam0, s.lam1, s.lam2, s.lam3) == row.spectrum
        # the design-form constants equal the generic 1/prod(lam_i - lam_j)
        generic = FourSpectrum.from_eigenvalues(*row.spectrum[1:])
        assert s.constants() == generic.constants(), row.params


def test_catalog_builders():
    by_params = {r.params: r.builder for r in catalog()}
    assert by_params[(5, 4, 3)] == "crown-5"
    assert by_params[(15, 14, 13)] == "crown-15"
    assert by_params[(7, 3, 1)] == "fano"
    assert by_params[(7, 4, 2)] == "design-742"
    missing = sorted(p for p, b in by_params.items() if b is None)
    assert missing == [(11, 5, 2), (11, 6, 3), (13, 4, 1), (13, 9, 6),
                       (15, 7, 3), (15, 8, 4)]


# -- design files ------------------------------------------------------------

DESIGN_742_ONE_BASED = """\
# symmetric (7,4,2) design, 1-based labels
7 7 base=1
1 2 3 4
1 2 5 6
1 4 6 7
1 3 5 7
2 3 6 7
2 4 5 7
3 4 5 6
"""


def test_read_design_base_1():
    design = read_design(io.StringIO(DESIGN_742_ONE_BASED))
    assert design == design_742()


def test_design_file_round_trip():
    buf = io.StringIO()
    write_design(fano_design(), buf)
    assert read_design(io.StringIO(buf.getvalue())) == fano_design()


def test_read_design_errors():
    with pytest.raises(FileFormatError):
        read_design(io.StringIO(""))
    with pytest.raises(FileFormatError):
        read_design(io.StringIO("3 2 base=2\n0 1\n1 2\n"))
    with pytest.raises(FileFormatError):
        read_design(io.StringIO("3 2\n0 1\n"))


# -- randomized: whatever the validator accepts satisfies the identities ------

block_families = st.integers(min_value=2, max_value=6).flatmap(
    lambda v: st.tuples(
        st.just(v),
        st.lists(st.sets(st.integers(0, v - 1), min_size=1, max_size=v),
                 min_size=1, max_size=8)))


@given(block_families)
def test_accepted_designs_satisfy_identities(family):
    v, blocks = family
    try:
        params = validate_design(build_design(v, blocks))
    except DesignError:
        return
    assert params.b * params.d == params.v * params.r
    assert params.lam * (params.v - 1) == params.r * (params.d - 1)
    assert params.lam >= 1 and params.d < params.v


def test_predicted_spectrum_invariants():
    for v, d, lam in ((7, 4, 2), (7, 3, 1), (5, 4, 3), (13, 9, 6)):
        s = predicted_spectrum(v, d, lam)
        assert s.lam1 + s.lam2 == QuadValue(2 * d)
        assert s.lam1 * s.lam2 == QuadValue(d * d - d + lam)
        assert s.lam3 == QuadValue(2 * d)
