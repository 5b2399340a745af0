"""Properties of `analyze` over generated inputs: its report does not depend
on vertex labels, and on any small graph it either returns a report that
fits the schema or raises a typed MnhdError.  Every report it returns, on
relabeled builtins and on small graphs alike, is consistent across routes:
a ProvenMNHD verdict comes with a passing numeric check, and the exact
spectrum, expanded by multiplicity, agrees with LAPACK's eigenvalues.  The
pair classes under every route group the ordered pairs as a dict keyed by
signature does.  An ExpSum does not depend on the order or split of its
terms.  Edge-list and design files give back the graph or design they were
written from."""

import io
from collections import Counter

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnhd.certify import PROVEN, REPORT_SCHEMA, _pair_classes, analyze
from mnhd.designs import (complement_design, crown_design, design_742,
                          fano_design, pair_design, read_design, write_design)
from mnhd.errors import MnhdError
from mnhd.graphs import (all_builtin_names, build_graph, laplacian,
                         read_edge_list, write_edge_list)
from mnhd.heat import ExpSum
from mnhd.quadratic import QuadValue
from mnhd.spectral import lagrange_coefficients


def _summary(report):
    cert = report.certificate
    return (cert.verdict, cert.method,
            [(c.name, c.passed) for c in cert.checks],
            sorted((row.tag, row.signature, row.count) for row in cert.classes))


def _assert_routes_agree(report, g):
    if report.certificate.verdict == PROVEN:
        assert report.numeric.verdict == "PassesAtTolerance", report.numeric
    assert sum(entry.multiplicity for entry in report.spectrum) == g.n
    exact = [entry for entry in report.spectrum if entry.exact is not None]
    if exact:  # each exact value, repeated by its multiplicity, against LAPACK
        assert len(exact) == len(report.spectrum), report.spectrum
        eigenvalues = np.linalg.eigvalsh(laplacian(g).astype(float))
        expanded = np.repeat([float(entry.exact) for entry in exact],
                             [entry.multiplicity for entry in exact])
        for value, eigenvalue in zip(expanded, eigenvalues):
            # relative above 1, absolute near 0
            assert abs(eigenvalue - value) <= 1e-8 * max(1.0, abs(value)), (
                value, eigenvalue, report.spectrum)


@pytest.mark.parametrize("name", all_builtin_names())
@settings(deadline=None, max_examples=2)
@given(data=st.data())
def test_report_does_not_depend_on_labels(builtins, reports, name, data):
    g = builtins[name]
    perm = data.draw(st.permutations(range(g.n)))
    relabeled = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    report = analyze(relabeled)
    assert _summary(report) == _summary(reports[name])
    _assert_routes_agree(report, relabeled)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(2, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return build_graph(n, [pair for pair, kept in zip(pairs, keep) if kept])


@settings(deadline=None, max_examples=100)
@given(g=small_graphs())
def test_analyze_returns_a_valid_report_or_a_typed_error(g):
    try:
        report = analyze(g)
    except MnhdError:
        return
    jsonschema.validate(report.to_dict(), REPORT_SCHEMA)
    _assert_routes_agree(report, g)


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_pair_classes_group_every_pair_once(data):
    # the packed int64 keys against a Counter of signature tuples, on a
    # drawn graph and a relabeling of it; the basis only sets each class's
    # entries and DeltaSet, so any four polynomials do
    g = data.draw(small_graphs())
    perm = data.draw(st.permutations(range(g.n)))
    relabeled = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    basis = [lagrange_coefficients([0.0, 1.0, 2.0, 3.0], i) for i in range(4)]
    for h in (g, relabeled):
        L = laplacian(h)
        L2 = L @ L
        counts = Counter(
            (int(L[u, u]), int(L[v, v]), int(L[u, v]), int(L2[u, v]))
            for u in range(h.n) for v in range(h.n) if u != v)
        classes = _pair_classes((np.eye(h.n, dtype=np.int64), L, L2, L2 @ L),
                                basis)
        assert [(row.tag, row.signature, row.count) for row in classes] == [
            (f"S{idx}", sig, count)
            for idx, (sig, count) in enumerate(sorted(counts.items()),
                                               start=1)]


RATES = [QuadValue(a, b, 5) for a in range(4) for b in (-1, 0, 1)]
COEFFS = st.builds(QuadValue, st.integers(-2, 2), st.integers(-1, 1),
                   st.just(5))


@settings(deadline=None, max_examples=100)
@given(data=st.data())
def test_exp_sum_is_one_sum_whatever_the_order_and_split(data):
    # the same (rate, coefficient) pairs, shuffled and with some coefficients
    # split in two at the same rate, give the same ExpSum; against a dict of
    # sums per rate, it keeps the nonzero sums, with rates strictly ascending
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(RATES), COEFFS),
                               max_size=12))
    split = []
    for rate, coeff in pairs:
        part = data.draw(st.one_of(st.none(), COEFFS))
        split += [(rate, coeff)] if part is None else [(rate, coeff - part),
                                                       (rate, part)]
    split = data.draw(st.permutations(split))
    h = ExpSum(tuple(pairs))
    assert ExpSum(tuple(split)) == h
    sums = {}
    for rate, coeff in pairs:
        sums[rate] = sums.get(rate, QuadValue(0)) + coeff
    assert dict(h.terms) == {rate: c for rate, c in sums.items() if c != 0}
    rates = [rate for rate, _ in h.terms]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert h.at_zero() == sum(sums.values(), QuadValue(0))


def _round_trip(write, read, obj):
    buf = io.StringIO()
    write(obj, buf)
    buf.seek(0)
    return read(buf)


@settings(deadline=None, max_examples=100)
@given(g=small_graphs())
def test_edge_list_round_trip(g):
    assert _round_trip(write_edge_list, read_edge_list, g) == g


builtin_designs = st.one_of(st.sampled_from([fano_design(), design_742()]),
                            st.integers(2, 15).map(crown_design),
                            st.integers(3, 8).map(pair_design))


@settings(deadline=None, max_examples=100)
@given(design=builtin_designs, complement=st.booleans())
def test_design_file_round_trip(design, complement):
    if complement:
        design = complement_design(design)
    assert _round_trip(write_design, read_design, design) == design
