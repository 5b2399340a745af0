"""Properties of `analyze` over generated inputs: its report does not depend
on vertex labels, and on any small graph it either returns a report that
fits the schema or raises a typed MnhdError."""

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnhd.certify import REPORT_SCHEMA, analyze
from mnhd.errors import MnhdError
from mnhd.graphs import all_builtin_names, build_graph


def _summary(report):
    cert = report.certificate
    return (cert.verdict, cert.method,
            [(c.name, c.passed) for c in cert.checks],
            sorted((row.tag, row.signature, row.count) for row in cert.classes))


@pytest.mark.parametrize("name", all_builtin_names())
@settings(deadline=None, max_examples=2)
@given(data=st.data())
def test_report_does_not_depend_on_labels(builtins, reports, name, data):
    g = builtins[name]
    perm = data.draw(st.permutations(range(g.n)))
    relabeled = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    assert _summary(analyze(relabeled)) == _summary(reports[name])


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
