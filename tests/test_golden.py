"""Golden reports: the label-independent fields of `analyze(g).to_dict()` for
every builtin graph, compared with `tests/data/golden_reports.json`.

The file pins what a refactor of the exact routes must not change: graph
facts, the spectrum with multiplicities, the classification case, the class
rows with their exact deltas and counts, the certificate's method, verdict,
reason and ordered check results, and the numeric verdict.  Witness strings
and float details of the numeric check are left out.

Regenerate (only when a change to the reports is intended):

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

from mnhd.certify import analyze
from mnhd.graphs import all_builtin_names, builtin_graph

GOLDEN = Path(__file__).parent / "data" / "golden_reports.json"


def _number(x):
    """Exact values as serialized; floats rounded to 9 decimal places."""
    return x if isinstance(x, dict) else round(float(x), 9)


def golden_fields(report: dict) -> dict:
    cert = report["certificate"]
    return {
        "graph": report["graph"],
        "spectrum": [
            {"multiplicity": e["multiplicity"],
             "exact": e["exact"],
             "value": None if e["exact"] is not None else _number(e["value"])}
            for e in report["spectrum"]],
        "vanDamCase": report["vanDamCase"],
        "classes": [
            {key: ({k: _number(x) for k, x in value.items()}
                   if key == "deltas" else value)
             for key, value in row.items()}
            for row in report["classes"]],
        "certificate": {
            "method": cert["method"],
            "verdict": cert["verdict"],
            "reason": cert["reason"],
            "checks": [[c["name"], c["pass"]] for c in cert["checks"]],
        },
        "numeric": report["numeric"]["verdict"],
    }


def current_reports() -> dict:
    return {name: golden_fields(json.loads(json.dumps(
        analyze(builtin_graph(name)).to_dict())))
        for name in all_builtin_names()}


def test_reports_match_golden(reports):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(all_builtin_names())
    for name, expected in golden.items():
        actual = golden_fields(json.loads(json.dumps(reports[name].to_dict())))
        assert actual == expected, name


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [f"  {json.dumps(name)}: {json.dumps(fields, sort_keys=True)}"
             for name, fields in sorted(current_reports().items())]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
