"""Command-line front end.

Subcommands: analyze, check, curve, design-validate, design-incidence,
builtin, catalog.  Exit codes: 0 success, 1 negative analysis verdict under
--strict, 2 input or usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

from . import designs, graphs
from .certify import PROVEN, analyze, delta_sign_analysis, numeric_check
from .errors import MnhdError
from .heat import default_time_grid, ratio_curve, write_curve_csv
from .reference import (CAYLEY_S3_CLASS_NAMES, CAYLEY_S3_REFERENCE,
                        WHEEL6_CLASS_NAMES, WHEEL6_REFERENCE,
                        catalog_spectrum_comparison, compare_delta_rows)
from .spectral import exact_eigensystem, jacobi_eigendecompose

@contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as fp:
            yield fp


def _load_graph(path: str) -> graphs.Graph:
    with open(path, encoding="utf-8") as fp:
        return graphs.read_edge_list(fp)


def _format_value(x) -> str:
    from .quadratic import QuadValue

    return str(x) if isinstance(x, QuadValue) else f"{x:+.9g}"


def _report_text(report) -> str:
    lines = []
    lines.append(f"graph: n={report.graph_n} m={report.graph_m} "
                 f"regular={report.regular_degree} bipartite={report.bipartite}")
    spectrum = ", ".join(
        f"{e.exact if e.exact is not None else round(e.value, 9)} (x{e.multiplicity})"
        for e in report.spectrum)
    lines.append(f"spectrum: {spectrum}")
    case = report.van_dam_case.value if report.van_dam_case else "-"
    lines.append(f"classification case: {case}")
    cert = report.certificate
    lines.append(f"certificate [{cert.method}]: {cert.verdict}"
                 + (f" ({cert.reason})" if cert.reason else ""))
    for check in cert.checks:
        mark = "ok " if check.passed else "FAIL"
        lines.append(f"  [{mark}] {check.name}: {check.witness}")
    for row in cert.classes:
        deltas = ", ".join(f"{k}={_format_value(x)}"
                           for k, x in row.deltas.items())
        lines.append(f"  class {row.tag} sig={row.signature} "
                     f"count={row.count}: {deltas}")
    num = report.numeric
    lines.append(f"numeric check (evidence): {num.verdict}, min forward "
                 f"difference {num.min_diff:.3e} at pair {num.worst_pair}, "
                 f"t={num.worst_t:.6g}")
    return "\n".join(lines)


def _delta_table_text(title: str, g: graphs.Graph, reference, names) -> list[str]:
    cert = delta_sign_analysis(exact_eigensystem(graphs.laplacian(g)))
    lines = [title, f"  verdict: {cert.verdict}"]
    comparisons = compare_delta_rows(cert.classes, reference)
    mismatch = {(c.signature, c.field): c for c in comparisons if not c.match}
    for row in cert.classes:
        label = names.get(row.signature, str(row.signature))
        deltas = ", ".join(f"{k}={_format_value(x)}"
                           for k, x in row.deltas.items())
        lines.append(f"  {label} {row.signature}: {deltas}")
    if mismatch:
        for (sig, fld), c in sorted(mismatch.items(), key=str):
            lines.append(f"  MISMATCH vs reference at {names.get(sig, sig)} "
                         f"{fld}: derived {c.computed}, reference {c.reference}")
    else:
        lines.append("  all entries match the reference table")
    return lines


def reproduce_tables() -> str:
    """Exact Delta tables for the S3 Cayley graph and the 6-wheel, compared
    with the reference values, plus the catalog spectrum comparison."""
    lines: list[str] = []
    lines += _delta_table_text("S3 Cayley graph delta table (exact rationals)",
                               graphs.cayley_s3(), CAYLEY_S3_REFERENCE,
                               CAYLEY_S3_CLASS_NAMES)
    lines.append("")
    lines += _delta_table_text("6-wheel delta table (exact over sqrt(5))",
                               graphs.wheel6(), WHEEL6_REFERENCE,
                               WHEEL6_CLASS_NAMES)
    lines.append("")
    lines.append("catalog spectrum comparison")
    for cmp in catalog_spectrum_comparison():
        v, d, lam = cmp.params
        builder = cmp.builder or "-"
        lines.append(f"  n={cmp.n:2d} ({v:2d},{d:2d},{lam:2d}) "
                     f"{builder:>9s}: {cmp.status}")
    return "\n".join(lines)


def _catalog_text() -> str:
    lines = ["|V|  spectrum                      (v, d, lambda)"]
    for row in designs.catalog():
        values = "{" + ", ".join(str(x) for x in row.spectrum) + "}"
        lines.append(f"{row.n:3d}  {values:29s} {row.params}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mnhd",
        description="Monotonic normalized heat diffusion on small graphs: "
                    "exact certificates, delta tables, and numeric checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for an edge-list file")
    p.add_argument("graph")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 unless the verdict is ProvenMNHD")

    p = sub.add_parser("check", help="numeric monotonicity check only")
    p.add_argument("graph")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("curve", help="CSV of t, r_t(u,v) on the default grid")
    p.add_argument("graph")
    p.add_argument("-u", type=int, required=True)
    p.add_argument("-v", type=int, required=True)
    p.add_argument("--points", type=int, default=60,
                   help="log-spaced points after t=0")
    p.add_argument("--out")

    p = sub.add_parser("design-validate", help="validate a design file")
    p.add_argument("design")

    p = sub.add_parser("design-incidence",
                       help="write the incidence graph of a design file")
    p.add_argument("design")
    p.add_argument("--out")

    p = sub.add_parser("builtin",
                       help=f"write a builtin graph ({graphs.BUILTIN_DOC})")
    p.add_argument("name")
    p.add_argument("--out")

    p = sub.add_parser("catalog",
                       help="one row per symmetric-design parameter set, "
                            "10 <= n <= 30")
    p.add_argument("--reproduce", action="store_true",
                   help="also print the exact delta tables and the spectrum "
                        "comparison for constructible rows")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (MnhdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "analyze":
        report = analyze(_load_graph(args.graph))
        if args.format == "json":
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(_report_text(report))
        if args.strict and report.certificate.verdict != PROVEN:
            return 1
        return 0

    if args.command == "check":
        es = jacobi_eigendecompose(graphs.laplacian(_load_graph(args.graph)))
        verdict = numeric_check(es, tol=args.tol)
        print(f"{verdict.verdict}: min forward difference {verdict.min_diff:.3e} "
              f"at pair {verdict.worst_pair}, t={verdict.worst_t:.6g} "
              f"(tolerance {verdict.tolerance:g})")
        if args.strict and not verdict.passed:
            return 1
        return 0

    if args.command == "curve":
        g = _load_graph(args.graph)
        es = jacobi_eigendecompose(graphs.laplacian(g))
        grid = default_time_grid(es, args.points)
        curve = ratio_curve(es, args.u, args.v, grid)
        with _open_out(args.out) as fp:
            write_curve_csv(fp, curve)
        return 0

    if args.command == "design-validate":
        with open(args.design, encoding="utf-8") as fp:
            design = designs.read_design(fp)
        params = designs.validate_design(design)
        kind = "symmetric" if params.symmetric else "non-symmetric"
        print(f"valid {kind} 2-design: v={params.v} b={params.b} d={params.d} "
              f"r={params.r} lambda={params.lam}")
        return 0

    if args.command == "design-incidence":
        with open(args.design, encoding="utf-8") as fp:
            design = designs.read_design(fp)
        g = graphs.incidence_graph(design)
        with _open_out(args.out) as fp:
            graphs.write_edge_list(g, fp)
        return 0

    if args.command == "builtin":
        g = graphs.builtin_graph(args.name)
        with _open_out(args.out) as fp:
            graphs.write_edge_list(g, fp)
        return 0

    if args.command == "catalog":
        print(_catalog_text())
        if args.reproduce:
            print()
            print(reproduce_tables())
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
