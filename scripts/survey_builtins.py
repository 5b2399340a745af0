#!/usr/bin/env python3
"""Run the full analysis over every builtin graph and print one line each:
name, order, eigenvalue count, classification case, verdict and method, and
the minimum forward difference of r_t from the numeric cross-check."""

from mnhd.certify import analyze
from mnhd.graphs import all_builtin_names, builtin_graph


def main() -> None:
    header = (f"{'graph':>16s} {'n':>3s} {'#eig':>4s} {'case':>4s} "
              f"{'verdict':<15s} {'method':<22s} {'min diff':>10s}")
    print(header)
    for name in all_builtin_names():
        report = analyze(builtin_graph(name))
        case = report.van_dam_case.value if report.van_dam_case else "-"
        print(f"{name:>16s} {report.graph_n:3d} {len(report.spectrum):4d} "
              f"{case:>4s} {report.certificate.verdict:<15s} "
              f"{report.certificate.method:<22s} "
              f"{report.numeric.min_diff:10.2e}")


if __name__ == "__main__":
    main()
