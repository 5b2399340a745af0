"""Deciding monotonic normalized heat diffusion (MNHD).

Three routes, in decreasing order of strength.  Each returns a Certificate.
The two exact ones share one engine: the graph's exact eigensystem, built
once by `analyze`, and one grouping of the ordered vertex pairs into classes
by their (L, L^2) signature, read off the integer Laplacian; on a connected
four-eigenvalue graph the signature fixes a pair's Delta set, so `delta_set`
runs once per class.

* certificate_bipartite -- an exact certificate for connected regular
  bipartite graphs with four distinct Laplacian eigenvalues.  Such a graph is
  the incidence graph of a symmetric (n/2, d, lambda)-design, and the
  certificate is a design layer on the engine: it checks the projectors
  against their quadratic closed form, names the template's pair classes
  W1/W2/W3, derives from the projector checks that the Delta quantities are
  constant on all pairs of each class, and records every sign and
  cancellation condition that together force h_{u,v}(t) >= 0 for all t.

* delta_sign_analysis -- a generalized exact template for any connected graph
  with four distinct eigenvalues in a quadratic field: per signature class it
  certifies h >= 0 either because every exponential coefficient of h is
  nonnegative, or because e^{lam3 t} h(t) is nondecreasing (no growing term
  has a negative coefficient and the growing terms' derivative budget covers
  the decaying positive ones) and h(0) >= 0.  Graphs whose eigenvalues are
  not quadratic (classification case III) degrade to a float table over the
  same classes (method numeric-delta-table) that is labelled as evidence,
  never proof.

* numeric_check -- forward differences of r_t over a log time grid, for every
  ordered pair.  Evidence only; always run as cross-validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .designs import lambda_from_n_d
from .errors import (InvalidParameterError, NoCaseMatchesError,
                     NonQuadraticEigenvaluesError, NotFourEigenvaluesError,
                     ShortGridError, UnknownSignatureError)
from .graphs import Graph, facts, laplacian
from .heat import (DeltaSet, default_time_grid, delta_set, h_terms_exact,
                   heat_slices)
from .quadratic import QuadMatrix, QuadValue, int_matmul
from .spectral import (Eigensystem, FourSpectrum, VanDamCase,
                       classify_spectrum, closed_form_projectors,
                       exact_eigensystem, jacobi_eigendecompose)
# Not called here (exact_eigensystem runs it); the benchmark's self-check
# (perfbench/run.py --selfcheck) wraps it in this namespace to test its tracer.
from .spectral import minimal_polynomial  # noqa: F401

PROVEN = "ProvenMNHD"
FAILED = "SignCheckFailed"
NOT_APPLICABLE = "NotApplicable"
NUMERIC_ONLY = "NumericOnly"

Pair = tuple[int, int]


@dataclass(frozen=True)
class PairClass:
    tag: str
    signature: tuple


@dataclass(frozen=True)
class CertificateCheck:
    name: str
    witness: str
    passed: bool


@dataclass(frozen=True)
class ClassRow:
    tag: str
    signature: tuple
    count: int
    deltas: DeltaSet
    proven: bool | None = None
    route: str | None = None


@dataclass(frozen=True)
class Certificate:
    verdict: str
    method: str
    reason: str | None = None
    checks: tuple[CertificateCheck, ...] = ()
    classes: tuple[ClassRow, ...] = ()

    @property
    def proven(self) -> bool:
        return self.verdict == PROVEN


def _not_applicable(method: str, reason: str) -> Certificate:
    return Certificate(NOT_APPLICABLE, method, reason)


# ---------------------------------------------------------------------------
# pair classes


def classify_pair(L: np.ndarray, L2: np.ndarray, u: int, v: int,
                  n: int, d: int, lam: int) -> PairClass:
    """Classify a pair by its (L(u,v), L^2(u,v)) signature:

        W1 adjacent               (-1, -2d)
        W2 same side              ( 0, lambda)
        W3 opposite, nonadjacent  ( 0, 0)
        W0 diagonal

    Any other signature contradicts the incidence-graph structure and raises
    UnknownSignatureError.
    """
    if u == v:
        return PairClass("W0", (int(L[u, u]), int(L2[u, u])))
    sig = (int(L[u, v]), int(L2[u, v]))
    expected = {(-1, -2 * d): "W1", (0, lam): "W2", (0, 0): "W3"}
    tag = expected.get(sig)
    if tag is None:
        raise UnknownSignatureError(
            f"pair ({u},{v}) has signature {sig}; not an incidence graph of a "
            f"symmetric design with (n,d,lambda)=({n},{d},{lam})")
    return PairClass(tag, sig)


def _pair_classes(L: np.ndarray, L2: np.ndarray, es: Eigensystem
                  ) -> list[tuple[str, tuple, DeltaSet, list[Pair]]]:
    """(tag, signature, DeltaSet, pairs) per class of the ordered pairs
    u != v of the integer Laplacian L (with L2 = L @ L) of a connected graph
    with four distinct eigenvalues, decomposed by `es`.  The pairs are grouped
    by their (L(u,u), L(v,v), L(u,v), L^2(u,v)) signature and the groups are
    tagged S1, S2, ... in sorted signature order.  `delta_set` runs once per
    class, on its first pair, with the projectors of `es` (exact or float).

    On such a graph the signature fixes the DeltaSet.  With eigenvalues
    sigma_0 = 0 < sigma_1, sigma_2, sigma_3 and P_0 = J/n, the rows
    sum_{i>=1} P_i = I - J/n and L^k = sum_{i>=1} sigma_i^k P_i (k = 1, 2)
    form an invertible (1, sigma, sigma^2) Vandermonde system, so
    (L(u,u), L^2(u,u)) fixes x_i = P_i(u,u) and (L(u,v), L^2(u,v)) fixes
    y_i = P_i(u,v), and the DeltaSet is a function of x and y.  On a simple
    graph L^2(u,u) = L(u,u)^2 + L(u,u), so the signature gives all four."""
    us, vs = np.nonzero(~np.eye(es.n, dtype=bool))  # row-major pair order
    sigs = np.stack([L[us, us], L[vs, vs], L[us, vs], L2[us, vs]], axis=1)
    groups: dict[tuple, list[Pair]] = {}
    for sig, u, v in zip(sigs.tolist(), us.tolist(), vs.tolist()):
        groups.setdefault(tuple(sig), []).append((u, v))
    projectors = [grp.projector for grp in es.groups[1:]]
    return [(f"S{idx}", sig, delta_set(projectors, *groups[sig][0]), groups[sig])
            for idx, sig in enumerate(sorted(groups), start=1)]


# ---------------------------------------------------------------------------
# the bipartite certificate


def _sign_str(x: QuadValue) -> str:
    return f"{x} ~ {float(x):+.6g}"


def certificate_bipartite(g: Graph,
                          es: Eigensystem | None = None) -> Certificate:
    """Run the exact MNHD certificate for a connected regular bipartite graph
    with four distinct Laplacian eigenvalues, on its exact eigensystem `es`
    and the Laplacian `es.matrix` it decomposes (both built here when `es`
    is not given).  Returns NotApplicable when the structural preconditions
    fail; otherwise performs every check in exact arithmetic and returns
    ProvenMNHD only if all of them hold."""
    method = "bipartite-certificate"
    f = facts(g)
    if not f.connected:
        return _not_applicable(method, "graph is not connected")
    if f.regular_degree is None:
        return _not_applicable(method, "graph is not regular")
    if f.bipartition is None:
        return _not_applicable(method, "graph is not bipartite")
    L = laplacian(g) if es is None else es.matrix
    if es is None:
        try:
            es = exact_eigensystem(L)
        except NotFourEigenvaluesError:
            count = len(jacobi_eigendecompose(L).groups)
            return _not_applicable(method, (
                f"{count} distinct Laplacian eigenvalues, need four"
                if count < 4 else "more than four distinct Laplacian eigenvalues"))

    n, d = g.n, f.regular_degree
    checks: list[CertificateCheck] = []

    def record(name: str, passed: bool, witness: str) -> bool:
        checks.append(CertificateCheck(name, witness, bool(passed)))
        return bool(passed)

    lam_frac, feasible = lambda_from_n_d(n, d)
    ok = record("lambda_integral", feasible,
                f"lambda = 2d(d-1)/(n-2) = {lam_frac}")
    if not ok:
        return Certificate(FAILED, method, "lambda is not a positive integer",
                           tuple(checks))
    lam = int(lam_frac)
    record("d_minus_lambda_at_least_1", d - lam >= 1, f"d - lambda = {d - lam}")
    if d - lam < 1:
        return Certificate(FAILED, method, "d - lambda < 1", tuple(checks))

    L2 = int_matmul(L, L)
    fs, P1, P2, P3 = closed_form_projectors(L, L2, n, d, lam)
    lam1, lam2, lam3 = fs.nonzero()
    c1, c2, c3 = fs.constants()

    sigma = es.values()
    spectrum_ok = record(
        "spectrum_matches_design_form", sigma == [fs.lam0, lam1, lam2, lam3],
        f"spectrum {{{', '.join(map(str, sigma))}}}, design form "
        f"{{0, {lam1}, {lam2}, {lam3}}}")

    record("constants_sign_pattern",
           c1.sign() > 0 and c3.sign() > 0 and c2.sign() < 0,
           f"C1={_sign_str(c1)}, C2={_sign_str(c2)}, C3={_sign_str(c3)}")
    record("constants_product_identity", c2 == -(lam2 * lam2 * c1 * c3),
           "C2 = -lam2^2 C1 C3")
    q = d * d - d + lam  # lam1*lam2
    record("order_identity", QuadValue(q) == QuadValue(Fraction(n * lam, 2)),
           f"d^2 - d + lambda = {q} = n*lambda/2")

    # projector algebra on the engine's Lagrange projectors, all exact
    projs = [grp.projector for grp in es.groups]
    record("closed_form_equals_lagrange", projs[1:] == [P1, P2, P3],
           "quadratic closed form reproduces the Lagrange projectors")
    m = projs[0].m
    p0_ok = record(
        "closed_form_p0",
        projs[0] == QuadMatrix.constant(n, QuadValue(Fraction(1, n)), m),
        "P0 = J/n")
    resolution_ok = record(
        "projector_resolution",
        (projs[0] + projs[1] + projs[2] + projs[3]
         - QuadMatrix.identity(n, m)).is_zero(), "P0+P1+P2+P3 = I")
    ortho = all((projs[i] @ projs[j]).is_zero()
                for i in range(4) for j in range(4) if i != j)
    ortho_ok = record("projector_orthogonality", ortho, "Pi Pj = 0 for i != j")
    idem = all(((P @ P) - P).is_zero() for P in projs)
    idem_ok = record("projector_idempotent", idem, "Pi^2 = Pi")
    recon = (projs[1].scale(sigma[1]) + projs[2].scale(sigma[2])
             + projs[3].scale(sigma[3]))
    recon_ok = record("laplacian_reconstruction",
                      (recon - QuadMatrix.from_int(L, m)).is_zero(),
                      "lam1 P1 + lam2 P2 + lam3 P3 = L")
    v_half = n // 2
    mults = tuple(grp.multiplicity for grp in es.groups[1:])
    record("multiplicity_pattern", mults == (v_half - 1, v_half - 1, 1),
           f"multiplicities (1, {mults[0]}, {mults[1]}, {mults[2]})")

    # the template's pair classes, named W1/W2/W3 by their (L, L^2)
    # signature; UnknownSignatureError propagates
    rows: list[ClassRow] = []
    for _, _, ds, members in _pair_classes(L, L2, es):
        pc = classify_pair(L, L2, *members[0], n, d, lam)
        rows.append(ClassRow(pc.tag, pc.signature, len(members), ds))
    rows.sort(key=lambda row: row.tag)
    counts = {row.tag: row.count for row in rows}
    record("pair_classification_complete",
           sum(counts.values()) == n * (n - 1),
           f"counts W1={counts['W1']}, W2={counts['W2']}, W3={counts['W3']}")
    # the signature fixes a pair's Delta set (see _pair_classes) when these
    # checks hold: four distinct sigma with sigma_0 = 0, P0 = J/n, a
    # resolution of I into orthogonal idempotents, and L = sum sigma_i P_i
    record("class_constancy_spot_check",
           spectrum_ok and p0_ok and resolution_ok and ortho_ok and idem_ok
           and recon_ok, "one Delta set per class over all of its pairs")
    deltas = {row.tag: row.deltas for row in rows}

    inv_n = QuadValue(Fraction(1, n))

    def nonneg(*values: QuadValue) -> bool:
        return all(x.sign() >= 0 for x in values)

    # W1: every term of the h expansion is nonnegative
    w1 = deltas["W1"]
    record("w1_delta_signs", nonneg(w1.d1, w1.d2, w1.d3),
           f"D1={_sign_str(w1.d1)}, D2={_sign_str(w1.d2)}, D3={_sign_str(w1.d3)}")
    record("w1_cross_delta_signs", nonneg(w1.d12, w1.d13, w1.d23),
           f"D12={_sign_str(w1.d12)}, D13={_sign_str(w1.d13)}, D23={_sign_str(w1.d23)}")
    gaps = (lam2 - lam1, lam3 - lam1, lam3 - lam2)
    record("w1_eigenvalue_gaps_positive", all(x.sign() > 0 for x in gaps),
           f"lam2-lam1={gaps[0]}, lam3-lam1={gaps[1]}, lam3-lam2={gaps[2]}")
    record("w1_derivative_at_zero", _h0(fs, w1, n) == QuadValue(1),
           "h(0) = -L(u,v) = 1")

    # W2: D12 = 0; both exponential pairings a1 e^(at) + a2 e^(-at) are
    # nondecreasing because a1 >= 0 >= a2
    w2 = deltas["W2"]
    record("w2_delta_signs", nonneg(w2.d1, w2.d2) and w2.d3 == 0,
           f"D1={_sign_str(w2.d1)}, D2={_sign_str(w2.d2)}, D3={w2.d3}")
    record("w2_delta12_zero", w2.d12 == 0, f"D12={w2.d12}")
    record("w2_cross_delta_signs", w2.d13.sign() <= 0 and w2.d23.sign() <= 0,
           f"D13={_sign_str(w2.d13)}, D23={_sign_str(w2.d23)}")
    pairing1 = (inv_n * w2.d2).sign() >= 0 and w2.d13.sign() <= 0
    pairing2 = (inv_n * w2.d1).sign() >= 0 and w2.d23.sign() <= 0
    record("w2_exponential_pairings", pairing1 and pairing2,
           f"(1/n)D2={_sign_str(inv_n * w2.d2)} vs D13={_sign_str(w2.d13)}; "
           f"(1/n)D1={_sign_str(inv_n * w2.d1)} vs D23={_sign_str(w2.d23)}")
    record("w2_derivative_at_zero", _h0(fs, w2, n) == QuadValue(0),
           "h(0) = -L(u,v) = 0")

    # W3: exact cancellations make both pairings a1 e^(at) + a2 e^(-at) with
    # a1 = a2 >= 0, again nondecreasing; the leftover constant term needs no
    # sign condition and is recorded for reference
    w3 = deltas["W3"]
    record("w3_delta_signs", nonneg(w3.d1, w3.d2, w3.d3),
           f"D1={_sign_str(w3.d1)}, D2={_sign_str(w3.d2)}, D3={_sign_str(w3.d3)}")
    record("w3_cross_delta_signs",
           w3.d12.sign() <= 0 and nonneg(w3.d13, w3.d23),
           f"D12={_sign_str(w3.d12)}, D13={_sign_str(w3.d13)}, D23={_sign_str(w3.d23)}")
    const_term = lam3 * inv_n * w3.d3 + (lam2 - lam1) * w3.d12
    record("w3_cancellation_1", inv_n * w3.d2 - w3.d13 == QuadValue(0),
           f"(1/n)D2 - D13 = 0; transform constant term = {const_term} "
           f"~ {float(const_term):+.6g}")
    record("w3_cancellation_2", inv_n * w3.d1 - w3.d23 == QuadValue(0),
           "(1/n)D1 - D23 = 0")
    record("w3_derivative_at_zero", _h0(fs, w3, n) == QuadValue(0),
           "h(0) = -L(u,v) = 0")

    verdict, reason = _verdict(checks)
    return Certificate(verdict, method, reason, tuple(checks), tuple(rows))


def _verdict(checks: list[CertificateCheck]) -> tuple[str, str | None]:
    """ProvenMNHD when every check passed, else the failed checks' names."""
    failed = [c.name for c in checks if not c.passed]
    return (FAILED, "; ".join(failed)) if failed else (PROVEN, None)


def _h0(fs: FourSpectrum, ds: DeltaSet, n: int) -> QuadValue:
    return sum(h_terms_exact(fs, ds, n).values(), QuadValue(0))


# ---------------------------------------------------------------------------
# generalized exact template


def _template_row(lam3: QuadValue, terms: dict[QuadValue, QuadValue],
                  h0: QuadValue, sig: tuple) -> tuple[bool, str | None, str]:
    """Certify one class row from the exponential terms of its h.  Route 1:
    every merged exponential coefficient of h is nonnegative, so h >= 0
    termwise.  Route 2: after multiplying by e^{lam3 t}, no growing
    exponential has a negative coefficient and the growing terms' derivative
    budget dominates the decaying positive terms', so the product is
    nondecreasing from h(0) >= 0."""
    if all(c.sign() >= 0 for c in terms.values()):
        return True, "nonnegative-coefficients", "all h coefficients >= 0"
    zero = QuadValue(0)
    budget, cost = zero, zero
    for rate, coeff in terms.items():
        mu = lam3 - rate
        if mu.sign() > 0:
            if coeff.sign() < 0:
                return False, None, (f"growing term with negative coefficient "
                                     f"{coeff} at rate {rate}")
            budget = budget + coeff * mu
        elif mu.sign() < 0 and coeff.sign() > 0:
            cost = cost + coeff * (-mu)
    if h0.sign() < 0:
        return False, None, f"h(0) = {h0} < 0"
    if (budget - cost).sign() >= 0:
        return True, "transform-budget", (
            f"e^(lam3 t) transform nondecreasing: budget {budget} >= cost {cost}, "
            f"h(0) = {h0} >= 0")
    return False, None, f"budget {budget} < cost {cost} for signature {sig}"


def delta_sign_analysis(g: Graph,
                        es: Eigensystem | None = None) -> Certificate:
    """Certify each pair class of a connected four-eigenvalue graph with the
    exponential-sign template, from exact DeltaSets of the exact eigensystem
    `es` and its Laplacian `es.matrix` (both built here when `es` is not
    given); method delta-sign-template.  Falls back to the float table of
    `_numeric_delta_table` when the eigenvalues are not quadratic."""
    method = "delta-sign-template"
    if not facts(g).connected:
        return _not_applicable(method, "graph is not connected")
    L = laplacian(g) if es is None else es.matrix
    if es is None:
        try:
            es = exact_eigensystem(L)
        except NonQuadraticEigenvaluesError as exc:
            return _numeric_delta_table(L, jacobi_eigendecompose(L), str(exc))
        # NotFourEigenvaluesError propagates: the template needs four

    fs = FourSpectrum.from_eigenvalues(*es.values()[1:])
    rows: list[ClassRow] = []
    checks: list[CertificateCheck] = []
    n = g.n
    for tag, sig, ds, members in _pair_classes(L, int_matmul(L, L), es):
        deltas_ok = all(x.sign() >= 0 for x in (ds.d1, ds.d2, ds.d3))
        checks.append(CertificateCheck(
            f"{tag}_delta_nonneg", f"D1={ds.d1}, D2={ds.d2}, D3={ds.d3}",
            deltas_ok))
        terms = h_terms_exact(fs, ds, n)
        h0 = sum(terms.values(), QuadValue(0))
        proven, route, detail = _template_row(fs.lam3, terms, h0, sig)
        checks.append(CertificateCheck(f"{tag}_monotone_template", detail,
                                       proven))
        checks.append(CertificateCheck(
            f"{tag}_derivative_at_zero", f"h(0) = {h0} = -L(u,v)",
            h0 == QuadValue(-sig[2])))
        rows.append(ClassRow(tag, sig, len(members), ds,
                             proven and deltas_ok, route))
    verdict, reason = _verdict(checks)
    return Certificate(verdict, method, reason, tuple(checks), tuple(rows))


def _numeric_delta_table(L: np.ndarray, es: Eigensystem,
                         why: str) -> Certificate:
    """Float DeltaSets per pair class of the integer Laplacian L from its
    Jacobi eigensystem `es`, tagged as the template tags them; method
    numeric-delta-table, verdict NumericOnly."""
    if len(es.groups) != 4:
        raise NotFourEigenvaluesError(
            f"{len(es.groups)} distinct eigenvalues, need 4")
    rows = [ClassRow(tag, sig, len(pairs), ds) for tag, sig, ds, pairs in
            _pair_classes(L, int_matmul(L, L), es)]
    return Certificate(NUMERIC_ONLY, "numeric-delta-table",
                       f"not proven: {why}; float table is evidence only",
                       classes=tuple(rows))


# ---------------------------------------------------------------------------
# numeric check


@dataclass(frozen=True)
class NumericVerdict:
    min_diff: float
    worst_pair: tuple[int, int]
    worst_t: float
    tolerance: float
    verdict: str

    @property
    def passed(self) -> bool:
        return self.verdict == "PassesAtTolerance"


def numeric_check(g: Graph, grid: Sequence[float] | None = None,
                  tol: float = 1e-9, es: Eigensystem | None = None) -> NumericVerdict:
    """Forward differences of r_t over the grid for every ordered pair; the
    verdict is evidence about MNHD, not a proof.  H_t streams in one slice per
    time, so only the previous ratio matrix and the running minimum are kept.
    Ties go to the earliest step, then to the first pair in row-major order.
    The grid must hold at least two finite, nonnegative, strictly increasing
    times, and `tol` must be finite and nonnegative."""
    if not (np.isfinite(tol) and tol >= 0):
        raise InvalidParameterError(
            f"tolerance must be finite and nonnegative, got {tol}")
    if es is None:
        es = jacobi_eigendecompose(laplacian(g))
    if grid is None:
        grid = default_time_grid(es)
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 2:
        raise ShortGridError(f"need at least two times, got {len(grid)}")
    slices = heat_slices(es, grid)  # rejects negative and non-finite times
    if (np.diff(grid) <= 0).any():
        raise InvalidParameterError("grid times must be strictly increasing")
    min_diff, worst_idx, worst_t = np.inf, 0, grid[1]
    prev = None
    for t, H in zip(grid, slices):
        R = H / np.diagonal(H)[:, None]
        if prev is not None:
            diff = R - prev
            np.fill_diagonal(diff, np.inf)
            idx = int(np.argmin(diff))
            if diff.flat[idx] < min_diff:
                min_diff, worst_idx, worst_t = diff.flat[idx], idx, t
        prev = R
    u, v = divmod(worst_idx, g.n)
    verdict = "PassesAtTolerance" if min_diff >= -tol else "ViolatedAt"
    return NumericVerdict(float(min_diff), (u, v), float(worst_t), tol, verdict)


# ---------------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    multiplicity: int
    exact: QuadValue | None = None


@dataclass(frozen=True)
class MnhdReport:
    graph_n: int
    graph_m: int
    regular_degree: int | None
    bipartite: bool
    spectrum: tuple[SpectrumEntry, ...]
    van_dam_case: VanDamCase | None
    certificate: Certificate
    numeric: NumericVerdict

    def to_dict(self) -> dict:
        def delta_value(x):
            return x.json_dict() if isinstance(x, QuadValue) else float(x)

        classes = []
        for row in self.certificate.classes:
            entry = {
                "tag": row.tag,
                "signature": list(row.signature),
                "deltas": {name: delta_value(x) for name, x in
                           zip(("d1", "d2", "d3", "d12", "d13", "d23"),
                               row.deltas.as_tuple())},
                "count": row.count,
            }
            if row.proven is not None:
                entry["proven"] = row.proven
                entry["route"] = row.route
            classes.append(entry)
        return {
            "graph": {
                "n": self.graph_n,
                "m": self.graph_m,
                "regular": self.regular_degree,
                "bipartite": self.bipartite,
            },
            "spectrum": [
                {"value": e.value, "multiplicity": e.multiplicity,
                 "exact": e.exact.json_dict() if e.exact is not None else None}
                for e in self.spectrum
            ],
            "vanDamCase": self.van_dam_case.value if self.van_dam_case else None,
            "classes": classes,
            "certificate": {
                "method": self.certificate.method,
                "verdict": self.certificate.verdict,
                "reason": self.certificate.reason,
                "checks": [{"name": c.name, "witness": c.witness,
                            "pass": c.passed} for c in self.certificate.checks],
            },
            "numeric": {
                "minDiff": self.numeric.min_diff,
                "worstPair": list(self.numeric.worst_pair),
                "worstT": self.numeric.worst_t,
                "tolerance": self.numeric.tolerance,
                "verdict": self.numeric.verdict,
            },
        }


REPORT_SCHEMA = {
    "type": "object",
    "required": ["graph", "spectrum", "vanDamCase", "classes", "certificate",
                 "numeric"],
    "properties": {
        "graph": {
            "type": "object",
            "required": ["n", "m", "regular", "bipartite"],
            "properties": {
                "n": {"type": "integer", "minimum": 2},
                "m": {"type": "integer", "minimum": 0},
                "regular": {"type": ["integer", "null"]},
                "bipartite": {"type": "boolean"},
            },
        },
        "spectrum": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["value", "multiplicity"],
                "properties": {
                    "value": {"type": "number"},
                    "multiplicity": {"type": "integer", "minimum": 1},
                    "exact": {"type": ["object", "null"]},
                },
            },
        },
        "vanDamCase": {"enum": ["I", "II", "III", None]},
        "classes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["tag", "signature", "deltas"],
            },
        },
        "certificate": {
            "type": "object",
            "required": ["verdict", "checks"],
            "properties": {
                "verdict": {"type": "string"},
                "checks": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["name", "witness", "pass"],
                    },
                },
            },
        },
        "numeric": {
            "type": "object",
            "required": ["minDiff", "worstPair", "worstT", "verdict"],
        },
    },
}


def analyze(g: Graph) -> MnhdReport:
    """Full pipeline: facts, numeric spectrum, classification when it applies,
    the strongest applicable exact route, and the numeric cross-check.  L and
    each eigensystem are built once; the exact eigensystem, which carries L,
    is handed to the route that runs."""
    f = facts(g)
    L = laplacian(g)
    es = jacobi_eigendecompose(L)

    exact: Eigensystem | None = None
    cubic: str | None = None
    if f.connected and len(es.groups) == 4:
        try:
            exact = exact_eigensystem(L)
        except NonQuadraticEigenvaluesError as exc:
            cubic = str(exc)
        # NotFourEigenvaluesError propagates: the Jacobi grouping merged two
        # distinct eigenvalues, and no route can run
    exact_values = [None] * len(es.groups) if exact is None else exact.values()
    spectrum = tuple(
        SpectrumEntry(float(grp.value), grp.multiplicity, value)
        for grp, value in zip(es.groups, exact_values))

    van_dam = None
    if f.regular_degree is not None and len(es.groups) == 4:
        entries = [(grp.value if value is None else value, grp.multiplicity)
                   for grp, value in zip(es.groups, exact_values)]
        try:
            van_dam = classify_spectrum(entries, g.n, f.regular_degree)
        except NoCaseMatchesError:
            van_dam = None

    if not f.connected:
        certificate = _not_applicable("none", "graph is not connected")
    elif len(es.groups) != 4:
        certificate = _not_applicable(
            "none", f"{len(es.groups)} distinct Laplacian eigenvalues, need four")
    elif f.regular_degree is not None and f.bipartition is not None:
        certificate = certificate_bipartite(g, exact)
    elif cubic is None:
        certificate = delta_sign_analysis(g, exact)
    else:
        certificate = _numeric_delta_table(L, es, cubic)

    numeric = numeric_check(g, es=es)
    return MnhdReport(g.n, g.m, f.regular_degree, f.bipartition is not None,
                      spectrum, van_dam, certificate, numeric)
