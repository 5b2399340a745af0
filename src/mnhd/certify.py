"""Deciding monotonic normalized heat diffusion (MNHD).

Three routes, in decreasing order of strength.  Each returns a Certificate.
The two exact ones share one engine: the graph's exact eigensystem, built
once by `analyze` and the only argument of both, and one grouping of the
ordered vertex pairs into classes by their (L, L^2) signature, read off the
integer Laplacian; on a connected four-eigenvalue graph it fixes a pair's
projector entries, which are read off the eigensystem's own Lagrange
polynomials and powers of L and kept on the class row, and so its h and its
Delta set: `h_terms_exact` and `delta_set` run once per class.  The
grouping sorts one packed int64 key per pair, and a class row keeps its pair
count, never a list of its pairs.
`analyze` builds facts, L and both eigensystems once; the exact one decides
"four eigenvalues" and Jacobi's count only names k in a refusal; then each
exact route in turn decides from the exact eigensystem if it applies.

* certificate_bipartite -- an exact certificate for connected regular
  bipartite graphs with four distinct Laplacian eigenvalues.  Such a graph is
  the incidence graph of a symmetric (n/2, d, lambda)-design, and the
  certificate is a design layer on the engine: it checks the projector
  algebra (closed form, resolution, orthogonality, idempotence,
  reconstruction) on the projectors' Lagrange polynomials modulo the minimal
  polynomial of L, so no route builds an n x n exact projector; it names
  the template's pair classes W1/W2/W3, derives from the projector checks
  that the Delta quantities are constant on all pairs of each class, and
  records every sign and cancellation condition that together force h >= 0.

* delta_sign_analysis -- a generalized exact template for any connected graph
  with four distinct eigenvalues in a quadratic field: per signature class,
  `_decide` tries two rules in order on the class's h, an ExpSum, and names
  the one that proves h >= 0: nonnegative-coefficients (every exponential
  coefficient of h is nonnegative) or transform-budget (e^{lam3 t} h(t) is
  nondecreasing: no growing term has a negative coefficient and the growing
  terms' derivative budget covers the decaying positive ones, and h(0) >= 0).
  The class row records that rule as its route.  For a connected
  four-eigenvalue graph whose eigenvalues are not quadratic (classification
  case III), `analyze` gives instead a float table over the same classes
  (method numeric-delta-table) that is labelled as evidence, never proof.

* numeric_check -- forward differences of r_t over a log time grid, for every
  ordered pair, on the graph's numeric eigensystem, its only input.  Evidence
  only; always run as cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from .designs import lambda_from_n_d
from .errors import (ExactEigensystemRequiredError, InvalidParameterError,
                     NoCaseMatchesError, NonQuadraticEigenvaluesError,
                     NotFourEigenvaluesError, ShortGridError,
                     SignatureKeyOverflowError, UnknownSignatureError)
from .graphs import Graph, facts, laplacian
from .heat import (DeltaSet, ExpSum, default_time_grid, delta_set,
                   h_terms_exact, heat_slices)
from .quadratic import INT64_BOUND, QuadValue, int_combination, poly_mul_mod
from .spectral import (Eigensystem, FourSpectrum, VanDamCase,
                       classify_spectrum, exact_eigensystem,
                       jacobi_eigendecompose, lagrange_coefficients,
                       projector_entries)
# Not called here (exact_eigensystem runs it); the benchmark's self-check
# (perfbench/run.py --selfcheck) wraps it in this namespace to test its tracer.
from .spectral import minimal_polynomial  # noqa: F401

PROVEN = "ProvenMNHD"
FAILED = "SignCheckFailed"
NOT_APPLICABLE = "NotApplicable"
NUMERIC_ONLY = "NumericOnly"


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
    entries: tuple[list, list]  # P_i(u,u), P_i(u,v) of the first pair
    proven: bool | None = None
    route: str | None = None


@dataclass(frozen=True)
class Certificate:
    verdict: str
    method: str
    reason: str | None = None
    checks: tuple[CertificateCheck, ...] = ()
    classes: tuple[ClassRow, ...] = ()


def _not_applicable(method: str, reason: str) -> Certificate:
    return Certificate(NOT_APPLICABLE, method, reason)


# ---------------------------------------------------------------------------
# pair classes


def _pair_classes(powers: Sequence[np.ndarray], basis: Sequence[Sequence]
                  ) -> list[ClassRow]:
    """One ClassRow (tag, signature, count, DeltaSet, entries) per class of
    the ordered pairs u != v of a connected four-eigenvalue graph by their
    (L(u,u), L(v,v), L(u,v), L^2(u,v)) signature, tagged S1, S2, ... in
    sorted order, from the powers I..L^3 of its integer Laplacian L and
    `basis`, one Lagrange polynomial per group, 0 first (exact or float).

    The grouping runs on arrays: each pair's signature is packed into one
    int64 key in mixed radix, every field offset by its minimum over the
    pairs with radix max - min + 1, so keys sort as the signature tuples do,
    and np.unique counts the keys and finds each one's first pair.  Working
    memory is a few n x n int64 arrays; a radix product past
    quadratic.INT64_BOUND raises SignatureKeyOverflowError.

    A class's `entries` (uu, uv), uu[i] = P_i(u,u) and uv[i] = P_i(u,v), are
    read off its first pair as P_i(x, y) = sum_j a_ij L^j(x, y), and its
    Delta set off the nonzero groups' entries.  The signature fixes them:
    L^2(u,u) = L(u,u)^2 + L(u,u), and on a connected graph a_0(L) = J/n for
    the polynomial a_0 of 0, whose leading coefficient is nonzero, so I, L,
    L^2 fix L^3 entrywise."""
    L, L2 = powers[1:3]
    n = len(L)
    off = ~np.eye(n, dtype=bool)  # boolean indexing keeps row-major order
    diag = np.diagonal(L)
    key = np.zeros(n * (n - 1), dtype=np.int64)
    radix = 1
    for field in (np.broadcast_to(diag[:, None], L.shape),
                  np.broadcast_to(diag, L.shape), L, L2):
        values = field[off]
        lo = int(values.min())
        span = int(values.max()) - lo + 1
        radix *= span
        if radix > INT64_BOUND:
            raise SignatureKeyOverflowError(
                f"pair signatures span {radix} keys, past the int64 bound "
                f"{INT64_BOUND}")
        values -= lo
        key *= span
        key += values.astype(np.int64, copy=False)
    del values  # freed before np.unique sorts a copy of the keys
    _, firsts, counts = np.unique(key, return_index=True, return_counts=True)
    classes = []
    for idx, (first, count) in enumerate(zip(firsts.tolist(), counts.tolist()),
                                         start=1):
        u, r = divmod(first, n - 1)  # first counts off-diagonal entries
        v = r + (r >= u)
        sig = (int(L[u, u]), int(L[v, v]), int(L[u, v]), int(L2[u, v]))
        uu, uv = (projector_entries(basis, powers, u, x) for x in (u, v))
        classes.append(ClassRow(f"S{idx}", sig, count,
                                delta_set(uu[1:], uv[1:]), (uu, uv)))
    return classes


# ---------------------------------------------------------------------------
# the bipartite certificate


def _sign_str(x: QuadValue) -> str:
    return f"{x} ~ {float(x):+.6g}"


def certificate_bipartite(es: Eigensystem) -> Certificate:
    """Run the exact MNHD certificate for a connected regular bipartite graph
    with four distinct Laplacian eigenvalues, on its exact eigensystem `es`
    (from `exact_eigensystem`, checked by `_exact_laplacian`), the powers of
    the Laplacian, the minimal polynomial mu and the Lagrange polynomials it
    keeps.  Returns NotApplicable when a structural precondition read off
    `es` fails (d-regular: L's diagonal is d; then bipartite: the largest
    eigenvalue is 2d); otherwise performs every check in exact arithmetic
    and returns ProvenMNHD only if all of them hold.

    The projector P_i is a_i(L), a_i the Lagrange polynomial of sigma_i
    (degree 3), and each projector identity is checked as an identity of
    polynomials modulo mu in Q(sqrt m)[x]: the closed form against a_i (with
    a_0 for J/n), sum a_i = 1, a_i a_j = 0 (i < j; the ring is commutative),
    a_i^2 = a_i and sum sigma_i a_i = x.  This is exact because
    `minimal_polynomial` proved mu(L) = 0 in integers and I, L, L^2, L^3
    independent (a nonzero Gram Schur complement): p(L) = (p mod mu)(L), and
    a polynomial of degree < 4 vanishes at L only when it is 0.  Only P0 =
    J/n is checked on a matrix, a_0(L) summed over the powers of L."""
    method = "bipartite-certificate"
    degrees = np.diagonal(_exact_laplacian(es, method))
    if es.groups[0].multiplicity != 1:
        return _not_applicable(method, "graph is not connected")
    n, d = es.n, int(degrees[0])
    if (degrees != d).any():
        return _not_applicable(method, "graph is not regular")
    if es.groups[-1].value != 2 * d:
        return _not_applicable(method, "graph is not bipartite")

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

    fs = FourSpectrum.from_design(n, d, lam)
    lam1, lam2, lam3 = fs.nonzero()
    c1, c2, c3 = fs.constants()

    sigma, design = es.values(), [fs.lam0, lam1, lam2, lam3]
    spectrum_ok = record(
        "spectrum_matches_design_form", sigma == design,
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

    # projector algebra on the Lagrange polynomials a_i of sigma, which the
    # eigensystem keeps, modulo the minimal polynomial mu of L (see the
    # docstring): P_i = a_i(L)
    coeffs = [list(a) for a in es.lagrange]
    # closed form c_i ((x - lam_j)(x - lam_k) - lam_j lam_k a_0): a_0 stands
    # for J/n, which closed_form_p0 checks
    others = [(lam2, lam3), (lam1, lam3), (lam1, lam2)]
    closed = [[c * (t - x * y * a) for t, a in zip((x * y, -(x + y), 1, 0),
                                                    coeffs[0])]
              for c, (x, y) in zip(fs.constants(), others)]
    record("closed_form_equals_lagrange", closed == coeffs[1:],
           "quadratic closed form reproduces the Lagrange projectors")
    p0_ok = record("closed_form_p0", _is_mean_projector(coeffs[0], es.powers, n),
                   "P0 = J/n")
    resolution_ok = record(
        "projector_resolution",
        [sum(col) for col in zip(*coeffs)] == [1, 0, 0, 0], "P0+P1+P2+P3 = I")
    ortho = all(not any(poly_mul_mod(a, b, es.mu))
                for a, b in combinations(coeffs, 2))
    ortho_ok = record("projector_orthogonality", ortho, "Pi Pj = 0 for i != j")
    idem = all(poly_mul_mod(a, a, es.mu) == a for a in coeffs)
    idem_ok = record("projector_idempotent", idem, "Pi^2 = Pi")
    recon = [sum(value * a[j] for value, a in zip(sigma[1:], coeffs[1:]))
             for j in range(4)]
    recon_ok = record("laplacian_reconstruction", recon == [0, 1, 0, 0],
                      "lam1 P1 + lam2 P2 + lam3 P3 = L")
    v_half = n // 2
    mults = tuple(grp.multiplicity for grp in es.groups[1:])
    record("multiplicity_pattern", mults == (v_half - 1, v_half - 1, 1),
           f"multiplicities (1, {mults[0]}, {mults[1]}, {mults[2]})")

    # the template's pair classes, named by their (L(u,v), L^2(u,v)): W1
    # adjacent, W2 same side, W3 opposite and nonadjacent
    names = {(-1, -2 * d): "W1", (0, lam): "W2", (0, 0): "W3"}
    rows: list[ClassRow] = []
    for row in _pair_classes(es.powers, es.lagrange):
        sig = row.signature[2:]
        if sig not in names:
            raise UnknownSignatureError(
                f"pair class with (L(u,v), L^2(u,v)) = {sig}: not an incidence "
                f"graph of a symmetric design with (n,d,lambda)=({n},{d},{lam})")
        rows.append(replace(row, tag=names[sig], signature=sig))
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
    h0 = {row.tag: h_terms_exact(design, *row.entries).at_zero()
          for row in rows}

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
    record("w1_derivative_at_zero", h0["W1"] == QuadValue(1),
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
    record("w2_derivative_at_zero", h0["W2"] == QuadValue(0),
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
    record("w3_derivative_at_zero", h0["W3"] == QuadValue(0),
           "h(0) = -L(u,v) = 0")

    verdict, reason = _verdict(checks)
    return Certificate(verdict, method, reason, tuple(checks), tuple(rows))


def _exact_laplacian(es: Eigensystem, method: str) -> np.ndarray:
    """L = es.powers[1], checked to be a simple graph's Laplacian (symmetric,
    off-diagonal entries 0 or -1, zero row sums; so 0 is its smallest
    eigenvalue, simple when the graph is connected).  A numeric `es` raises
    ExactEigensystemRequiredError, any other L InvalidParameterError: D L D,
    D = diag(1, -1, 1, ...), has L's spectrum but proves nothing."""
    if es.mode != "exact":
        raise ExactEigensystemRequiredError(f"{method} needs an exact eigensystem")
    L = es.powers[1]
    off = L[~np.eye(es.n, dtype=bool)]
    if not ((L == L.T).all() and ((off == 0) | (off == -1)).all()
            and not L.sum(axis=1).any()):
        raise InvalidParameterError(
            f"{method}: the eigensystem's matrix is not a graph Laplacian")
    return L


def _verdict(checks: list[CertificateCheck]) -> tuple[str, str | None]:
    """ProvenMNHD when every check passed, else the failed checks' names."""
    failed = [c.name for c in checks if not c.passed]
    return (FAILED, "; ".join(failed)) if failed else (PROVEN, None)


def _is_mean_projector(a0: Sequence[QuadValue], powers: Sequence[np.ndarray],
                       n: int) -> bool:
    """a0(L) = J/n, summed over the powers I, L, L^2, ... of L: one
    int_combination over the common denominator den of a0's coefficients,
    whose every entry must be den/n.  An irrational coefficient fails, the
    powers being independent."""
    if any(c.b for c in a0):
        return False
    den = math.lcm(*(c.a.denominator for c in a0))
    mean, rest = divmod(den, n)
    return rest == 0 and bool((int_combination(
        [int(c.a * den) for c in a0], powers) == mean).all())


# ---------------------------------------------------------------------------
# generalized exact template


class Decision(NamedTuple):  # rule None: neither rule proves the class
    rule: str | None
    witness: str


def _decide(h: ExpSum, lam3: QuadValue, sig: tuple) -> Decision:
    """nonnegative-coefficients when every coefficient of h is, else
    transform-budget when e^{lam3 t} h(t) is nondecreasing from h(0) >= 0
    (no growing term has a negative coefficient, and the growing terms'
    derivative budget covers the decaying positive ones'), else rule None,
    the witness naming the first offending term by rate."""
    if all(c.sign() >= 0 for _, c in h.terms):
        return Decision("nonnegative-coefficients", "all h coefficients >= 0")
    budget = cost = QuadValue(0)
    for rate, coeff in h.terms:
        mu = lam3 - rate
        if mu.sign() > 0:
            if coeff.sign() < 0:
                return Decision(None, f"growing term with negative coefficient "
                                      f"{coeff} at rate {rate}")
            budget = budget + coeff * mu
        elif mu.sign() < 0 and coeff.sign() > 0:
            cost = cost + coeff * (-mu)
    h0 = h.at_zero()
    if h0.sign() < 0:
        return Decision(None, f"h(0) = {h0} < 0")
    if (budget - cost).sign() >= 0:
        return Decision("transform-budget", (
            f"e^(lam3 t) transform nondecreasing: budget {budget} >= cost {cost}, "
            f"h(0) = {h0} >= 0"))
    return Decision(None, f"budget {budget} < cost {cost} for signature {sig}")


def delta_sign_analysis(es: Eigensystem) -> Certificate:
    """Certify each pair class of a connected four-eigenvalue graph with the
    exponential-sign template, on the h that `h_terms_exact` builds from the
    class's exact projector entries, read off its exact eigensystem `es`
    (checked by `_exact_laplacian`); method delta-sign-template."""
    method = "delta-sign-template"
    _exact_laplacian(es, method)
    if es.groups[0].multiplicity != 1:
        return _not_applicable(method, "graph is not connected")

    values = es.values()
    rows: list[ClassRow] = []
    checks: list[CertificateCheck] = []
    for row in _pair_classes(es.powers, es.lagrange):
        tag, ds = row.tag, row.deltas
        deltas_ok = all(x.sign() >= 0 for x in (ds.d1, ds.d2, ds.d3))
        checks.append(CertificateCheck(
            f"{tag}_delta_nonneg", f"D1={ds.d1}, D2={ds.d2}, D3={ds.d3}",
            deltas_ok))
        h = h_terms_exact(values, *row.entries)
        rule, witness = _decide(h, values[-1], row.signature)
        checks.append(CertificateCheck(f"{tag}_monotone_template", witness,
                                       rule is not None))
        h0 = h.at_zero()
        checks.append(CertificateCheck(
            f"{tag}_derivative_at_zero", f"h(0) = {h0} = -L(u,v)",
            h0 == QuadValue(-row.signature[2])))
        rows.append(replace(row, proven=rule is not None and deltas_ok,
                            route=rule))
    verdict, reason = _verdict(checks)
    return Certificate(verdict, method, reason, tuple(checks), tuple(rows))


def _numeric_delta_table(powers: Sequence[np.ndarray], es: Eigensystem,
                         why: str) -> Certificate:
    """Float DeltaSets per pair class of a connected graph, from the powers
    I, L, L^2, L^3 of its integer Laplacian and the float Lagrange basis
    over the four cluster means of its Jacobi eigensystem `es`, tagged as
    the template tags them; method numeric-delta-table, verdict NumericOnly."""
    rows = _pair_classes(powers, [lagrange_coefficients(es.values(), i)
                                  for i in range(4)])
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


def numeric_check(es: Eigensystem, grid: Sequence[float] | None = None,
                  tol: float = 1e-9) -> NumericVerdict:
    """Forward differences of r_t over the grid for every ordered pair; the
    verdict is evidence about MNHD, not a proof.  H_t streams in one slice per
    time from the numeric eigensystem `es` of the graph's Laplacian (from
    `jacobi_eigendecompose`), so only the previous ratio matrix, its rounding
    bound and the running minimum are kept.
    A difference within n eps sqrt(H_t(v,v) / H_t(u,u)), the rounding bound of
    R_t(u,v) (Cauchy-Schwarz on H_t(u,v)), is a tie at 0, not a violation.
    Ties go to the earliest step, then to the first pair in row-major order.
    The grid must hold at least two finite, nonnegative, strictly increasing
    times, and `tol` must be finite and nonnegative."""
    if not (np.isfinite(tol) and tol >= 0):
        raise InvalidParameterError(
            f"tolerance must be finite and nonnegative, got {tol}")
    if grid is None:
        grid = default_time_grid(es)
    grid = np.asarray(grid, dtype=float)
    if len(grid) < 2:
        raise ShortGridError(f"need at least two times, got {len(grid)}")
    slices = heat_slices(es, grid)  # rejects exact es, bad times
    if (np.diff(grid) <= 0).any():
        raise InvalidParameterError("grid times must be strictly increasing")
    min_diff, worst_idx, worst_t = np.inf, 0, grid[1]
    rounding = es.n * np.finfo(np.float64).eps
    prev = prev_noise = None
    for t, H in zip(grid, slices):
        R = H / np.diagonal(H)[:, None]
        noise = rounding * np.sqrt(np.diagonal(H) / np.diagonal(H)[:, None])
        if prev is not None:
            diff = R - prev
            diff[np.abs(diff) <= np.maximum(noise, prev_noise)] = 0.0
            np.fill_diagonal(diff, np.inf)
            idx = int(np.argmin(diff))
            if diff.flat[idx] < min_diff:
                min_diff, worst_idx, worst_t = diff.flat[idx], idx, t
        prev, prev_noise = R, noise
    u, v = divmod(worst_idx, es.n)
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
                "deltas": {name: delta_value(x)
                           for name, x in row.deltas.items()},
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
    """Full pipeline: facts, numeric spectrum, the exact routes, van Dam's
    case for a regular graph, and the numeric cross-check.  A disconnected
    graph is refused from its facts; for a connected one the exact
    eigensystem decides "four distinct eigenvalues" (a minimal polynomial of
    degree four), Jacobi's count only naming k in the refusal.  The routes
    run in order on it and the first verdict that is not NotApplicable is
    kept; the spectrum and van Dam's case are its exact groups.  On cubic
    eigenvalues the float table takes NonQuadraticEigenvaluesError's powers,
    and the spectrum and van Dam's case are the Jacobi clusters."""
    f = facts(g)
    L = laplacian(g)
    es = jacobi_eigendecompose(L)

    groups, four, van_dam = es.groups, (), None  # four: van Dam's input
    if not f.connected:
        certificate = _not_applicable("none", "graph is not connected")
    else:
        try:
            exact = exact_eigensystem(L)
        except NotFourEigenvaluesError:
            certificate = _not_applicable(
                "none", f"{len(es.groups)} distinct Laplacian eigenvalues, need four")
        except NonQuadraticEigenvaluesError as exc:
            certificate = _numeric_delta_table(exc.powers, es, str(exc))
            four = es.groups
        else:
            for route in (certificate_bipartite, delta_sign_analysis):
                certificate = route(exact)
                if certificate.verdict != NOT_APPLICABLE:
                    break
            groups = four = exact.groups
            del exact  # its powers of L are freed before the numeric check
    if four and f.regular_degree is not None:
        try:
            van_dam = classify_spectrum(
                [(grp.value, grp.multiplicity) for grp in four],
                g.n, f.regular_degree)
        except NoCaseMatchesError:
            pass
    spectrum = tuple(
        SpectrumEntry(float(grp.value), grp.multiplicity,
                      grp.value if isinstance(grp.value, QuadValue) else None)
        for grp in groups)

    del L
    numeric = numeric_check(es)
    return MnhdReport(g.n, g.m, f.regular_degree, f.bipartition is not None,
                      spectrum, van_dam, certificate, numeric)
