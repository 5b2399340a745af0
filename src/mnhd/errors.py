"""Exception hierarchy. Everything raised by this package derives from MnhdError."""


class MnhdError(Exception):
    pass


class GraphInputError(MnhdError, ValueError):
    """Invalid graph construction: bad index, self-loop, duplicate edge, or n < 2."""


class FileFormatError(MnhdError, ValueError):
    """Malformed edge-list or design file."""


class DesignError(MnhdError, ValueError):
    pass


class NotUniformError(DesignError):
    """Block sizes differ."""


class ReplicationVariesError(DesignError):
    """Point replication counts differ."""


class NotBalancedError(DesignError):
    """Pair coverage counts differ."""


class DegenerateDesignError(DesignError):
    """Degenerate family: uncovered pairs (lambda = 0) or complete blocks (d = v)."""


class DegenerateParamsError(MnhdError, ValueError):
    """Symmetric design parameters with d <= lambda have no four-eigenvalue spectrum."""


class MixedRadicandsError(MnhdError, ArithmeticError):
    """Arithmetic attempted between values over different square roots."""


class NonSymmetricError(MnhdError, ValueError):
    """A matrix that is not square, or not symmetric."""


class NoConvergenceError(MnhdError, ArithmeticError):
    """Jacobi sweeps exhausted before reaching the requested tolerance."""


class AmbiguousGapError(MnhdError, ArithmeticError):
    """An eigenvalue gap falls between tol and 10*tol; tighten the tolerance."""


class RepeatedEigenvalueError(MnhdError, ValueError):
    pass


class NegativeTimeError(MnhdError, ValueError):
    pass


class SameVertexError(MnhdError, ValueError):
    pass


class ShortGridError(MnhdError, ValueError):
    """A time grid with fewer than two times has no forward difference."""


class InvalidParameterError(MnhdError, ValueError):
    """A numeric argument outside its domain: a time that is not finite, a
    time grid that is not strictly increasing, a tolerance that is negative
    or not finite, fewer than one grid point, an empty matrix or one with
    an entry that is not finite, an eigenvalue list for `group_spectrum`
    that is not sorted, a negative radicand for `square_free_split` (which
    `QuadValue(0, 1, -3)` reaches), a matrix for `minimal_polynomial` (and
    so `exact_eigensystem`) that is not of integers, a nonsingular matrix
    for `exact_eigenvalues` (no Laplacian is one), or an exact route's
    eigensystem whose L is not the Laplacian of a simple graph (symmetric,
    off-diagonal entries 0 or -1, zero row sums)."""


class UnknownSignatureError(MnhdError):
    """A vertex pair whose (L, L^2) signature matches no expected class."""


class SignatureKeyOverflowError(MnhdError, OverflowError):
    """The ranges of the (L(u,u), L(v,v), L(u,v), L^2(u,v)) pair signatures
    multiply past the int64 bound, so they do not pack into one int64 key."""


class NotFourEigenvaluesError(MnhdError):
    """A minimal polynomial of degree other than four, from `exact_eigensystem`
    (or `minimal_polynomial` past max_degree); `analyze` makes it NotApplicable."""


class NonQuadraticEigenvaluesError(MnhdError):
    """Eigenvalues are not expressible as a + b*sqrt(m) over the rationals.
    Raised by `exact_eigensystem`, it carries in `powers` the powers
    I, L, L^2, L^3 of the Laplacian that the minimal polynomial built, and
    in `groups` its spectrum from that polynomial (float EigenGroups)."""

    powers: tuple = ()
    groups: tuple = ()


class NoCaseMatchesError(MnhdError):
    """Spectrum fits none of the three classification cases."""


class InvariantViolationError(MnhdError, ArithmeticError):
    """A mathematical identity that holds for every valid input failed: a
    minimal polynomial that is not monic and integral, multiplicities that are
    not integers summing to n, violated 2-design counting identities, or a
    heat-kernel diagonal entry below 1/n."""


class ExactEigensystemRequiredError(MnhdError, ValueError):
    """An exact-only computation was given a numeric eigensystem."""


class NumericEigensystemRequiredError(MnhdError, ValueError):
    """A float-only computation was given an exact eigensystem."""
