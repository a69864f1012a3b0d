"""Exception types shared across the package."""


class CurlLabError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedRankError(CurlLabError, ValueError):
    """Operation applied to a field rank it is not defined for."""


class DegenerateMetricError(CurlLabError):
    """Metric failed the SPD check at some grid point.

    Carries the offending sample point and the smallest eigenvalue found.
    """

    def __init__(self, point, min_eigenvalue):
        self.point = tuple(float(p) for p in point)
        self.min_eigenvalue = float(min_eigenvalue)
        super().__init__(
            f"metric not positive definite at grid point {self.point}: "
            f"min eigenvalue {self.min_eigenvalue:.3e}"
        )


class NotContactError(CurlLabError):
    """A 1-form expected to be contact has vanishing defect on the grid."""


class HasZerosError(CurlLabError):
    """Vector field vanishes somewhere, so the Reeb construction does not apply.

    Callers should route such fields to fixed-point analysis instead.
    """

    def __init__(self, min_norm, zero_tol):
        self.min_norm = float(min_norm)
        self.zero_tol = float(zero_tol)
        super().__init__(
            f"field has (near-)zeros: min |u| = {self.min_norm:.3e} <= "
            f"tolerance {self.zero_tol:.3e}"
        )


class StiffnessError(CurlLabError):
    """An integration failed: the integrator stopped (a step size underflow
    among other causes) or the state left the finite range."""


class EigensolverError(CurlLabError):
    """An eigensolve cannot deliver its window.

    Every window is solved as an index bracket of the nonzero spectrum
    (`curlspec.eigenpairs`). This is raised when a count window asks for
    more pairs than the truncation has nonzero eigenvalues (4K for K half
    modes), or when a solve returns another number of pairs than its
    bracket holds, with diagnostics {window, expected, returned}. A
    Lanczos solve also raises it when the weight bounds prove another
    number of eigenvalues between 0 and a shift sigma, the middle of a
    gap between shells, than its rounds returned there ({sigma,
    expected, returned}), or when ARPACK does not converge;
    `CurlOperator.spectrum` then solves the bracket densely and keeps
    the diagnostics in `lanczos_fallbacks`.
    """

    def __init__(self, message, diagnostics=None):
        self.diagnostics = diagnostics or {}
        super().__init__(message)


class IncompatibleStructureError(CurlLabError):
    """Almost-complex structure incompatible with the 2-form it must tame."""


class FrameError(CurlLabError):
    """No admissible trivializing frame for the plane field along the orbit."""


class EnsembleAmplitudeError(CurlLabError):
    """Random metric ensemble kept producing non-SPD samples."""
