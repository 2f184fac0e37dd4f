"""Exception types shared across the package."""


class DegenerateAxisError(ValueError):
    """Raised when a dyad or chart quantity is requested on its singular set
    (cylinder axis rho=0, sphere origin r=0, polar axis theta in {0, pi})."""


class InvalidOrderError(ValueError):
    """Raised for Bessel orders outside the supported set
    (integers, and half-integers >= -1/2)."""


class InvalidLabelError(ValueError):
    """Raised when a mode label violates its constraints (e.g. l = 0)."""


class ResolutionError(RuntimeError):
    """Raised when a sampled grid does not resolve the function it carries
    (spectral tail above tolerance, or too few nodes for a stencil)."""


class StencilError(ValueError):
    """Raised when a finite-difference stencil does not fit on the grid."""


class AsymmetryError(ValueError):
    """Raised when an operator requiring an antisymmetric tensor receives a
    tensor with a symmetric part above tolerance."""
