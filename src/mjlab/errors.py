"""Error hierarchy shared across the library.

Every failure mode that callers may want to distinguish gets its own class;
the CLI maps these onto exit codes.
"""


class MjlabError(Exception):
    """Base class for all library errors."""


class DomainError(MjlabError):
    """Argument outside the mathematical domain of an operation."""


class ZeroArgument(DomainError):
    """An argument that must be nonzero was zero."""


class HUndefined(DomainError):
    """The H-kernel was requested at w = 0 for k >= 3/2, where its integral
    diverges."""


class StencilOutOfDomain(MjlabError):
    """A finite-difference stencil point left the upper half plane (y <= 0)."""


class NonFinite(MjlabError):
    """A sampled value was nan or inf, usually signalling proximity to a pole."""


class JetUnavailable(MjlabError):
    """Derivatives of the requested order cannot be produced at this point."""


class ValueOverflow(MjlabError, OverflowError):
    """A value or a Taylor coefficient exceeds the floating-point range."""


class TruncationOverflow(MjlabError):
    """The truncation radius needed to hit the tail target exceeds the cap."""

    def __init__(self, needed, cap, message=None):
        self.needed = needed
        self.cap = cap
        super().__init__(
            message
            or "truncation radius %s exceeds cap %s" % (needed, cap)
        )


class EvaluationAtPole(MjlabError):
    """Evaluation was requested at (or numerically on top of) a pole."""


class PoleAtTheta(EvaluationAtPole):
    """The theta function in a denominator vanishes at the requested point."""


class PoleAtAppell(EvaluationAtPole):
    """An Appell-sum denominator 1 - e^(2 pi i z1) q^|n| vanishes."""


class NotThetaDecomposable(MjlabError):
    """Fourier data violates the class-function property required for theta decomposition."""
