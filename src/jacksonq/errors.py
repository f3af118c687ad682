"""Exception hierarchy for the jacksonq package."""


class JacksonQError(Exception):
    """Base class for all jacksonq errors."""


class DomainError(JacksonQError):
    """Operation requested outside its q-regime or argument domain."""


class DivisorSingular(JacksonQError):
    """Series division by a series with vanishing constant term."""


class OutsideSafeRadius(JacksonQError):
    """Series evaluation beyond the certified truncation-tail radius."""


class OriginSingular(JacksonQError):
    """Pointwise Jackson difference requested at z = 0."""


class OutsideDomain(JacksonQError):
    """Pointwise residual requested at the origin or numerically at a
    pole of the equation's coefficients."""


class NonconvergentSample(JacksonQError):
    """Jackson-integral orbit samples grow instead of converging."""


class DenominatorPochhammerZero(JacksonQError):
    """A lower hypergeometric parameter hits q^{-m}, zeroing a denominator."""


class CoefficientPoleAtOrigin(JacksonQError):
    """Equation coefficient has a pole at the origin; no series expansion."""


class BracketUnderflow(JacksonQError):
    """A q-bracket [n]_q fell below the root-of-unity guard tolerance."""


class BracketOverflow(JacksonQError):
    """A product of q-brackets [n]_q left double range (|q|^n overflowed)."""


class PoleOnCircle(JacksonQError):
    """A quadrature node landed on (or numerically at) a pole."""


class TargetUnsupported(JacksonQError):
    """Counting function requested for a target the model cannot resolve."""


class RootFindingFailed(JacksonQError):
    """Polynomial root extraction did not converge or returned garbage."""


class MultiplicityAmbiguous(JacksonQError):
    """Root clusters sit at the edge of the merging tolerance."""


class InsufficientGrid(JacksonQError):
    """Radial grid too small or degenerate for the requested estimator."""


class TruncationTooShort(JacksonQError):
    """Stored series too short for the requested radius (central index

    would not be interior)."""


class MaxModulusAmbiguous(JacksonQError):
    """Two max-modulus candidates disagree on the quantity being measured."""


class RegimeMismatch(DomainError):
    """Function form requested in the wrong |q| regime."""


class SchemaError(JacksonQError):
    """Problem/model file does not match its JSON schema."""


class ConditioningWarning(UserWarning):
    """A solver denominator is tiny but above the hard guard."""


class FormalRegimeWarning(UserWarning):
    """Series solution emitted in a regime where it may be only formal."""
