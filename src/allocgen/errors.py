"""Exception and warning types shared across the engine."""


class AllocationError(Exception):
    """Base class for all engine errors."""


class InvalidPMF(AllocationError):
    """Mass vector is empty, has a significantly negative entry, or exceeds unit mass."""


class InvalidSize(AllocationError):
    """Buffer length is not a power of two."""


class KatzDomain(AllocationError):
    """Count-family parameters outside the |a| < 1 domain."""


class SeriesTruncation(AllocationError):
    """Convolution series did not converge within the term budget."""


class EmptyDistribution(AllocationError):
    """A probability vector with no usable mass was produced or requested."""


class InvalidLayer(AllocationError):
    """Layer bounds are not strictly increasing within the grid."""


class OracleBudget(AllocationError):
    """Joint support too large (or not finitely enumerable) for direct enumeration."""


class UnknownNode(AllocationError):
    """Shock-tree node label outside the three-level binary tree."""


class InvalidMixture(AllocationError):
    """Gamma-mixture dependence parameter outside [0, min(r1, r2)]."""


class InvalidFrailty(AllocationError):
    """Frailty mixing parameter outside [0, 1)."""


class InvalidMarginal(AllocationError):
    """Margins a frailty pool cannot take: not all Bernoulli risks, or more support than kmax."""


class TruncatedQuantile(AllocationError):
    """Requested quantile level exceeds the mass reachable on the stored grid."""


class BoundaryUnderflow(AllocationError):
    """A quantile boundary atom is masked invalid; names the offending lattice point."""


class ConfigError(AllocationError):
    """Scenario file fails schema validation; message carries the field path."""


class UnknownCase(AllocationError):
    """Reproduction case name not in the shipped catalogue."""


class AliasingRisk(UserWarning):
    """Transform length may be too short for the portfolio support; results can wrap."""
