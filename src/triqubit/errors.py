"""Exception and warning types shared across the package."""


class TriqubitError(Exception):
    """Base class for all package-specific errors."""


class DomainError(TriqubitError, ValueError):
    """Input outside the physical or numerical domain of an operation."""


class NumericalConsistencyError(TriqubitError):
    """A redundant computation disagreed beyond its stated tolerance."""


class ClusteringError(TriqubitError):
    """Bohr-frequency clusters overlap; move the parameters apart."""


class DegenerateSteadyStateError(TriqubitError):
    """The generator has a null space of dimension != 1."""


class ImpossibleCurrentsError(TriqubitError):
    """All three bath currents share one strict sign, violating the first law."""


class SecularValidityWarning(UserWarning):
    """A coupling rate is not small against the Bohr-frequency spacing."""


class ZeroModeWarning(UserWarning):
    """A non-negligible zero-frequency part was discarded from a jump set."""


class ExactCurrentsWarning(UserWarning):
    """The heat currents were recomputed in exact arithmetic to meet the first law."""
