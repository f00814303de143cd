"""Exception hierarchy shared across the package."""


class VasosimError(Exception):
    """Base class for all package-specific errors."""


class DomainError(VasosimError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class StabilityError(VasosimError):
    """A time step violates the stability limit of an explicit scheme."""


class SimulationError(VasosimError):
    """The flow solver produced a non-physical or non-finite state."""

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class EstimationError(VasosimError):
    """A signal estimate could not be formed from the given traces."""


class LowConfidenceError(EstimationError):
    """Cross-correlation peak fell below the configured confidence floor."""


class ConfigurationError(VasosimError):
    """Invalid run configuration or file format."""


class NumericalError(VasosimError):
    """A numerical evaluation produced a non-finite value."""


class ProviderError(VasosimError):
    """A likelihood provider failed to answer a query."""


class ProviderTimeoutError(ProviderError):
    """The remote provider did not answer within the configured timeout."""


class TransportError(ProviderError):
    """The remote provider answered with a non-2xx HTTP status."""


class ProtocolError(ProviderError):
    """The provider returned a value violating the wire contract."""


class CurveError(ProviderError):
    """A per-step provider failure while building a likelihood curve."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class SolverNotFoundError(VasosimError, KeyError):
    """Requested solver name is not the one the package ships."""


class CorruptionError(VasosimError):
    """Dataset file content does not match its recorded checksum."""


class VersionError(VasosimError):
    """Dataset manifest carries an unsupported format version."""
