"""Exception hierarchy shared by all chargraph modules."""


class ChargraphError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ChargraphError, ValueError):
    """Inputs violate a documented precondition (domain, shape, divisibility)."""


class DeskScaleError(ChargraphError):
    """An exact computation was requested beyond its enumeration guard.

    Raised instead of silently sampling or approximating.
    """


class ModelIntegrityError(ChargraphError):
    """A model formula produced a mass vector that fails normalization checks."""


class DecodeError(ChargraphError):
    """Encodings do not determine the demanded outputs (collision or coverage gap)."""


class MisStructureError(ChargraphError):
    """A graph lacks the two-maximal-independent-set structure a bound requires."""
